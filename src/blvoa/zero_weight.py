"""Oracle for the zero-weight polynomial span P_0.

The adjoint submodule R of U(g) generated by the raising-operator image v
of the singular vector is V(2n eps_1) with highest-weight vector v.  P_0,
the polynomial span that cuts out the classified highest weights (the
Adamović–Milas method), is the Harish-Chandra projection of the
zero-weight space R_0: the pure-Cartan part of the f·h·e normal form,
which kills n_-U(g) (Dixmier, *Enveloping Algebras*, ch. 7).

R_0 is built from words, not by descent.  2n eps_1 is a multiple of
omega_1, and the parabolic of alpha_1 has the abelian nilradical
u = span{e_{eps_1}, e_{eps_1 +- eps_j}} (2 eps_1 is not a root), whose
Levi fixes the line of v, so V(2n eps_1) = S(u_-)·v.  Its weight-0 part
is spanned by the ad(F_k)·v, one word
F_k = prod_j f_{eps_1+eps_j}^{k_j} · f_{eps_1}^{2 k_1} · prod_j f_{eps_1-eps_j}^{k_j}
per composition k of n into l parts: C(n+l-1, l-1) words, the
multiplicity of 0 in V(2n eps_1).  The words are applied in the right
module U(g)/n_-U(g), whose basis is the monomials in h and n_+ alone
(n_-U(g) is a right ideal, spanned by the monomials that start with a
lowering letter).  There ad(f)·x is -x·f, because f·x lies in n_-U(g),
and ad(f) maps n_-U(g) into itself, so ad(F)·v is v·F, a product of 2n
commuting letters with the sign (-1)^{2n} = 1, built one right
multiplication at a time (``UEA.right_multiply``) on the quotient as the
free U(h)-module on the raising monomials E, each element a map
E -> p_E(h); no n_-U(g) term is built.
The letters commute, so their order sets only the cost: the plus letters
first and the minus letters last feed 2-3 times fewer terms to each step
than the reverse order.
At weight 0 a monomial of the quotient has no lowering letter, so it has
no raising letter either: each v·F_k is p_E at E = 1 alone, a polynomial
in h_1..h_l, and the projection is the identity on it.
Three checks guard the result: every ad(e_i) kills v, the weight
multiplicities of V(2n eps_1) sum to its Weyl dimension, and the words
reach the full rank of R_0, so they are a basis and R_0 maps injectively
into the quotient.  The explicit closed-form polynomials are transcribed
independently so membership can be cross-checked.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Iterable, Sequence

from .affine import u_terms
from .liealg import LieAlgebra
from .rootsys import Root, Weight, eps_root, harmonic_multiplicities, int_coroot
from .uea import (
    UEA,
    CartanPolynomial,
    Echelon,
    UEAElement,
    falling,
    grlex,
    h_alpha_poly,
)

DEFAULT_DIM_CEILING = 2000


class OracleCeilingExceeded(RuntimeError):
    """The oracle words would build more vectors than the configured
    ceiling."""


def singular_image(engine: UEA, n: int) -> UEAElement:
    """u^n in U(g), u = sum c e_alpha e_beta over affine.u_terms."""
    base = engine.zero()
    for c, alpha, beta in u_terms(engine.lie.rank):
        base = base + c * engine.multiply(engine.e(alpha), engine.e(beta))
    return engine.power(base, n)


def _compositions(n: int, m: int) -> Iterable[tuple[int, ...]]:
    """All tuples of m nonnegative integers summing to n."""
    if m == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, m - 1):
            yield (first,) + rest


def _words(l: int, n: int) -> list[tuple[Root, ...]]:
    """The words F_k of S(u_-), one per composition k of n into l parts,
    each as the roots of its letters in the order they are applied:
    f_{eps_1+eps_j}^{k_j}, then f_{eps_1}^{2 k_1}, then f_{eps_1-eps_j}^{k_j},
    the roots of u's terms (affine.u_terms)."""
    (_, short, _), *pairs = u_terms(l)
    words = []
    for ks in _compositions(n, l):
        word = [plus for (_, _, plus), k in zip(pairs, ks[1:]) for _ in range(k)]
        word += [short] * (2 * ks[0])
        word += [minus for (_, minus, _), k in zip(pairs, ks[1:]) for _ in range(k)]
        words.append(tuple(word))
    return words


def generate_module(
    engine: UEA, n: int, ceiling: int = DEFAULT_DIM_CEILING
) -> Echelon:
    """R_0 as one grlex echelon of Cartan polynomials, one per vector
    ad(F_k)·v = v·F_k in U(g)/n_-U(g), v the singular image in integers
    and F_k the words of S(u_-) (``_words``), each distinct prefix
    computed once by ``UEA.right_multiply`` and dropped once its last
    extension is built (every word has 2n letters, so none is a prefix of
    another).  v·F_k is filed as its coefficient p_E at E = 1; any other
    raising monomial E left raises RuntimeError, naming its first letter.

    OracleCeilingExceeded is raised before any work when the prefixes
    number more than the ceiling.  Three checks raise RuntimeError: the
    weight multiplicities of V(2n eps_1) sum to its Weyl dimension (two
    closed forms in rootsys, no engine output), every ad(e_i) kills v (a
    wrong structure constant or singular image), and R_0 closes at the
    multiplicity of 0 there, C(n+l-1, l-1) (a wrong word or step).
    """
    lie = engine.lie
    l = lie.rank
    top = (2 * n,) + (0,) * (l - 1)
    targets = harmonic_multiplicities(l, 2 * n)
    if sum(targets.values()) != lie.rootsys.weyl_dim(Weight(top)):
        raise RuntimeError(
            f"weight multiplicities of V({2 * n} eps_1) do not sum to its"
            " Weyl dimension"
        )
    words = _words(l, n)
    # each prefix after its own prefix, so its parent is built first
    prefixes = dict.fromkeys(w[:i] for w in words for i in range(1, len(w) + 1))
    if len(prefixes) > ceiling:
        raise OracleCeilingExceeded(
            f"oracle words build {len(prefixes)} vectors, over ceiling {ceiling}"
        )
    v = UEAElement(engine, Echelon().insert(singular_image(engine, n).terms))
    if any(not engine.ad(engine.e(a), v).is_zero() for a in lie.rootsys.simple_roots):
        raise RuntimeError("singular image is not a highest-weight vector")
    zero = (0,) * l
    built = {(): {mono: {zero: c} for mono, c in v.terms.items()}}
    extensions = Counter(p[:-1] for p in prefixes)   # of each prefix, still to build
    for p in prefixes:
        parent = p[:-1]
        built[p] = engine.right_multiply(built[parent], lie.f(p[-1]).index)
        extensions[parent] -= 1
        if not extensions[parent]:
            del built[parent]
    r0 = Echelon(order=grlex)
    for word in words:
        stray = next((mono for mono in built[word] if mono), None)
        if stray:
            raise RuntimeError(
                f"word result has the letter {lie.basis[stray[0][0]]} outside the Cartan"
            )
        r0.insert(built[word].get((), {}))
    if r0.dim != targets[zero]:
        raise RuntimeError(
            f"weight space {zero} closed at dimension {r0.dim},"
            f" target {targets[zero]}"
        )
    return r0


def p0_basis(
    engine: UEA, n: int, ceiling: int = DEFAULT_DIM_CEILING
) -> list[CartanPolynomial]:
    """Canonical basis of the highest-weight polynomials of the zero-weight
    space: the reduced grlex rows of ``generate_module``."""
    rows = generate_module(engine, n, ceiling).rows()
    return [CartanPolynomial(engine.lie.rank, row) for row in rows]


# ---------------------------------------------------------------------------
# explicit closed-form polynomials
# ---------------------------------------------------------------------------


def explicit_p(lie: LieAlgebra, i: int, n: int) -> CartanPolynomial:
    """The i-th classifying polynomial (1-based, 1 <= i <= l).

    For i < l:  h_i (h_i - 1) ... (h_i - n + 1) times the falling chain of
    h_{eps_i + eps_{i+1}} from shift -(l - i - 1/2) of length n.
    For i = l:  h_l (h_l - 1) ... (h_l - 2n + 1).
    """
    l = lie.rank
    if not 1 <= i <= l:
        raise ValueError("index out of range")
    if i == l:
        return falling(CartanPolynomial.variable(l, l), 2 * n)
    head = falling(CartanPolynomial.variable(l, i), n)
    hsum = h_alpha_poly(lie, eps_root(l, i, i + 1, 1))
    offset = Fraction(2 * (l - i) - 1, 2)   # l - i - 1/2
    tail = falling(hsum + offset, n)
    return head * tail


# (alpha, coroot, length, start)
QChain = tuple[tuple[int, ...], tuple[int, ...], int, int]


def q_terms(rank: int, n: int) -> list[tuple[int, list[QChain]]]:
    """q as a sum over the compositions (k_1..k_l) of n, each term given as
    (k_1, chains): the coefficient 1/(k_1! 4^{k_1}) times the falling chains
    (alpha, coroot, length, start) of h_alpha, alpha and its coroot in
    integer eps-coordinates, each coroot computed once per call.

    Each term has a chain of h_{eps_1} of length 2 k_1 starting at shift
    2(n - k_1) and, for each j = 2..l with k_j > 0, a chain of
    h_{eps_1 - eps_j} of length k_j starting at shift k_2 + ... + k_{j-1}.
    This list is the one source of q: explicit_q expands it, q_numerator
    evaluates it.
    """
    (_, short, _), *pairs = u_terms(rank)
    alphas = [short.eps] + [minus.eps for _, minus, _ in pairs]
    roots = [(alpha, int_coroot(alpha)) for alpha in alphas]
    out = []
    for ks in _compositions(n, rank):
        chains = [(*roots[0], 2 * ks[0], 2 * (n - ks[0]))]
        for j in range(2, rank + 1):
            if ks[j - 1]:
                chains.append((*roots[j - 1], ks[j - 1], sum(ks[1 : j - 1])))
        out.append((ks[0], chains))
    return out


def explicit_q(lie: LieAlgebra, n: int) -> CartanPolynomial:
    """The short-root-direction polynomial, expanded from q_terms."""
    l = lie.rank
    total = CartanPolynomial(l, {})
    for k1, chains in q_terms(l, n):
        term = CartanPolynomial.constant(l, 1)
        for alpha, _, length, start in chains:
            term = term * falling(h_alpha_poly(lie, Root(alpha)), length, start=start)
        total = total + Fraction(1, math.factorial(k1) * 4**k1) * term
    return total


def q_numerator(
    terms: list[tuple[int, list[QChain]]], n: int, eps: Sequence[int], d: int
) -> int:
    """4^n n! d^{2n} q(mu) for mu = eps / d (integer eps, d > 0), an integer.

    q is evaluated from its product form (q_terms): <mu, alpha^vee> d is the
    integer p = (alpha^vee, eps), a chain of length m from s is
    prod (p - t d) / d^m over t = s..s+m-1, and a term has degree n + k_1,
    so scaling it by 4^{n-k_1} (n!/k_1!) d^{n-k_1} clears every denominator.
    """
    pairing: dict[tuple[int, ...], int] = {}
    total = 0
    for k1, chains in terms:
        term = math.factorial(n) // math.factorial(k1) * (4 * d) ** (n - k1)
        for _, coroot, length, start in chains:
            p = pairing.get(coroot)
            if p is None:
                p = pairing[coroot] = sum(a * x for a, x in zip(coroot, eps))
            for t in range(start, start + length):
                term *= p - t * d
        total += term
    return total


def explicit_polys(lie: LieAlgebra, n: int) -> list[CartanPolynomial]:
    return [explicit_p(lie, i, n) for i in range(1, lie.rank + 1)]


def verify_membership(
    lie: LieAlgebra, n: int, span: Iterable[CartanPolynomial]
) -> bool:
    """All explicit polynomials (p_1..p_l and q) lie in span."""
    echelon = Echelon()
    for p in span:
        echelon.insert(p.terms)
    explicit = explicit_polys(lie, n) + [explicit_q(lie, n)]
    return not any(echelon.reduce(p.terms) for p in explicit)
