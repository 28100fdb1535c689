"""Companions of the rewriting identities and small helpers that no src
code calls: adjoint words and the multinomial adjoint power in U(g), the
commuting-monomial check, a Cartan polynomial at a weight, span membership
of Cartan polynomials, the pure-Cartan part of a zero-weight element of
U(g), the U(g) image of a mode -1 vacuum-module vector and
the Chevalley generators.  The tests check the engine against them."""

import functools
import math
from fractions import Fraction
from typing import Iterable, Sequence

from blvoa.affine import VermaVector
from blvoa.liealg import BasisElement, LieAlgebra
from blvoa.rootsys import Root, Weight
from blvoa.uea import MIXED, UEA, CartanPolynomial, Echelon, Rat, UEAElement
from blvoa.zero_weight import _compositions


def ad_word(engine: UEA, letters: Sequence[UEAElement], y: UEAElement) -> UEAElement:
    """Adjoint action of the product of the letters: innermost acts first."""
    for x in reversed(letters):
        y = engine.ad(x, y)
    return y


def ad_power_multinomial(
    engine: UEA, x: UEAElement, n: int, factors: Sequence[UEAElement]
) -> UEAElement:
    """Adjoint power computed by distributing over a factorization.

    Sums multinomial(n; k_1..k_m) * prod_i ad^{k_i}(x)(Y_i) over all
    compositions; must agree with engine.ad_power(x, n, prod(Y_i)).
    """
    total = engine.zero()
    for ks in _compositions(n, len(factors)):
        coeff = math.factorial(n) // math.prod(map(math.factorial, ks))
        piece = engine.one()
        for k, y in zip(ks, factors):
            piece = engine.multiply(piece, engine.ad_power(x, k, y))
        total = total + coeff * piece
    return total


def check_commuting_monomials(
    engine: UEA, betas: Sequence[Root], gammas: Sequence[Root]
) -> bool:
    """Adjoint action of commuting raising/lowering monomials on each other.

    With Y1 = prod e_beta (pairwise commuting), Y2 = prod f_gamma (pairwise
    commuting) and equal root sums, both (Y1)_L Y2 - Y1*Y2 and
    (Y2)_L Y1 - (-1)^m Y1*Y2 must lie in U(g)n_+.
    """
    zero = Weight([0] * engine.lie.rank)
    if sum(betas, zero) != sum(gammas, zero):
        raise ValueError("root sums differ")
    e_letters = [engine.e(b) for b in betas]
    f_letters = [engine.f(g) for g in gammas]
    for xs in (e_letters, f_letters):
        for i in range(len(xs)):
            for j in range(i + 1, len(xs)):
                if not engine.ad(xs[i], xs[j]).is_zero():
                    raise ValueError("letters do not commute")
    y1 = functools.reduce(engine.multiply, e_letters, engine.one())
    y2 = functools.reduce(engine.multiply, f_letters, engine.one())
    prod = engine.multiply(y1, y2)
    lhs1 = ad_word(engine, e_letters, y2)
    if not engine.reduce_mod_nplus(lhs1 - prod).is_zero():
        return False
    sign = (-1) ** len(gammas)
    lhs2 = ad_word(engine, f_letters, y1)
    return engine.reduce_mod_nplus(lhs2 - sign * prod).is_zero()


def evaluate_weight(p: CartanPolynomial, mu: Weight) -> Fraction:
    """p at the weight mu, through its fundamental coordinates."""
    return p.evaluate(mu.fundamental())


def poly_in_span(p: CartanPolynomial, polys: Iterable[CartanPolynomial]) -> bool:
    """Whether p is a linear combination of polys."""
    span = Echelon()
    for q in polys:
        span.insert(q.terms)
    return not span.reduce(p.terms)


def hw_polynomial(engine: UEA, r: UEAElement) -> CartanPolynomial:
    """Eigenvalue polynomial of a zero-weight element on highest-weight
    vectors: the pure-Cartan part of the PBW normal form (the Harish-Chandra
    projection)."""
    w = engine.weight_of(r)
    if w == MIXED or any(w.eps):
        raise ValueError("element does not have weight zero")
    l = engine.lie.rank
    coeffs: dict[tuple[int, ...], Rat] = {}
    for mono, c in r.terms.items():
        # a zero-weight monomial with a lowering letter has a raising one
        if any(idx >= engine.e_start for idx, _ in mono):
            continue
        exps = [0] * l
        for idx, p in mono:
            exps[idx - engine.h_start] = p
        coeffs[tuple(exps)] = c
    return CartanPolynomial(l, coeffs)


def to_quotient(engine: UEA, r: UEAElement) -> dict:
    """r, given in the basis of U(g)/n_-U(g) (monomials H·E with no
    lowering letter), as the map {E: {h exponents of H: coefficient}}."""
    out: dict = {}
    for mono, c in r.terms.items():
        k = sum(idx < engine.e_start for idx, _ in mono)
        exps = [0] * engine.lie.rank
        for idx, p in mono[:k]:
            exps[idx - engine.h_start] = p
        out.setdefault(mono[k:], {})[tuple(exps)] = c
    return out


def from_quotient(engine: UEA, y: dict) -> UEAElement:
    """The map {E: {h exponents: coefficient}} as an element of U(g) in the
    basis of U(g)/n_-U(g): each term h^exps·E as its monomial."""
    return UEAElement(
        engine,
        {
            tuple((engine.h_start + i, p) for i, p in enumerate(exps) if p) + mono: c
            for mono, poly in y.items()
            for exps, c in poly.items()
        },
    )


def fz_image(v: VermaVector, engine: UEA) -> UEAElement:
    """Image of a mode -1 creation vector in U(g): reversed word product.

    Only words x_1(-1)...x_m(-1).1 are supported; the general map carries a
    sign (-1)^(sum of deeper modes) that is identically 1 here.
    """
    out = engine.zero()
    for word, c in v.terms.items():
        if any(mode != -1 for mode, _ in word):
            raise ValueError("fz_image supports mode -1 words only")
        piece = engine.one()
        for _, idx in reversed(word):
            piece = engine.multiply(piece, engine.gen(engine.lie.basis[idx]))
        out = out + c * piece
    return out


def chevalley_generators(lie: LieAlgebra) -> tuple[list[BasisElement], ...]:
    """(e_1..e_l, f_1..f_l, h_1..h_l) as basis elements."""
    simple = lie.rootsys.simple_roots
    es = [lie.e(a) for a in simple]
    fs = [lie.f(a) for a in simple]
    hs = [lie.h(i) for i in range(1, lie.rank + 1)]
    return es, fs, hs
