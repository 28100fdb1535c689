"""PBW normal-ordering arithmetic in the universal enveloping algebra.

Elements are finite rational combinations of PBW monomials over the fixed
basis order of :class:`~blvoa.liealg.LieAlgebra`: lowering vectors first,
then Cartan, then raising vectors.  With that order a monomial lies in
U(g)n_+ exactly when its raising block is nonempty, and in n_-U(g) exactly
when its first letter is lowering, so reduction modulo U(g)n_+ is a
syntactic filter, and U(g)/n_-U(g) has the monomials with no lowering
letter as its basis.  A zero-weight monomial with no lowering letter has
no raising letter either, so a zero-weight element of that quotient is a
polynomial in h_1..h_l: the Harish-Chandra projection, the pure-Cartan
part of the normal form, is the identity there.

Normalization inserts one letter at a time into a normal-ordered monomial,
commuting it past each smaller letter through the integer bracket table,
and memoizes each insertion on (letter, monomial); a product of monomials
inserts the letters of the left one, last first, into the right one.  The
adjoint action of a letter x on a monomial head·rest follows the Leibniz
rule [x, head·rest] = head·[x, rest] + [x, head]·rest, memoized on
(monomial, letter) in the same table, so it never builds x·m or m·x.  On
the right module U(g)/n_-U(g), ad(f)·y is -y·f, as f·y lies in n_-U(g).
By PBW that quotient is the free left U(h)-module on the raising
monomials E, so an element is a map E -> p_E(h), and y·x acts on E alone:
E·x is inserted from the right by rest·last·x = (rest·x)·last +
rest·[last, x], memoized on (E, letter, None), a lowering letter that
reaches the empty front gives 0, and the h letters of each term of E·x
multiply p_E; no n_-U(g) term is ever built.  A configurable term-count
guard bounds each insertion, each bracket, each monomial product and each
right multiplication.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union

from .liealg import BasisElement, LieAlgebra, add_into
from .rootsys import Root, Weight, eps_root, exact

Rat = Union[int, Fraction]
Monomial = tuple[tuple[int, int], ...]   # ((basis index, power), ...) increasing

DEFAULT_TERM_GUARD = 5_000_000

MIXED = "mixed"


class TermGuardExceeded(RuntimeError):
    """Raised when a normalization exceeds the configured term budget."""

    def __init__(self, phase: str, reached: int, guard: int):
        super().__init__(f"{phase} reached {reached} terms, over the guard {guard}")


class Sparse:
    """A finite map from keys to nonzero coefficients, with vector
    arithmetic; a coefficient is an int or a Fraction and is never converted.

    A subclass fixes the space its elements live in: ``_new`` builds an
    element of the same space and ``_space`` is what, besides the terms,
    equality compares.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {k: c for k, c in terms.items() if c != 0}

    def _space(self):
        return None

    def is_zero(self) -> bool:
        return not self.terms

    def term_count(self) -> int:
        return len(self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            add_into(out, k, c)
        return self._new(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            add_into(out, k, -c)
        return self._new(out)

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def __mul__(self, scalar: Rat):
        exact(scalar)
        return self._new({k: scalar * c for k, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and self._space() == other._space()
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self._space(), frozenset(self.terms.items())))


class Echelon:
    """Fraction-free echelon basis of a span of sparse vectors {key: coeff}.

    A stored row is a primitive integer vector (gcd 1) filed under its pivot,
    its largest key under ``order``; no two rows share a pivot, and a row
    never changes once stored.  ``rows()`` is the canonical reduced basis.
    """

    def __init__(self, order: Optional[Callable] = None):
        self.order = order
        self.pivots: dict = {}

    def reduce(self, terms: dict) -> dict:
        """terms in integers, its largest key cancelled until it is no pivot."""
        d = math.lcm(*(c.denominator for c in terms.values()))
        work = {k: c.numerator * (d // c.denominator) for k, c in terms.items() if c}
        while work:
            lead = max(work, key=self.order)
            row = self.pivots.get(lead)
            if row is None:
                break
            g = math.gcd(work[lead], row[lead])
            a, b = row[lead] // g, work[lead] // g
            work = {k: a * c for k, c in work.items()}
            for k, c in row.items():
                add_into(work, k, -b * c)
        return work

    def insert(self, terms: dict) -> Optional[dict]:
        """Reduce and, if independent, store and return the remainder divided
        by its gcd."""
        work = self.reduce(terms)
        if not work:
            return None
        g = math.gcd(*work.values())
        row = {k: c // g for k, c in work.items()}
        self.pivots[max(row, key=self.order)] = row
        return row

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def rows(self) -> list[dict]:
        """The reduced echelon basis, sorted by ``order``, lead coefficients 1."""
        out: dict = {}
        for p in sorted(self.pivots, key=self.order):
            row = self.pivots[p]
            work = {k: Fraction(c, row[p]) for k, c in row.items()}
            for q, prev in out.items():
                c = work.get(q)
                if c:
                    for k, v in prev.items():
                        add_into(work, k, -c * v)
            out[p] = work
        return list(out.values())


class UEAElement(Sparse):
    """A finite map from PBW monomials to nonzero rational coefficients."""

    __slots__ = ("engine",)

    def __init__(self, engine: "UEA", terms: dict[Monomial, Rat]):
        self.engine = engine
        super().__init__(terms)

    def _new(self, terms: dict[Monomial, Rat]) -> "UEAElement":
        return UEAElement(self.engine, terms)

    def _space(self) -> int:
        return self.engine.lie.rank

    def __mul__(self, other):
        if isinstance(other, UEAElement):
            return self.engine.multiply(self, other)
        return super().__mul__(other)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for mono in sorted(self.terms):
            c = self.terms[mono]
            if mono == ():
                bits.append(f"{c}")
                continue
            word = "*".join(
                f"{self.engine.lie.basis[i]}" + (f"^{p}" if p > 1 else "")
                for i, p in mono
            )
            bits.append(f"{c}*{word}" if c != 1 else word)
        return " + ".join(bits)


class UEA:
    """Normal-ordering engine for U(g) over a fixed LieAlgebra.

    Elements are immutable; the memo table of insertions, keyed
    (letter, monomial), of brackets, keyed (monomial, letter), and of right
    insertions E·x modulo n_-U(g), keyed (raising monomial E, letter, None),
    is append-only, so concurrent readers always observe identical
    canonical forms.  ``right_multiply`` reads E·x from it once per E of
    an element of U(g)/n_-U(g) held as E -> p_E(h); on that quotient
    ad(f)·y = -y·f.
    """

    def __init__(self, lie: LieAlgebra, term_guard: int = DEFAULT_TERM_GUARD):
        self.lie = lie
        self.term_guard = term_guard
        self.nbasis = len(lie.basis)
        self.h_start = lie.h_start
        self.e_start = lie.e_start
        self.brackets = lie.structure_constants()
        self.weights = lie.weights
        self._mono_cache: dict[tuple, dict[Monomial, int]] = {}

    # -- constructors -------------------------------------------------------

    def zero(self) -> UEAElement:
        return UEAElement(self, {})

    def one(self) -> UEAElement:
        return UEAElement(self, {(): 1})

    def gen(self, b: BasisElement, power: int = 1) -> UEAElement:
        if power < 0:
            raise ValueError("negative power")
        if power == 0:
            return self.one()
        return UEAElement(self, {((b.index, power),): 1})

    def e(self, alpha: Root, power: int = 1) -> UEAElement:
        return self.gen(self.lie.e(alpha), power)

    def f(self, alpha: Root, power: int = 1) -> UEAElement:
        return self.gen(self.lie.f(alpha), power)

    def h(self, i: int, power: int = 1) -> UEAElement:
        return self.gen(self.lie.h(i), power)

    def element(self, terms: dict[Monomial, Rat]) -> UEAElement:
        return UEAElement(self, {m: exact(c) for m, c in terms.items()})

    def from_cartan(self, poly: "CartanPolynomial") -> UEAElement:
        """The image of a polynomial in h_1..h_l inside U(g)."""
        return UEAElement(
            self,
            {
                tuple((self.h_start + i, p) for i, p in enumerate(exps) if p > 0): c
                for exps, c in poly.terms.items()
            },
        )

    # -- multiplication ------------------------------------------------------

    def multiply(self, a: UEAElement, b: UEAElement) -> UEAElement:
        out: dict[Monomial, Rat] = {}
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                c12 = c1 * c2
                for m, c in self._mono_mul(m1, m2).items():
                    add_into(out, m, c12 * c)
        return UEAElement(self, self._guard(out))

    def power(self, a: UEAElement, n: int) -> UEAElement:
        if n < 0:
            raise ValueError("negative power")
        out = self.one()
        for _ in range(n):
            out = self.multiply(out, a)
        return out

    def _mono_mul(self, m1: Monomial, m2: Monomial) -> dict[Monomial, int]:
        """m1·m2 in PBW normal form: the letters of m1, last first, inserted
        into m2."""
        out = {m2: 1}
        for idx, p in reversed(m1):
            for _ in range(p):
                out = self._guard(self._insert_each(idx, out))
        return out

    def _insert(self, x: int, mono: Monomial) -> dict[Monomial, int]:
        """x·mono in PBW normal form."""
        if not mono or x < mono[0][0]:
            return {((x, 1),) + mono: 1}
        head, p = mono[0]
        if x == head:
            return {((x, p + 1),) + mono[1:]: 1}
        key = (x, mono)
        cached = self._mono_cache.get(key)
        if cached is None:
            rest = ((head, p - 1),) + mono[1:] if p > 1 else mono[1:]
            # x·head·rest = head·(x·rest) + [x, head]·rest
            out = self._insert_each(head, self._insert(x, rest))
            self._add_bracket_times(out, x, head, rest)
            cached = self._mono_cache[key] = self._guard(out)
        return cached

    def _add_bracket_times(self, out: dict, x: int, head: int, rest: Monomial):
        """out += [x, head]·rest, the term both recursions share."""
        for k, c in self.brackets[(x, head)].items():
            for m, c2 in self._insert(k, rest).items():
                add_into(out, m, c * c2)

    def _insert_each(self, x: int, terms: dict) -> dict[Monomial, int]:
        """x·terms, inserting x into each monomial."""
        out: dict[Monomial, int] = {}
        for mono, c in terms.items():
            for m, c2 in self._insert(x, mono).items():
                add_into(out, m, c * c2)
        return out

    def _guard(self, out: dict) -> dict:
        if len(out) > self.term_guard:
            raise TermGuardExceeded("U(g) normalization", len(out), self.term_guard)
        return out

    # -- adjoint action -------------------------------------------------------

    def ad(self, x: UEAElement, y: UEAElement) -> UEAElement:
        """[x, y] for x in g: the sum of c·c'·[letter, m] over the terms
        c·letter of x and c'·m of y, each bracket by the Leibniz rule.  A
        monomial of x that is not one letter to the first power is a
        ValueError."""
        out: dict[Monomial, Rat] = {}
        for mx, cx in x.terms.items():
            if len(mx) != 1 or mx[0][1] != 1:
                raise ValueError("ad(x) needs x in g: one letter per monomial")
            for my, cy in y.terms.items():
                c = cx * cy
                for m, c2 in self._bracket(mx[0][0], my).items():
                    add_into(out, m, c * c2)
        return UEAElement(self, self._guard(out))

    def _bracket(self, x: int, mono: Monomial) -> dict[Monomial, int]:
        """[x, mono] in PBW normal form, memoized on (mono, x)."""
        if not mono:
            return {}
        key = (mono, x)
        cached = self._mono_cache.get(key)
        if cached is None:
            head, p = mono[0]
            rest = ((head, p - 1),) + mono[1:] if p > 1 else mono[1:]
            # [x, head·rest] = head·[x, rest] + [x, head]·rest
            out = self._insert_each(head, self._bracket(x, rest))
            self._add_bracket_times(out, x, head, rest)
            cached = self._mono_cache[key] = self._guard(out)
        return cached

    def right_multiply(self, y: dict, x: int) -> dict:
        """y·x in U(g)/n_-U(g) for the basis letter x, the quotient taken as
        the free left U(h)-module on the raising monomials: y maps each
        raising monomial E to its coefficient p_E(h), a map
        {h-exponent tuple: coefficient}.  p_E·E·x is p_E times the memoized
        E·x, whose terms are H·E' with H in U(h), so the exponents of H
        are added to each exponent of p_E and the term filed under E'.
        The guard counts the monomials H·E of the result."""
        h, rank = self.h_start, self.lie.rank
        out: dict = {}
        for mono, poly in y.items():
            for m, c in self._right_insert_raising(x, mono).items():
                k = bisect.bisect_left(m, (self.e_start,))
                shift = [0] * rank
                for idx, p in m[:k]:
                    shift[idx - h] = p
                target = out.setdefault(m[k:], {})
                for exps, c2 in poly.items():
                    add_into(target, tuple(map(operator.add, exps, shift)), c * c2)
        out = {mono: poly for mono, poly in out.items() if poly}
        size = sum(map(len, out.values()))
        if size > self.term_guard:
            raise TermGuardExceeded("U(g) normalization", size, self.term_guard)
        return out

    def _right_insert_raising(self, x: int, mono: Monomial) -> dict[Monomial, int]:
        """mono·x in U(g)/n_-U(g) for mono in U(n_+), memoized on
        (mono, x, None)."""
        if not mono:
            return {} if x < self.h_start else {((x, 1),): 1}
        last, p = mono[-1]
        if x > last:
            return {mono + ((x, 1),): 1}
        if x == last:
            return {mono[:-1] + ((x, p + 1),): 1}
        key = (mono, x, None)
        cached = self._mono_cache.get(key)
        if cached is None:
            rest = mono[:-1] + ((last, p - 1),) if p > 1 else mono[:-1]
            # rest·last·x = (rest·x)·last + rest·[last, x]
            out: dict[Monomial, int] = {}
            for m, c in self._right_insert_raising(x, rest).items():
                # m is H·E'', and E''·last, raising, has no h letter
                k = bisect.bisect_left(m, (self.e_start,))
                for m2, c2 in self._right_insert_raising(last, m[k:]).items():
                    add_into(out, m[:k] + m2, c * c2)
            for k, c in self.brackets[(last, x)].items():
                for m, c2 in self._right_insert_raising(k, rest).items():
                    add_into(out, m, c * c2)
            cached = self._mono_cache[key] = self._guard(out)
        return cached

    def ad_power(self, x: UEAElement, n: int, y: UEAElement) -> UEAElement:
        """n-fold iterated commutator action of x on y."""
        if n < 0:
            raise ValueError("negative adjoint power")
        for _ in range(n):
            y = self.ad(x, y)
        return y

    # -- reductions and gradings ----------------------------------------------

    def reduce_mod_nplus(self, r: UEAElement) -> UEAElement:
        """Drop every monomial whose raising block is nonempty."""
        kept = {
            m: c
            for m, c in r.terms.items()
            if all(idx < self.e_start for idx, _ in m)
        }
        return UEAElement(self, kept)

    def weight_of(self, r: UEAElement):
        """Common ad-h weight of all monomials, or the string "mixed"."""
        zero = (0,) * self.lie.rank

        def mono_weight(mono: Monomial) -> tuple[int, ...]:
            w = zero
            for idx, p in mono:
                w = tuple(a + p * b for a, b in zip(w, self.weights[idx]))
            return w

        w = _common_grading(map(mono_weight, r.terms), zero)
        return w if w == MIXED else Weight(w)


def _common_grading(gradings: Iterable, default):
    """The value every grading equals, default if there are none, or MIXED."""
    it = iter(gradings)
    first = next(it, default)
    return first if all(g == first for g in it) else MIXED


# ---------------------------------------------------------------------------
# polynomials on the Cartan subalgebra
# ---------------------------------------------------------------------------


def _powers(x: int, k: int) -> list[int]:
    """[1, x, x^2, ..., x^k]."""
    out = [1]
    for _ in range(k):
        out.append(out[-1] * x)
    return out


class CartanPolynomial(Sparse):
    """Polynomial in the commuting variables h_1..h_l over the rationals.

    Stored as a map from exponent tuples to coefficients, always expanded.
    Evaluation substitutes the fundamental coordinates of a weight, i.e.
    h_i |-> <mu, alpha_i^vee>.
    """

    __slots__ = ("rank",)

    def __init__(self, rank: int, coeffs: dict[tuple[int, ...], Rat]):
        self.rank = rank
        super().__init__({e: exact(c) for e, c in coeffs.items()})

    def _new(self, terms: dict[tuple[int, ...], Rat]) -> "CartanPolynomial":
        return CartanPolynomial(self.rank, terms)

    def _space(self) -> int:
        return self.rank

    @classmethod
    def constant(cls, rank: int, c: Rat) -> "CartanPolynomial":
        return cls(rank, {(0,) * rank: c})

    @classmethod
    def variable(cls, rank: int, i: int) -> "CartanPolynomial":
        """h_i, 1-based."""
        if not 1 <= i <= rank:
            raise ValueError(f"no variable h_{i} in rank {rank}, need 1 <= i <= {rank}")
        return cls(rank, {tuple(int(j == i - 1) for j in range(rank)): 1})

    def __add__(self, other) -> "CartanPolynomial":
        return super().__add__(self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other) -> "CartanPolynomial":
        return super().__sub__(self._coerce(other))

    def __rsub__(self, other) -> "CartanPolynomial":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other) -> "CartanPolynomial":
        if not isinstance(other, CartanPolynomial):
            return super().__mul__(other)
        out: dict[tuple[int, ...], Rat] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                add_into(out, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return CartanPolynomial(self.rank, out)

    def _coerce(self, other) -> "CartanPolynomial":
        if isinstance(other, CartanPolynomial):
            return other
        return CartanPolynomial.constant(self.rank, other)

    def evaluate(self, fundamental: Sequence[Rat]) -> Fraction:
        """Value at h_i = fundamental[i-1], summed in integers.

        With h_i = n_i / d over a common denominator d, C the common
        denominator of the coefficients and top the degree, a term c h^p is
        (c C) n^p d^(top - |p|) / (C d^top) with c C an integer.  Each power
        n_i^j and d^j is computed once; zero exponents are skipped.
        """
        if len(fundamental) != self.rank:
            raise ValueError(
                f"evaluate needs {self.rank} values, one per h_i, got {len(fundamental)}"
            )
        vals = [exact(v) for v in fundamental]
        if not self.terms:
            return Fraction(0)
        d = math.lcm(*(v.denominator for v in vals))
        cden = math.lcm(*(c.denominator for c in self.terms.values()))
        top = max(sum(exps) for exps in self.terms)
        d_pow = _powers(d, top)
        tables = [
            _powers(v.numerator * (d // v.denominator), max(column))
            for v, column in zip(vals, zip(*self.terms))
        ]
        total = 0
        for exps, c in self.terms.items():
            term = c.numerator * (cden // c.denominator) * d_pow[top - sum(exps)]
            for table, p in zip(tables, exps):
                if p:
                    term *= table[p]
            total += term
        return Fraction(total, cden * d_pow[top])

    def shift(self, deltas: Sequence[Rat]) -> "CartanPolynomial":
        """Substitute h_i |-> h_i + deltas[i-1].

        Each term c h^p expands in one pass by the binomial theorem, as c
        times the product over i of sum_q C(p_i, q) deltas[i-1]^(p_i - q)
        h_i^q.  An integral Fraction delta is used as an int, so integral
        input gives int coefficients.
        """
        if len(deltas) != self.rank:
            raise ValueError(
                f"shift needs {self.rank} deltas, one per h_i, got {len(deltas)}"
            )
        ds = [int(d) if d.denominator == 1 else d for d in map(exact, deltas)]
        out: dict[tuple[int, ...], Rat] = {}
        for exps, c in self.terms.items():
            # per variable, the (exponent, factor) pairs of (h_i + d)^p
            factors = [
                [
                    (q, math.comb(p, q) * d ** (p - q))
                    for q in range(p + 1)
                    if d or q == p
                ]
                for p, d in zip(exps, ds)
            ]
            for choice in itertools.product(*factors):
                coeff = c
                for _, f in choice:
                    coeff *= f
                add_into(out, tuple(q for q, _ in choice), coeff)
        return CartanPolynomial(self.rank, out)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exps in sorted(self.terms, key=grlex, reverse=True):
            c = self.terms[exps]
            vs = "*".join(
                f"h{i + 1}" + (f"^{p}" if p > 1 else "")
                for i, p in enumerate(exps)
                if p
            )
            bits.append(f"{c}" if not vs else (vs if c == 1 else f"{c}*{vs}"))
        return " + ".join(bits)


def grlex(exps: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Graded lexicographic sort key of an exponent tuple."""
    return (sum(exps), exps)


def h_alpha_poly(lie: LieAlgebra, alpha: Root) -> CartanPolynomial:
    """h_alpha = [e_alpha, f_alpha] as a linear polynomial in h_1..h_l."""
    l = lie.rank
    return CartanPolynomial(
        l,
        {
            tuple(int(j == i - 1) for j in range(l)): c
            for i, c in lie.h_of_root(alpha).items()
        },
    )


def poly_echelon(polys: Iterable[CartanPolynomial]) -> list[CartanPolynomial]:
    """Reduced echelon basis of the span, pivoting on grlex-leading terms.

    Deterministic: output sorted by leading monomial, leading coefficient 1,
    each pivot eliminated from all other rows.
    """
    span = Echelon(order=grlex)
    rank = 0
    for p in polys:
        rank = p.rank
        span.insert(p.terms)
    return [CartanPolynomial(rank, row) for row in span.rows()]


def spans_equal(
    a: Iterable[CartanPolynomial], b: Iterable[CartanPolynomial]
) -> bool:
    ea, eb = poly_echelon(a), poly_echelon(b)
    return ea == eb


# ---------------------------------------------------------------------------
# the twelve rewriting identities and their companions
# ---------------------------------------------------------------------------


def falling(p: CartanPolynomial, count: int, start: Rat = 0) -> CartanPolynomial:
    """(p - start)(p - start - 1) ... (p - start - count + 1)."""
    if count < 0:
        raise ValueError("negative falling-factorial length")
    out = CartanPolynomial.constant(p.rank, 1)
    for t in range(count):
        out = out * (p - (start + t))
    return out


def check_identity(engine: UEA, ident: int, **params) -> bool:
    """Verify one of the twelve rewriting identities after normalization.

    Memberships stated modulo U(g)e_alpha are checked modulo U(g)n_+,
    which is what every use on highest-weight vectors requires.
    Raises ValueError for parameters outside an identity's side conditions
    (callers should skip those, e.g. i in 3..l is empty at rank 2).
    """
    l = engine.lie.rank
    red = engine.reduce_mod_nplus

    def need(cond: bool, msg: str) -> None:
        if not cond:
            raise ValueError(msg)

    def vanishes(x: Root, k: int, y: Root, m: int, mod_nplus: bool = True) -> bool:
        """ad(e_x)^k f_y^m == 0, modulo U(g)n_+ unless mod_nplus is False."""
        v = engine.ad_power(engine.e(x), k, engine.f(y, m))
        return (red(v) if mod_nplus else v).is_zero()

    if ident == 1:   # identity 10 at k = m
        m = params["m"]
        return check_identity(engine, 10, alpha=params["alpha"], k=m, m=m)
    if ident == 2:
        alpha, k, m = params["alpha"], params["k"], params["m"]
        need(k > m, "identity 2 needs k > m")
        return vanishes(alpha, k, alpha, m)
    if ident == 3:
        k, i = params["k"], params["i"]
        need(2 <= i <= l, "identity 3 needs 2 <= i <= l")
        a_plus = eps_root(l, 1, i, 1)
        a_minus = eps_root(l, 1, i, -1)
        lhs = engine.ad_power(engine.e(eps_root(l, 1)), 2 * k, engine.f(a_plus, k))
        rhs = (-1) ** k * math.factorial(2 * k) * engine.e(a_minus, k)
        return lhs == rhs
    if ident == 4:
        k, j, i = params["k"], params["j"], params["i"]
        need(j > 0 and 2 <= i <= l, "identity 4 needs j > 0, 2 <= i <= l")
        return vanishes(
            eps_root(l, 1), 2 * k + j, eps_root(l, 1, i, 1), k, mod_nplus=False
        )
    if ident == 5:
        r, k, i = params["r"], params["k"], params["i"]
        need(r > 0 and 2 <= i <= l, "identity 5 needs r > 0, 2 <= i <= l")
        return vanishes(eps_root(l, 1), r, eps_root(l, 1, i, -1), k)
    if ident == 6:
        alpha, k, poly = params["alpha"], params["k"], params["poly"]
        shifted = poly.shift([-k * v for v in alpha.fundamental()])
        lhs = engine.multiply(engine.e(alpha, k), engine.from_cartan(poly))
        # P(h - k alpha) e_alpha^k is in PBW order as written: h letters first
        raising = ((engine.lie.e(alpha).index, k),) if k else ()
        rhs = {mono + raising: c for mono, c in engine.from_cartan(shifted).terms.items()}
        return lhs.terms == rhs
    if ident == 7:
        i, k, m = params["i"], params["k"], params["m"]
        need(3 <= i <= l and k <= m, "identity 7 needs 3 <= i <= l, k <= m")
        lhs = engine.ad_power(
            engine.e(eps_root(l, 1, i, 1)), k, engine.f(eps_root(l, 1, 2, 1), m)
        )
        coeff = math.factorial(m) // math.factorial(m - k)
        rhs = coeff * engine.multiply(
            engine.f(eps_root(l, 1, 2, 1), m - k), engine.f(eps_root(l, 2, i, -1), k)
        )
        return lhs == rhs
    if ident == 8:
        i, k, m = params["i"], params["k"], params["m"]
        need(3 <= i <= l and k > 0, "identity 8 needs 3 <= i <= l, k > 0")
        return vanishes(eps_root(l, 1, i, 1), k, eps_root(l, 1, 2, -1), m)
    if ident == 9:
        i, k, m = params["i"], params["k"], params["m"]
        need(3 <= i <= l and k > 0, "identity 9 needs 3 <= i <= l, k > 0")
        return vanishes(eps_root(l, 1, 2, 1), k, eps_root(l, 2, i, -1), m)
    if ident == 10:
        alpha, k, m = params["alpha"], params["k"], params["m"]
        need(k <= m, "identity 10 needs k <= m")
        lhs = red(engine.ad_power(engine.e(alpha), k, engine.f(alpha, m)))
        coeff = math.factorial(m) // math.factorial(m - k)
        tail = falling(h_alpha_poly(engine.lie, alpha), k, start=m - k)
        # f_alpha^(m-k) times the tail is in PBW order as written: f letters first
        lowering = ((engine.lie.f(alpha).index, m - k),) if m > k else ()
        rhs = {
            lowering + mono: coeff * c for mono, c in engine.from_cartan(tail).terms.items()
        }
        return lhs.terms == rhs
    if ident == 11:
        i, k = params["i"], params["k"]
        need(3 <= i <= l, "identity 11 needs 3 <= i <= l")
        lhs = engine.ad_power(
            engine.e(eps_root(l, 1, i, -1)), k, engine.f(eps_root(l, 2, i, -1), k)
        )
        rhs = math.factorial(k) * engine.e(eps_root(l, 1, 2, -1), k)
        return lhs == rhs
    if ident == 12:
        i, k, m = params["i"], params["k"], params["m"]
        need(3 <= i <= l and k > 0, "identity 12 needs 3 <= i <= l, k > 0")
        return vanishes(eps_root(l, 1, i, -1), k, eps_root(l, 1, 2, -1), m)
    raise ValueError(f"unknown identity {ident}")


def identity_suite(engine: UEA, bound: int = 3) -> list[tuple[int, dict, str]]:
    """Run every identity over the parameter grid with m, k and r up to
    bound; returns (id, params, status).

    status is "pass", "FAIL" or "skip" (side condition vacuous at this rank,
    e.g. the identities quantified over i in 3..l when the rank is 2).
    """
    l = engine.lie.rank
    pos = engine.lie.rootsys.positive_roots
    records: list[tuple[int, dict, str]] = []

    def record(ident: int, ok: bool, **params) -> None:
        records.append((ident, params, "pass" if ok else "FAIL"))

    def run(ident: int, **params) -> bool:
        ok = check_identity(engine, ident, **params)
        record(ident, ok, **params)
        return ok

    def skip(ident: int) -> None:
        records.append((ident, {"i": "3..l empty"}, "skip"))

    for alpha in pos:
        h_alpha = h_alpha_poly(engine.lie, alpha)
        # identity 1 is identity 10 at k = m: one check serves both records
        diagonal = {m: run(1, alpha=alpha, m=m) for m in range(1, bound + 1)}
        for k in range(1, bound + 1):
            for m in range(1, k):
                run(2, alpha=alpha, k=k, m=m)
        for k in range(0, bound + 1):
            for poly in (
                CartanPolynomial.variable(l, 1),
                h_alpha * h_alpha - 3 * CartanPolynomial.variable(l, l),
            ):
                run(6, alpha=alpha, k=k, poly=poly)
        for m in range(1, bound + 1):
            for k in range(1, m):
                run(10, alpha=alpha, k=k, m=m)
            record(10, diagonal[m], alpha=alpha, k=m, m=m)
    for i in range(2, l + 1):
        for k in range(0, bound + 1):
            run(3, k=k, i=i)
            for j in range(1, 3):
                run(4, k=k, j=j, i=i)
        for r in range(1, bound + 1):
            for k in range(1, bound + 1):
                run(5, r=r, k=k, i=i)
    if l < 3:
        for ident in (7, 8, 9, 11, 12):
            skip(ident)
    else:
        for i in range(3, l + 1):
            for m in range(1, bound + 1):
                for k in range(1, m + 1):
                    run(7, i=i, k=k, m=m)
                for k in range(1, bound + 1):
                    run(8, i=i, k=k, m=m)
                    run(9, i=i, k=k, m=m)
                    run(12, i=i, k=k, m=m)
            for k in range(1, bound + 1):
                run(11, i=i, k=k)
    return records
