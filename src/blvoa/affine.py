"""The affinization of so(2l+1): vacuum modules, singular vectors and
admissible weights.

The generalized Verma module at level k is represented only as far as the
computations need it: vectors are finite combinations of normal-ordered
creation words applied to the vacuum, with annihilation operators commuted
rightward through the bracket

    [x(m), y(n)] = [x, y](m+n) + m delta_{m+n,0} (x, y) c,

the central element acting as the scalar level.  Admissibility of a weight
k Lambda_0 + mu is certified by a finite scan over real coroots together
with a monotonicity bound that settles all larger loop modes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .liealg import LieAlgebra, add_into
from .rootsys import RootSystem, Weight, eps_root, inner, int_coroot
from .uea import (
    DEFAULT_TERM_GUARD,
    UEA,
    Echelon,
    Rat,
    Sparse,
    TermGuardExceeded,
    UEAElement,
    exact,
)

CWord = tuple[tuple[int, int], ...]   # ((mode, basis index), ...) sorted, modes < 0


def dual_coxeter_number(rank: int) -> int:
    """h^vee = 2l - 1 for type B_l."""
    return 2 * rank - 1


def level_of(rank: int, n: int) -> Fraction:
    """The level n - l + 1/2 of the degree-2n singular vector."""
    return Fraction(2 * n - 2 * rank + 1, 2)


def affine_bracket(
    lie: LieAlgebra, xm: tuple[int, int], yn: tuple[int, int]
) -> tuple[dict[tuple[int, int], int], Rat]:
    """[x(m), y(n)] as (loop terms {(index, m+n): coeff}, central coefficient)."""
    xi, m = xm
    yi, n = yn
    loop = {(k, m + n): c for k, c in lie.bracket(xi, yi).items()}
    if m + n:
        return loop, 0
    return loop, m * lie.invariant_form(lie.basis[xi], lie.basis[yi])


class VermaVector(Sparse):
    """Element of N(k, 0): rational combination of creation words times 1."""

    __slots__ = ("module",)

    def __init__(self, module: "VacuumModule", terms: dict[CWord, Rat]):
        self.module = module
        super().__init__(terms)

    def _new(self, terms: dict[CWord, Rat]) -> "VermaVector":
        return VermaVector(self.module, terms)

    def _space(self) -> tuple[int, Fraction]:
        return (self.module.lie.rank, self.module.level)

    @property
    def level(self) -> Fraction:
        return self.module.level

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        lie = self.module.lie
        bits = []
        for word in sorted(self.terms):
            c = self.terms[word]
            w = "".join(f"{lie.basis[i]}({m})" for m, i in word) or "1"
            bits.append(f"{c}*{w}.1" if word else f"{c}*1")
        return " + ".join(bits)


class VacuumModule:
    """N(k, 0) machinery at a fixed rational level k."""

    def __init__(
        self, lie: LieAlgebra, level: Rat, term_guard: int = DEFAULT_TERM_GUARD
    ):
        self.lie = lie
        self.level = Fraction(exact(level))
        self.term_guard = term_guard
        self._apply_cache: dict[tuple[int, int, CWord], dict[CWord, Rat]] = {}

    def vacuum(self) -> VermaVector:
        return VermaVector(self, {(): 1})

    def zero(self) -> VermaVector:
        return VermaVector(self, {})

    def element(self, terms: dict[CWord, Rat]) -> VermaVector:
        return VermaVector(self, {w: exact(c) for w, c in terms.items()})

    def apply(self, idx: int, mode: int, v: VermaVector) -> VermaVector:
        """x_idx(mode) . v, normal-ordered.

        Raises TermGuardExceeded once the result holds more than term_guard
        words.
        """
        out: dict[CWord, Rat] = {}
        budget = self.term_guard
        for word, c in v.terms.items():
            for w2, c2 in self._apply_letter(idx, mode, word).items():
                add_into(out, w2, c * c2)
                if len(out) > budget:
                    raise TermGuardExceeded("N(k, 0) apply", len(out), budget)
        return VermaVector(self, out)

    def _apply_letter(
        self, idx: int, mode: int, word: CWord
    ) -> dict[CWord, Rat]:
        if not word:
            if mode < 0:
                return {((mode, idx),): 1}
            return {}
        key = (idx, mode, word)
        cached = self._apply_cache.get(key)
        if cached is not None:
            return cached
        m0, i0 = word[0]
        if mode < 0 and (mode, idx) <= (m0, i0):
            result = {((mode, idx),) + word: 1}
            self._apply_cache[key] = result
            return result
        rest = word[1:]
        out: dict[CWord, Rat] = {}
        # head * (x(mode) . rest)
        for w2, c2 in self._apply_letter(idx, mode, rest).items():
            for w3, c3 in self._apply_letter(i0, m0, w2).items():
                add_into(out, w3, c2 * c3)
        # [x(mode), head] . rest
        loop, central = affine_bracket(self.lie, (idx, mode), (i0, m0))
        for (k_idx, k_mode), c in loop.items():
            for w2, c2 in self._apply_letter(k_idx, k_mode, rest).items():
                add_into(out, w2, c * c2)
        if central:
            add_into(out, rest, central * self.level)
        self._apply_cache[key] = out
        return out

    def mul_creation(
        self, creation: dict[CWord, Rat], v: VermaVector
    ) -> VermaVector:
        """Left-multiply by a polynomial in creation operators."""
        out = self.zero()
        for word, c in creation.items():
            piece = v
            for mode, idx in reversed(word):
                if mode >= 0:
                    raise ValueError("creation words need negative modes")
                piece = self.apply(idx, mode, piece)
            out = out + c * piece
        return out


# ---------------------------------------------------------------------------
# the singular vector and its image in U(g)
# ---------------------------------------------------------------------------


def quadratic_creation_term(lie: LieAlgebra) -> dict[CWord, Rat]:
    """-1/4 e_{eps_1}(-1)^2 + sum_j e_{eps_1-eps_j}(-1) e_{eps_1+eps_j}(-1).

    All factors commute, so the words need no correction terms.
    """
    l = lie.rank
    out: dict[CWord, Rat] = {}
    i1 = lie.e(eps_root(l, 1)).index
    out[((-1, i1), (-1, i1))] = Fraction(-1, 4)
    for j in range(2, l + 1):
        minus = lie.e(eps_root(l, 1, j, -1)).index
        plus = lie.e(eps_root(l, 1, j, 1)).index
        pair = tuple(sorted([(-1, minus), (-1, plus)]))
        add_into(out, pair, 1)
    return out


def build_singular_candidate(
    lie: LieAlgebra,
    n: int,
    level: Optional[Rat] = None,
    term_guard: int = DEFAULT_TERM_GUARD,
) -> VermaVector:
    """The candidate null vector at level n - l + 1/2 (or an override)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    k = level_of(lie.rank, n) if level is None else level
    module = VacuumModule(lie, k, term_guard)
    v = module.vacuum()
    u = quadratic_creation_term(lie)
    for _ in range(n):
        v = module.mul_creation(u, v)
    return v


@dataclass
class SingularReport:
    """Outcome of the raising-operator annihilation test."""

    rank: int
    n: int
    level: Fraction
    ok: bool
    residual_terms: int
    residuals: dict[str, VermaVector] = field(repr=False, default_factory=dict)


def check_singular(
    lie: LieAlgebra,
    n: int,
    level: Optional[Rat] = None,
    term_guard: int = DEFAULT_TERM_GUARD,
) -> SingularReport:
    """True iff e_i(0).v = 0 for all i and f_theta(1).v = 0 at this level.

    term_guard bounds the words of each single VacuumModule.apply result.
    """
    v = build_singular_candidate(lie, n, level, term_guard)
    module = v.module
    residuals: dict[str, VermaVector] = {}
    simple = lie.rootsys.simple_roots
    for i, alpha in enumerate(simple, start=1):
        r = module.apply(lie.e(alpha).index, 0, v)
        if not r.is_zero():
            residuals[f"e_{i}(0)"] = r
    f_theta = lie.f(lie.rootsys.highest_root)
    r = module.apply(f_theta.index, 1, v)
    if not r.is_zero():
        residuals["f_theta(1)"] = r
    total = sum(x.term_count() for x in residuals.values())
    return SingularReport(
        rank=lie.rank,
        n=n,
        level=module.level,
        ok=not residuals,
        residual_terms=total,
        residuals=residuals,
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


# ---------------------------------------------------------------------------
# affine weights and admissibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineWeight:
    """k Lambda_0 + mu: a level and a finite weight."""

    level: Fraction
    finite: Weight


def coroot(alpha: tuple[int, ...], m: int) -> tuple[int, ...]:
    """(alpha + m delta)^vee = (2 alpha, 2m)/(alpha, alpha) in h oplus Qc
    coordinates, for a B_l root alpha in integer eps-coordinates: the
    finite part is alpha^vee, and 2/(alpha, alpha) is half of
    (alpha^vee, alpha^vee)."""
    x = int_coroot(alpha)
    return x + (m * sum(c * c for c in x) // 2,)


@dataclass(frozen=True)
class AffineRealRoot:
    """alpha + m delta with m > 0 and alpha in Delta, or m = 0, alpha in Delta_+."""

    alpha: Weight
    m: int

    def __post_init__(self):
        # a Fraction equals, and hashes as, the int of the same value
        if self.alpha.eps not in _roots(self.alpha.rank):
            raise ValueError(f"not a B_l root: {self.alpha.eps}")
        if self.m < 0:
            raise ValueError("loop mode must be nonnegative")
        if self.m == 0 and next(c for c in self.alpha.eps if c) < 0:
            raise ValueError("mode 0 requires a positive finite root")

    def coroot_vector(self) -> tuple[int, ...]:
        """(2 alpha/(alpha,alpha), 2m/(alpha,alpha)) in h oplus Qc coordinates."""
        return coroot(tuple(map(int, self.alpha.eps)), self.m)

    def describe(self, rs: RootSystem) -> str:
        for i, a in enumerate(rs.simple_roots, start=1):
            if self.m == 0 and self.alpha == a:
                return f"alpha_{i}^"
        parts = []
        if self.m:
            parts.append(f"{self.m}d" if self.m != 1 else "d")
        for i, c in enumerate(self.alpha.eps, start=1):
            if c:
                parts.append(f"{'+' if c > 0 else '-'}e{i}")
        body = "".join(parts)
        if body.startswith("+"):
            body = body[1:]
        return f"({body})^"


def shifted_pairing(lam: AffineWeight, root: AffineRealRoot, rs: RootSystem) -> Fraction:
    """<lambda + rho, (alpha + m delta)^vee> with rho = h^vee Lambda_0 + rho_bar."""
    norm = inner(root.alpha, root.alpha)
    hv = dual_coxeter_number(rs.rank)
    return (
        Fraction(2)
        / norm
        * (root.m * (lam.level + hv) + inner(rs.weyl_vector + lam.finite, root.alpha))
    )


def affine_pairings(
    lam: AffineWeight, rs: RootSystem
) -> tuple[int, dict[tuple[int, ...], tuple[int, int]]]:
    """D and {alpha: (A, B)} over the finite roots alpha (integer
    eps-coordinates, in the order of _root_table), such that
    <lambda + rho, (alpha + m delta)^vee> = (A m + B) / D for every m.

    The pairing is the coroot vector dotted with (rho_bar + mu, k + h^vee),
    which D, the common denominator of those coordinates, makes integral.
    """
    shift = lam.level + dual_coxeter_number(rs.rank)
    shifted = (rs.weyl_vector + lam.finite).eps + (shift,)
    d = math.lcm(*(x.denominator for x in shifted))
    ints = [int(x * d) for x in shifted]
    return d, {
        alpha: (ints[-1] * scale, sum(p * q for p, q in zip(ints, x)))
        for alpha, x, scale, _, _ in _root_table(rs.rank)
    }


@functools.lru_cache(maxsize=None)
def _root_table(
    rank: int,
) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int, int, Weight], ...]:
    """(alpha, x, scale, lo, weight) for every root alpha of B_l in integer
    eps-coordinates, sorted by alpha: x = scale alpha is its finite
    coroot, scale = 2/(alpha, alpha), lo its lowest loop mode (0 for a
    positive root, 1 for a negative one) and weight alpha as the Weight
    that reported coroots carry.  (alpha + m delta)^vee is (x, scale m),
    and affine_pairings dots x with rho_bar + mu."""
    positive = [tuple(map(int, r.eps)) for r in RootSystem(rank).positive_roots]
    rows = []
    for sign, lo in ((1, 0), (-1, 1)):
        for root in positive:
            alpha = tuple(sign * c for c in root)
            *x, scale = coroot(alpha, 1)
            rows.append((alpha, tuple(x), scale, lo, Weight(alpha)))
    return tuple(sorted(rows, key=lambda r: r[0]))


@functools.lru_cache(maxsize=None)
def _roots(rank: int) -> frozenset[tuple[int, ...]]:
    """The roots of B_l in integer eps-coordinates, from _root_table."""
    return frozenset(row[0] for row in _root_table(rank))


@functools.lru_cache(maxsize=None)
def _coroot_splits(rank: int) -> dict[tuple[int, ...], tuple[tuple, ...]]:
    """Every finite coroot x of B_l with its splits x = y + z into two
    finite coroots y < z (integer eps-coordinates; y = z never occurs, as
    no coroot is twice another)."""
    coroots = {x for _, x, _, _, _ in _root_table(rank)}
    return {
        x: tuple(
            (y, z)
            for y in coroots
            if (z := tuple(p - q for p, q in zip(x, y))) in coroots and y < z
        )
        for x in coroots
    }


@dataclass
class AdmissibilityResult:
    """Certificate for the admissibility check of one affine weight."""

    ok: bool
    weight: AffineWeight
    m_max: int
    integral_count: int
    span_rank: int
    simple_coroots: list[AffineRealRoot]
    violations: list[tuple[AffineRealRoot, Fraction]]

    def simple_names(self, rs: RootSystem) -> list[str]:
        return [r.describe(rs) for r in self.simple_coroots]


def is_admissible(
    lam: AffineWeight, rs: RootSystem, m_max: Optional[int] = None
) -> AdmissibilityResult:
    """Certify admissibility of k Lambda_0 + mu, in integer arithmetic.

    The window is the positive real roots alpha + m delta with m <= m_max
    (m_max >= 0; by default twice the smallest m at which m (k + h^vee)
    dominates every |(rho_bar + mu, alpha)|).
    (i) <lambda + rho, gamma> avoids -Z_+ for every positive real coroot:
    scanned in the window and certified for m > m_max by that dominance.
    The pairing is (A m + B) / D for each finite root alpha, so the integral
    modes of alpha form a residue class mod D / gcd(A, D); only those
    roots are built.
    (ii) The integral coroots of the window must span a space of rank l+1;
    the echelon stops once it reaches l+1, the dimension of h oplus Qc.
    The simple ones among them (no two collected coroots sum to them) are
    reported.
    """
    l = rs.rank
    if exact(lam.level) + dual_coxeter_number(l) <= 0:
        raise ValueError("k + h^vee must be positive for the windowed check")
    if m_max is not None and m_max < 0:
        raise ValueError("m_max must be nonnegative")
    d, pairings = affine_pairings(lam, rs)
    if m_max is None:
        # B / A = (rho_bar + mu, alpha) / (k + h^vee)
        m_max = 2 * max(1, max(-(-abs(b) // a) for a, b in pairings.values()))
    table = _root_table(l)
    integral = []   # (m, row of table, A m + B)
    for row, (a, b) in enumerate(pairings.values()):   # in the table's order
        lo = table[row][3]
        g = math.gcd(a, d)
        if b % g:
            continue
        step = d // g
        residue = (-b // g) * pow(a // g, -1, step) % step
        start = lo + (residue - lo) % step
        integral.extend((m, row, a * m + b) for m in range(start, m_max + 1, step))
    integral.sort()   # by mode, then alpha, as the table is sorted by alpha
    violations: list[tuple[AffineRealRoot, Fraction]] = []
    span = Echelon()
    by_finite: dict[tuple[int, ...], dict[int, tuple]] = {}
    for m, row, value in integral:
        _, x, scale, _, weight = table[row]
        if value <= 0:
            violations.append((AffineRealRoot(weight, m), Fraction(value // d)))
        if span.dim <= l:
            span.insert(dict(enumerate(x + (scale * m,))))
        by_finite.setdefault(x, {})[scale * m] = (m, row)
    # v = (x, t) is a sum of two collected coroots iff x = y + z for finite
    # coroots y, z collected with delta-parts s and t - s
    simple = []
    splits_of = _coroot_splits(l)
    for x, modes in by_finite.items():
        splits = [
            (ys, zs)
            for y, z in splits_of[x]
            if (ys := by_finite.get(y)) and (zs := by_finite.get(z))
        ]
        simple.extend(
            key
            for t, key in modes.items()
            if not any(t - s in zs for ys, zs in splits for s in ys)
        )
    simple.sort()
    ok = not violations and span.dim == l + 1
    return AdmissibilityResult(
        ok=ok,
        weight=lam,
        m_max=m_max,
        integral_count=len(integral),
        span_rank=span.dim,
        simple_coroots=[AffineRealRoot(table[row][4], m) for m, row in simple],
        violations=violations,
    )
