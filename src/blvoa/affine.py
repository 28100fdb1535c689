"""The affinization of so(2l+1): vacuum modules, singular vectors and
admissible weights.

The generalized Verma module at level k is represented only as far as the
computations need it: vectors are finite combinations of normal-ordered
creation words applied to the vacuum, with annihilation operators commuted
rightward through the bracket

    [x(m), y(n)] = [x, y](m+n) + m delta_{m+n,0} (x, y) c,

the central element acting as the scalar level.  Admissibility of a weight
k Lambda_0 + mu is certified by a finite scan over real coroots together
with a monotonicity bound that settles all larger loop modes, in integers
on the rows of the caller's root datum (rootsys.RootSystem).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .liealg import LieAlgebra, add_into
from .rootsys import Root, RootSystem, Weight, built_root, eps_root, is_root
from .uea import DEFAULT_TERM_GUARD, Echelon, Rat, Sparse, TermGuardExceeded, exact

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
# the singular vector
# ---------------------------------------------------------------------------


def u_terms(rank: int) -> list[tuple[Rat, Root, Root]]:
    """The terms (c, alpha, beta) of u = sum c e_alpha e_beta =
    -1/4 e_{eps_1}^2 + sum_j e_{eps_1-eps_j} e_{eps_1+eps_j}, the one source
    of u: the singular vector is u(-1)^n·1 (quadratic_creation_term), its
    image in U(g) is u^n (zero_weight.singular_image), and the oracle's words
    and q take their roots from here.  The e_{eps_1}^2 term comes first, then
    j = 2..l; all the e_alpha commute, as 2 eps_1 is not a root."""
    short = eps_root(rank, 1)
    return [(Fraction(-1, 4), short, short)] + [
        (1, eps_root(rank, 1, j, -1), eps_root(rank, 1, j, 1))
        for j in range(2, rank + 1)
    ]


def quadratic_creation_term(lie: LieAlgebra) -> dict[CWord, Rat]:
    """u(-1) = sum c e_alpha(-1) e_beta(-1) over u_terms, as sorted creation
    words; all factors commute, so the words need no correction terms."""
    out: dict[CWord, Rat] = {}
    for c, alpha, beta in u_terms(lie.rank):
        pair = tuple(sorted([(-1, lie.e(alpha).index), (-1, lie.e(beta).index)]))
        add_into(out, pair, c)
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


# ---------------------------------------------------------------------------
# affine weights and admissibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineWeight:
    """k Lambda_0 + mu: a level and a finite weight."""

    level: Fraction
    finite: Weight


@dataclass(frozen=True)
class AffineRealRoot:
    """alpha + m delta with m > 0 and alpha in Delta, or m = 0, alpha in Delta_+."""

    alpha: Weight
    m: int

    def __post_init__(self):
        if self.alpha.rank < 2 or not is_root(self.alpha.eps):
            raise ValueError(f"not a B_l root: {self.alpha.eps}")
        if self.m < 0:
            raise ValueError("loop mode must be nonnegative")
        if self.m == 0 and next(c for c in self.alpha.eps if c) < 0:
            raise ValueError("mode 0 requires a positive finite root")

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


def affine_pairings(
    lam: AffineWeight, rs: RootSystem
) -> tuple[int, dict[tuple[int, ...], tuple[int, int]]]:
    """D and {alpha: (A, B)} over the rows of rs (finite roots alpha in
    integer eps-coordinates, in row order), such that
    <lambda + rho, (alpha + m delta)^vee> = (A m + B) / D for every m.

    The pairing is the coroot vector (alpha^vee, scale m) dotted with
    (rho_bar + mu, k + h^vee), which D, a common denominator of rho_bar,
    mu and k, makes integral."""
    k = exact(lam.level)
    d = math.lcm(2, k.denominator, *(c.denominator for c in lam.finite.eps))
    ints = [
        r * (d // 2) + c.numerator * (d // c.denominator)
        for r, c in zip(rs.rho2, lam.finite.eps)
    ]
    shift = k.numerator + dual_coxeter_number(rs.rank) * k.denominator   # (k + h^vee) k.den
    ints.append(shift * (d // k.denominator))
    return d, {
        alpha: (ints[-1] * scale, sum(map(operator.mul, ints, x)))
        for alpha, x, scale in zip(rs.roots, rs.coroots, rs.scales)
    }


def _not_sums(ts: list[int], ys: range, zs: range) -> list[int]:
    """The t in ts that are not y + z with y in ys and z in zs, two ranges
    with steps p and q, in O(1) per t: t = ys[i] + zs[j] is p i + q j =
    t - ys[0] - zs[0], which fixes i modulo q / gcd(p, q), and the least
    such i that keeps j < len(zs) must keep j >= 0 and i < len(ys)."""
    p, q, base = ys.step, zs.step, ys.start + zs.start
    g = math.gcd(p, q)
    period = q // g
    inverse = pow(p // g, -1, period)
    last_i, last_j = len(ys) - 1, len(zs) - 1
    out = []
    for t in ts:
        r = t - base
        if r < 0 or r % g:
            out.append(t)
            continue
        lo = max(0, -((q * last_j - r) // p))   # the least i with j <= last_j
        if lo + (r // g * inverse - lo) % period > min(last_i, r // p):   # i too big
            out.append(t)
    return out


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
    """Certify admissibility of k Lambda_0 + mu, in integer arithmetic on
    the rows of the root datum rs.

    The window is the positive real roots alpha + m delta with m <= m_max
    (m_max >= 0; by default twice the smallest m at which m (k + h^vee)
    dominates every |(rho_bar + mu, alpha)|).
    (i) <lambda + rho, gamma> avoids -Z_+ for every positive real coroot:
    scanned in the window and certified for m > m_max by that dominance.
    The pairing is (A m + B) / D, so the integral modes of alpha run from
    its lowest loop mode in steps of D / gcd(A, D), and as A > 0 only those
    with m <= -B / A can pair to <= 0.
    (ii) The integral coroots (alpha^vee, scale m) of the window must span
    a space of rank l+1, the dimension of h oplus Qc; two modes of one root
    span (0, 1).  The simple ones among them, those that are no sum of two
    others, are reported; each split of alpha^vee is tested in O(1) per mode.
    Only (i) reads B itself; the window, the span and the simple coroots
    depend on D, the A and B mod D of each row, and m_max alone, the class
    of the weight, and are computed once per class in a table that lives
    for one call (``classify.certify`` shares one across its entries).
    """
    return _certificate(lam, rs, m_max, {})


def _certificate(
    lam: AffineWeight, rs: RootSystem, m_max: Optional[int], windows: dict
) -> AdmissibilityResult:
    """is_admissible with the caller's table of windows, keyed by class."""
    if exact(lam.level) + dual_coxeter_number(rs.rank) <= 0:
        raise ValueError("k + h^vee must be positive for the windowed check")
    if m_max is not None and m_max < 0:
        raise ValueError("m_max must be nonnegative")
    d, pairings = affine_pairings(lam, rs)
    pairs = list(pairings.values())
    if m_max is None:
        # B / A = (rho_bar + mu, alpha) / (k + h^vee)
        m_max = 2 * max(1, max(-(-abs(b) // a) for a, b in pairs))
    residues = tuple((a, b % d) for a, b in pairs)
    key = (d, m_max, residues)
    if key not in windows:
        windows[key] = _window(rs, d, m_max, residues)
    modes, span_rank, simple = windows[key]
    violating = []   # (m, row, A m + B) with A m + B <= 0
    for row, ms in modes.items():
        a, b = pairs[row]
        if a * ms.start + b <= 0:
            last = min(m_max, -b // a)
            violating.extend((m, row, a * m + b) for m in range(ms.start, last + 1, ms.step))
    violating.sort()   # by mode, then alpha, as the rows are sorted by alpha
    return AdmissibilityResult(
        ok=not violating and span_rank == rs.rank + 1,
        weight=lam,
        m_max=m_max,
        integral_count=sum(map(len, modes.values())),
        span_rank=span_rank,
        simple_coroots=list(simple),
        violations=[
            (AffineRealRoot(built_root(rs.roots[row]), m), Fraction(value // d))
            for m, row, value in violating
        ],
    )


def _window(
    rs: RootSystem, d: int, m_max: int, residues: tuple[tuple[int, int], ...]
) -> tuple[dict[int, range], int, list[AffineRealRoot]]:
    """The integral modes m <= m_max of each row, the rank of their
    coroots and the simple ones among them, from D, m_max and each row's
    (A, B mod D): which modes are integral depends on B only mod D."""
    l = rs.rank
    modes: dict[int, range] = {}   # row -> its integral modes in the window
    parts: dict[int, range] = {}   # row -> their delta-parts scale m
    for row, ((a, b), lo, k) in enumerate(zip(residues, rs.low_modes, rs.scales)):
        g = math.gcd(a, d)
        if b % g:
            continue
        step = d // g
        start = lo + ((-b // g) * pow(a // g, -1, step) - lo) % step
        if start <= m_max:
            modes[row] = range(start, m_max + 1, step)
            parts[row] = range(k * start, k * (m_max + 1), k * step)
    vectors = [rs.coroots[row] + (ts.start,) for row, ts in parts.items()]
    if any(len(ts) > 1 for ts in parts.values()):
        vectors.append((0,) * l + (1,))
    span = Echelon()   # the rank of the coroots, counted up to l + 1
    for v in vectors:
        if span.dim < l + 1:
            span.insert(dict(enumerate(v)))
    span_rank = span.dim
    simple = []
    splits = rs.splits
    for x, ts in parts.items():
        left = list(ts)   # the delta-parts of x that no split reached yet
        for y, z in splits[x]:
            if y in parts and z in parts and left[-1] >= parts[y].start + parts[z].start:
                left = _not_sums(left, parts[y], parts[z])
                if not left:
                    break
        simple.extend((t // rs.scales[x], x) for t in left)
    simple.sort()
    coroots = [AffineRealRoot(built_root(rs.roots[row]), m) for m, row in simple]
    return modes, span_rank, coroots
