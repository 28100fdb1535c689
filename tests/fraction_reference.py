"""Fraction references for the integer code in src: the form, coroot
pairings, the shifted affine pairing, the Cartan matrix, the coroot splits
by a scan of every pair, and the Fraction admissibility certificate the
integer one replaced; also the integer coroot vector of an affine real
root, which only the tests call.  No src code calls these; the tests
compare the integer results against them."""

import itertools
import math
from fractions import Fraction

from blvoa.affine import (
    AdmissibilityResult,
    AffineRealRoot,
    AffineWeight,
    dual_coxeter_number,
)
from blvoa.rootsys import RootSystem, Weight, _check_rank, int_coroot
from blvoa.uea import Echelon


def weyl_vector(rs: RootSystem) -> Weight:
    """rho-bar, half the sum of the positive roots: (l - i + 1/2) eps_i."""
    return Weight(Fraction(sum(c), 2) for c in zip(*(a.eps for a in rs.positive_roots)))


def inner(a: Weight, b: Weight) -> Fraction:
    """Normalized invariant form on weight space; (eps_i, eps_j) = delta_ij."""
    _check_rank(a, b)
    return sum((x * y for x, y in zip(a.eps, b.eps)), Fraction(0))


def coroot_pairing(mu: Weight, alpha: Weight) -> Fraction:
    """<mu, alpha^vee> = 2 (mu, alpha) / (alpha, alpha)."""
    norm = inner(alpha, alpha)
    if norm == 0:
        raise ValueError("zero root has no coroot")
    return 2 * inner(mu, alpha) / norm


def cartan_matrix(lie) -> tuple[tuple[Fraction, ...], ...]:
    """A[i][j] = alpha_j(h_i) = <alpha_j, alpha_i^vee> (0-based rows/cols)."""
    simple = lie.rootsys.simple_roots
    return tuple(
        tuple(coroot_pairing(aj, ai) for aj in simple) for ai in simple
    )


def shifted_pairing(lam: AffineWeight, root: AffineRealRoot, rs: RootSystem) -> Fraction:
    """<lambda + rho, (alpha + m delta)^vee> with rho = h^vee Lambda_0 + rho_bar."""
    norm = inner(root.alpha, root.alpha)
    hv = dual_coxeter_number(rs.rank)
    return (
        Fraction(2)
        / norm
        * (root.m * (lam.level + hv) + inner(weyl_vector(rs) + lam.finite, root.alpha))
    )


def coroot_splits(rank: int) -> dict[tuple[int, ...], tuple[tuple, ...]]:
    """Every finite coroot x of B_l with its splits x = y + z into two
    finite coroots y < z (integer eps-coordinates; y = z never occurs, as
    no coroot is twice another), by a scan of every pair.  The roots are
    the vectors of {-1, 0, 1}^l with one or two nonzero entries."""
    coroots = {
        int_coroot(a)
        for a in itertools.product((-1, 0, 1), repeat=rank)
        if 1 <= sum(map(abs, a)) <= 2
    }
    return {
        x: tuple(
            (y, z)
            for y in coroots
            if (z := tuple(p - q for p, q in zip(x, y))) in coroots and y < z
        )
        for x in coroots
    }


def positive_real_roots(rs: RootSystem, m_max: int) -> list[AffineRealRoot]:
    """All alpha + m delta with 0 <= m <= m_max, in deterministic order."""
    out: list[AffineRealRoot] = []
    for alpha in rs.positive_roots:
        out.append(AffineRealRoot(alpha, 0))
    for m in range(1, m_max + 1):
        for alpha in rs.positive_roots:
            out.append(AffineRealRoot(alpha, m))
            out.append(AffineRealRoot(-alpha, m))
    out.sort(key=lambda r: (r.m, r.alpha.eps))
    return out


def coroot_vector(r: AffineRealRoot) -> tuple[int, ...]:
    """(2 alpha/(alpha,alpha), 2m/(alpha,alpha)) in h oplus Qc coordinates,
    in integers."""
    x = int_coroot(tuple(map(int, r.alpha.eps)))
    return x + (r.m * sum(c * c for c in x) // 2,)


def fraction_coroot_vector(r: AffineRealRoot) -> tuple[Fraction, ...]:
    scale = Fraction(2) / inner(r.alpha, r.alpha)
    return tuple(scale * c for c in r.alpha.eps) + (scale * r.m,)


def reference_is_admissible(lam, rs, m_max=None) -> AdmissibilityResult:
    """Window scan over every root in Fraction arithmetic, a full-rank
    echelon and the pairwise simple-coroot scan."""
    l = rs.rank
    hv = dual_coxeter_number(l)
    shift = lam.level + hv
    if shift <= 0:
        raise ValueError("k + h^vee must be positive for the windowed check")
    if m_max is None:
        bound = max(
            abs(inner(weyl_vector(rs) + lam.finite, alpha))
            for alpha in rs.positive_roots
        )
        m_max = 2 * max(1, math.ceil(bound / shift))
    roots = positive_real_roots(rs, m_max)
    violations = []
    integral = []
    for r in roots:
        p = shifted_pairing(lam, r, rs)
        if p.denominator == 1:
            if p <= 0:
                violations.append((r, p))
            integral.append(r)
    vectors = [fraction_coroot_vector(r) for r in integral]
    span = Echelon()
    for v in vectors:
        span.insert(dict(enumerate(v)))
    vec_set = {v: r for v, r in zip(vectors, integral)}
    simple = [
        r
        for v, r in vec_set.items()
        if not any(
            w != v and tuple(a - b for a, b in zip(v, w)) in vec_set
            for w in vec_set
        )
    ]
    simple.sort(key=lambda r: (r.m, r.alpha.eps))
    ok = not violations and span.dim == l + 1
    return AdmissibilityResult(
        ok=ok,
        weight=lam,
        m_max=m_max,
        integral_count=len(integral),
        span_rank=span.dim,
        simple_coroots=simple,
        violations=violations,
    )
