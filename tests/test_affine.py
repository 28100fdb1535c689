"""Affinization: brackets with the central term, vacuum-module action,
singular-vector verification, the U(g) image map, and admissibility."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import get_engine, get_lie

from blvoa.affine import (
    AffineRealRoot,
    AffineWeight,
    VacuumModule,
    _certificate,
    affine_bracket,
    affine_pairings,
    build_singular_candidate,
    check_singular,
    dual_coxeter_number,
    is_admissible,
    quadratic_creation_term,
)
from blvoa.classify import (
    certify,
    classify_category_o,
    classify_finite_dim,
    merge_results,
)
from blvoa.rootsys import Root, Weight, weight_from_fundamental
from blvoa.uea import _common_grading
from blvoa.zero_weight import singular_image
from classify_reference import mu_s, mu_s_prime
from fraction_reference import (
    add,
    coroot_vector,
    inner,
    positive_real_roots,
    reference_is_admissible,
    shifted_pairing,
)
from uea_reference import fz_image


# gradings and the central element of N(k, 0), read off the vectors
def finite_weight(v):
    """Common finite ad-h weight of all words of v, or "mixed"."""
    lie = v.module.lie
    zero = Weight([0] * lie.rank)
    weights = (add(zero, *(Weight(lie.weights[idx]) for _, idx in word)) for word in v.terms)
    return _common_grading(weights, zero)


def mode_degree(v):
    """Common total mode (delta-degree) of all words of v, or "mixed"."""
    return _common_grading((sum(m for m, _ in word) for word in v.terms), 0)


def apply_central(mod, v):
    """The central element c acting on v: the level times v."""
    return mod.level * v


def test_affine_bracket_central_term():
    lie = get_lie(2)
    theta = lie.rootsys.highest_root
    e_th, f_th = lie.e(theta), lie.f(theta)
    loop, central = affine_bracket(lie, (e_th.index, 1), (f_th.index, -1))
    h_theta = lie.h_of_root(theta)
    want_loop = {(lie.h(i).index, 0): c for i, c in h_theta.items()}
    assert loop == want_loop
    assert central == 1   # 1 * (e_theta, f_theta)


def test_affine_bracket_no_central_off_level():
    lie = get_lie(2)
    a1 = lie.rootsys.simple_roots[0]
    loop, central = affine_bracket(lie, (lie.h(1).index, 0), (lie.e(a1).index, -1))
    assert loop == {(lie.e(a1).index, -1): Fraction(2)}
    assert central == 0


def test_apply_vacuum_rules():
    lie = get_lie(2)
    k = Fraction(-1, 2)
    mod = VacuumModule(lie, k)
    vac = mod.vacuum()
    a1 = lie.rootsys.simple_roots[0]
    assert mod.apply(lie.e(a1).index, 0, vac).is_zero()
    assert apply_central(mod, vac) == k * vac
    theta = lie.rootsys.highest_root
    v = mod.apply(lie.e(theta).index, -1, vac)
    got = mod.apply(lie.f(theta).index, 1, v)
    assert got == k * vac


@pytest.mark.parametrize("l", [2, 3])
def test_apply_respects_bracket(l):
    lie = get_lie(l)
    mod = VacuumModule(lie, Fraction(3, 2))
    rng = random.Random(17 + l)
    nb = len(lie.basis)
    vectors = [mod.vacuum()]
    for idx, mode in [(0, -1), (nb - 1, -1), (1, -2)]:
        vectors.append(mod.apply(idx, mode, vectors[-1]))
    for _ in range(30):
        v = rng.choice([w for w in vectors if not w.is_zero()])
        gi, gm = rng.randrange(nb), rng.randint(-2, 2)
        hi, hm = rng.randrange(nb), rng.randint(-2, 2)
        lhs = mod.apply(gi, gm, mod.apply(hi, hm, v)) - mod.apply(
            hi, hm, mod.apply(gi, gm, v)
        )
        loop, central = affine_bracket(lie, (gi, gm), (hi, hm))
        rhs = mod.zero()
        for (ki, km), c in loop.items():
            rhs = rhs + c * mod.apply(ki, km, v)
        rhs = rhs + central * apply_central(mod, v)
        assert lhs == rhs


def test_creation_letters_give_int_coefficients():
    lie = get_lie(3)
    mod = VacuumModule(lie, 2)
    creation = [b.index for b in lie.basis]
    rng = random.Random(5)
    v = mod.vacuum()
    for _ in range(6):
        v = mod.apply(rng.choice(creation), -rng.randint(1, 2), v)
        assert all(type(c) is int for c in v.terms.values())
    assert not v.is_zero()


def test_central_element_commutes():
    lie = get_lie(2)
    mod = VacuumModule(lie, Fraction(7, 3))
    v = mod.apply(0, -1, mod.vacuum())
    for idx, mode in ((0, -1), (len(lie.basis) - 1, 1), (2, 0)):
        assert apply_central(mod, mod.apply(idx, mode, v)) == mod.apply(
            idx, mode, apply_central(mod, v)
        )


def test_singular_candidate_shape():
    lie = get_lie(2)
    v1 = build_singular_candidate(lie, 1)
    assert v1.term_count() == 2
    e1 = lie.e(Root([1, 0])).index
    assert v1.terms[((-1, e1), (-1, e1))] == Fraction(-1, 4)
    assert finite_weight(v1) == Weight([2, 0])
    assert mode_degree(v1) == -2
    v0 = build_singular_candidate(lie, 0)
    assert v0 == VacuumModule(lie, Fraction(-3, 2)).vacuum()


def test_mixed_verma_vector_gradings():
    lie = get_lie(2)
    alpha = Root([1, 0])
    v = VacuumModule(lie, Fraction(1, 2)).element(
        {((-1, lie.e(alpha).index),): 1, ((-2, lie.f(alpha).index),): 1}
    )
    assert finite_weight(v) == "mixed"
    assert mode_degree(v) == "mixed"


@pytest.mark.parametrize("l,n", [(2, 1), (3, 1), (2, 2)])
def test_singular_weight_shift(l, n):
    v = build_singular_candidate(get_lie(l), n)
    assert finite_weight(v) == Weight([2 * n] + [0] * (l - 1))
    assert mode_degree(v) == -2 * n


@pytest.mark.parametrize("l,n", [(2, 1), (3, 1), (2, 2)])
def test_check_singular_exact_level(l, n):
    lie = get_lie(l)
    base = Fraction(2 * n - 2 * l + 1, 2)
    assert check_singular(lie, n).ok
    for j in (-2, -1, 1, 2):
        rep = check_singular(lie, n, base + Fraction(j, 2))
        assert not rep.ok
        assert rep.residual_terms > 0


def test_singular_residual_matches_proof_coefficient():
    # at a wrong level the f_theta(1) residual is
    # n (k + l - n - 1/2) e_1(-1) u^{n-1} 1
    lie = get_lie(2)
    for n, k in ((1, Fraction(0)), (2, Fraction(1))):
        rep = check_singular(lie, n, k)
        assert set(rep.residuals) == {"f_theta(1)"}
        coeff = n * (k + 2 - n - Fraction(1, 2))
        mod = VacuumModule(lie, k)
        u = quadratic_creation_term(lie)
        base = mod.vacuum()
        for _ in range(n - 1):
            base = mod.mul_creation(u, base)
        a1 = lie.rootsys.simple_roots[0]
        want = coeff * mod.apply(lie.e(a1).index, -1, base)
        assert rep.residuals["f_theta(1)"] == want


def test_fz_image_basics():
    lie = get_lie(2)
    eng = get_engine(2)
    mod = VacuumModule(lie, Fraction(-1, 2))
    assert fz_image(mod.vacuum(), eng) == eng.one()
    x = lie.e(Root([1, -1]))
    y = lie.f(Root([0, 1]))
    v = mod.apply(x.index, -1, mod.apply(y.index, -1, mod.vacuum()))
    assert fz_image(v, eng) == eng.multiply(eng.gen(y), eng.gen(x))
    bad = mod.apply(x.index, -2, mod.vacuum())
    with pytest.raises(ValueError):
        fz_image(bad, eng)


@pytest.mark.parametrize("l,n", [(2, 1), (2, 2), (3, 1)])
def test_fz_image_of_singular_vector(l, n):
    lie = get_lie(l)
    eng = get_engine(l)
    v = build_singular_candidate(lie, n)
    assert fz_image(v, eng) == singular_image(eng, n)


def test_shifted_pairing_values():
    for l in (2, 3):
        rs = get_lie(l).rootsys
        for n in (1, 2):
            lam = AffineWeight(Fraction(2 * n - 2 * l + 1, 2), Weight([0] * l))
            delta_eps1 = AffineRealRoot(Weight([-1] + [0] * (l - 1)), 1)
            assert shifted_pairing(lam, delta_eps1, rs) == 2 * n
            for a in rs.simple_roots:
                assert shifted_pairing(lam, AffineRealRoot(a, 0), rs) == 1


def test_dual_coxeter():
    assert dual_coxeter_number(2) == 3
    assert dual_coxeter_number(3) == 5


@pytest.mark.parametrize("l", [2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_vacuum_weight_admissible_with_expected_simples(l, n):
    rs = get_lie(l).rootsys
    lam = AffineWeight(Fraction(2 * n - 2 * l + 1, 2), Weight([0] * l))
    res = is_admissible(lam, rs)
    assert res.ok
    assert res.span_rank == l + 1
    want = {(Weight([-1] + [0] * (l - 1)).eps, 1)}
    want |= {(a.eps, 0) for a in rs.simple_roots}
    got = {(r.alpha.eps, r.m) for r in res.simple_coroots}
    assert got == want


@pytest.mark.parametrize("l", [2, 3])
def test_subset_weights_admissible(l):
    rs = get_lie(l).rootsys
    k = Fraction(3 - 2 * l, 2)
    subsets = [()]
    for i in range(1, l):
        subsets += [s + (i,) for s in subsets]
    for s in subsets:
        for mu in (mu_s(rs, s), mu_s_prime(rs, s)):
            res = is_admissible(AffineWeight(k, mu), rs)
            assert res.ok, (l, s, mu)


def test_dominant_integral_level_zero_admissible():
    rs = get_lie(2).rootsys
    res = is_admissible(AffineWeight(Fraction(0), Weight([0, 0])), rs)
    assert res.ok


def test_finite_dim_weights_admissible_with_integer_pairing():
    for l in (2, 3):
        lie = get_lie(l)
        rs = lie.rootsys
        for n in (1, 2):
            result = classify_finite_dim(rs, n)
            for e in result.entries:
                lam = AffineWeight(result.level, e.weight)
                assert is_admissible(lam, rs).ok
                p = shifted_pairing(
                    lam, AffineRealRoot(Weight([-1] + [0] * (l - 1)), 1), rs
                )
                assert p == 2 * n - 2 * inner(e.weight, Weight([1] + [0] * (l - 1)))
                assert p.denominator == 1 and p > 0


def test_admissibility_rejects_too_negative_level():
    rs = get_lie(2).rootsys
    with pytest.raises(ValueError):
        is_admissible(AffineWeight(Fraction(-3), Weight([0, 0])), rs)


def test_affine_real_root_coroot_vector():
    r = AffineRealRoot(Weight([-1, 0]), 1)
    assert coroot_vector(r) == (-2, 0, 2)
    long_r = AffineRealRoot(Weight([1, -1]), 3)
    assert coroot_vector(long_r) == (1, -1, 3)
    assert all(type(c) is int for c in coroot_vector(r) + coroot_vector(long_r))


def test_affine_real_root_validation():
    with pytest.raises(ValueError):
        AffineRealRoot(Weight([-1, 0]), 0)   # negative finite root at mode 0
    with pytest.raises(ValueError):
        AffineRealRoot(Weight([1, 0]), -1)
    with pytest.raises(ValueError):
        AffineRealRoot(Weight([2, 0]), 1)    # not a root


def test_admissibility_rejects_negative_window():
    rs = get_lie(2).rootsys
    lam = AffineWeight(Fraction(-1, 2), Weight([0, 0]))
    with pytest.raises(ValueError, match="m_max"):
        is_admissible(lam, rs, m_max=-1)
    assert is_admissible(lam, rs, m_max=0).m_max == 0


def _pool_cases():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    for argv in json.loads(path.read_text())["admissible_pool"]:
        flag = dict(zip(argv[1::2], argv[2::2]))
        rank = int(flag["--rank"])
        fundamental = [Fraction(c) for c in flag["--weight"].split(",")]
        weight = weight_from_fundamental(fundamental)
        yield rank, AffineWeight(Fraction(flag["--level"]), weight), None


def _category_o_cases():
    for l, n in ((2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2), (2, 3)):
        result = classify_category_o(get_lie(l).rootsys, n)
        for e in result.entries:
            yield l, AffineWeight(result.level, e.weight), None


def _random_cases(count=160, seed=2024):
    rng = random.Random(seed)
    for _ in range(count):
        l = rng.randint(2, 4)
        shift = Fraction(rng.randint(2, 12), rng.choice([1, 2, 3]))
        level = shift - dual_coxeter_number(l)
        den = rng.choice([1, 2, 2, 3])
        weight = weight_from_fundamental(
            [Fraction(rng.randint(-4, 4), den) for _ in range(l)]
        )
        yield l, AffineWeight(level, weight), rng.choice([None, 0, 1, 2, 3])


def _differential_cases():
    seen = set()
    for case in (*_pool_cases(), *_category_o_cases(), *_random_cases()):
        key = (case[0], case[1].level, case[1].finite.eps, case[2])
        if key not in seen:
            seen.add(key)
            yield case


def _assert_same_certificate(got, want, where):
    """got and want agree field by field."""
    assert got.ok == want.ok, where
    assert got.m_max == want.m_max, where
    assert got.integral_count == want.integral_count, where
    assert got.span_rank == want.span_rank, where
    assert got.simple_coroots == want.simple_coroots, where
    assert got.violations == want.violations, where


def test_is_admissible_matches_fraction_reference():
    cases = list(_differential_cases())
    assert len(cases) >= 160 + 150
    seen_ok = seen_violation = 0
    for l, lam, m_max in cases:
        rs = get_lie(l).rootsys
        got = is_admissible(lam, rs, m_max)
        where = (l, lam, m_max)
        _assert_same_certificate(got, reference_is_admissible(lam, rs, m_max), where)
        seen_ok += got.ok
        seen_violation += bool(got.violations)
        # the affine pairing (A m + B) / D at every window root
        d, pairings = affine_pairings(lam, rs)
        for r in positive_real_roots(rs, got.m_max):
            a, b = pairings[tuple(map(int, r.alpha.eps))]
            assert Fraction(a * r.m + b, d) == shifted_pairing(lam, r, rs), where
    # both outcomes are exercised, so agreement is not vacuous
    assert seen_ok >= 50 and seen_violation >= 50


def test_shared_class_tables_match_fraction_reference():
    """Certificates made from one table of windows per group of weights
    (keyed by residue class and m_max) equal the Fraction reference: the
    seeded random cases, one table per (rank, level) with explicit m_max
    values among them, and every classify entry at six points through
    certify, each also equal to is_admissible alone."""
    groups = {}
    for l, lam, m_max in _random_cases():
        groups.setdefault((l, lam.level), []).append((lam, m_max))
    shared = 0
    for (l, _), cases in groups.items():
        rs = get_lie(l).rootsys
        windows = {}
        for lam, m_max in cases:
            got = _certificate(lam, rs, m_max, windows)
            want = reference_is_admissible(lam, rs, m_max)
            _assert_same_certificate(got, want, (l, lam, m_max))
        shared += len(cases) - len(windows)
    assert shared >= 10   # some weights did reuse a window
    for l, n in ((2, 2), (2, 5), (3, 2), (3, 3), (4, 2), (5, 2)):
        lie = get_lie(l)
        rs = lie.rootsys
        result = merge_results(classify_category_o(rs, n), classify_finite_dim(rs, n))
        for e in certify(result, rs).entries:
            lam = AffineWeight(result.level, e.weight)
            want = reference_is_admissible(lam, rs)
            _assert_same_certificate(e.certificate, want, (l, n, e.weight))
            assert e.admissible == want.ok
            assert e.certificate == is_admissible(lam, rs)
