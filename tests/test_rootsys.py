"""Root system of B_l: enumeration, the normalized form, coroot pairings,
dominance and the Weyl dimension formula, the integer versions against the
Fraction references, and the integer root datum's rows and closed-form
coroot splits."""

import itertools
import random
from fractions import Fraction

import pytest

from blvoa.rootsys import (
    Root,
    RootSystem,
    Weight,
    build_root_system,
    eps_root,
    eps_to_fundamental,
    fundamental_to_doubled_eps,
    harmonic_multiplicities,
    int_coroot,
    weight_from_fundamental,
)
from classify_reference import fundamental_weight
from fraction_reference import coroot_pairing, coroot_splits, inner, weyl_vector


def eps(*coords):
    return Weight(coords)


def test_positive_roots_rank2():
    rs = build_root_system(2)
    got = {r.eps for r in rs.positive_roots}
    want = {
        eps(1, 0).eps,
        eps(0, 1).eps,
        eps(1, -1).eps,
        eps(1, 1).eps,
    }
    assert got == want


def test_positive_root_count_is_rank_squared():
    for l in range(2, 7):
        rs = build_root_system(l)
        assert len(rs.positive_roots) == l * l
        assert len(set(rs.positive_roots)) == l * l


def test_highest_root_and_simple_decomposition():
    rs = build_root_system(2)
    assert rs.highest_root == eps(1, 1)
    a1, a2 = rs.simple_roots
    assert rs.highest_root == a1 + 2 * a2
    for l in (3, 4):
        rsl = build_root_system(l)
        total = rsl.simple_roots[0]
        for a in rsl.simple_roots[1:]:
            total = total + 2 * a
        assert rsl.highest_root == total


def test_positive_roots_are_nonneg_simple_combinations():
    rs = build_root_system(3)
    # express each positive root in simple-root coordinates by peeling eps
    for beta in rs.positive_roots:
        # alpha_i = eps_i - eps_{i+1} (i<l), alpha_l = eps_l: coefficients
        # are partial sums c_i = beta_1 + ... + beta_i
        run = Fraction(0)
        for i, b in enumerate(beta.eps):
            run += b
            assert run >= 0 and run.denominator == 1


def test_rank_below_two_rejected():
    with pytest.raises(ValueError):
        build_root_system(1)


def test_inner_normalization():
    rs = build_root_system(2)
    theta = rs.highest_root
    assert inner(theta, theta) == 2
    assert inner(eps(1, 0), eps(0, 1)) == 0
    assert inner(eps(1, 0), eps(1, 0)) == 1


def test_inner_bilinear_symmetric():
    random.seed(20240811)
    for _ in range(25):
        a = Weight([Fraction(random.randint(-5, 5), random.randint(1, 4)) for _ in range(3)])
        b = Weight([Fraction(random.randint(-5, 5), random.randint(1, 4)) for _ in range(3)])
        c = Weight([Fraction(random.randint(-5, 5), random.randint(1, 4)) for _ in range(3)])
        s = Fraction(random.randint(-3, 3))
        assert inner(a, b) == inner(b, a)
        assert inner(a + s * b, c) == inner(a, c) + s * inner(b, c)


def test_inner_rank_mismatch():
    with pytest.raises(ValueError):
        inner(eps(1, 0), eps(1, 0, 0))


def test_inner_permutation_symmetry():
    # permuting epsilon slots of both arguments preserves the form
    random.seed(7)
    rs = build_root_system(4)
    roots = list(rs.positive_roots)
    for _ in range(30):
        a, b = random.choice(roots), random.choice(roots)
        perm = list(range(4))
        random.shuffle(perm)
        ap = Weight([a.eps[p] for p in perm])
        bp = Weight([b.eps[p] for p in perm])
        assert inner(ap, bp) == inner(a, b)


def test_coroot_pairing_examples():
    rs = build_root_system(2)
    w1 = fundamental_weight(rs, 1)
    a1, a2 = rs.simple_roots
    assert coroot_pairing(w1, a1) == 1
    assert coroot_pairing(w1, a2) == 0
    assert coroot_pairing(2 * w1, eps(1, 0)) == 4


def test_coroot_pairing_zero_root_rejected():
    with pytest.raises(ValueError):
        coroot_pairing(eps(1, 0), Weight([0, 0]))


def test_fundamental_weights_dual_to_coroots():
    for l in (2, 3, 4):
        rs = build_root_system(l)
        for i in range(1, l + 1):
            wi = fundamental_weight(rs, i)
            for j, alpha in enumerate(rs.simple_roots, start=1):
                assert coroot_pairing(wi, alpha) == (1 if i == j else 0)


def test_fundamental_coordinates_round_trip():
    random.seed(3)
    for l in (2, 3, 5):
        for _ in range(20):
            c = [Fraction(random.randint(-9, 9), random.randint(1, 6)) for _ in range(l)]
            mu = weight_from_fundamental(c)
            assert list(mu.fundamental()) == c
            rs = build_root_system(l)
            for i, alpha in enumerate(rs.simple_roots):
                assert coroot_pairing(mu, alpha) == c[i]


@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_integer_fundamental_maps_invert_each_other(l):
    # on int eps-coordinates both maps stay in ints, and the doubled map
    # takes the fundamental coordinates back to 2 mu
    rng = random.Random(l)
    for _ in range(50):
        mu = tuple(rng.randint(-9, 9) for _ in range(l))
        c = eps_to_fundamental(mu)
        assert all(type(x) is int for x in c)
        assert c == Weight(mu).fundamental()
        assert fundamental_to_doubled_eps(c) == tuple(2 * m for m in mu)


def test_dominance():
    rs = build_root_system(2)
    assert rs.is_dominant_integral(2 * fundamental_weight(rs, 1))
    assert not rs.is_dominant_integral(Fraction(-1, 2) * fundamental_weight(rs, 1))
    assert rs.is_dominant_integral(fundamental_weight(rs, 2))
    assert not rs.is_dominant_integral(Fraction(1, 3) * fundamental_weight(rs, 1))


def test_weyl_dim_values():
    rs = build_root_system(2)
    assert rs.weyl_dim(2 * fundamental_weight(rs, 1)) == 14
    for l in range(2, 7):
        rsl = build_root_system(l)
        assert rsl.weyl_dim(Weight([0] * l)) == 1
        assert rsl.weyl_dim(fundamental_weight(rsl, 1)) == 2 * l + 1
        assert rsl.weyl_dim(2 * fundamental_weight(rsl, 1)) == 2 * l * l + 3 * l


@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_harmonic_multiplicities_sum_to_weyl_dim(l):
    rs = build_root_system(l)
    for k in range(1, 7):
        table = harmonic_multiplicities(l, k)
        assert sum(table.values()) == rs.weyl_dim(Weight([k] + [0] * (l - 1)))
        assert all(m > 0 for m in table.values())


def test_weyl_dim_spin_representation():
    # the short fundamental weight carries the 2^l-dimensional module
    for l in (2, 3, 4):
        rs = build_root_system(l)
        assert rs.weyl_dim(fundamental_weight(rs, l)) == 2**l


def test_weyl_dim_rejects_non_dominant():
    rs = build_root_system(2)
    with pytest.raises(ValueError):
        rs.weyl_dim(Fraction(-1, 2) * fundamental_weight(rs, 1))


def _reference_is_dominant_integral(rs, mu) -> bool:
    """The Fraction reference: coroot_pairing against every simple root."""
    for alpha in rs.simple_roots:
        v = coroot_pairing(mu, alpha)
        if v.denominator != 1 or v < 0:
            return False
    return True


def _reference_weyl_dim(rs, mu) -> int:
    """The Fraction reference: the product over positive roots of
    (mu + rho, alpha) / (rho, alpha) with inner()."""
    if not _reference_is_dominant_integral(rs, mu):
        raise ValueError(f"weight {mu} is not dominant integral")
    shifted = mu + weyl_vector(rs)
    num = Fraction(1)
    for alpha in rs.positive_roots:
        num *= inner(shifted, alpha) / inner(weyl_vector(rs), alpha)
    if num.denominator != 1 or num <= 0:
        raise ArithmeticError(f"Weyl dimension came out as {num}")
    return int(num)


def _outcome(fn, *args):
    """fn's value, or the type and message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ValueError, str(exc)


# fundamental coordinates: negative, half-integral, non-integral, dominant
BOX = [Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2)]


@pytest.mark.parametrize("l", [2, 3, 4, 5, 6])
def test_integer_weyl_dim_and_dominance_match_fraction_reference(l):
    """The whole box at ranks 2-4; at ranks 5 and 6, 300 of its weights
    and the 2^l with coordinates 0 and 2."""
    rs = build_root_system(l)
    box = list(itertools.product(BOX, repeat=l))
    if l > 4:
        box = random.Random(l).sample(box, 300)
        box += itertools.product(BOX[1::4], repeat=l)
    dominant = 0
    for coords in box:
        mu = weight_from_fundamental(coords)
        want = _reference_is_dominant_integral(rs, mu)
        assert rs.is_dominant_integral(mu) is want, coords
        assert _outcome(rs.weyl_dim, mu) == _outcome(_reference_weyl_dim, rs, mu)
        dominant += want
    if l <= 4:
        assert dominant == 3**l
    else:
        assert dominant >= 2**l
    wrong_rank = Weight([0] * (l + 1))
    for method, reference in (
        (rs.is_dominant_integral, _reference_is_dominant_integral),
        (rs.weyl_dim, _reference_weyl_dim),
    ):
        got = _outcome(method, wrong_rank)
        assert got == _outcome(reference, rs, wrong_rank)
        assert got[0] is ValueError


def test_root_validation():
    Root([1, 0, 0])
    Root([1, -1, 0])
    with pytest.raises(ValueError):
        Root([2, 0])
    with pytest.raises(ValueError):
        Root([1, 1, 1])
    with pytest.raises(ValueError):
        Root([0, 0])


def test_eps_root():
    assert eps_root(3, 2) == Root([0, 1, 0])
    assert eps_root(3, 1, 3, -1) == Root([1, 0, -1])
    assert eps_root(3, 2, 3, 1) == Root([0, 1, 1])
    assert isinstance(eps_root(2, 1), Root)


# ---------------------------------------------------------------------------
# the integer root datum
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("l", range(2, 8))
def test_datum_rows_match_positive_roots_and_int_coroot(l):
    rs = RootSystem(l)
    pos = [eps_root(l, i) for i in range(1, l + 1)]
    pos += [
        eps_root(l, i, j, s) for i in range(1, l + 1) for j in range(i + 1, l + 1) for s in (1, -1)
    ]
    assert list(rs.positive_roots) == sorted(pos, key=lambda r: r.eps)
    positive = [r.eps for r in rs.positive_roots]
    assert list(rs.roots) == sorted(positive + [tuple(-c for c in a) for a in positive])
    for alpha, x, scale, lo in zip(rs.roots, rs.coroots, rs.scales, rs.low_modes):
        assert x == int_coroot(alpha) == tuple(scale * c for c in alpha)
        assert scale * sum(c * c for c in alpha) == 2
        assert lo == (0 if alpha in positive else 1)
        assert all(type(c) is int for c in alpha + x)
    assert rs.rho2 == tuple(map(sum, zip(*positive)))   # 2 rho-bar
    assert all(type(c) is int for c in rs.rho2)


@pytest.mark.parametrize("l", range(2, 8))
def test_closed_form_splits_match_a_scan_of_every_pair(l):
    rs = RootSystem(l)
    got = {
        x: sorted(tuple(sorted((rs.coroots[p], rs.coroots[q]))) for p, q in pairs)
        for x, pairs in zip(rs.coroots, rs.splits)
    }
    assert got == {x: sorted(pairs) for x, pairs in coroot_splits(l).items()}
