"""PBW arithmetic: normal ordering, adjoint powers, reductions,
highest-weight polynomials and the rewriting-identity suite."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from classify_reference import solve_triangular
from conftest import get_engine, get_lie, reduce_mod_nminus
from uea_reference import (
    ad_power_multinomial,
    check_commuting_monomials,
    evaluate_weight,
    from_quotient,
    hw_polynomial,
    poly_in_span,
    to_quotient,
)

import blvoa.uea
import blvoa.zero_weight
from blvoa.affine import AffineWeight, VacuumModule, check_singular, is_admissible
from blvoa.liealg import add_into
from blvoa.rootsys import Root, RootSystem, Weight, weight_from_fundamental
from blvoa.uea import (
    CartanPolynomial,
    Echelon,
    TermGuardExceeded,
    UEA,
    check_identity,
    falling,
    grlex,
    h_alpha_poly,
    identity_suite,
    poly_echelon,
    spans_equal,
)
from blvoa.zero_weight import generate_module, p0_basis, singular_image


def test_multiply_single_commutation():
    eng = get_engine(2)
    a1 = eng.lie.rootsys.simple_roots[0]
    e1, f1, h1 = eng.e(a1), eng.f(a1), eng.h(1)
    assert eng.multiply(e1, f1) == eng.multiply(f1, e1) + h1


def test_multiply_preserves_order_and_reorders():
    eng = get_engine(2)
    a1 = eng.lie.rootsys.simple_roots[0]
    e1, h1 = eng.e(a1), eng.h(1)
    he = eng.multiply(h1, e1)
    assert he.terms == {
        ((eng.lie.h(1).index, 1), (eng.lie.e(a1).index, 1)): Fraction(1)
    }
    assert he == eng.multiply(e1, h1) + 2 * e1


def test_square_product_cartan_part():
    eng = get_engine(2)
    eps1 = Root([1, 0])
    prod = eng.multiply(eng.e(eps1, 2), eng.f(eps1, 2))
    h = h_alpha_poly(eng.lie, eps1)
    assert hw_polynomial(eng, prod) == 2 * h * h - 2 * h


def _random_element(eng, rng, max_monos=2, max_deg=2):
    nb = eng.nbasis
    terms = {}
    for _ in range(rng.randint(1, max_monos)):
        idxs = sorted(rng.sample(range(nb), rng.randint(1, max_deg)))
        mono = tuple((i, 1) for i in idxs)
        terms[mono] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return eng.element(terms)


@pytest.mark.parametrize("l", [2, 3])
def test_multiply_associative_random(l):
    eng = get_engine(l)
    rng = random.Random(100 + l)
    for _ in range(60):
        a = _random_element(eng, rng)
        b = _random_element(eng, rng)
        c = _random_element(eng, rng)
        assert eng.multiply(eng.multiply(a, b), c) == eng.multiply(
            a, eng.multiply(b, c)
        )


def test_multiply_associative_exhaustive_generators():
    # every triple of single generators at rank 2
    eng = get_engine(2)
    gens = [eng.gen(b) for b in eng.lie.basis]
    for a in gens:
        for b in gens:
            ab = eng.multiply(a, b)
            for c in gens:
                assert eng.multiply(ab, c) == eng.multiply(a, eng.multiply(b, c))


def test_multiply_bilinear():
    eng = get_engine(2)
    rng = random.Random(9)
    a, b, c = (_random_element(eng, rng) for _ in range(3))
    s = Fraction(3, 2)
    assert eng.multiply(a + s * b, c) == eng.multiply(a, c) + s * eng.multiply(b, c)


def test_ad_examples():
    eng = get_engine(2)
    a1 = eng.lie.rootsys.simple_roots[0]
    e1, f1, h1 = eng.e(a1), eng.f(a1), eng.h(1)
    assert eng.ad(e1, f1) == h1
    assert eng.ad(h1, e1) == 2 * e1
    assert eng.ad(e1, eng.one()).is_zero()


# -- ad by the Leibniz rule against the commutator of products ----------------


def _random_fhe_element(eng, rng):
    """A constant and 2-4 monomials of up to two f, h and e letters each, at
    powers up to 3."""
    blocks = (
        range(eng.h_start),
        range(eng.h_start, eng.e_start),
        range(eng.e_start, eng.nbasis),
    )
    terms = {(): rng.randint(-2, 2)}
    for _ in range(rng.randint(2, 4)):
        mono = {
            rng.choice(block): rng.randint(1, 3)
            for block in blocks
            for _ in range(rng.randint(0, 2))
        }
        terms[tuple(sorted(mono.items()))] = Fraction(rng.randint(1, 5), 2)
    return eng.element(terms)


@pytest.mark.parametrize("l", [2, 3, 4])
def test_ad_matches_the_commutator_of_products(l):
    eng = UEA(get_lie(l))
    rng = random.Random(800 + l)
    for _ in range(60):
        x = eng.element(
            {
                ((i, 1),): Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
                for i in rng.sample(range(eng.nbasis), rng.randint(1, 3))
            }
        )
        y = _random_fhe_element(eng, rng)
        assert eng.ad(x, y) == eng.multiply(x, y) - eng.multiply(y, x)


def test_ad_refuses_an_x_outside_g():
    eng = get_engine(2)
    eps1 = Root([1, 0])
    y = eng.f(Root([0, 1]))
    for x in (eng.e(eps1, 2), eng.multiply(eng.h(1), eng.e(eps1)), eng.one()):
        with pytest.raises(ValueError):
            eng.ad(x, y)


# a negative exponent is an error, as for gen and ad_power, not the empty product
@pytest.mark.parametrize("n", [-1, -2])
def test_power_rejects_a_negative_exponent(n):
    eng = get_engine(2)
    with pytest.raises(ValueError, match="negative power"):
        eng.power(eng.h(1), n)
    with pytest.raises(ValueError, match="negative power"):
        eng.gen(eng.lie.h(1), n)
    assert eng.power(eng.h(1), 0) == eng.one()


def test_term_guard_bounds_each_bracket():
    # [e(eps1+eps2), f(eps2)^2 h_1 e(eps2)^2] has 10 terms at rank 2, and no
    # normal form on the way has more: a guard of 10 computes it, 9 trips
    lie = get_lie(2)
    mono = (
        (lie.f(Root([0, 1])).index, 2),
        (lie.h(1).index, 1),
        (lie.e(Root([0, 1])).index, 2),
    )
    eng = UEA(lie, term_guard=10)
    assert eng.ad(eng.e(Root([1, 1])), eng.element({mono: 1})).term_count() == 10
    tight = UEA(lie, term_guard=9)
    with pytest.raises(TermGuardExceeded):
        tight.ad(tight.e(Root([1, 1])), tight.element({mono: 1}))


def test_term_guard_bounds_each_ad_and_multiply_result():
    # every bracket and every monomial product below stays small; only the
    # sums that ad and multiply return reach N terms: guard N computes them,
    # N - 1 trips
    e1, e2 = Root([1, 0]), Root([0, 1])

    def bracket(eng):
        return eng.ad(eng.e(e1), eng.multiply(eng.f(e1, 3), eng.f(e2, 2)))

    def product(eng):
        x = eng.f(e1) + eng.f(e2) + eng.f(Root([1, 1])) + eng.f(Root([1, -1]))
        return eng.multiply(x, eng.one())

    for op, n in ((bracket, 11), (product, 4)):
        assert op(UEA(get_lie(2), term_guard=n)).term_count() == n
        with pytest.raises(TermGuardExceeded) as info:
            op(UEA(get_lie(2), term_guard=n - 1))
        assert str(info.value) == (
            f"U(g) normalization reached {n} terms, over the guard {n - 1}"
        )


def test_ad_power_zero_is_identity():
    eng = get_engine(2)
    y = eng.multiply(eng.h(1), eng.f(Root([1, 0])))
    assert eng.ad_power(eng.e(Root([0, 1])), 0, y) == y


@pytest.mark.parametrize("l", [2, 3])
def test_ad_power_kills_and_mirrors_the_quadratic(l):
    # (f_{eps_1}^4)_L ubar = 24 * (same expression with f's); the 5th power
    # annihilates
    eng = get_engine(l)
    ubar = singular_image(eng, 1)
    f1 = eng.f(Root([1] + [0] * (l - 1)))
    mirror = Fraction(-1, 4) * eng.f(Root([1] + [0] * (l - 1)), 2)
    for j in range(2, l + 1):
        coords_m = [0] * l
        coords_m[0] = 1
        coords_m[j - 1] = -1
        coords_p = [0] * l
        coords_p[0] = 1
        coords_p[j - 1] = 1
        mirror = mirror + eng.multiply(eng.f(Root(coords_m)), eng.f(Root(coords_p)))
    assert eng.ad_power(f1, 4, ubar) == 24 * mirror
    assert eng.ad_power(f1, 5, ubar).is_zero()


@pytest.mark.parametrize("l", [2, 3])
def test_ad_power_multinomial_agrees(l):
    eng = get_engine(l)
    rs = eng.lie.rootsys
    a1 = rs.simple_roots[0]
    eps1 = Root([1] + [0] * (l - 1))
    cases = [
        (eng.f(eps1), 2, [eng.e(eps1, 2), eng.e(a1)]),
        (eng.e(a1), 3, [eng.f(a1), eng.f(eps1), eng.h(1)]),
        (eng.f(eps1), 4, [singular_image(eng, 1)]),
    ]
    rng = random.Random(l)
    for _ in range(3):
        cases.append(
            (
                eng.gen(rng.choice(eng.lie.basis)),
                rng.randint(1, 3),
                [_random_element(eng, rng, 1, 2) for _ in range(2)],
            )
        )
    for x, n, factors in cases:
        prod = eng.one()
        for fac in factors:
            prod = eng.multiply(prod, fac)
        assert ad_power_multinomial(eng, x, n, factors) == eng.ad_power(x, n, prod)


def test_reduce_mod_nplus():
    eng = get_engine(2)
    a1 = eng.lie.rootsys.simple_roots[0]
    e1, f1, h1 = eng.e(a1), eng.f(a1), eng.h(1)
    x = eng.multiply(f1, e1) + h1
    red = eng.reduce_mod_nplus(x)
    assert red == h1
    assert eng.reduce_mod_nplus(red) == red
    hh = eng.multiply(eng.h(1), eng.h(2))
    assert eng.reduce_mod_nplus(hh) == hh
    ff = eng.multiply(eng.f(Root([1, 0])), eng.f(Root([0, 1])))
    assert eng.reduce_mod_nplus(ff) == ff


# n_-U(g) is the right ideal spanned by the monomials that start with a
# lowering letter, and ad(f) maps it into itself: the oracle's words run in
# the quotient on these facts
@pytest.mark.parametrize("l", [2, 3, 4])
def test_reduce_mod_nminus_is_the_quotient_by_a_right_ideal(l):
    eng = get_engine(l)

    def red(r):
        return reduce_mod_nminus(eng, r)

    assert red(eng.one()) == eng.one()
    lowering = [eng.gen(b) for b in eng.lie.basis[: eng.h_start]]
    rng = random.Random(900 + l)
    for _ in range(20):
        x = _random_fhe_element(eng, rng)
        r = red(x)
        assert red(r) == r
        # nothing led by a lowering letter is kept, and only that is dropped
        assert all(not m or m[0][0] >= eng.h_start for m in r.terms)
        assert all(m[0][0] < eng.h_start for m in (x - r).terms)
        for f in lowering:
            assert red(eng.multiply(f, x)).is_zero()
            u = red(eng.ad(f, x))
            assert u == red(eng.ad(f, r)) == red(-eng.multiply(x, f))


def _random_quotient_element(eng, rng):
    """2-4 monomials of up to four h and e letters each, at powers up to 3:
    an element of U(g)/n_-U(g) in its basis."""
    terms = {}
    for _ in range(rng.randint(2, 4)):
        mono = {
            rng.randrange(eng.h_start, eng.nbasis): rng.randint(1, 3)
            for _ in range(rng.randint(0, 4))
        }
        terms[tuple(sorted(mono.items()))] = Fraction(rng.randint(-5, 5) or 1, 2)
    return eng.element(terms)


# right multiplication in the quotient, for every letter, is the product in
# U(g) with its lowering-led monomials dropped, and for a lowering letter f
# it is -ad(f), as f·x lies in n_-U(g): the oracle's word step is built on it
@pytest.mark.parametrize("l", [2, 3, 4])
def test_right_insertion_is_the_product_modulo_nminus(l):
    eng = UEA(get_lie(l))
    rng = random.Random(1000 + l)
    for _ in range(12):
        x = _random_quotient_element(eng, rng)
        for b in eng.lie.basis:
            got = from_quotient(eng, eng.right_multiply(to_quotient(eng, x), b.index))
            want = reduce_mod_nminus(eng, eng.multiply(x, eng.gen(b)))
            assert got == want
            if b.index < eng.h_start:
                assert -got == reduce_mod_nminus(eng, eng.ad(eng.gen(b), x))


def test_weight_of():
    eng = get_engine(2)
    v1p = singular_image(eng, 1)
    assert eng.weight_of(v1p) == Weight([2, 0])
    assert eng.weight_of(eng.h(1)) == Weight([0, 0])
    a1 = eng.lie.rootsys.simple_roots[0]
    assert eng.weight_of(eng.e(a1) + eng.f(a1)) == "mixed"


def test_hw_polynomial_examples():
    eng = get_engine(2)
    eps1 = Root([1, 0])
    assert hw_polynomial(eng, eng.h(1)) == CartanPolynomial.variable(2, 1)
    ef = eng.multiply(eng.e(eps1), eng.f(eps1))
    assert hw_polynomial(eng, ef) == h_alpha_poly(eng.lie, eps1)
    fe = eng.multiply(eng.f(eps1), eng.e(eps1))
    assert hw_polynomial(eng, fe).is_zero()
    with pytest.raises(ValueError):
        hw_polynomial(eng, eng.e(eps1))


def test_hw_polynomial_multiplicative_in_cartan():
    eng = get_engine(2)
    eps1 = Root([1, 0])
    r = eng.multiply(eng.e(eps1), eng.f(eps1))
    hr = eng.multiply(eng.h(1), r)
    assert hw_polynomial(eng, hr) == CartanPolynomial.variable(2, 1) * hw_polynomial(eng, r)


def test_hw_polynomial_vanishes_on_left_ideal_elements():
    # weight-zero elements of U(g)n_+ act by zero on highest-weight vectors
    eng = get_engine(2)
    eps1 = Root([1, 0])
    theta = Root([1, 1])
    for u in (
        eng.multiply(eng.f(eps1), eng.e(eps1)),
        eng.multiply(eng.multiply(eng.f(theta), eng.h(2)), eng.e(theta)),
    ):
        assert hw_polynomial(eng, u).is_zero()


def test_term_guard_trips():
    lie = get_lie(2)
    tiny = UEA(lie, term_guard=3)
    eps1 = Root([1, 0])
    with pytest.raises(TermGuardExceeded):
        tiny.multiply(tiny.e(eps1, 3), tiny.f(eps1, 3))


def test_term_guard_bounds_each_normal_ordering_result():
    # e(eps1)^3 f(eps1)^3 has 19 terms at rank 2, and no insertion on the way
    # has more: a guard of 19 computes it, 18 trips
    lie = get_lie(2)
    eps1 = Root([1, 0])
    eng = UEA(lie, term_guard=19)
    assert eng.multiply(eng.e(eps1, 3), eng.f(eps1, 3)).term_count() == 19
    tight = UEA(lie, term_guard=18)
    with pytest.raises(TermGuardExceeded):
        tight.multiply(tight.e(eps1, 3), tight.f(eps1, 3))


def test_concurrent_multiplies_agree():
    # the memo table is shared; parallel callers must see one canonical form
    from concurrent.futures import ThreadPoolExecutor

    eng = UEA(get_lie(2))
    eps1 = Root([1, 0])
    a, b = eng.e(eps1, 3), eng.f(eps1, 3)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: eng.multiply(a, b), range(32)))
    assert all(r == results[0] for r in results)


# -- letter insertion against the bubble-sort normalizer ---------------------


def _compress(word):
    mono = []
    for idx in word:
        if mono and mono[-1][0] == idx:
            mono[-1] = (idx, mono[-1][1] + 1)
        else:
            mono.append((idx, 1))
    return tuple(mono)


def _normalize_word(brackets, word):
    """Reference normal form of a word of basis indices: swap the first
    out-of-order pair, adding its commutator, until every word is sorted."""
    out = {}
    stack = [(word, Fraction(1))]
    while stack:
        w, c = stack.pop()
        pos = -1
        for t in range(len(w) - 1):
            if w[t] > w[t + 1]:
                pos = t
                break
        if pos < 0:
            add_into(out, _compress(w), c)
            continue
        a, b = w[pos], w[pos + 1]
        stack.append((w[:pos] + (b, a) + w[pos + 2:], c))
        for k, cf in brackets[(a, b)].items():
            stack.append((w[:pos] + (k,) + w[pos + 2:], c * cf))
    return out


def _reference_multiply(eng, a, b):
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            word = tuple(idx for idx, p in m1 + m2 for _ in range(p))
            for m, c in _normalize_word(eng.brackets, word).items():
                add_into(out, m, c1 * c2 * c)
    return eng.element(out)


def _random_monomial(eng, rng, kind):
    """kind 0: the empty monomial; 1: pure Cartan; 2: one letter to a power
    2 or 3; 3: up to three letters from the whole basis."""
    if kind == 0:
        return ()
    if kind == 1:
        letters = [rng.randrange(eng.h_start, eng.e_start) for _ in range(3)]
    elif kind == 2:
        letters = [rng.randrange(eng.nbasis)] * rng.randint(2, 3)
    else:
        letters = [rng.randrange(eng.nbasis) for _ in range(rng.randint(1, 3))]
    return tuple(sorted(Counter(letters).items()))


@pytest.mark.parametrize("l", [2, 3, 4])
def test_multiply_matches_bubble_sort_reference(l):
    eng = UEA(get_lie(l))
    rng = random.Random(700 + l)
    for _ in range(5):
        for kind_a in range(4):
            for kind_b in range(4):
                a, b = (
                    eng.element(
                        {
                            _random_monomial(eng, rng, kind): Fraction(
                                rng.randint(1, 5), rng.randint(1, 3)
                            )
                            for _ in range(rng.randint(1, 2))
                        }
                    )
                    for kind in (kind_a, kind_b)
                )
                assert eng.multiply(a, b) == _reference_multiply(eng, a, b)
    assert eng._mono_cache
    assert all(
        type(c) is int for out in eng._mono_cache.values() for c in out.values()
    )


# -- the identity suite ------------------------------------------------------


def test_identity_1_example():
    assert check_identity(get_engine(2), 1, alpha=Root([1, 0]), m=2)


def test_identity_3_example_value():
    eng = get_engine(2)
    assert check_identity(eng, 3, k=1, i=2)
    lhs = eng.ad_power(eng.e(Root([1, 0])), 2, eng.f(Root([1, 1])))
    assert lhs == -2 * eng.e(Root([1, -1]))


def test_identity_6_empty_shift():
    eng = get_engine(2)
    p = CartanPolynomial.variable(2, 1) * CartanPolynomial.variable(2, 2)
    assert check_identity(eng, 6, alpha=Root([1, 1]), k=0, poly=p)


@pytest.mark.parametrize("l", [2, 3, 4])
def test_identity_suite_all_pass(l):
    recs = identity_suite(get_engine(l))
    failures = [(i, p) for i, p, s in recs if s == "FAIL"]
    assert failures == []
    skipped = {i for i, _, s in recs if s == "skip"}
    if l == 2:
        assert skipped == {7, 8, 9, 11, 12}
    else:
        assert skipped == set()


def _reference_identity_suite(engine, check, bound: int = 3) -> list:
    """The reference for identity_suite: one call of check (check_identity
    or a stand-in) for every record, identity 10 at k = m included."""
    l = engine.lie.rank
    records = []

    def run(ident, **params):
        ok = check(engine, ident, **params)
        records.append((ident, params, "pass" if ok else "FAIL"))

    for alpha in engine.lie.rootsys.positive_roots:
        h_alpha = h_alpha_poly(engine.lie, alpha)
        for m in range(1, bound + 1):
            run(1, alpha=alpha, m=m)
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
            for k in range(1, m + 1):
                run(10, alpha=alpha, k=k, m=m)
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
            records.append((ident, {"i": "3..l empty"}, "skip"))
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


def _listed(records) -> list:
    """Records with their params as (key, value) lists, so that the key
    order, which the printed FAIL lines show, is compared too."""
    return [(ident, list(params.items()), status) for ident, params, status in records]


@pytest.mark.parametrize(
    "l,counts",
    [(2, {"pass": 101, "skip": 5}), (3, {"pass": 258}), (4, {"pass": 455})],
)
def test_identity_suite_matches_a_check_per_record(l, counts, monkeypatch):
    """Identity 1 is checked once and recorded for identity 10 at k = m as
    well; the records (id, params, status, in order) are unchanged, also
    when that check fails."""
    engine = get_engine(l)
    recs = identity_suite(engine)
    assert _listed(recs) == _listed(_reference_identity_suite(engine, check_identity))
    assert Counter(s for _, _, s in recs) == counts

    def failing_at_2(engine, ident, **params):
        # identity 1 at m = 2 delegates here too, through the module global
        if ident == 10 and params["k"] == params["m"] == 2:
            return False
        return check_identity(engine, ident, **params)

    monkeypatch.setattr(blvoa.uea, "check_identity", failing_at_2)
    recs = identity_suite(engine)
    assert _listed(recs) == _listed(_reference_identity_suite(engine, failing_at_2))
    assert Counter(s for _, _, s in recs)["FAIL"] == 2 * l * l


def _root(l, a, b=0, sign=0):
    coords = [0] * l
    coords[a - 1] = 1
    if b:
        coords[b - 1] = sign
    return Root(coords)


@pytest.mark.parametrize("l", [2, 3])
def test_commuting_monomial_action(l):
    eng = get_engine(l)
    cases = [
        ([_root(l, 1, 2, -1), _root(l, 1, 2, 1)], [_root(l, 1), _root(l, 1)]),
        ([_root(l, 1), _root(l, 1)], [_root(l, 1, 2, -1), _root(l, 1, 2, 1)]),
        (
            [_root(l, 1), _root(l, 1), _root(l, 1, 2, 1)],
            [_root(l, 1, 2, 1), _root(l, 1), _root(l, 1)],
        ),
    ]
    if l >= 3:
        cases.append(
            (
                [_root(l, 1, 3, -1), _root(l, 1, 3, 1)],
                [_root(l, 1), _root(l, 1)],
            )
        )
        cases.append(
            (
                [_root(l, 1, 2, -1), _root(l, 1, 3, 1)],
                [_root(l, 1, 3, 1), _root(l, 1, 2, -1)],
            )
        )
    for betas, gammas in cases:
        assert check_commuting_monomials(eng, betas, gammas)


def test_commuting_monomial_rejects_bad_input():
    eng = get_engine(2)
    with pytest.raises(ValueError):
        check_commuting_monomials(eng, [_root(2, 1)], [_root(2, 2)])
    with pytest.raises(ValueError):
        # e_{eps1} and e_{eps2} do not commute
        check_commuting_monomials(
            eng, [_root(2, 1), _root(2, 2)], [_root(2, 1), _root(2, 2)]
        )


# -- Cartan polynomials -------------------------------------------------------


def test_poly_shift_and_falling():
    h1 = CartanPolynomial.variable(2, 1)
    h2 = CartanPolynomial.variable(2, 2)
    p = h1 * h1 + 3 * h2
    q = p.shift([1, Fraction(-1, 2)])
    assert q == h1 * h1 + 2 * h1 + 3 * h2 + 1 - Fraction(3, 2)
    f = falling(h1, 3)
    assert f.evaluate([5, 0]) == 5 * 4 * 3
    assert falling(h1, 0) == CartanPolynomial.constant(2, 1)


@pytest.mark.parametrize("count", [-1, -3])
def test_falling_rejects_a_negative_length(count):
    h1 = CartanPolynomial.variable(2, 1)
    with pytest.raises(ValueError, match="negative falling-factorial length"):
        falling(h1, count)
    with pytest.raises(ValueError, match="negative falling-factorial length"):
        falling(h1, count, start=2)


@pytest.mark.parametrize("i", [0, 3])
def test_cartan_variable_rejects_an_index_out_of_range(i):
    with pytest.raises(ValueError, match=f"h_{i} "):
        CartanPolynomial.variable(2, i)


@pytest.mark.parametrize("deltas", [[1, 2, 99], [1]])
def test_poly_shift_rejects_a_wrong_number_of_deltas(deltas):
    p = CartanPolynomial.variable(2, 1) * CartanPolynomial.variable(2, 2)
    with pytest.raises(ValueError, match=f"got {len(deltas)}"):
        p.shift(deltas)


def _shift_by_products(p, deltas):
    """h_i -> h_i + deltas[i-1] by repeated products, one factor at a time:
    the reference for the binomial shift."""
    out = CartanPolynomial(p.rank, {})
    for exps, c in p.terms.items():
        term = CartanPolynomial.constant(p.rank, c)
        for i, e in enumerate(exps):
            base = CartanPolynomial.variable(p.rank, i + 1) + deltas[i]
            for _ in range(e):
                term = term * base
        out = out + term
    return out


@pytest.mark.parametrize("l", [2, 3, 4])
def test_poly_shift_matches_repeated_products(l):
    rng = random.Random(l)
    for _ in range(20):
        exps = [tuple(rng.randint(0, 3) for _ in range(l)) for _ in range(5)]
        p = CartanPolynomial(l, {e: rng.randint(-5, 5) for e in exps})
        rational = p * Fraction(1, 3) + Fraction(1, 2)
        ints = [rng.randint(-3, 3) for _ in range(l)]
        integral = [Fraction(d) for d in ints]
        halves = [Fraction(rng.randint(-7, 7), 2) for _ in range(l)]
        for deltas in (ints, integral, halves):
            for poly in (p, rational):
                assert poly.shift(deltas) == _shift_by_products(poly, deltas)
        for deltas in (ints, integral):
            assert all(type(c) is int for c in p.shift(deltas).terms.values())


def test_poly_eval_on_weight():
    p = CartanPolynomial.variable(2, 1) * CartanPolynomial.variable(2, 2)
    mu = weight_from_fundamental([Fraction(3, 2), 4])
    assert evaluate_weight(p, mu) == 6


def naive_evaluate(poly, fundamental):
    """Term by term in Fraction arithmetic, each power taken afresh."""
    vals = [Fraction(v) for v in fundamental]
    total = Fraction(0)
    for exps, c in poly.terms.items():
        term = c
        for v, p in zip(vals, exps):
            term *= v**p
        total += term
    return total


def test_poly_evaluate_edge_cases():
    h1 = CartanPolynomial.variable(2, 1)
    assert CartanPolynomial(2, {}).evaluate([1, 2]) == 0
    c = Fraction(-7, 3)
    assert CartanPolynomial.constant(2, c).evaluate([0, 5]) == c
    p = Fraction(1, 6) * h1 * h1 - Fraction(5, 4) * CartanPolynomial.variable(2, 2)
    for vals in ([0, 0], [Fraction(-3, 2), Fraction(2, 3)], [7, Fraction(-1, 5)]):
        got = p.evaluate(vals)
        assert type(got) is Fraction and got == naive_evaluate(p, vals)


@pytest.mark.parametrize("vals", [[1], [1, 3, 5], []], ids=len)
def test_poly_evaluate_rejects_the_wrong_number_of_values(vals):
    # h_2^2 at rank 2 read 1 at (1,) and 9 at (1, 3, 5) without an error
    h2 = CartanPolynomial.variable(2, 2)
    for p in (h2 * h2, CartanPolynomial(2, {})):
        with pytest.raises(ValueError, match=f"needs 2 values, one per h_i, got {len(vals)}"):
            p.evaluate(vals)


# the q prefilter of classify at n >= 2, on every triangular candidate
@pytest.mark.parametrize("l,n", [(4, 2), (3, 3)])
def test_poly_evaluate_matches_naive_on_candidates(l, n):
    from blvoa.zero_weight import explicit_q

    q = explicit_q(get_lie(l), n)
    candidates = solve_triangular(l, n)
    assert len(candidates) > 200
    zeros = 0
    for w in candidates:
        got = evaluate_weight(q, w)
        assert got == naive_evaluate(q, w.fundamental())
        zeros += got == 0
    assert zeros == {(4, 2): 80, (3, 3): 84}[(l, n)]


def test_poly_span_tools():
    h1 = CartanPolynomial.variable(2, 1)
    h2 = CartanPolynomial.variable(2, 2)
    basis = poly_echelon([h1 + h2, 2 * h1 + 2 * h2, h1 - h2])
    assert len(basis) == 2
    assert poly_in_span(5 * h1 - 3 * h2, basis)
    assert not poly_in_span(h1 * h2, basis)
    assert spans_equal([h1 + h2, h1 - h2], [h1, h2])
    assert not spans_equal([h1], [h2])


def test_poly_in_span_of_a_non_echelon_list():
    # h1 = (h1 + h2) - h2, whichever order the spanning list comes in
    h1 = CartanPolynomial.variable(2, 1)
    h2 = CartanPolynomial.variable(2, 2)
    assert poly_in_span(h1, [h2, h1 + h2])
    assert poly_in_span(h1, [h1 + h2, h2])
    assert not poly_in_span(h1 * h2, [h2, h1 + h2])


def _dense_grlex_rref(polys, rank):
    """Gauss-Jordan elimination on a dense Fraction matrix whose columns are
    the monomials in decreasing grlex order; rows come out sorted by pivot,
    grlex ascending."""
    cols = sorted(
        {e for p in polys for e in p.terms}, key=lambda e: (sum(e), e), reverse=True
    )
    rows = [[p.terms.get(e, Fraction(0)) for e in cols] for p in polys]
    r = 0
    for j in range(len(cols)):
        piv = next((i for i in range(r, len(rows)) if rows[i][j] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][j] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][j] != 0:
                f = rows[i][j]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return [CartanPolynomial(rank, dict(zip(cols, row))) for row in reversed(rows[:r])]


def _random_poly(rng, rank):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = tuple(rng.randint(0, 2) for _ in range(rank))
        terms[exps] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    return CartanPolynomial(rank, terms)


class _ReducedEchelon:
    """Reference: reduced row echelon basis in Fractions.  Each row has lead
    coefficient 1 on its pivot (its largest key under order), and every
    insert back-eliminates the new pivot from the stored rows in place."""

    def __init__(self, order=None):
        self.order = order
        self.pivots = {}

    def reduce(self, terms):
        work = {k: c for k, c in terms.items() if c != 0}
        for p, row in self.pivots.items():
            c = work.get(p)
            if c:
                for k, v in row.items():
                    add_into(work, k, -c * v)
        return work

    def insert(self, terms):
        work = self.reduce(terms)
        if not work:
            return None
        lead = max(work, key=self.order)
        inv = 1 / Fraction(work[lead])
        row = {k: inv * c for k, c in work.items()}
        for other in self.pivots.values():
            c = other.get(lead)
            if c:
                for k, v in row.items():
                    add_into(other, k, -c * v)
        self.pivots[lead] = row
        return row

    @property
    def dim(self):
        return len(self.pivots)

    def rows(self):
        return [self.pivots[p] for p in sorted(self.pivots, key=self.order)]


def _echelon_rows(cls, polys):
    span = cls(order=grlex)
    for p in polys:
        span.insert(p.terms)
    return span.rows()


@pytest.mark.parametrize("l", [2, 3, 4])
def test_poly_echelon_matches_dense_gauss_jordan(l):
    rng = random.Random(500 + l)
    for _ in range(40):
        polys = [_random_poly(rng, l) for _ in range(rng.randint(1, 6))]
        for _ in range(rng.randint(1, 3)):
            a, b = rng.choice(polys), rng.choice(polys)
            s = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            polys.append(rng.choice([a, s * a + b, a - a]))   # duplicate, dependent, zero
        rng.shuffle(polys)
        basis = poly_echelon(polys)
        assert basis == _dense_grlex_rref(polys, l)
        assert all(poly_in_span(p, basis) for p in polys)
        # the canonical rows do not depend on the order of insertion
        want = _echelon_rows(_ReducedEchelon, polys)
        assert _echelon_rows(Echelon, polys) == want
        for _ in range(3):
            perm = rng.sample(polys, len(polys))
            assert _echelon_rows(Echelon, perm) == want
            assert _echelon_rows(_ReducedEchelon, perm) == want


def test_echelon_stores_primitive_rows_that_never_change():
    rng = random.Random(11)
    span = Echelon()

    def draw():
        keys = rng.sample(range(12), rng.randint(1, 5))
        return {k: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for k in keys}

    row = None
    while row is None:
        row = span.insert(draw())
    snapshot = dict(row)
    for _ in range(20):
        span.insert(draw())
    assert row == snapshot and span.pivots[max(row)] is row
    for stored in span.pivots.values():
        assert all(type(c) is int for c in stored.values())
        assert math.gcd(*stored.values()) == 1


# the oracle on the fraction-free Echelon against the reduced-rational one
@pytest.mark.parametrize(
    "l,n", [(2, 1), (3, 1), (4, 1), (2, 2), (2, 3), (3, 2)]
)
def test_oracle_matches_the_reduced_rational_echelon(l, n, monkeypatch):
    eng = get_engine(l)
    module = generate_module(eng, n)
    basis = p0_basis(eng, n)
    monkeypatch.setattr(blvoa.zero_weight, "Echelon", _ReducedEchelon)
    reference = generate_module(eng, n)
    assert type(reference) is _ReducedEchelon
    assert module.rows() == reference.rows()
    assert p0_basis(eng, n) == basis


def _uea_elements():
    eng = get_engine(2)
    a = _random_element(eng, random.Random(7), 3, 3)
    return (
        a,
        eng.element(dict(reversed(list(a.terms.items())))),
        get_engine(3).element(a.terms),
    )


def _verma_vectors():
    lie = get_lie(2)
    terms = {((-1, 0),): Fraction(2), ((-2, 1), (-1, 3)): Fraction(-1, 3)}
    flipped = dict(reversed(list(terms.items())))
    return (
        VacuumModule(lie, Fraction(1, 2)).element(terms),
        VacuumModule(lie, Fraction(1, 2)).element(flipped),
        VacuumModule(lie, Fraction(3, 2)).element(terms),
    )


def _verma_vectors_across_ranks():
    a, same, _ = _verma_vectors()
    return a, same, VacuumModule(get_lie(3), Fraction(1, 2)).element(a.terms)


def _cartan_polys():
    terms = {(1, 0): Fraction(2), (0, 2): Fraction(-1, 3), (0, 0): Fraction(5)}
    flipped = dict(reversed(list(terms.items())))
    return (
        CartanPolynomial(2, terms),
        CartanPolynomial(2, flipped),
        CartanPolynomial(3, terms),
    )


@pytest.mark.parametrize(
    "make",
    [_uea_elements, _verma_vectors, _verma_vectors_across_ranks, _cartan_polys],
)
def test_sparse_vector_laws(make):
    a, same, elsewhere = make()
    assert not a.is_zero()
    assert (a - a).is_zero()
    assert (-1) * a == -a
    assert a == same and hash(a) == hash(same)
    assert elsewhere.terms == a.terms
    assert a != elsewhere


# coefficients stay the exact type they were made as: products of
# generators never leave the integers, and a float is refused, not converted
@pytest.mark.parametrize("l", [2, 3])
def test_generator_products_have_int_coefficients(l):
    eng = get_engine(l)
    roots = eng.lie.rootsys.positive_roots
    for a in roots:
        for b in roots:
            prod = eng.multiply(eng.f(a), eng.e(b))
            assert all(type(c) is int for c in prod.terms.values())
        for b in roots:
            for x, y in ((eng.e(a), eng.f(b, 2)), (eng.f(a), eng.e(b, 2))):
                v = eng.ad_power(x, 3, y)
                assert all(type(c) is int for c in v.terms.values())


def test_floats_are_refused():
    eng = get_engine(2)
    mod = VacuumModule(get_lie(2), Fraction(1, 2))
    p = CartanPolynomial.variable(2, 1)
    with pytest.raises(TypeError):
        eng.element({((0, 1),): 0.5})
    with pytest.raises(TypeError):
        mod.element({((-1, 0),): 0.5})
    with pytest.raises(TypeError):
        CartanPolynomial(2, {(1, 0): 0.1})
    with pytest.raises(TypeError):
        CartanPolynomial.constant(2, 1.0)
    for x in (eng.one(), mod.vacuum(), p):
        with pytest.raises(TypeError):
            x * 0.5
        with pytest.raises(TypeError):
            0.5 * x
    with pytest.raises(TypeError):
        p + 0.5
    with pytest.raises(TypeError):
        p.evaluate([0.5, 1])
    with pytest.raises(TypeError):
        VacuumModule(get_lie(2), 0.1)
    with pytest.raises(TypeError):
        check_singular(get_lie(2), 1, 0.1)
    with pytest.raises(TypeError):
        is_admissible(AffineWeight(0.5, Weight([0, 0])), RootSystem(2))
    with pytest.raises(TypeError):
        Weight([0.1, 0])
    with pytest.raises(TypeError):
        weight_from_fundamental([0.1, 0])
    with pytest.raises(TypeError):
        Root([1.0, 0])
    with pytest.raises(TypeError):
        0.5 * Weight([1, 0])
    # exact scalars keep their type
    assert (3 * eng.one()).terms == {(): 3}
    assert type((Fraction(2) * eng.one()).terms[()]) is Fraction
