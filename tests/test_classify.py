"""Classification lists: triangular-system zeros, the subset formulas,
category-O and finite-dimensional enumerations, and certification."""

import random
from fractions import Fraction

import pytest

from classify_reference import (
    closed_form_category_o,
    mu_s,
    mu_s_prime,
    q_value,
    solve_triangular,
)
from conftest import get_engine, get_lie
from fraction_reference import inner
from uea_reference import evaluate_weight

from blvoa.classify import (
    certify,
    classify_category_o,
    classify_finite_dim,
    level_of,
    merge_results,
)
from blvoa.rootsys import Weight, weight_from_fundamental
from blvoa.zero_weight import explicit_p, explicit_q, p0_basis


def fund(w):
    return tuple(w.fundamental())


def test_level_of():
    assert level_of(2, 1) == Fraction(-1, 2)
    assert level_of(3, 1) == Fraction(-3, 2)
    assert level_of(2, 2) == Fraction(1, 2)


def test_solve_triangular_rank2_n1():
    got = {fund(w) for w in solve_triangular(2, 1)}
    want = {
        (Fraction(0), Fraction(0)),
        (Fraction(-1, 2), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(-3, 2), Fraction(1)),
    }
    assert got == want


@pytest.mark.parametrize("l,n", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_solve_triangular_count_and_vanishing(l, n):
    lie = get_lie(l)
    sols = solve_triangular(l, n)
    assert len(sols) <= (2 * n) ** l
    ps = [explicit_p(lie, i, n) for i in range(1, l + 1)]
    for w in sols:
        for p in ps:
            assert evaluate_weight(p, w) == 0


def test_solve_triangular_finds_all_zeros_by_box_scan():
    # independent oracle: the common zeros of p_1..p_l on a grid of
    # half-integer coordinates that contains every zero, in both directions.
    # p_i involves h_i..h_l only, so the grid is scanned from h_l down, and
    # a prefix (h_i, ..., h_l) is kept only where p_i vanishes.
    for l, n in ((2, 1), (2, 2), (3, 1), (3, 2)):
        lie = get_lie(l)
        ps = [explicit_p(lie, i, n) for i in range(1, l + 1)]
        for i, p in enumerate(ps):
            assert all(not any(exps[:i]) for exps in p.terms)
        sols = [fund(w) for w in solve_triangular(l, n)]
        bound = 2 * l * n
        assert all(abs(c) <= bound for s in sols for c in s)
        grid = [Fraction(t, 2) for t in range(-2 * bound, 2 * bound + 1)]
        tails = [()]
        for i in range(l - 1, -1, -1):
            tails = [
                (c,) + tail
                for tail in tails
                for c in grid
                if ps[i].evaluate([0] * i + [c, *tail]) == 0
            ]
        assert sorted(tails) == sols, (l, n)
        for s in sols:
            assert all(p.evaluate(s) == 0 for p in ps)


def _fraction_solve_triangular(rank, n):
    """The back-substitution in Fraction that solve_triangular replaced."""
    partial = [[Fraction(t)] for t in range(2 * n)]
    for i in range(rank - 1, 0, -1):
        grown = []
        for tail in partial:
            chain = 2 * sum(tail[:-1], Fraction(0)) + tail[-1]
            offset = Fraction(2 * (rank - i) - 1, 2)
            values = {Fraction(t) for t in range(n)}
            values |= {Fraction(t) - offset - chain for t in range(n)}
            for v in sorted(values):
                grown.append([v] + tail)
        partial = grown
    seen = set()
    out = []
    for coords in partial:
        key = tuple(coords)
        if key not in seen:
            seen.add(key)
            out.append(weight_from_fundamental(coords))
    return sorted(out, key=lambda w: w.fundamental())


DIFFERENTIAL_POINTS = [(l, n) for l in (2, 3, 4) for n in (1, 2, 3)] + [(5, 2)]


@pytest.mark.parametrize("l,n", DIFFERENTIAL_POINTS)
def test_solve_triangular_matches_fraction_reference(l, n):
    assert solve_triangular(l, n) == _fraction_solve_triangular(l, n)


@pytest.mark.parametrize("l,n", DIFFERENTIAL_POINTS)
def test_q_value_matches_expanded_q(l, n):
    q = explicit_q(get_lie(l), n)
    rng = random.Random(100 * l + n)
    randoms = [
        weight_from_fundamental([Fraction(rng.randint(-12, 12), 2) for _ in range(l)])
        for _ in range(40)
    ]
    for w in solve_triangular(l, n) + randoms:
        got = q_value(n, w)
        assert type(got) is Fraction and got == evaluate_weight(q, w), w


@pytest.mark.parametrize("l,n", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
def test_category_o_filter_matches_expanded_q(l, n):
    lie = get_lie(l)
    q = explicit_q(lie, n)
    want = [w for w in solve_triangular(l, n) if evaluate_weight(q, w) == 0]
    assert [e.weight for e in classify_category_o(lie, n).entries] == want


def test_mu_subset_examples():
    rs = get_lie(2).rootsys
    assert fund(mu_s(rs, [])) == (0, 0)
    assert fund(mu_s_prime(rs, [])) == (0, 1)
    assert fund(mu_s(rs, [1])) == (Fraction(-1, 2), 0)
    assert fund(mu_s_prime(rs, [1])) == (Fraction(-3, 2), 1)
    with pytest.raises(ValueError):
        mu_s(rs, [2])
    with pytest.raises(ValueError):
        mu_s(rs, [1, 1])


@pytest.mark.parametrize("l", [2, 3, 4])
def test_category_o_matches_triangular_at_n1(l):
    lie = get_lie(l)
    result = classify_category_o(lie, 1)
    assert len(result.entries) == 2**l
    assert result.complete
    got = {fund(e.weight) for e in result.entries}
    tri = {fund(w) for w in solve_triangular(l, 1)}
    assert got == tri


# the n = 1 list read off the triangular zeros against the paper's closed
# form: the same weights, in the same order, with the same S labels
@pytest.mark.parametrize("l", [2, 3, 4, 5, 6, 7])
def test_category_o_at_n1_matches_the_closed_form(l):
    lie = get_lie(l)
    got = [(e.weight, e.s_label) for e in classify_category_o(lie, 1).entries]
    assert got == closed_form_category_o(lie.rootsys)
    assert len(got) == 2**l


@pytest.mark.parametrize("l", [2, 3])
def test_category_o_entries_zero_the_oracle(l):
    eng = get_engine(l)
    basis = p0_basis(eng, 1)
    for e in classify_category_o(eng.lie, 1).entries:
        for p in basis:
            assert evaluate_weight(p, e.weight) == 0


def test_category_o_candidates_at_n2():
    lie = get_lie(2)
    result = classify_category_o(lie, 2)
    assert not result.complete
    assert "candidate" in result.entries[0].tags
    q = explicit_q(lie, 2)
    tri = {fund(w) for w in solve_triangular(2, 2)}
    got = {fund(e.weight) for e in result.entries}
    assert got <= tri
    for e in result.entries:
        assert evaluate_weight(q, e.weight) == 0
    # the finite-dimensional list must be contained in the candidates
    fd = {fund(e.weight) for e in classify_finite_dim(lie.rootsys, 2).entries}
    assert fd <= got


def test_classify_finite_dim_rank2():
    rs = get_lie(2).rootsys
    got = {fund(e.weight) for e in classify_finite_dim(rs, 1).entries}
    assert got == {(0, 0), (0, 1)}
    result2 = classify_finite_dim(rs, 2)
    got2 = {fund(e.weight) for e in result2.entries}
    assert got2 == {(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1)}
    eps1 = Weight([1, 0])
    for e in result2.entries:
        assert rs.is_dominant_integral(e.weight)
        assert inner(e.weight, eps1) <= Fraction(3, 2)
    q = explicit_q(get_lie(2), 2)
    for e in result2.entries:
        assert evaluate_weight(q, e.weight) == 0


def test_finite_dim_is_dominant_subset_of_category_o():
    for l in (2, 3):
        lie = get_lie(l)
        rs = lie.rootsys
        cat = classify_category_o(lie, 1)
        fd = classify_finite_dim(rs, 1)
        dominant = {
            fund(e.weight) for e in cat.entries if rs.is_dominant_integral(e.weight)
        }
        assert {fund(e.weight) for e in fd.entries} == dominant


def test_certify_all_entries():
    for l in (2, 3):
        lie = get_lie(l)
        merged = merge_results(
            classify_category_o(lie, 1), classify_finite_dim(lie.rootsys, 1)
        )
        certified = certify(merged, lie.rootsys)
        assert all(e.admissible for e in certified.entries)
        both = [e for e in certified.entries if len(e.tags) == 2]
        assert {fund(e.weight) for e in both} == {
            fund(e.weight) for e in classify_finite_dim(lie.rootsys, 1).entries
        }


def test_merge_requires_same_parameters():
    lie = get_lie(2)
    with pytest.raises(ValueError):
        merge_results(classify_category_o(lie, 1), classify_finite_dim(lie.rootsys, 2))


def test_entries_sorted_deterministically():
    lie = get_lie(3)
    result = classify_category_o(lie, 1)
    funds = [fund(e.weight) for e in result.entries]
    assert funds == sorted(funds)
