"""The adjoint-module oracle: dimensions, the zero-weight polynomial span,
and the explicit closed-form polynomials."""

import math
import re
from fractions import Fraction

import pytest

from conftest import get_engine, get_lie, reduce_mod_nminus
from oracle_reference import (
    AdModuleBasis,
    dim_zero,
    generate_nonnegative_module,
    generate_whole_module,
)
from uea_reference import (
    evaluate_weight,
    from_quotient,
    hw_polynomial,
    poly_in_span,
    to_quotient,
)

from blvoa.rootsys import (
    Root,
    Weight,
    harmonic_multiplicities,
    weight_from_fundamental,
)
from blvoa.uea import (
    CartanPolynomial,
    Echelon,
    UEA,
    UEAElement,
    poly_echelon,
    spans_equal,
)
from blvoa.zero_weight import (
    OracleCeilingExceeded,
    explicit_p,
    explicit_polys,
    explicit_q,
    generate_module,
    p0_basis,
    singular_image,
    verify_membership,
)


def test_singular_image_weight():
    eng = get_engine(2)
    v = singular_image(eng, 1)
    assert eng.weight_of(v) == Weight([2, 0])
    assert singular_image(eng, 0) == eng.one()


# dim0 is the zero-weight multiplicity of V(2n eps_1), C(n+l-1, l-1):
# l at n = 1, and 3 at (l, n) = (2, 2).
@pytest.mark.parametrize(
    "l,n,dim,dim0",
    [
        (2, 1, 14, 2),
        (3, 1, 27, 3),
        (4, 1, 44, 4),
        (2, 2, 55, 3),
    ],
)
def test_generate_module_dimensions(l, n, dim, dim0):
    eng = get_engine(l)
    module = generate_whole_module(eng, n)
    assert module.dim == dim
    assert module.dim == eng.lie.rootsys.weyl_dim(
        Weight([2 * n] + [0] * (l - 1))
    )
    assert dim_zero(module) == dim0


def _two_sided_saturation(engine, n):
    """Reference: saturate the singular image breadth-first under ad(e_i)
    and ad(f_i), recomputing each new vector's weight from its monomials."""
    lie = engine.lie
    simple = lie.rootsys.simple_roots
    gens = [engine.e(a) for a in simple] + [engine.f(a) for a in simple]
    basis = AdModuleBasis(lie.rank)
    queue = [singular_image(engine, n)]
    basis.space(engine.weight_of(queue[0]).eps).insert(queue[0].terms)
    for v in queue:
        for g in gens:
            u = engine.ad(g, v)
            if u.is_zero():
                continue
            row = basis.space(engine.weight_of(u).eps).insert(u.terms)
            if row is not None:
                queue.append(UEAElement(engine, row))
    return basis


@pytest.mark.parametrize("l,n", [(2, 1), (3, 1), (4, 1), (2, 2)])
def test_descent_matches_two_sided_saturation(l, n):
    eng = get_engine(l)
    module = generate_whole_module(eng, n)
    reference = _two_sided_saturation(eng, n)
    assert module.spaces.keys() == reference.spaces.keys()
    for w, space in module.spaces.items():
        assert space.rows() == reference.spaces[w].rows()


# the descent runs in integers: each stored row is a primitive int vector
@pytest.mark.parametrize("l,n", [(2, 1), (3, 1), (2, 2), (2, 3)])
def test_descent_stores_primitive_int_rows(l, n):
    module = generate_whole_module(get_engine(l), n)
    for space in module.spaces.values():
        for row in space.pivots.values():
            assert all(type(c) is int for c in row.values())
            assert math.gcd(*row.values()) == 1


def _is_nonnegative(mu):
    """mu >= 0: every partial sum of its eps-coordinates is >= 0."""
    return all(sum(mu[: i + 1]) >= 0 for i in range(len(mu)))


@pytest.mark.parametrize(
    "l,n", [(2, 1), (3, 1), (4, 1), (2, 2), (2, 3), (3, 2)]
)
def test_pruned_descent_matches_the_full_module(l, n):
    eng = get_engine(l)
    full = generate_whole_module(eng, n)
    pruned = generate_nonnegative_module(eng, n)
    assert pruned.spaces.keys() == {w for w in full.spaces if _is_nonnegative(w)}
    for w, space in pruned.spaces.items():
        assert space.dim > 0
        assert space.dim == full.spaces[w].dim
        # the pruned descent runs modulo n_-U(g)
        quotient = Echelon()
        for row in full.spaces[w].rows():
            quotient.insert(reduce_mod_nminus(eng, UEAElement(eng, row)).terms)
        assert space.rows() == quotient.rows()
    from_full = poly_echelon(
        hw_polynomial(eng, UEAElement(eng, row)) for row in full.zero_weight_rows()
    )
    assert p0_basis(eng, n) == from_full


def _descent_step_in_ug(eng):
    """UEA.right_multiply by a lowering letter f as the quotient descent's
    earlier step: -ad(f)·y built in U(g), then its lowering-led monomials
    dropped."""

    def step(y, x):
        u = eng.ad(eng.gen(eng.lie.basis[x]), from_quotient(eng, y))
        return to_quotient(eng, -reduce_mod_nminus(eng, u))

    return step


# the word path's step y·f in U(g)/n_-U(g) against -ad(f)·y in U(g) with
# n_-U(g) dropped after it: the same R_0 rows
@pytest.mark.parametrize(
    "l,n", [(2, 1), (3, 1), (4, 1), (2, 2), (2, 3), (3, 2), (4, 2), (3, 3)]
)
def test_quotient_descent_matches_the_step_in_ug(l, n, monkeypatch):
    module = generate_module(UEA(get_lie(l)), n)
    eng = UEA(get_lie(l))
    monkeypatch.setattr(eng, "right_multiply", _descent_step_in_ug(eng))
    assert module.rows() == generate_module(eng, n).rows()


# where the quotient drops the most: each space mu >= 0 still closes at its
# multiplicity in V(2n eps_1), so the projection is injective there
@pytest.mark.parametrize("l,n", [(4, 2), (2, 4), (3, 3)])
def test_quotient_descent_closes_every_space_at_its_target(l, n):
    module = generate_nonnegative_module(get_engine(l), n)
    want = {
        mu: m
        for mu, m in harmonic_multiplicities(l, 2 * n).items()
        if _is_nonnegative(mu)
    }
    assert {mu: s.dim for mu, s in module.spaces.items()} == want


def test_descent_names_a_space_that_closes_short(monkeypatch):
    def padded(rank, k):
        table = harmonic_multiplicities(rank, k)
        table[(0,) * rank] += 1
        table[(-k,) + (0,) * (rank - 1)] -= 1   # keeps the Weyl dimension
        return table

    monkeypatch.setattr("blvoa.zero_weight.harmonic_multiplicities", padded)
    with pytest.raises(
        RuntimeError, match=r"weight space \(0, 0\) closed at dimension 2, target 3"
    ):
        generate_module(get_engine(2), 1)


def test_descent_checks_its_targets_against_the_weyl_dimension(monkeypatch):
    def short(rank, k):
        table = harmonic_multiplicities(rank, k)
        table[(0,) * rank] -= 1
        return table

    monkeypatch.setattr("blvoa.zero_weight.harmonic_multiplicities", short)
    with pytest.raises(RuntimeError, match="Weyl dimension"):
        generate_module(get_engine(2), 1)


def test_descent_rejects_a_vector_not_of_highest_weight(monkeypatch):
    eng = get_engine(2)
    alpha = eng.lie.rootsys.simple_roots[0]
    monkeypatch.setattr(
        "blvoa.zero_weight.singular_image", lambda engine, n: engine.f(alpha)
    )
    with pytest.raises(RuntimeError, match="highest-weight"):
        generate_module(eng, 1)


# a word result must be a Cartan polynomial: a raising or a lowering letter
# in it is an engine fault, which raises and names the letter
@pytest.mark.parametrize("kind,name", [("e", "e(e1-e2)"), ("f", "f(e1-e2)")])
def test_word_result_outside_the_cartan_is_named(kind, name, monkeypatch):
    eng = UEA(get_lie(2))
    alpha = eng.lie.rootsys.simple_roots[0]
    stray = getattr(eng.lie, kind)(alpha).index

    def leaky(engine, y, x):
        return {(): {(1, 0): 1}, ((stray, 1),): {(0, 0): 1}}

    monkeypatch.setattr(UEA, "right_multiply", leaky)
    with pytest.raises(RuntimeError, match=rf"letter {re.escape(name)} outside"):
        generate_module(eng, 1)


def test_oracle_ceiling():
    eng = get_engine(2)
    with pytest.raises(OracleCeilingExceeded):
        generate_module(eng, 1, ceiling=3)


# the ceiling bounds the vectors the descent builds, checked before any
# work: weyl_dim(6 eps_1) = 2,508 for the whole module at (4, 3), and
# 1,000 at the weights >= 0
def test_oracle_ceiling_counts_the_descent_targets():
    eng = get_engine(4)
    with pytest.raises(OracleCeilingExceeded, match="2508 vectors"):
        generate_whole_module(eng, 3)
    with pytest.raises(OracleCeilingExceeded, match="1000 vectors"):
        generate_nonnegative_module(eng, 3, ceiling=999)


# the word path builds one vector per distinct prefix of its words, counted
# before any work: 4 at (2, 1) (f_{eps_1}, f_{eps_1}^2, f_{eps_1+eps_2} and
# f_{eps_1+eps_2} f_{eps_1-eps_2}), 94 for the 20 words at (4, 3)
@pytest.mark.parametrize("l,n,count", [(2, 1, 4), (4, 3, 94)])
def test_oracle_ceiling_counts_the_word_prefixes(l, n, count, monkeypatch):
    eng = get_engine(l)
    monkeypatch.setattr(
        "blvoa.zero_weight.singular_image",
        lambda *a: pytest.fail("work started before the ceiling check"),
    )
    with pytest.raises(OracleCeilingExceeded, match=f"words build {count} vectors"):
        generate_module(eng, n, ceiling=count - 1)


# the word path against both descents it replaced: the same R_0 as the
# descent through the weights mu >= 0, and the same P_0 as the whole module
# R in U(g); the whole module is skipped at (3, 3), where it takes about
# 13 s.  In the quotient a weight-0 row is its polynomial (no monomial is
# dropped), so the descent's R_0 rows, mapped to polynomials, must give
# the word path's rows.
@pytest.mark.parametrize(
    "l,n",
    [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (2, 3), (4, 2), (2, 4), (3, 3)],
)
def test_word_path_matches_the_reference_descents(l, n):
    eng = get_engine(l)
    words = generate_module(eng, n)
    descent = generate_nonnegative_module(eng, n)
    assert words.dim == dim_zero(descent) == math.comb(n + l - 1, l - 1)
    rows = descent.zero_weight_rows()
    polys = [hw_polynomial(eng, UEAElement(eng, row)) for row in rows]
    assert [len(p.terms) for p in polys] == [len(row) for row in rows]
    basis = p0_basis(eng, n)
    assert basis == poly_echelon(polys)
    assert basis == [CartanPolynomial(l, row) for row in words.rows()]
    if (l, n) != (3, 3):
        assert basis == poly_echelon(
            hw_polynomial(eng, UEAElement(eng, row))
            for row in generate_whole_module(eng, n).zero_weight_rows()
        )


def test_p0_basis_rank2():
    eng = get_engine(2)
    basis = p0_basis(eng, 1)
    assert len(basis) == 2
    h1 = CartanPolynomial.variable(2, 1)
    h2 = CartanPolynomial.variable(2, 2)
    p1 = h1 * (h1 + h2 + Fraction(1, 2))
    p2 = h2 * (h2 - 1)
    assert spans_equal(basis, [p1, p2])


def test_explicit_p_examples():
    lie2 = get_lie(2)
    h1 = CartanPolynomial.variable(2, 1)
    h2 = CartanPolynomial.variable(2, 2)
    assert explicit_p(lie2, 2, 1) == h2 * (h2 - 1)
    assert explicit_p(lie2, 1, 1) == h1 * (h1 + h2 + Fraction(1, 2))
    lie3 = get_lie(3)
    h3_2 = CartanPolynomial.variable(3, 2)
    h3_3 = CartanPolynomial.variable(3, 3)
    # p_2 at l=3, n=1: h_2 (h_2 + h_3 + 1/2) since h_{eps_2+eps_3} = h_2+h_3
    assert explicit_p(lie3, 2, 1) == h3_2 * (h3_2 + h3_3 + Fraction(1, 2))
    with pytest.raises(ValueError):
        explicit_p(lie2, 3, 1)


def test_explicit_p_rank2_n2():
    lie = get_lie(2)
    h1 = CartanPolynomial.variable(2, 1)
    h2 = CartanPolynomial.variable(2, 2)
    chain = h1 + h2   # h_{eps_1 + eps_2} at rank 2
    want = (
        h1
        * (h1 - 1)
        * (chain + Fraction(1, 2))
        * (chain - Fraction(1, 2))
    )
    assert explicit_p(lie, 1, 2) == want
    assert explicit_p(lie, 2, 2) == h2 * (h2 - 1) * (h2 - 2) * (h2 - 3)


def test_explicit_q_rank2():
    lie = get_lie(2)
    h1 = CartanPolynomial.variable(2, 1)
    h2 = CartanPolynomial.variable(2, 2)
    h_eps1 = 2 * h1 + h2
    want = Fraction(1, 4) * h_eps1 * (h_eps1 - 1) + h1
    assert explicit_q(lie, 1) == want


def test_explicit_q_vanishes_on_classified_weights():
    lie = get_lie(2)
    q = explicit_q(lie, 1)
    for coords in ([0, 0], [0, 1], [Fraction(-1, 2), 0], [Fraction(-3, 2), 1]):
        assert evaluate_weight(q, weight_from_fundamental(coords)) == 0


@pytest.mark.parametrize("l,n", [(2, 1), (3, 1), (2, 2)])
def test_membership(l, n):
    eng = get_engine(l)
    assert verify_membership(eng.lie, n, p0_basis(eng, n))


@pytest.mark.parametrize("l", [2, 3])
def test_span_equality_at_n1(l):
    eng = get_engine(l)
    assert spans_equal(p0_basis(eng, 1), explicit_polys(eng.lie, 1))
    # both inclusions, spelled out
    oracle = p0_basis(eng, 1)
    explicit = explicit_polys(eng.lie, 1)
    from blvoa.uea import poly_echelon

    eo = poly_echelon(explicit)
    assert all(poly_in_span(p, eo) for p in oracle)
    oo = poly_echelon(oracle)
    assert all(poly_in_span(p, oo) for p in explicit)


def test_oracle_polys_vanish_at_origin():
    for l in (2, 3):
        basis = p0_basis(get_engine(l), 1)
        zero = Weight([0] * l)
        assert all(evaluate_weight(p, zero) == 0 for p in basis)


def test_span_comparison_at_n2_is_reported_not_assumed():
    # computed fact at (l, n) = (2, 2): the oracle span is 3-dimensional,
    # strictly larger than span{p_1, p_2}, and adding q closes the gap
    eng = get_engine(2)
    oracle = p0_basis(eng, 2)
    assert len(oracle) == 3
    ps = explicit_polys(eng.lie, 2)
    assert not spans_equal(oracle, ps)
    assert spans_equal(oracle, ps + [explicit_q(eng.lie, 2)])
