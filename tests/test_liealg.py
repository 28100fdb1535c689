"""so(2l+1) from integer labels against its matrices: the matrices built
from the basis units (matrix_reference.basis_matrix) satisfy the Chevalley
relations and equal the nested-bracket reference, the weight-keyed
structure constants and h_alpha equal the full matrix-bracket expansion,
Jacobi holds, and the closed-form invariant form equals tr(xy)/2.  The
matrix algebra of the references lives in matrix_reference."""

import random
import re
from fractions import Fraction

import pytest

from conftest import get_lie
from fraction_reference import cartan_matrix, coroot_pairing, inner
from matrix_reference import (
    basis_matrix,
    expand,
    mat_bracket,
    mat_mul,
    mat_scale,
    mat_sub,
    trace_form,
)
from uea_reference import chevalley_generators

from blvoa import liealg
from blvoa.liealg import LieAlgebra
from blvoa.rootsys import Root, Weight, eps_root


def _generator_matrices(lie):
    """The matrices of the Chevalley generators e_i, f_i and h_i."""
    return tuple(
        [basis_matrix(lie, b) for b in gens] for gens in chevalley_generators(lie)
    )


@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_chevalley_relations(l):
    lie = get_lie(l)
    es, fs, hs = _generator_matrices(lie)
    for i in range(l):
        for j in range(l):
            br = mat_bracket(es[i], fs[j])
            if i == j:
                assert br == hs[i]
            else:
                assert not br


@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_cartan_action_on_simple_vectors(l):
    lie = get_lie(l)
    es, fs, hs = _generator_matrices(lie)
    A = cartan_matrix(lie)
    for i in range(l):
        for j in range(l):
            assert mat_bracket(hs[i], es[j]) == mat_scale(A[i][j], es[j])
            assert mat_bracket(hs[i], fs[j]) == mat_scale(-A[i][j], fs[j])


def test_short_long_cartan_entries():
    # matrix-bracket oracle: the short coroot h_l pairs to -2 against the
    # adjacent long simple root, the long coroot h_{l-1} to -1 against alpha_l
    for l in (2, 3):
        lie = get_lie(l)
        es, fs, hs = _generator_matrices(lie)
        assert mat_bracket(hs[l - 1], es[l - 2]) == mat_scale(Fraction(-2), es[l - 2])
        assert mat_bracket(hs[l - 2], es[l - 1]) == mat_scale(Fraction(-1), es[l - 1])


def _unit(i: int, j: int):
    """E_{ij}, 1-based indices."""
    return {(i - 1, j - 1): Fraction(1)}


def _nested_bracket_basis(l: int):
    """The Chevalley generators and every e_alpha, f_alpha, h_i built by
    nested matrix brackets, the reference for the closed forms:
    e_{eps_i - eps_j} = [e_i, [e_{i+1}, [... [e_{j-2}, e_{j-1}] ...]]],
    e_{eps_i} = [e_i, [e_{i+1}, [... [e_{l-1}, e_l] ...]]],
    e_{eps_i + eps_j} = (1/2) [e_{eps_i}, e_{eps_j}] for i < j,
    the f's likewise from the f_i in the opposite order, h_i = [e_i, f_i]."""
    n = 2 * l + 1
    ce, cf = [], []
    for i in range(1, l):
        ce.append(mat_sub(_unit(i, i + 1), _unit(n - i, n + 1 - i)))
        cf.append(mat_sub(_unit(i + 1, i), _unit(n + 1 - i, n - i)))
    ce.append(mat_sub(_unit(l, l + 1), _unit(l + 1, l + 2)))
    cf.append(mat_scale(Fraction(2), mat_sub(_unit(l + 1, l), _unit(l + 2, l + 1))))
    ch = [mat_bracket(e, f) for e, f in zip(ce, cf)]

    def nested(gens, first: int, last: int, downward: bool):
        # brackets gens[first..last] (1-based) into one matrix
        order = range(last - 1, first - 1, -1) if downward else range(first + 1, last + 1)
        m = gens[last - 1] if downward else gens[first - 1]
        for t in order:
            m = mat_bracket(gens[t - 1], m)
        return m

    e_pos, f_pos = {}, {}
    for i in range(1, l + 1):
        for j in range(i + 1, l + 1):
            alpha = eps_root(l, i, j, -1)
            e_pos[alpha] = nested(ce, i, j - 1, True)
            f_pos[alpha] = nested(cf, i, j - 1, False)
        e_pos[eps_root(l, i)] = nested(ce, i, l, True)
        f_pos[eps_root(l, i)] = nested(cf, i, l, False)
    half = Fraction(1, 2)
    for i in range(1, l + 1):
        for j in range(i + 1, l + 1):
            ei, ej = eps_root(l, i), eps_root(l, j)
            alpha = eps_root(l, i, j, 1)
            e_pos[alpha] = mat_scale(half, mat_bracket(e_pos[ei], e_pos[ej]))
            f_pos[alpha] = mat_scale(half, mat_bracket(f_pos[ej], f_pos[ei]))
    return ce, cf, ch, e_pos, f_pos


@pytest.mark.parametrize("l", [2, 3, 4, 5, 6])
def test_closed_forms_match_nested_brackets(l):
    lie = LieAlgebra(l)
    ce, cf, ch, e_pos, f_pos = _nested_bracket_basis(l)
    assert _generator_matrices(lie) == (ce, cf, ch)
    assert [basis_matrix(lie, lie.h(i)) for i in range(1, l + 1)] == ch
    assert set(e_pos) == set(f_pos) == set(lie.rootsys.positive_roots)
    for alpha in lie.rootsys.positive_roots:
        assert basis_matrix(lie, lie.e(alpha)) == e_pos[alpha], alpha
        assert basis_matrix(lie, lie.f(alpha)) == f_pos[alpha], alpha


def test_root_vector_base_cases():
    lie = get_lie(3)
    a1 = lie.rootsys.simple_roots[0]
    assert lie.e(Root([1, -1, 0])) is lie.e(a1)
    last = lie.rootsys.simple_roots[-1]
    assert lie.e(Root([0, 0, 1])) is lie.e(last)


@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_root_vectors_have_correct_weights(l):
    lie = get_lie(l)
    for alpha in lie.rootsys.positive_roots:
        for b, sign in ((lie.e(alpha), 1), (lie.f(alpha), -1)):
            for i in range(1, l + 1):
                br = mat_bracket(basis_matrix(lie, lie.h(i)), basis_matrix(lie, b))
                lam = sign * coroot_pairing(alpha, lie.rootsys.simple_roots[i - 1])
                assert br == mat_scale(lam, basis_matrix(lie, b))


def _dense(m, n: int) -> list[list[Fraction]]:
    out = [[Fraction(0)] * n for _ in range(n)]
    for (r, c), x in m.items():
        out[r][c] = x
    return out


def _dense_bracket(a, b) -> list[list[Fraction]]:
    n = len(a)

    def mul(x, y):
        out = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for k in range(n):
                if x[i][k]:
                    for j in range(n):
                        out[i][j] += x[i][k] * y[k][j]
        return out

    ab, ba = mul(a, b), mul(b, a)
    return [[ab[i][j] - ba[i][j] for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("l", [2, 3, 4])
def test_sparse_bracket_matches_dense_reference(l):
    """The sparse bracket agrees with plain dense matrix products."""
    lie = get_lie(l)
    mats = [basis_matrix(lie, b) for b in lie.basis]
    for b, m in zip(lie.basis, mats):
        assert len(m) in (2, 4) and all(m.values()), b
    dense = [_dense(m, lie.n) for m in mats]
    for x, mx, dx in zip(lie.basis, mats, dense):
        for y, my, dy in zip(lie.basis, mats, dense):
            br = mat_bracket(mx, my)
            assert all(br.values())
            assert _dense(br, lie.n) == _dense_bracket(dx, dy), (x, y)
    # entries that cancel are dropped, so the zero matrix is empty
    one, minus = Fraction(1), Fraction(-1)
    assert mat_mul({(0, 0): one, (0, 1): one}, {(0, 0): one, (1, 0): minus}) == {}


def test_short_root_coroot_action():
    lie = get_lie(2)
    eps1 = Root([1, 0])
    h = mat_bracket(basis_matrix(lie, lie.e(eps1)), basis_matrix(lie, lie.f(eps1)))
    coeffs = lie.h_of_root(eps1)
    random.seed(5)
    for _ in range(10):
        mu = Weight([Fraction(random.randint(-6, 6), 2) for _ in range(2)])
        val = sum(c * mu.fundamental()[i - 1] for i, c in coeffs.items())
        assert val == coroot_pairing(mu, eps1) == 2 * inner(mu, eps1)
    assert expand(lie, h)   # lands in the Cartan span without error


@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_invariant_form_values(l):
    lie = get_lie(l)
    rs = lie.rootsys
    theta = rs.highest_root
    assert lie.invariant_form(lie.e(theta), lie.f(theta)) == 1
    eps1 = Root([1] + [0] * (l - 1))
    assert lie.invariant_form(lie.e(eps1), lie.f(eps1)) == 2
    a1, a2 = rs.simple_roots[0], rs.simple_roots[1]
    assert lie.invariant_form(lie.e(a1), lie.e(a2)) == 0
    for alpha in rs.positive_roots:
        assert lie.invariant_form(lie.e(alpha), lie.f(alpha)) == 2 / inner(
            alpha, alpha
        )


@pytest.mark.parametrize("l", [2, 3, 4, 5, 6])
def test_invariant_form_matches_half_trace(l):
    lie = LieAlgebra(l)
    mats = [basis_matrix(lie, b) for b in lie.basis]
    for x, mx in zip(lie.basis, mats):
        for y, my in zip(lie.basis, mats):
            got = lie.invariant_form(x, y)
            assert type(got) is int and got == trace_form(mx, my), (x, y)


def test_invariant_form_invariance():
    # ([x, y], z) + (y, [x, z]) = 0, the brackets expanded by the table
    lie = get_lie(3)
    table = lie.structure_constants()
    random.seed(11)
    basis = lie.basis

    def form(row: dict, other) -> int:
        return sum(c * lie.invariant_form(basis[k], other) for k, c in row.items())

    for _ in range(200):
        x, y, z = (random.choice(basis) for _ in range(3))
        lhs = form(table[(x.index, y.index)], z)
        rhs = form(table[(x.index, z.index)], y)
        assert lhs + rhs == 0


def test_structure_constant_examples():
    lie = get_lie(2)
    e12 = lie.e(Root([1, -1]))
    e2 = lie.e(Root([0, 1]))
    e1 = lie.e(Root([1, 0]))
    table = lie.structure_constants()
    assert table[(e12.index, e2.index)] == {e1.index: Fraction(1)}
    f1 = lie.f(Root([1, 0]))
    h1 = lie.h(1)
    assert table[(h1.index, f1.index)] == {f1.index: Fraction(-1)}
    assert table[(e1.index, e1.index)] == {}


def test_structure_constants_reject_a_non_integral_coefficient(monkeypatch):
    # int() would truncate 1/2 to 0 without a word: with each root taken as
    # its own coroot, h_alpha of a short root has c_2 = 1/2 at rank 2
    lie = LieAlgebra(2)
    monkeypatch.setattr(liealg, "int_coroot", lambda alpha: alpha)
    with pytest.raises(ArithmeticError):
        lie.structure_constants()


def test_structure_constants_reject_a_non_integral_root_coefficient():
    # [e(eps2), e(eps1)] = -2 e(eps1+eps2); with the unit of e(eps1+eps2)
    # scaled by 4 the coefficient is -1/2, on the root-weight path
    lie = LieAlgebra(2)
    target = lie.e(Root([1, 1]))
    a, b, u = target.unit
    target.unit = (a, b, 4 * u)
    i, j = lie.e(Root([0, 1])).index, lie.e(Root([1, 0])).index
    with pytest.raises(ArithmeticError, match=re.escape(f"[x_{i}, x_{j}]")):
        lie.structure_constants()


def _matrix_structure_constants(lie) -> dict:
    """The full-scan table: mat_bracket and expand on every ordered pair, the
    reference for the table read by weight."""
    table = {}
    mats = [basis_matrix(lie, b) for b in lie.basis]
    for x, mx in zip(lie.basis, mats):
        for y, my in zip(lie.basis, mats):
            exp = expand(lie, mat_bracket(mx, my))
            assert all(c.denominator == 1 for c in exp.values())
            table[(x.index, y.index)] = {k: int(c) for k, c in exp.items()}
    return table


@pytest.mark.parametrize("l", [2, 3, 4, 5, 6, 7])
def test_structure_constants_match_full_scan_reference(l):
    lie = LieAlgebra(l)
    table = lie.structure_constants()
    assert table == _matrix_structure_constants(lie)
    assert all(type(c) is int for row in table.values() for c in row.values())


def test_structure_constants_antisymmetric():
    lie = get_lie(2)
    table = lie.structure_constants()
    nb = len(lie.basis)
    for i in range(nb):
        for j in range(nb):
            assert table[(i, j)] == {k: -v for k, v in table[(j, i)].items()}


def _bracket_elements(table, a: dict, b: dict) -> dict:
    out: dict = {}
    for i, ci in a.items():
        for j, cj in b.items():
            for k, c in table[(i, j)].items():
                v = out.get(k, Fraction(0)) + ci * cj * c
                if v:
                    out[k] = v
                elif k in out:
                    del out[k]
    return out


def _jacobi_holds(table, i: int, j: int, k: int) -> bool:
    total: dict = {}
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        term = _bracket_elements(table, {a: Fraction(1)}, table[(b, c)])
        for idx, v in term.items():
            nv = total.get(idx, Fraction(0)) + v
            if nv:
                total[idx] = nv
            elif idx in total:
                del total[idx]
    return not total


@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_jacobi_exhaustive(l):
    lie = get_lie(l)
    table = lie.structure_constants()
    # The integer structure constants are what an integer PBW core relies on.
    assert all(c.denominator == 1 for row in table.values() for c in row.values())
    nb = len(lie.basis)
    for i in range(nb):
        for j in range(i + 1, nb):
            for k in range(j + 1, nb):
                assert _jacobi_holds(table, i, j, k), (l, i, j, k)


def test_jacobi_spot_check_rank4():
    lie = get_lie(4)
    table = lie.structure_constants()
    nb = len(lie.basis)
    random.seed(42)
    for _ in range(200):
        i, j, k = (random.randrange(nb) for _ in range(3))
        assert _jacobi_holds(table, i, j, k)


def test_h_of_root_examples():
    lie2 = get_lie(2)
    for i in (1, 2):
        assert lie2.h_of_root(lie2.rootsys.simple_roots[i - 1]) == {i: Fraction(1)}
    assert lie2.h_of_root(Root([1, 1])) == {1: Fraction(1), 2: Fraction(1)}
    lie3 = get_lie(3)
    assert lie3.h_of_root(Root([1, 1, 0])) == {
        1: Fraction(1),
        2: Fraction(2),
        3: Fraction(1),
    }


@pytest.mark.parametrize("l", [2, 3])
def test_h_of_root_pairs_like_coroot(l):
    lie = get_lie(l)
    random.seed(l)
    for alpha in lie.rootsys.positive_roots:
        coeffs = lie.h_of_root(alpha)
        for _ in range(5):
            mu = Weight(
                [Fraction(random.randint(-8, 8), random.randint(1, 3)) for _ in range(l)]
            )
            fund = mu.fundamental()
            val = sum(c * fund[i - 1] for i, c in coeffs.items())
            assert val == coroot_pairing(mu, alpha)


@pytest.mark.parametrize("l", [2, 3, 4, 5, 6])
def test_h_of_root_matches_matrix_expansion(l):
    lie = LieAlgebra(l)
    for alpha in lie.rootsys.positive_roots:
        e, f = basis_matrix(lie, lie.e(alpha)), basis_matrix(lie, lie.f(alpha))
        exp = expand(lie, mat_bracket(e, f))
        got = lie.h_of_root(alpha)
        assert got == {k - lie.h_start + 1: c for k, c in exp.items()}, alpha
        assert all(type(c) is int for c in got.values()), alpha
    assert lie._brackets is None   # no table was built


@pytest.mark.parametrize(
    "root", [Root([-1, 0]), Root([0, -1]), Root([1, 0, 0])], ids=repr
)
def test_h_of_root_rejects_a_root_that_is_not_positive(root):
    with pytest.raises(ValueError, match=re.escape(repr(root))):
        get_lie(2).h_of_root(root)


def test_basis_is_independent():
    lie = get_lie(3)
    for b in lie.basis:
        assert expand(lie, basis_matrix(lie, b)) == {b.index: Fraction(1)}
    assert len(lie.basis) == 2 * 3 * 3 + 3
