"""Acceptance criteria, one test per criterion (criterion 2 split per case).

Every check is exact rational arithmetic; the stated runtime targets are
asserted too.  Each test prints one summary line so a verbose run reads as
a checklist.

Criterion 2 checks the oracle module R against V(2n eps_1): dim R is the
Weyl dimension, and the dimension of each weight space of R is the
multiplicity of that weight in V(2n eps_1), counted here without the
engine.  At weight zero that is C(n+l-1, l-1), which is l at n = 1.
"""

import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from classify_reference import fundamental_weight, mu_s, mu_s_prime
from conftest import get_engine, get_lie
from fraction_reference import inner, scale, shifted_pairing
from oracle_reference import dim_zero, generate_whole_module
from uea_reference import (
    ad_power_multinomial,
    check_commuting_monomials,
    evaluate_weight,
    fz_image,
    poly_in_span,
)

from blvoa.affine import (
    AffineRealRoot,
    AffineWeight,
    VacuumModule,
    affine_bracket,
    build_singular_candidate,
    check_singular,
    is_admissible,
)
from blvoa.classify import classify_category_o, classify_finite_dim
from blvoa.rootsys import (
    Root,
    Weight,
    harmonic_multiplicities,
    weight_from_fundamental,
)
from blvoa.uea import identity_suite, spans_equal
from blvoa.zero_weight import (
    explicit_polys,
    explicit_q,
    p0_basis,
    singular_image,
    verify_membership,
)


def report(line: str) -> None:
    print(f"ACCEPTANCE {line}")


# -- criterion 1: singular vector ---------------------------------------------


@pytest.mark.parametrize("l,n", [(2, 1), (3, 1), (2, 2)])
def test_criterion_01_singular_vector(l, n):
    lie = get_lie(l)
    t0 = time.monotonic()
    base = Fraction(2 * n - 2 * l + 1, 2)
    ok = check_singular(lie, n).ok
    wrong = []
    for j in (-1, 1):
        rep = check_singular(lie, n, base + Fraction(j, 2))
        wrong.append((not rep.ok) and rep.residual_terms > 0)
    elapsed = time.monotonic() - t0
    status = "PASS" if ok and all(wrong) else "FAIL"
    report(
        f"1 singular vector (l={l}, n={n}): annihilated at k={base}, "
        f"nonzero residual at k±1/2: {status} [{elapsed:.1f}s]"
    )
    assert ok
    assert all(wrong)
    assert elapsed < 60


# -- criterion 2: oracle dimensions -------------------------------------------


def harmonic_character(l: int, k: int) -> Counter:
    """Weight multiplicities of the B_l module V(k eps_1), by eps-coordinates.

    V(k eps_1) is realized as the harmonic polynomials of degree k on
    C^{2l+1}, S^k minus r^2 S^{k-2}.  The coordinates x_0, x_i, x_{-i} have
    weights 0, eps_i, -eps_i, so S^d holds one monomial
    x_0^c prod_i x_i^{a_i} x_{-i}^{b_i} with c + sum(a + b) = d at weight
    (a_i - b_i)_i.  At weight zero the difference is
    C(k/2+l, l) - C(k/2+l-1, l) = C(k/2+l-1, l-1), which is l for k = 2.
    """

    def monomials(d: int) -> Counter:
        char = Counter()
        if d < 0:
            return char
        for ab in itertools.product(range(d + 1), repeat=2 * l):
            if sum(ab) <= d:
                char[tuple(a - b for a, b in zip(ab[:l], ab[l:]))] += 1
        return char

    return monomials(k) - monomials(k - 2)


# the oracle's per-weight targets, against the engine-free count above
@pytest.mark.parametrize("l,n", [(2, 2), (3, 2)])
def test_harmonic_multiplicities_match_harmonic_character(l, n):
    assert harmonic_multiplicities(l, 2 * n) == harmonic_character(l, 2 * n)


def character_of(module) -> dict:
    return {w: s.dim for w, s in module.spaces.items() if s.dim}


def test_criterion_02_oracle_dimensions_2_1():
    t0 = time.monotonic()
    module = generate_whole_module(get_engine(2), 1)
    elapsed = time.monotonic() - t0
    char = harmonic_character(2, 2)
    want0 = char[(0, 0)]
    report(
        f"2 oracle dims (2,1): dim R = {module.dim} (want 14), "
        f"dim R_0 = {dim_zero(module)} (want {want0}), character of "
        f"V(2 eps_1): {'PASS' if character_of(module) == char else 'FAIL'} "
        f"[{elapsed:.1f}s]"
    )
    assert module.dim == 14
    assert dim_zero(module) == want0
    assert character_of(module) == char
    assert elapsed < 120


def test_criterion_02_oracle_dimensions_3_1():
    eng = get_engine(3)
    t0 = time.monotonic()
    module = generate_whole_module(eng, 1)
    elapsed = time.monotonic() - t0
    want = eng.lie.rootsys.weyl_dim(Weight([2, 0, 0]))
    char = harmonic_character(3, 2)
    want0 = char[(0, 0, 0)]
    report(
        f"2 oracle dims (3,1): dim R = {module.dim} (want {want}), "
        f"dim R_0 = {dim_zero(module)} (want {want0}), character of "
        f"V(2 eps_1): {'PASS' if character_of(module) == char else 'FAIL'} "
        f"[{elapsed:.1f}s]"
    )
    assert module.dim == want
    assert dim_zero(module) == want0
    assert character_of(module) == char
    assert elapsed < 120


def test_criterion_02_oracle_dimensions_2_2():
    eng = get_engine(2)
    t0 = time.monotonic()
    module = generate_whole_module(eng, 2)
    elapsed = time.monotonic() - t0
    want = eng.lie.rootsys.weyl_dim(Weight([4, 0]))
    dim_ok = module.dim == want
    char = harmonic_character(2, 2 * 2)
    want0 = char[(0, 0)]
    r0_ok = dim_zero(module) == want0
    char_ok = character_of(module) == char
    report(
        f"2 oracle dims (2,2): dim R = {module.dim} (want {want}): "
        f"{'PASS' if dim_ok else 'FAIL'}; dim R_0 = {dim_zero(module)} "
        f"(want {want0}): {'PASS' if r0_ok else 'FAIL'}; character of "
        f"V(4 eps_1): {'PASS' if char_ok else 'FAIL'} [{elapsed:.1f}s]"
    )
    assert elapsed < 120
    assert dim_ok
    assert r0_ok, (
        f"dim R_0 = {dim_zero(module)}, but V(4 eps_1) of B_2 has "
        f"zero-weight multiplicity {want0}"
    )
    assert char_ok, (
        f"weight multiplicities {character_of(module)} differ from "
        f"those of V(4 eps_1), {dict(char)}"
    )


# -- criterion 3: span equality at n = 1 --------------------------------------


@pytest.mark.parametrize("l", [2, 3])
def test_criterion_03_span_equality(l):
    eng = get_engine(l)
    oracle = p0_basis(eng, 1)
    explicit = explicit_polys(eng.lie, 1)
    equal = spans_equal(oracle, explicit)
    q_in = poly_in_span(explicit_q(eng.lie, 1), oracle)
    report(
        f"3 span equality (l={l}, n=1): oracle == explicit: "
        f"{'PASS' if equal and q_in else 'FAIL'} (q in span: {q_in})"
    )
    assert equal
    assert q_in


# -- criterion 4: membership at n = 2 ------------------------------------------


def test_criterion_04_membership_n2():
    eng = get_engine(2)
    ok = verify_membership(eng.lie, 2, p0_basis(eng, 2))
    report(f"4 membership (l=2, n=2): p_1, p_2, q in oracle span: "
           f"{'PASS' if ok else 'FAIL'}")
    assert ok


# -- criterion 5: category-O counts --------------------------------------------


def test_criterion_05_category_o():
    counts_ok = True
    for l in (2, 3, 4):
        entries = classify_category_o(get_lie(l).rootsys, 1).entries
        counts_ok = counts_ok and len(entries) == 2**l
    zeros_ok = True
    for l in (2, 3):
        eng = get_engine(l)
        basis = p0_basis(eng, 1)
        for e in classify_category_o(eng.lie.rootsys, 1).entries:
            zeros_ok = zeros_ok and all(
                evaluate_weight(p, e.weight) == 0 for p in basis
            )
    got = {tuple(e.weight.fundamental()) for e in
           classify_category_o(get_lie(2).rootsys, 1).entries}
    want = {
        (Fraction(0), Fraction(0)),
        (Fraction(-1, 2), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(-3, 2), Fraction(1)),
    }
    list_ok = got == want
    status = "PASS" if counts_ok and zeros_ok and list_ok else "FAIL"
    report(f"5 category-O lists: counts 2^l (l=2,3,4), oracle zeros (l<=3), "
           f"exact l=2 list: {status}")
    assert counts_ok
    assert zeros_ok
    assert list_ok


# -- criterion 6: finite-dimensional list --------------------------------------


def test_criterion_06_finite_dim():
    rs = get_lie(2).rootsys
    got1 = {tuple(e.weight.fundamental()) for e in classify_finite_dim(rs, 1).entries}
    first_ok = got1 == {(Fraction(0), Fraction(0)), (Fraction(0), Fraction(1))}
    cat = classify_category_o(get_lie(2).rootsys, 1)
    dominant = {
        tuple(e.weight.fundamental())
        for e in cat.entries
        if rs.is_dominant_integral(e.weight)
    }
    subset_ok = got1 == dominant
    result2 = classify_finite_dim(rs, 2)
    eps1 = Weight([1, 0])
    q = explicit_q(get_lie(2), 2)
    six_ok = len(result2.entries) == 6
    bound_ok = all(
        inner(e.weight, eps1) <= Fraction(3, 2) for e in result2.entries
    )
    q_ok = all(evaluate_weight(q, e.weight) == 0 for e in result2.entries)
    status = "PASS" if first_ok and subset_ok and six_ok and bound_ok and q_ok else "FAIL"
    report(f"6 finite-dim lists: (2,1) = {{0, w2}}, dominant subset match, "
           f"(2,2) six entries all zeroing q: {status}")
    assert first_ok and subset_ok and six_ok and bound_ok and q_ok


# -- criterion 7: admissibility -------------------------------------------------


def test_criterion_07_admissibility():
    ok = True
    for l in (2, 3):
        rs = get_lie(l).rootsys
        delta_eps1 = AffineRealRoot(Weight([-1] + [0] * (l - 1)), 1)
        for n in (1, 2):
            lam = AffineWeight(Fraction(2 * n - 2 * l + 1, 2), Weight([0] * l))
            res = is_admissible(lam, rs)
            ok = ok and res.ok
            ok = ok and shifted_pairing(lam, delta_eps1, rs) == 2 * n
            want = {(delta_eps1.alpha.eps, 1)} | {
                (a.eps, 0) for a in rs.simple_roots
            }
            got = {(r.alpha.eps, r.m) for r in res.simple_coroots}
            ok = ok and got == want
        # all 2^l subset weights at n = 1
        subsets = [()]
        for i in range(1, l):
            subsets += [s + (i,) for s in subsets]
        k1 = Fraction(3 - 2 * l, 2)
        for s in subsets:
            for mu in (mu_s(rs, s), mu_s_prime(rs, s)):
                ok = ok and is_admissible(AffineWeight(k1, mu), rs).ok
        # finite-dimensional entries with the integer pairing value
        for n in (1, 2):
            result = classify_finite_dim(rs, n)
            for e in result.entries:
                lam = AffineWeight(result.level, e.weight)
                ok = ok and is_admissible(lam, rs).ok
                p = shifted_pairing(lam, delta_eps1, rs)
                ok = ok and p == 2 * n - 2 * inner(e.weight, Weight([1] + [0] * (l - 1)))
                ok = ok and p.denominator == 1 and p > 0
    report(f"7 admissibility certificates: {'PASS' if ok else 'FAIL'}")
    assert ok


# -- criterion 8: identity suite -------------------------------------------------


def test_criterion_08_identity_suite():
    t0 = time.monotonic()
    counts = {}
    failures = []
    for l in (2, 3):
        eng = get_engine(l)
        recs = identity_suite(eng, bound=3)
        counts[l] = (
            sum(1 for _, _, s in recs if s == "pass"),
            sum(1 for _, _, s in recs if s == "skip"),
        )
        failures += [(l, i, p) for i, p, s in recs if s == "FAIL"]
        # commuting-monomial companion
        def root(a, b=0, sign=0):
            coords = [0] * l
            coords[a - 1] = 1
            if b:
                coords[b - 1] = sign
            return Root(coords)

        cases = [
            ([root(1, 2, -1), root(1, 2, 1)], [root(1), root(1)]),
            (
                [root(1), root(1), root(1, 2, 1)],
                [root(1, 2, 1), root(1), root(1)],
            ),
        ]
        if l >= 3:
            cases.append(([root(1, 3, -1), root(1, 3, 1)], [root(1), root(1)]))
        for betas, gammas in cases:
            if not check_commuting_monomials(eng, betas, gammas):
                failures.append((l, "commuting", (betas, gammas)))
        # multinomial-adjoint companion
        eps1 = root(1)
        for x, n, factors in (
            (eng.f(eps1), 3, [eng.e(eps1, 2), eng.e(root(1, 2, 1))]),
            (eng.e(root(1, 2, -1)), 2, [eng.f(root(1, 2, -1)), eng.f(eps1, 2)]),
        ):
            prod = eng.one()
            for fac in factors:
                prod = eng.multiply(prod, fac)
            if ad_power_multinomial(eng, x, n, factors) != eng.ad_power(x, n, prod):
                failures.append((l, "multinomial", n))
    elapsed = time.monotonic() - t0
    status = "PASS" if not failures else f"FAIL {failures[:5]}"
    report(
        f"8 identity suite: l=2 {counts[2][0]} pass/{counts[2][1]} skip, "
        f"l=3 {counts[3][0]} pass/{counts[3][1]} skip, companions included: "
        f"{status} [{elapsed:.1f}s]"
    )
    assert not failures
    assert elapsed < 300


# -- criterion 9: closed-form dimensions -----------------------------------------


def test_criterion_09_closed_forms():
    ok = True
    for l in range(2, 6):
        rs = get_lie(l).rootsys
        ok = ok and rs.weyl_dim(scale(2, fundamental_weight(rs, 1))) == 2 * l * l + 3 * l
        ok = ok and rs.weyl_dim(fundamental_weight(rs, 1)) == 2 * l + 1
    report(f"9 closed-form dimensions l=2..5: {'PASS' if ok else 'FAIL'}")
    assert ok


# -- criterion 10: algebraic property suites --------------------------------------


def _random_element(eng, rng, max_monos=2, max_deg=2):
    nb = eng.nbasis
    terms = {}
    for _ in range(rng.randint(1, max_monos)):
        idxs = sorted(rng.sample(range(nb), rng.randint(1, max_deg)))
        terms[tuple((i, 1) for i in idxs)] = Fraction(
            rng.randint(-3, 3), rng.randint(1, 2)
        )
    return eng.element(terms)


def test_criterion_10_property_suites():
    rng = random.Random(20250808)
    # associativity: 200 random triples split over ranks 2 and 3
    assoc_ok = True
    for l in (2, 3):
        eng = get_engine(l)
        for _ in range(100):
            a, b, c = (_random_element(eng, rng) for _ in range(3))
            if eng.multiply(eng.multiply(a, b), c) != eng.multiply(
                a, eng.multiply(b, c)
            ):
                assoc_ok = False
    # Jacobi on all basis triples at ranks 2 and 3
    jacobi_ok = True
    for l in (2, 3):
        lie = get_lie(l)
        table = lie.structure_constants()
        nb = len(lie.basis)
        for i in range(nb):
            for j in range(i + 1, nb):
                for k in range(j + 1, nb):
                    if not _jacobi(table, i, j, k):
                        jacobi_ok = False
    # apply respects the affine bracket: 100 random cases
    apply_ok = True
    lie = get_lie(2)
    mod = VacuumModule(lie, Fraction(5, 2))
    nb = len(lie.basis)
    seeds = [mod.vacuum()]
    seeds.append(mod.apply(nb - 1, -1, seeds[0]))
    seeds.append(mod.apply(0, -2, seeds[1]))
    for _ in range(100):
        v = rng.choice(seeds)
        gi, gm = rng.randrange(nb), rng.randint(-2, 2)
        hi, hm = rng.randrange(nb), rng.randint(-2, 2)
        lhs = mod.apply(gi, gm, mod.apply(hi, hm, v)) - mod.apply(
            hi, hm, mod.apply(gi, gm, v)
        )
        loop, central = affine_bracket(lie, (gi, gm), (hi, hm))
        rhs = mod.zero()
        for (ki, km), c in loop.items():
            rhs = rhs + c * mod.apply(ki, km, v)
        rhs = rhs + central * mod.level * v
        if lhs != rhs:
            apply_ok = False
    # the U(g) image of the singular vector
    fz_ok = True
    for l, n in ((2, 1), (2, 2), (3, 1)):
        eng = get_engine(l)
        v = build_singular_candidate(get_lie(l), n)
        if fz_image(v, eng) != singular_image(eng, n):
            fz_ok = False
    status = "PASS" if assoc_ok and jacobi_ok and apply_ok and fz_ok else "FAIL"
    report(
        f"10 property suites: associativity(200) {assoc_ok}, Jacobi {jacobi_ok}, "
        f"apply-bracket(100) {apply_ok}, singular image {fz_ok}: {status}"
    )
    assert assoc_ok and jacobi_ok and apply_ok and fz_ok


def _jacobi(table, i, j, k) -> bool:
    total = {}
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        for mid, cf in table[(b, c)].items():
            for idx, v in table[(a, mid)].items():
                nv = total.get(idx, Fraction(0)) + cf * v
                if nv:
                    total[idx] = nv
                elif idx in total:
                    del total[idx]
    return not total
