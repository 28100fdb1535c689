"""The paper's closed form of the n = 1 category-O list, and the
triangular zeros and q as weights and exact fractions: the references the
integer classification of ``blvoa.classify`` is tested against.  No src
code calls these."""

import math
from fractions import Fraction
from typing import Iterable, Sequence

from blvoa.classify import _doubled_zeros, _weight_of_doubled
from blvoa.rootsys import RootSystem, Weight
from blvoa.zero_weight import q_numerator, q_terms


def fundamental_weight(rs: RootSystem, i: int) -> Weight:
    """omega_i (1-based): eps_1 + ... + eps_i, halved for i = l."""
    if not 1 <= i <= rs.rank:
        raise ValueError(f"fundamental weight index {i} out of range")
    if i < rs.rank:
        return Weight([1] * i + [0] * (rs.rank - i))
    return Weight([Fraction(1, 2)] * rs.rank)


def mu_s(rs: RootSystem, subset: Sequence[int]) -> Weight:
    """The closed-form solution with h_l = 0 attached to a subset of {1..l-1}."""
    return _mu_subset(rs, subset, Fraction(2 * rs.rank - 1, 2), add_last=False)


def mu_s_prime(rs: RootSystem, subset: Sequence[int]) -> Weight:
    """The companion solution with h_l = 1: shifted constant plus omega_l."""
    return _mu_subset(rs, subset, Fraction(2 * rs.rank + 1, 2), add_last=True)


def _mu_subset(
    rs: RootSystem, subset: Sequence[int], const: Fraction, add_last: bool
) -> Weight:
    idxs = sorted(subset)
    if any(not 1 <= i <= rs.rank - 1 for i in idxs) or len(set(idxs)) != len(idxs):
        raise ValueError(f"subset {subset} not inside 1..{rs.rank - 1}")
    k = len(idxs)
    mu = Weight([0] * rs.rank)
    for j in range(k):   # 0-based j; the alternating signs use offsets only
        coeff = Fraction(idxs[j])
        for s in range(j + 1, k):
            coeff += 2 * (-1) ** (s - j) * idxs[s]
        coeff += (-1) ** (k - j) * const
        mu = mu + coeff * fundamental_weight(rs, idxs[j])
    if add_last:
        mu = mu + fundamental_weight(rs, rs.rank)
    return mu


def all_subsets(upper: int) -> Iterable[tuple[int, ...]]:
    """Every subset of {1..upper}, as sorted tuples."""
    out = [()]
    for i in range(1, upper + 1):
        out = out + [s + (i,) for s in out]
    return out


def closed_form_category_o(rs: RootSystem) -> list[tuple[Weight, str]]:
    """The n = 1 list as the paper gives it: (mu_S, "S={..}") and
    (mu_S', "S'={..}") for every subset S of {1..l-1}, sorted by
    fundamental coordinates."""
    entries = []
    for subset in all_subsets(rs.rank - 1):
        label = "{" + ",".join(map(str, subset)) + "}"
        entries.append((mu_s(rs, subset), "S=" + label))
        entries.append((mu_s_prime(rs, subset), "S'=" + label))
    return sorted(entries, key=lambda e: e[0].fundamental())


def solve_triangular(rank: int, n: int) -> list[Weight]:
    """All common zeros of p_1, ..., p_l as weights, sorted by fundamental
    coordinates."""
    return [_weight_of_doubled(d) for d in _doubled_zeros(rank, n)]


def q_value(n: int, mu: Weight) -> Fraction:
    """q(mu), exactly, from the product form: explicit_q's value at mu
    without the expanded polynomial."""
    d = math.lcm(*(c.denominator for c in mu.eps))
    eps = [int(c * d) for c in mu.eps]
    scale = 4**n * math.factorial(n) * d ** (2 * n)
    return Fraction(q_numerator(q_terms(mu.rank, n), n, eps, d), scale)
