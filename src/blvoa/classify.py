"""Enumeration of the classified highest weights at level n - l + 1/2.

Two lists are produced: the category-O list, the common zeros of the
triangular polynomial system (at most (2n)^l of them) at which q
vanishes, which at n = 1 are the 2^l weights mu_S and mu_S' (two per
subset S of {1..l-1}), and the dominant integral weights with
(mu, eps_1) <= n - 1/2.  Every entry can be certified admissible as an
affine weight k Lambda_0 + mu.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence

from .affine import AdmissibilityResult, AffineWeight, _certificate, level_of
from .rootsys import (
    RootSystem,
    Weight,
    fundamental_to_doubled_eps,
    weight_from_fundamental,
)
from .zero_weight import q_numerator, q_terms


@dataclass
class Entry:
    weight: Weight
    tags: tuple[str, ...]
    s_label: Optional[str] = None
    admissible: Optional[bool] = None
    certificate: Optional[AdmissibilityResult] = field(default=None, repr=False)


@dataclass
class ClassificationResult:
    rank: int
    n: int
    level: Fraction
    entries: list[Entry]
    complete: bool   # False for the n > 1 candidate category-O list


def _doubled_zeros(rank: int, n: int) -> list[tuple[int, ...]]:
    """The common zeros of p_1, ..., p_l in doubled fundamental coordinates
    (2 c_1, ..., 2 c_l), all integers, sorted.

    p_l fixes h_l to one of 2n values; given h_{i+1}..h_l, each p_i fixes
    h_i to one of n integers or n shifted half-integers,
    t - (l - i - 1/2) - (2 (c_{i+1} + ... + c_{l-1}) + c_l) for t < n.
    Distinct tails extend to distinct zeros, so there are no repeats.
    """
    if rank < 2 or n < 1:
        raise ValueError("need rank >= 2 and n >= 1")
    partial = [(2 * t,) for t in range(2 * n)]   # (2 c_{i+1}, ..., 2 c_l)
    for i in range(rank - 1, 0, -1):
        offset = 2 * (rank - i) - 1   # 2 (l - i - 1/2)
        grown = []
        for tail in partial:
            chain = fundamental_to_doubled_eps(tail)[0]
            values = {2 * t for t in range(n)}
            values |= {2 * t - offset - chain for t in range(n)}
            grown.extend((v,) + tail for v in sorted(values))
        partial = grown
    return sorted(partial)


def _weight_of_doubled(doubled: Sequence[int]) -> Weight:
    """The weight mu with fundamental coordinates doubled / 2: 4 mu is the
    doubled eps-coordinates of 2 c, in ints."""
    return Weight(Fraction(x, 4) for x in fundamental_to_doubled_eps(doubled))


def classify_category_o(rs: RootSystem, n: int) -> ClassificationResult:
    """The category-O highest-weight list at level n - l + 1/2: the common
    zeros of p_1..p_l at which q vanishes, q evaluated from its product
    form in integers, sorted by fundamental coordinates.

    For n = 1, q lies in the span of the p_i, so every zero is kept and the
    list is complete: the 2^l weights mu_S and mu_S', S a subset of
    {1..l-1}.  There each p_i (i < l) has the roots 0 and a half-integer,
    so S = {i < l : c_i != 0}, and the weight is mu_S' when c_l != 0.  For
    n > 1 the zeros are flagged as candidates (complete=False): the full
    polynomial span could cut further.
    """
    terms = q_terms(rs.rank, n)
    entries = []
    for d in _doubled_zeros(rs.rank, n):
        if q_numerator(terms, n, fundamental_to_doubled_eps(d), 4) != 0:
            continue
        tags, label = ("category-O", "candidate"), None
        if n == 1:
            subset = ",".join(str(i) for i, c in enumerate(d[:-1], 1) if c)
            tags, label = ("category-O",), ("S'=" if d[-1] else "S=") + "{" + subset + "}"
        entries.append(Entry(_weight_of_doubled(d), tags, label))
    return ClassificationResult(
        rs.rank, n, level_of(rs.rank, n), entries, complete=n == 1
    )


def classify_finite_dim(rs: RootSystem, n: int) -> ClassificationResult:
    """Dominant integral weights with (mu, eps_1) <= n - 1/2.

    In fundamental coordinates the constraint reads
    2 (c_1 + ... + c_{l-1}) + c_l <= 2n - 1 over nonnegative integers:
    given the budget 2n - 1 - 2 (c_1 + ... + c_i) of a prefix, c_l runs up
    to the budget and each earlier c_{i+1} up to half of it.
    """
    l = rs.rank
    entries: list[Entry] = []

    def rec(prefix: list[int], budget: int) -> None:
        if len(prefix) == l - 1:
            entries.extend(
                Entry(weight_from_fundamental(prefix + [c]), ("finite-dim",))
                for c in range(budget + 1)
            )
            return
        for c in range(budget // 2 + 1):
            rec(prefix + [c], budget - 2 * c)

    rec([], 2 * n - 1)   # visits the prefixes, the fundamental coordinates, in order
    return ClassificationResult(l, n, level_of(l, n), entries, complete=True)


def merge_results(
    a: ClassificationResult, b: ClassificationResult
) -> ClassificationResult:
    """Union by weight; tags are merged, S labels kept when present."""
    if (a.rank, a.n) != (b.rank, b.n):
        raise ValueError("cannot merge classifications of different (rank, n)")
    by_weight: dict[Weight, Entry] = {}
    for e in list(a.entries) + list(b.entries):
        old = by_weight.setdefault(e.weight, e)
        if old is not e:
            tags = tuple(dict.fromkeys(old.tags + e.tags))
            by_weight[e.weight] = replace(old, tags=tags, s_label=old.s_label or e.s_label)
    return ClassificationResult(
        a.rank,
        a.n,
        a.level,
        sorted(by_weight.values(), key=lambda e: e.weight.fundamental()),
        complete=a.complete and b.complete,
    )


def certify(result: ClassificationResult, rs: RootSystem) -> ClassificationResult:
    """Attach an admissibility certificate (affine.is_admissible) to every
    entry, all on the one datum rs and with one table of windows, so the
    window, span and simple coroots are computed once per residue class of
    the entries; the table is dropped on return."""
    windows: dict = {}
    certified = []
    for e in result.entries:
        cert = _certificate(AffineWeight(result.level, e.weight), rs, None, windows)
        certified.append(replace(e, admissible=cert.ok, certificate=cert))
    return replace(result, entries=certified)
