"""Root-system arithmetic for the simple Lie algebra of type B_l.

Weights and roots live in the rank-l epsilon-coordinate space with exact
entries: a caller's Fractions, or the ints of the roots RootSystem builds.
The invariant form is the standard one normalized so that the highest root
has squared length 2, which makes the epsilon basis orthonormal:
(eps_i, eps_j) = delta_ij.  Short roots (the eps_i) then have squared
length 1 and long roots (eps_i +- eps_j) squared length 2.  RootSystem is
the one integer root datum of a rank; a caller builds it once and passes
it down, and nothing is cached per module.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

Rat = Union[int, Fraction]


def exact(c: Rat) -> Rat:
    """c itself if it is an int or a Fraction; anything else is a TypeError."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"{c!r} is not an int or a Fraction")
    return c


class Weight:
    """A weight of B_l, stored in exact epsilon-coordinates."""

    __slots__ = ("eps",)

    def __init__(self, coords: Iterable[Rat]):
        self.eps = tuple(Fraction(exact(c)) for c in coords)

    @property
    def rank(self) -> int:
        return len(self.eps)

    def fundamental(self) -> tuple[Fraction, ...]:
        """Values on the simple coroots h_1, ..., h_l (eps_to_fundamental)."""
        return eps_to_fundamental(self.eps)

    def __add__(self, other: "Weight") -> "Weight":
        _check_rank(self, other)
        return Weight(a + b for a, b in zip(self.eps, other.eps))

    def __sub__(self, other: "Weight") -> "Weight":
        _check_rank(self, other)
        return Weight(a - b for a, b in zip(self.eps, other.eps))

    def __neg__(self) -> "Weight":
        return Weight(-a for a in self.eps)

    def __rmul__(self, scalar: Rat) -> "Weight":
        return Weight(exact(scalar) * a for a in self.eps)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Weight) and self.eps == other.eps

    def __hash__(self) -> int:
        return hash(self.eps)

    def __repr__(self) -> str:
        return f"Weight({', '.join(str(c) for c in self.eps)})"


def is_root(coords: Sequence[Rat]) -> bool:
    """Whether coords are a B_l root: one or two nonzero entries, all +-1."""
    support = [c for c in coords if c != 0]
    return bool(support) and len(support) <= 2 and all(abs(c) == 1 for c in support)


class Root(Weight):
    """A root of B_l: one nonzero entry +-1, or two nonzero entries +-1.

    The squared length is 1 (short) or 2 (long) under the normalized form.
    """

    __slots__ = ()

    def __init__(self, coords: Iterable[Rat]):
        super().__init__(coords)
        if not is_root(self.eps):
            raise ValueError(f"not a B_l root: {tuple(self.eps)}")

    def __repr__(self) -> str:
        return f"Root({', '.join(str(c) for c in self.eps)})"


def eps_root(l: int, a: int, b: int = 0, sign: int = 0) -> Root:
    """eps_a, or eps_a + sign*eps_b when b is given (1-based), in rank l."""
    coords = [0] * l
    coords[a - 1] = 1
    if b:
        coords[b - 1] = sign
    if not is_root(coords):
        raise ValueError(f"not a B_l root: {tuple(coords)}")
    return built_root(tuple(coords))


def built_root(coords: tuple[int, ...]) -> Root:
    """The Root with these -1/0/1 int coordinates, which the caller built as
    a root: Root() would convert each to a Fraction and validate it again."""
    root = Root.__new__(Root)
    root.eps = coords
    return root


def _check_rank(a: Weight, b: Weight) -> None:
    if a.rank != b.rank:
        raise ValueError(f"rank mismatch: {a.rank} vs {b.rank}")


def int_coroot(alpha: Sequence[int]) -> tuple[int, ...]:
    """The coroot 2 alpha/(alpha, alpha) of a B_l root alpha in integer
    eps-coordinates: 2 alpha for a short root, alpha for a long one."""
    scale = 2 // sum(a * a for a in alpha)
    return tuple(scale * a for a in alpha)


def eps_to_fundamental(mu: Sequence[Rat]) -> tuple[Rat, ...]:
    """The values <mu, alpha_i^vee> on the simple coroots of a weight in
    eps-coordinates: mu_i - mu_{i+1} for i < l and 2 mu_l, in ints for ints."""
    return tuple(a - b for a, b in zip(mu, mu[1:])) + (2 * mu[-1],)


def fundamental_to_doubled_eps(c: Sequence[Rat]) -> tuple[Rat, ...]:
    """2 mu in eps-coordinates for the weight mu with fundamental
    coordinates c: 2 mu_i = 2 (c_i + ... + c_{l-1}) + c_l, in ints for ints."""
    out = [c[-1]]
    for x in reversed(c[:-1]):
        out.append(2 * x + out[-1])
    return tuple(reversed(out))


def weight_from_fundamental(coords: Sequence[Rat]) -> Weight:
    """Inverse of Weight.fundamental: mu = fundamental_to_doubled_eps(c)/2."""
    c = [Fraction(exact(x)) for x in coords]
    if len(c) < 2:
        raise ValueError("rank must be at least 2")
    return Weight(x / 2 for x in fundamental_to_doubled_eps(c))


class RootSystem:
    """The B_l root system as one integer root datum.

    Positive roots are {eps_i} with {eps_i - eps_j} and {eps_i + eps_j}
    for i < j; there are l^2 of them.  They are enumerated in lexicographic
    order on epsilon-coordinates, which fixes a reproducible basis order
    for everything built on top.  Row r is the r-th of all 2 l^2 roots
    alpha in that order: roots[r] = alpha, coroots[r] = scales[r] alpha
    with scales[r] = 2/(alpha, alpha), low_modes[r] = the lowest loop mode
    of alpha + m delta (0 for alpha > 0, 1 for alpha < 0), and splits[r]
    (built on first read) = the row pairs (p, q) with coroots[p] +
    coroots[q] = coroots[r].  In closed form 2s eps_i = (s eps_i + eps_j) +
    (s eps_i - eps_j), and s eps_i + t eps_j = 2s eps_i + (t eps_j - s eps_i)
    = 2t eps_j + (s eps_i - t eps_j) = (s eps_i +- eps_k) + (t eps_j -+ eps_k).
    rho2 = 2 rho_bar = (2 (l - i) + 1)_i.
    """

    def __init__(self, rank: int):
        if rank < 2:
            raise ValueError("rank must be at least 2 for type B")
        self.rank = rank
        # (alpha, terms): the codes of alpha's terms s eps_i (and t eps_j),
        # a vector's code sum_k alpha_k 5^k being additive and one per root,
        # so the closed-form splits are sums of codes
        unit = [5**i for i in range(rank)]
        table = []
        for i in range(rank):
            for s in (1, -1):
                alpha = [0] * rank
                alpha[i] = s
                table.append((tuple(alpha), (s * unit[i],)))
                for j in range(i + 1, rank):
                    for t in (1, -1):
                        alpha[j] = t
                        table.append((tuple(alpha), (s * unit[i], t * unit[j])))
                    alpha[j] = 0
        table.sort()
        self.roots: tuple[tuple[int, ...], ...] = tuple(alpha for alpha, _ in table)
        zero = (0,) * rank
        self.low_modes = tuple(int(alpha < zero) for alpha in self.roots)
        self.scales = tuple(2 // len(terms) for _, terms in table)   # (alpha, alpha) = len
        self.coroots = tuple(
            alpha if k == 1 else tuple(k * c for c in alpha)
            for alpha, k in zip(self.roots, self.scales)
        )
        self._codes = tuple(terms for _, terms in table)
        self._splits: Optional[tuple[tuple[tuple[int, int], ...], ...]] = None
        self.rho2 = tuple(2 * (rank - i) - 1 for i in range(rank))
        self.positive_roots: tuple[Root, ...] = tuple(
            built_root(a) for a, lo in zip(self.roots, self.low_modes) if not lo
        )
        self.simple_roots: tuple[Root, ...] = tuple(
            eps_root(rank, i, i + 1, -1) for i in range(1, rank)
        ) + (eps_root(rank, rank),)
        self.highest_root = eps_root(rank, 1, 2, 1)

    @property
    def splits(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The splits of the class docstring, built on first read, as only
        admissibility needs them."""
        if self._splits is None:
            unit = [5**i for i in range(self.rank)]
            row = {sum(terms): r for r, terms in enumerate(self._codes)}
            splits = []
            for terms in self._codes:
                if len(terms) == 1:
                    (b,) = terms
                    pairs = [(row[b + u], row[b - u]) for u in unit if u != abs(b)]
                else:
                    b, c = terms
                    pairs = [(row[b], row[c - b]), (row[c], row[b - c])]
                    pairs += [
                        (row[b + v], row[c - v])
                        for u in unit
                        if u != abs(b) and u != abs(c)
                        for v in (u, -u)
                    ]
                splits.append(tuple(pairs))
            self._splits = tuple(splits)
        return self._splits

    def is_dominant_integral(self, mu: Weight) -> bool:
        """mu is in P_+: nonnegative integer value on every simple coroot,
        i.e. nonnegative integer fundamental coordinates."""
        if mu.rank != self.rank:
            raise ValueError(f"rank mismatch: {mu.rank} vs {self.rank}")
        return all(v.denominator == 1 and v >= 0 for v in mu.fundamental())

    def weyl_dim(self, mu: Weight) -> int:
        """Dimension of the irreducible module with highest weight mu in P_+.

        Product over positive roots of (mu + rho, alpha) / (rho, alpha), in
        the doubled eps-coordinates s = 2 (mu + rho) and r = 2 rho, which are
        integers for mu in P_+ (r_i = 2 (l - i) + 1).  The roots eps_i,
        eps_i - eps_j and eps_i + eps_j pair with x as x_i, x_i - x_j and
        x_i + x_j.
        """
        if not self.is_dominant_integral(mu):
            raise ValueError(f"weight {mu} is not dominant integral")
        l = self.rank

        def product(x: Sequence[int]) -> int:
            out = math.prod(x)
            for i, j in itertools.combinations(range(l), 2):
                out *= (x[i] - x[j]) * (x[i] + x[j])
            return out

        num = product([int(2 * m) + r for m, r in zip(mu.eps, self.rho2)])
        den = product(self.rho2)
        if num % den or num <= 0:
            raise ArithmeticError(f"Weyl dimension came out as {Fraction(num, den)}")
        return num // den


def harmonic_multiplicities(rank: int, k: int) -> dict[tuple[int, ...], int]:
    """Weight multiplicities of V(k eps_1), keyed by eps-coordinates.

    V(k eps_1) is the space of harmonic polynomials of degree k on
    C^{2l+1}, so its weights are the integral mu with |mu|_1 <= k, and mu
    has multiplicity C(floor((k - |mu|_1)/2) + l - 1, l - 1).
    """

    def walk(i: int, budget: int):
        """Yield (mu_{i+1}, ..., mu_l) with k - |mu|_1, given the budget
        k - |mu_1, ..., mu_i|_1."""
        if i == rank:
            yield (), budget
            return
        for c in range(-budget, budget + 1):
            for rest, left in walk(i + 1, budget - abs(c)):
                yield (c,) + rest, left

    return {
        mu: math.comb(left // 2 + rank - 1, rank - 1)
        for mu, left in walk(0, k)
    }


def build_root_system(rank: int) -> RootSystem:
    """Construct the B_l root system; rank below 2 is rejected."""
    return RootSystem(rank)
