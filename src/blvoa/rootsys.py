"""Root-system arithmetic for the simple Lie algebra of type B_l.

Weights and roots live in the rank-l epsilon-coordinate space with exact
Fraction entries.  The invariant form is the standard one normalized so
that the highest root has squared length 2, which makes the epsilon basis
orthonormal: (eps_i, eps_j) = delta_ij.  Short roots (the eps_i) then have
squared length 1 and long roots (eps_i +- eps_j) squared length 2.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

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
        """Values on the simple coroots h_1, ..., h_l.

        For B_l these are mu_i - mu_{i+1} for i < l and 2*mu_l for i = l.
        """
        mu = self.eps
        l = len(mu)
        vals = [mu[i] - mu[i + 1] for i in range(l - 1)]
        vals.append(2 * mu[l - 1])
        return tuple(vals)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.eps)

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


class Root(Weight):
    """A root of B_l: one nonzero entry +-1, or two nonzero entries +-1.

    The squared length is 1 (short) or 2 (long) under the normalized form.
    """

    __slots__ = ()

    def __init__(self, coords: Iterable[Rat]):
        super().__init__(coords)
        support = [c for c in self.eps if c != 0]
        if not (support and all(abs(c) == 1 for c in support) and len(support) <= 2):
            raise ValueError(f"not a B_l root: {tuple(self.eps)}")

    def __repr__(self) -> str:
        return f"Root({', '.join(str(c) for c in self.eps)})"


def _eps_coords(l: int, a: int, b: int = 0, sign: int = 0) -> tuple[int, ...]:
    coords = [0] * l
    coords[a - 1] = 1
    if b:
        coords[b - 1] = sign
    return tuple(coords)


def eps_root(l: int, a: int, b: int = 0, sign: int = 0) -> Root:
    """eps_a, or eps_a + sign*eps_b when b is given (1-based), in rank l."""
    return Root(_eps_coords(l, a, b, sign))


_EXACT_UNITS = {-1: Fraction(-1), 0: Fraction(0), 1: Fraction(1)}


def _built_root(coords: tuple[int, ...]) -> Root:
    """The Root with these -1/0/1 coordinates, which the caller built as a
    root: Root() would convert and validate each coordinate again."""
    root = Root.__new__(Root)
    root.eps = tuple(_EXACT_UNITS[c] for c in coords)
    return root


def _check_rank(a: Weight, b: Weight) -> None:
    if a.rank != b.rank:
        raise ValueError(f"rank mismatch: {a.rank} vs {b.rank}")


def inner(a: Weight, b: Weight) -> Fraction:
    """Normalized invariant form on weight space; (eps_i, eps_j) = delta_ij."""
    _check_rank(a, b)
    return sum((x * y for x, y in zip(a.eps, b.eps)), Fraction(0))


def coroot_pairing(mu: Weight, alpha: Weight) -> Fraction:
    """<mu, alpha^vee> = 2 (mu, alpha) / (alpha, alpha)."""
    norm = inner(alpha, alpha)
    if norm == 0:
        raise ValueError("zero root has no coroot")
    return 2 * inner(mu, alpha) / norm


def int_coroot(alpha: Sequence[int]) -> tuple[int, ...]:
    """The coroot 2 alpha/(alpha, alpha) of a B_l root alpha in integer
    eps-coordinates: 2 alpha for a short root, alpha for a long one."""
    scale = 2 // sum(a * a for a in alpha)
    return tuple(scale * a for a in alpha)


def weight_from_fundamental(coords: Sequence[Rat]) -> Weight:
    """Inverse of Weight.fundamental: mu_l = c_l/2, mu_i = c_i + mu_{i+1}."""
    c = [Fraction(exact(x)) for x in coords]
    l = len(c)
    if l < 2:
        raise ValueError("rank must be at least 2")
    mu = [Fraction(0)] * l
    mu[l - 1] = c[l - 1] / 2
    for i in range(l - 2, -1, -1):
        mu[i] = c[i] + mu[i + 1]
    return Weight(mu)


class RootSystem:
    """The B_l root system with its positive roots and Weyl machinery.

    Positive roots are {eps_i} with {eps_i - eps_j} and {eps_i + eps_j}
    for i < j; there are l^2 of them.  They are enumerated in lexicographic
    order on epsilon-coordinates, which fixes a reproducible basis order
    for everything built on top.
    """

    def __init__(self, rank: int):
        if rank < 2:
            raise ValueError("rank must be at least 2 for type B")
        self.rank = rank
        coords = []
        for i in range(1, rank + 1):
            coords.append(_eps_coords(rank, i))
            for j in range(i + 1, rank + 1):
                for sign in (-1, 1):
                    coords.append(_eps_coords(rank, i, j, sign))
        self.positive_roots: tuple[Root, ...] = tuple(map(_built_root, sorted(coords)))
        self.simple_roots: tuple[Root, ...] = tuple(
            _built_root(_eps_coords(rank, i, i + 1, -1)) for i in range(1, rank)
        ) + (_built_root(_eps_coords(rank, rank)),)
        self.highest_root = _built_root(_eps_coords(rank, 1, 2, 1))
        # rho-bar = sum of fundamental weights = (l - i + 1/2) eps_i
        self.weyl_vector = Weight(
            Fraction(2 * (rank - i) + 1, 2) for i in range(1, rank + 1)
        )

    def fundamental_weight(self, i: int) -> Weight:
        """omega_i (1-based): eps_1 + ... + eps_i, halved for i = l."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"fundamental weight index {i} out of range")
        if i < self.rank:
            return Weight([1] * i + [0] * (self.rank - i))
        return Weight([Fraction(1, 2)] * self.rank)

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

        def product(x: list[int]) -> int:
            out = math.prod(x)
            for i, j in itertools.combinations(range(l), 2):
                out *= (x[i] - x[j]) * (x[i] + x[j])
            return out

        r = [2 * (l - i) - 1 for i in range(l)]   # 0-based i
        num = product([int(2 * m) + ri for m, ri in zip(mu.eps, r)])
        den = product(r)
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
