"""The admissible highest weights at level k = n - l + 1/2 read off the
definition in closed form: an engine-free reference for the classification
list, in ints and Fractions only (no blvoa import).

Kac-Wakimoto (1989): lambda = k Lambda_0 + mu is admissible when (i)
<lambda + rho, gamma^vee> is no element of {0, -1, -2, ...} for any positive
real coroot gamma^vee, and (ii) the integral real coroots span h + Qc over
Q.  Arakawa (Duke 2016) identifies the irreducible L(k, 0)-modules in
category O with the L(lambda) of such lambda, which the paper's list
realizes.

Work with x = mu + rho_bar in doubled coordinates X = 2 mu + rho2,
rho2_i = 2 (l - i) + 1, and with H = 2 (k + h^vee) = 2n + 2l - 1, an odd
integer.  For the real root alpha + m delta the pairing is

    <lambda + rho, (+-eps_i + m delta)^vee>            = +-X_i + m H,
    <lambda + rho, (+-eps_i +- eps_j + m delta)^vee>   = (+-X_i +- X_j + m H) / 2.

The short-coroot condition is x in 1/2 Z^l, i.e. X in Z^l: then every
short real coroot (eps_i + m delta)^vee is integral, at m = 0 and m = 1
alike, so (ii) holds.  Condition (i) on the short coroots (eps_i + m delta,
m >= 0, and -eps_i + m delta, m >= 1) is 0 < X_i < H.  A long coroot is
integral when its numerator is even.  For X_i, X_j of one parity that
needs m even, and (i) leaves only X_i - X_j > 0 for i < j (at m = 0).
Across parities it needs m odd, and (i) leaves only X_i + X_j < H (at
m = 1).  So the list is every X in (0, H)^l whose coordinates of one
parity strictly decrease with the index and with X_i + X_j < H whenever
X_i and X_j differ in parity.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def doubled_box(l: int, n: int) -> itertools.product:
    """Every X in (0, H)^l, in lexicographic order."""
    return itertools.product(range(1, 2 * n + 2 * l - 1), repeat=l)


def admissible_doubled(l: int, n: int) -> list[tuple[int, ...]]:
    """Every X = 2 mu + rho2 of the module docstring, sorted."""
    h = 2 * n + 2 * l - 1
    return [
        x
        for x in doubled_box(l, n)
        if all(
            x[i] > x[j] if (x[i] - x[j]) % 2 == 0 else x[i] + x[j] < h
            for i, j in itertools.combinations(range(l), 2)
        )
    ]


def eps_of(x: tuple[int, ...]) -> tuple[Fraction, ...]:
    """The weight mu = (X - rho2) / 2 in eps-coordinates."""
    l = len(x)
    return tuple(Fraction(a - 2 * (l - i) + 1, 2) for i, a in enumerate(x))


def admissible_weights(l: int, n: int) -> list[tuple[Fraction, ...]]:
    """The weights mu of admissible_doubled, in eps-coordinates."""
    return [eps_of(x) for x in admissible_doubled(l, n)]
