"""Matrix realization of the simple Lie algebra so(2l+1) of type B_l.

The algebra is realized as matrices antisymmetric about the antidiagonal
(X[i][j] = -X[j'][i'] with i' = N+1-i for N = 2l+1), so the Cartan
subalgebra is diagonal, diag(a_1, ..., a_l, 0, -a_l, ..., -a_1), and
ad-weights can be read off entrywise.  Each root vector has a closed form
in the matrix units E (1-based):

    e_alpha = s (E_ab - E_b'a'),    f_alpha = t (E_ba - E_a'b'),

with (a, b, s, t) = (i, j, 1, 1) for eps_i - eps_j, (i, l+1, 1, 2) for
eps_i and (i, j', -1/2, -2) for eps_i + eps_j.  h_i is the diagonal of the
simple coroot alpha_i^vee = 2 alpha_i/(alpha_i, alpha_i), which is
[e_i, f_i].  These are the matrices that the nested brackets of the
Chevalley generators give (checked in the tests), which pins every
normalization; in particular [e_alpha, f_alpha] is exactly the coroot
h_alpha for every positive root alpha.

The bracket table is read by weight.  [x_i, x_j] has the weight
w = wt_i + wt_j, and every root space is one-dimensional, so in a Chevalley
basis [e_alpha, e_beta] = N e_(alpha+beta) (Humphreys, Introduction to Lie
Algebras and Representation Theory, section 25).  [h_k, x] is
<wt(x), alpha_k^vee> x, read off x's integer weight.  Among the other
pairs, when w is neither 0 nor a root the bracket is 0; when w is a root
gamma it is one integer, the entry of [x_i, x_j] at one cell of x_gamma
divided by x_gamma's entry there, both read from the basis matrices scaled
to integers; when w = 0 the pair is (f_alpha, e_alpha), whose bracket is
-h_alpha, read in closed form from the coroot of alpha by h_of_root.

The invariant form, normalized so (e_theta, f_theta) = 1, is read off the
coroots too: (h_i, h_j) = (alpha_i^vee, alpha_j^vee) in eps-coordinates,
(e_alpha, f_alpha) = 2/(alpha, alpha), which invariance makes half of
(h_alpha, h_alpha), and every other pair is 0.  The tests check both
against the matrix brackets and (x, y) = tr(xy)/2.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional

from .rootsys import Root, RootSystem, build_root_system, eps_root, int_coroot

# {(row, col): entry}, 0-based, holding only the nonzero entries, so that
# == compares matrices and an empty dict is the zero matrix.
Matrix = dict[tuple[int, int], Fraction]


def add_into(out: dict, key, c) -> None:
    """out[key] += c, dropping the key when the sum is zero."""
    v = out.get(key, 0) + c
    if v:
        out[key] = v
    else:
        out.pop(key, None)


def mat_cell(a: dict, b: dict, r: int, c: int):
    """Entry (r, c) of [a, b] = ab - ba without forming either product."""
    ab = sum(x * b.get((k, c), 0) for (i, k), x in a.items() if i == r)
    ba = sum(y * a.get((k, c), 0) for (i, k), y in b.items() if i == r)
    return ab - ba


class BasisElement:
    """One member of the ordered basis: f(alpha), h(i) or e(alpha)."""

    __slots__ = ("kind", "label", "matrix", "index")

    def __init__(self, kind: str, label, matrix: Matrix, index: int):
        self.kind = kind          # "f", "h" or "e"
        self.label = label        # Root for e/f, 1-based int for h
        self.matrix = matrix
        self.index = index        # position in the fixed basis order

    def __repr__(self) -> str:
        if self.kind == "h":
            return f"h_{self.label}"
        bits = []
        for k, c in enumerate(self.label.eps):
            if c:
                bits.append(("+" if c > 0 and bits else "-" if c < 0 else "") + f"e{k + 1}")
        return f"{self.kind}({''.join(bits)})"


class LieAlgebra:
    """so(2l+1) with the basis f(Delta_+), h_1..h_l, e(Delta_+).

    The positive roots are enumerated lexicographically on their
    epsilon-coordinates; the f-block uses that order, then h_1..h_l, then
    the e-block in the same order.  Immutable after construction.
    """

    def __init__(self, rank: int):
        self.rootsys: RootSystem = build_root_system(rank)
        self.rank = rank
        self.n = 2 * rank + 1
        self._build_basis()
        self._brackets: Optional[dict] = None

    # -- construction -----------------------------------------------------

    def _build_basis(self) -> None:
        l, p = self.rank, self.n + 1   # x' = p - x

        def units(a: int, b: int, c: Fraction) -> Matrix:
            """c (E_ab - E_b'a'), 1-based."""
            return {(a - 1, b - 1): c, (p - b - 1, p - a - 1): -c}

        one, two, half = Fraction(1), Fraction(2), Fraction(1, 2)
        ef: dict[tuple[int, ...], tuple[Matrix, Matrix]] = {}   # (e_alpha, f_alpha)
        for i in range(1, l + 1):
            ef[eps_root(l, i).eps] = (units(i, l + 1, one), units(l + 1, i, two))
            for j in range(i + 1, l + 1):
                ef[eps_root(l, i, j, -1).eps] = (units(i, j, one), units(j, i, one))
                ef[eps_root(l, i, j, 1).eps] = (
                    units(i, p - j, -half),
                    units(p - j, i, -two),
                )
        rs = self.rootsys
        pos = rs.positive_roots
        basis = [BasisElement("f", r, ef[r.eps][1], k) for k, r in enumerate(pos)]
        # simple coroots in integer eps-coordinates; h_i is the diagonal
        # diag(v, 0, -v reversed) of v = alpha_i^vee
        self.simple_coroots = tuple(int_coroot(a.eps) for a in rs.simple_roots)
        for i, v in enumerate(self.simple_coroots, 1):
            h: Matrix = {}
            for k, c in enumerate(v):
                if c:
                    h[k, k], h[p - k - 2, p - k - 2] = Fraction(c), Fraction(-c)
            basis.append(BasisElement("h", i, h, len(basis)))
        for r in pos:
            basis.append(BasisElement("e", r, ef[r.eps][0], len(basis)))
        self.basis: tuple[BasisElement, ...] = tuple(basis)
        # integer epsilon-coordinates of each basis element's ad-h weight:
        # -alpha, 0 or alpha
        negative = [tuple(-c for c in r.eps) for r in pos]
        self.weights = tuple(negative + [(0,) * l] * l + [r.eps for r in pos])
        self.h_start = len(pos)
        self.e_start = len(pos) + self.rank
        self._by_key = {
            (b.kind, b.label if b.kind == "h" else b.label.eps): b for b in basis
        }

    # -- lookups -----------------------------------------------------------

    def e(self, alpha: Root) -> BasisElement:
        return self._by_key[("e", alpha.eps)]

    def f(self, alpha: Root) -> BasisElement:
        return self._by_key[("f", alpha.eps)]

    def h(self, i: int) -> BasisElement:
        return self._by_key[("h", i)]

    # -- algebra operations --------------------------------------------------

    def invariant_form(self, x: BasisElement, y: BasisElement) -> int:
        """(x, y) for basis elements x and y, normalized so (e_theta, f_theta) = 1.

        (h_i, h_j) = (alpha_i^vee, alpha_j^vee) in eps-coordinates, and
        (e_alpha, f_alpha) = (f_alpha, e_alpha) = 2/(alpha, alpha), which is
        half of (alpha^vee, alpha^vee) because invariance gives
        (h_alpha, h_alpha) = (h_alpha, [e_alpha, f_alpha]) = 2 (e_alpha, f_alpha).
        Every other pair is 0: a nonzero pair has weights summing to 0.
        """
        wx, wy = self.weights[x.index], self.weights[y.index]
        if any(a + b for a, b in zip(wx, wy)):
            return 0
        if x.kind == "h":
            u, v = self.simple_coroots[x.label - 1], self.simple_coroots[y.label - 1]
            return sum(a * b for a, b in zip(u, v))
        return sum(a * a for a in int_coroot(wx)) // 2

    def bracket(self, i: int, j: int) -> dict[int, int]:
        """[x_i, x_j] expanded in the basis, by index."""
        return self.structure_constants()[(i, j)]

    def structure_constants(self) -> dict[tuple[int, int], dict[int, int]]:
        """Full bracket table over ordered basis pairs (computed once).

        Each pair is read by its weight sum (see the module docstring): a
        sum that is neither 0 nor a root gives {}, a sum of 0 gives
        [f_alpha, e_alpha] = -h_alpha from h_of_root's closed form, and
        [h_k, x] = <wt(x), alpha_k^vee> x comes from x's integer weight.
        Every coefficient is an int; a non-integral one raises
        ArithmeticError instead of being truncated.
        """
        if self._brackets is None:
            wts = self.weights
            # a weight sum has eps-coordinates in -2..2, so its base-5 code,
            # which is additive, identifies it; code 0 is weight 0
            code = [sum(c * 5**k for k, c in enumerate(w)) for w in wts]
            owner = {w: k for k, w in enumerate(code) if w}
            h_block = range(self.h_start, self.e_start)
            # the basis matrices times their common denominator, in ints
            den = math.lcm(
                *(x.denominator for b in self.basis for x in b.matrix.values())
            )
            ints = [
                {cell: x.numerator * (den // x.denominator) for cell, x in b.matrix.items()}
                for b in self.basis
            ]
            table: dict[tuple[int, int], dict[int, int]] = {}
            nb = len(self.basis)
            for i in range(nb):
                table[(i, i)] = {}
                for j in range(i + 1, nb):
                    w = code[i] + code[j]
                    if j in h_block:   # [x_i, h_k] = -<wt_i, alpha_k^vee> x_i
                        v = -self._pairing(wts[i], j - self.h_start)
                        row = {i: v} if v else {}
                    elif i in h_block:
                        v = self._pairing(wts[j], i - self.h_start)
                        row = {j: v} if v else {}
                    elif not w:
                        row = self._cartan_row(i, j)
                    elif w in owner:
                        row = self._root_row(i, j, owner[w], den, ints)
                    else:
                        row = {}
                    table[(i, j)] = row
                    table[(j, i)] = {k: -v for k, v in row.items()}
            self._brackets = table
        return self._brackets

    def _pairing(self, wt: tuple[int, ...], k: int) -> int:
        """<wt, alpha_(k+1)^vee> for an integer eps-weight: wt_k - wt_(k+1),
        or 2 wt_l for the short simple root (k 0-based)."""
        return wt[k] - wt[k + 1] if k < self.rank - 1 else 2 * wt[k]

    def _cartan_row(self, i: int, j: int) -> dict[int, int]:
        """[x_i, x_j] over the basis, given that its weight is 0 and neither
        is in the Cartan: x_i = f_alpha and x_j = e_alpha (i < j), so the
        bracket is -h_alpha."""
        try:
            h = self._h_coefficients(self.weights[j])
        except ArithmeticError as err:
            raise ArithmeticError(f"[x_{i}, x_{j}] has a non-integral coefficient") from err
        return {self.h_start + k - 1: -c for k, c in h.items()}

    def _root_row(
        self, i: int, j: int, target: int, den: int, ints: list[dict]
    ) -> dict[int, int]:
        """[x_i, x_j] = c x_target, given that its weight is the root of
        x_target.  With the den-scaled integer matrices D = den x,
        [D_i, D_j] = den c D_target, so c is read at one cell of D_target."""
        m = ints[target]
        cell = next(iter(m))
        num, div = mat_cell(ints[i], ints[j], *cell), den * m[cell]
        if num % div:
            raise ArithmeticError(f"[x_{i}, x_{j}] has a non-integral coefficient")
        c = num // div
        return {target: c} if c else {}

    def h_of_root(self, alpha: Root) -> dict[int, int]:
        """Coefficients of h_alpha = [e_alpha, f_alpha] over h_1..h_l (1-based)."""
        if ("e", alpha.eps) not in self._by_key:
            raise ValueError(
                f"h_of_root needs a positive root of B_{self.rank}, got {alpha}"
            )
        return self._h_coefficients(tuple(map(int, alpha.eps)))

    @staticmethod
    def _h_coefficients(alpha: tuple[int, ...]) -> dict[int, int]:
        """h_alpha over h_1..h_l (1-based) for alpha in integer eps-coordinates.

        h_alpha is the coroot v = 2 alpha/(alpha, alpha), and the simple
        coroots are eps_i - eps_(i+1) (i < l) and 2 eps_l, so c_i = v_1 + ...
        + v_i for i < l and c_l = (v_1 + ... + v_l)/2.  An odd v_1 + ... + v_l
        makes c_l non-integral: ArithmeticError, not a truncated c_l.
        """
        partial = list(itertools.accumulate(int_coroot(alpha)))
        partial[-1], odd = divmod(partial[-1], 2)
        if odd:
            raise ArithmeticError(f"h_alpha for {alpha} has a non-integral coefficient")
        return {i: c for i, c in enumerate(partial, 1) if c}
