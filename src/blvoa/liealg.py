"""The simple Lie algebra so(2l+1) of type B_l, from integer labels.

so(2l+1) is taken as the matrices antisymmetric about the antidiagonal,
spanned by the units A(a, b) = E_ab - E_b'a' (1-based, x' = 2l + 2 - x),
so A(b', a') = -A(a, b) and A(a, a') = 0.  The Cartan subalgebra is
diagonal, diag(a_1, ..., a_l, 0, -a_l, ..., -a_1), and A(a, b) has the
weight eps_a - eps_b, with eps_(l+1) = 0 and eps_x' = -eps_x.  Each root
vector is c A(a, b), held as its unit (a, b, 2c) in integers:

    e_alpha = (i, j, 2),     f_alpha = (j, i, 2)       for eps_i - eps_j,
    e_alpha = (i, l+1, 2),   f_alpha = (l+1, i, 4)     for eps_i,
    e_alpha = (i, j', -1),   f_alpha = (j', i, -4)     for eps_i + eps_j.

h_i is the diagonal of the simple coroot alpha_i^vee = 2 alpha_i/(alpha_i,
alpha_i), which is [e_i, f_i].  These are the matrices that the nested
brackets of the Chevalley generators give (checked in the tests, which
build the matrices from the units), which pins every normalization; in
particular [e_alpha, f_alpha] is exactly the coroot h_alpha for every
positive root alpha.

The bracket table is read by weight.  [x_i, x_j] has the weight
w = wt_i + wt_j, and every root space is one-dimensional, so in a Chevalley
basis [e_alpha, e_beta] = N e_(alpha+beta) (Humphreys, Introduction to Lie
Algebras and Representation Theory, section 25).  [h_k, x] is
<wt(x), alpha_k^vee> x, read off x's integer weight.  Among the other
pairs, when w is neither 0 nor a root the bracket is 0; when w is a root
gamma it is the one integer N that the bracket of the units gives,

    [A(a,b), A(c,d)] = d_bc A(a,d) - d_ad A(c,b) - d_bd' A(a,c') - d_ac' A(b',d)

(d the Kronecker delta), each of whose terms is +-A of x_gamma's unit;
when w = 0 the pair is (f_alpha, e_alpha), whose bracket is -h_alpha, read
in closed form from the coroot of alpha by h_of_root.

The invariant form, normalized so (e_theta, f_theta) = 1, is read off the
coroots too: (h_i, h_j) = (alpha_i^vee, alpha_j^vee) in eps-coordinates,
(e_alpha, f_alpha) = 2/(alpha, alpha), which invariance makes half of
(h_alpha, h_alpha), and every other pair is 0.  The tests check both
against the matrix brackets and (x, y) = tr(xy)/2.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .rootsys import (
    Root,
    RootSystem,
    build_root_system,
    eps_root,
    eps_to_fundamental,
    int_coroot,
)

# (a, b, 2c) for the root vector c A(a, b), 1-based
Unit = tuple[int, int, int]


def add_into(out: dict, key, c) -> None:
    """out[key] += c, dropping the key when the sum is zero."""
    v = out.get(key, 0) + c
    if v:
        out[key] = v
    else:
        out.pop(key, None)


class BasisElement:
    """One member of the ordered basis: f(alpha), h(i) or e(alpha)."""

    __slots__ = ("kind", "label", "unit", "index")

    def __init__(self, kind: str, label, unit: Optional[Unit], index: int):
        self.kind = kind          # "f", "h" or "e"
        self.label = label        # Root for e/f, 1-based int for h
        self.unit = unit          # (a, b, 2c) for e/f, None for h
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
        units: dict[tuple[int, ...], tuple[Unit, Unit]] = {}   # (e_alpha, f_alpha)
        for i in range(1, l + 1):
            units[eps_root(l, i).eps] = ((i, l + 1, 2), (l + 1, i, 4))
            for j in range(i + 1, l + 1):
                units[eps_root(l, i, j, -1).eps] = ((i, j, 2), (j, i, 2))
                units[eps_root(l, i, j, 1).eps] = ((i, p - j, -1), (p - j, i, -4))
        rs = self.rootsys
        pos = rs.positive_roots
        basis = [BasisElement("f", r, units[r.eps][1], k) for k, r in enumerate(pos)]
        # simple coroots in integer eps-coordinates; h_i is the diagonal
        # diag(v, 0, -v reversed) of v = alpha_i^vee
        self.simple_coroots = tuple(int_coroot(a.eps) for a in rs.simple_roots)
        for i in range(1, l + 1):
            basis.append(BasisElement("h", i, None, len(basis)))
        for r in pos:
            basis.append(BasisElement("e", r, units[r.eps][0], len(basis)))
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
            # <wt, alpha_k^vee> for every k, once per basis weight
            fund = [eps_to_fundamental(w) for w in wts]
            table: dict[tuple[int, int], dict[int, int]] = {}
            nb = len(self.basis)
            for i in range(nb):
                table[(i, i)] = {}
                for j in range(i + 1, nb):
                    w = code[i] + code[j]
                    if j in h_block:   # [x_i, h_k] = -<wt_i, alpha_k^vee> x_i
                        v = -fund[i][j - self.h_start]
                        row = {i: v} if v else {}
                    elif i in h_block:
                        v = fund[j][i - self.h_start]
                        row = {j: v} if v else {}
                    elif not w:
                        row = self._cartan_row(i, j)
                    elif w in owner:
                        row = self._root_row(i, j, owner[w])
                    else:
                        row = {}
                    table[(i, j)] = row
                    table[(j, i)] = {k: -v for k, v in row.items()}
            self._brackets = table
        return self._brackets

    def _cartan_row(self, i: int, j: int) -> dict[int, int]:
        """[x_i, x_j] over the basis, given that its weight is 0 and neither
        is in the Cartan: x_i = f_alpha and x_j = e_alpha (i < j), so the
        bracket is -h_alpha."""
        try:
            h = self._h_coefficients(self.weights[j])
        except ArithmeticError as err:
            raise ArithmeticError(f"[x_{i}, x_{j}] has a non-integral coefficient") from err
        return {self.h_start + k - 1: -c for k, c in h.items()}

    def _root_row(self, i: int, j: int, target: int) -> dict[int, int]:
        """[x_i, x_j] = N x_target, given that its weight is the root of
        x_target.  Each delta term of [A(a,b), A(c,d)] (the module docstring)
        has that weight too, so it is +-A(a_t, b_t), A(b_t', a_t') being
        -A(a_t, b_t); with s the signed count of these terms and x = (u/2) A
        for the unit (a, b, u), u_i u_j s = 2 N u_t."""
        a, b, ui = self.basis[i].unit
        c, d, uj = self.basis[j].unit
        at, bt, ut = self.basis[target].unit
        p = self.n + 1   # x' = p - x
        s = 0
        for hit, sign, x, y in (
            (b == c, 1, a, d),
            (a == d, -1, c, b),
            (b == p - d, -1, a, p - c),
            (a == p - c, -1, p - b, d),
        ):
            if hit:
                s += sign if (x, y) == (at, bt) else -sign
        num, div = ui * uj * s, 2 * ut
        if num % div:
            raise ArithmeticError(f"[x_{i}, x_{j}] has a non-integral coefficient")
        n = num // div
        return {target: n} if n else {}

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
