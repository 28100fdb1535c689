"""The oracle descents that ``blvoa.zero_weight.generate_module`` replaced,
kept as its references: the whole module R in U(g), and the weights
mu >= 0 of R in U(g)/n_-U(g), each an ``AdModuleBasis`` of one echelon
per weight.  No src code calls them; the tests check R = V(2n eps_1) on
the first (criterion 2), and compare the word path's R_0 and P_0 against
both."""

import itertools
from fractions import Fraction

from uea_reference import from_quotient, to_quotient

from blvoa.rootsys import Weight, harmonic_multiplicities
from blvoa.uea import UEA, Echelon, Monomial, UEAElement
from blvoa.zero_weight import (
    DEFAULT_DIM_CEILING,
    OracleCeilingExceeded,
    singular_image,
)


class AdModuleBasis:
    """Echelonized basis of the adjoint module, grouped by finite weight
    (integer eps-coordinates)."""

    def __init__(self, rank: int):
        self.rank = rank
        self.spaces: dict[tuple[int, ...], Echelon] = {}

    def space(self, eps: tuple[int, ...]) -> Echelon:
        if eps not in self.spaces:
            self.spaces[eps] = Echelon()
        return self.spaces[eps]

    @property
    def dim(self) -> int:
        return sum(s.dim for s in self.spaces.values())

    def zero_weight_rows(self) -> list[dict[Monomial, Fraction]]:
        space = self.spaces.get((0,) * self.rank)
        return space.rows() if space else []


def _descend(
    engine: UEA, n: int, ceiling: int, modulo_nminus: bool
) -> AdModuleBasis:
    """Descend from the singular image v under ad(f_i) alone, each row
    carrying its weight, lowered by alpha_i per step.  The targets are the
    weight multiplicities of V(2n eps_1), checked against its Weyl
    dimension; modulo n_-U(g) they are kept at the weights mu >= 0 (every
    partial sum of the eps-coordinates >= 0) and each step is -x·f_i in
    the quotient, by UEA.right_multiply.  A full space is skipped, the
    ceiling counts the targets before any work, and every space must close
    at its target."""
    lie = engine.lie
    l = lie.rank
    simple = lie.rootsys.simple_roots
    top = (2 * n,) + (0,) * (l - 1)
    targets = harmonic_multiplicities(l, 2 * n)
    if sum(targets.values()) != lie.rootsys.weyl_dim(Weight(top)):
        raise RuntimeError(
            f"weight multiplicities of V({2 * n} eps_1) do not sum to its"
            " Weyl dimension"
        )
    if modulo_nminus:
        targets = {
            mu: m for mu, m in targets.items() if min(itertools.accumulate(mu)) >= 0
        }
    total = sum(targets.values())
    if total > ceiling:
        raise OracleCeilingExceeded(
            f"oracle descent builds {total} vectors, over ceiling {ceiling}"
        )
    basis = AdModuleBasis(l)
    v = UEAElement(engine, basis.space(top).insert(singular_image(engine, n).terms))
    if any(not engine.ad(engine.e(a), v).is_zero() for a in simple):
        raise RuntimeError("singular image is not a highest-weight vector")
    lowering = [(lie.f(a).index, engine.weights[lie.f(a).index]) for a in simple]
    queue = [(v, top)]
    for x, w in queue:
        for f, step in lowering:
            mu = tuple(c + d for c, d in zip(w, step))
            if dim_at(basis, mu) >= targets.get(mu, 0):
                continue
            if modulo_nminus:
                y = engine.right_multiply(to_quotient(engine, x), f)
                u = -from_quotient(engine, y)
            else:
                u = engine.ad(engine.gen(lie.basis[f]), x)
            if u.is_zero():
                continue
            row = basis.space(mu).insert(u.terms)
            if row is not None:
                queue.append((UEAElement(engine, row), mu))
    for mu, target in targets.items():
        if dim_at(basis, mu) != target:
            raise RuntimeError(
                f"weight space {mu} closed at dimension {dim_at(basis, mu)},"
                f" target {target}"
            )
    return basis


def generate_whole_module(
    engine: UEA, n: int, ceiling: int = DEFAULT_DIM_CEILING
) -> AdModuleBasis:
    """All of R in U(g).  Every weight of V(2n eps_1) is a target, so the
    ceiling counts weyl_dim(2n eps_1) vectors."""
    return _descend(engine, n, ceiling, modulo_nminus=False)


def generate_nonnegative_module(
    engine: UEA, n: int, ceiling: int = DEFAULT_DIM_CEILING
) -> AdModuleBasis:
    """The weights mu >= 0 of R in U(g)/n_-U(g): each R_mu there is spanned
    by the f_i R_{mu + alpha_i} with mu + alpha_i >= 0, so the descent
    builds no other weight, and its zero-weight rows project R_0."""
    return _descend(engine, n, ceiling, modulo_nminus=True)


def dim_at(module: AdModuleBasis, eps: tuple[int, ...]) -> int:
    """The dimension of the weight space at eps (integer eps-coordinates)."""
    space = module.spaces.get(eps)
    return space.dim if space else 0


def dim_zero(module: AdModuleBasis) -> int:
    """The dimension of the zero-weight space R_0."""
    return dim_at(module, (0,) * module.rank)
