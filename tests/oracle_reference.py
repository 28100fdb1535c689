"""The whole-module oracle descent in U(g), the reference for the quotient
descent of ``blvoa.zero_weight.generate_module``.  No src code calls it;
the tests check R = V(2n eps_1) on it (criterion 2), and compare the
quotient descent against it."""

from blvoa.rootsys import Weight, harmonic_multiplicities
from blvoa.uea import UEA, UEAElement
from blvoa.zero_weight import (
    DEFAULT_DIM_CEILING,
    AdModuleBasis,
    OracleCeilingExceeded,
    singular_image,
)


def generate_whole_module(
    engine: UEA, n: int, ceiling: int = DEFAULT_DIM_CEILING
) -> AdModuleBasis:
    """All of R in U(g), by descent from the singular image v under
    ad(f_i) alone, each row carrying its weight.  Every weight of
    V(2n eps_1) is a target, so the ceiling counts weyl_dim(2n eps_1)
    vectors; each space must close at its multiplicity."""
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
    total = sum(targets.values())
    if total > ceiling:
        raise OracleCeilingExceeded(
            f"oracle descent builds {total} vectors, over ceiling {ceiling}"
        )
    basis = AdModuleBasis(l)
    v = UEAElement(engine, basis.space(top).insert(singular_image(engine, n).terms))
    if any(not engine.ad(engine.e(a), v).is_zero() for a in simple):
        raise RuntimeError("singular image is not a highest-weight vector")
    lowering = [(engine.f(a), engine.weights[lie.f(a).index]) for a in simple]
    queue = [(v, top)]
    for x, w in queue:
        for f, step in lowering:
            mu = tuple(c + d for c, d in zip(w, step))
            if basis.dim_at(mu) >= targets.get(mu, 0):
                continue
            u = engine.ad(f, x)
            if u.is_zero():
                continue
            row = basis.space(mu).insert(u.terms)
            if row is not None:
                queue.append((UEAElement(engine, row), mu))
    for mu, target in targets.items():
        if basis.dim_at(mu) != target:
            raise RuntimeError(
                f"weight space {mu} closed at dimension {basis.dim_at(mu)},"
                f" target {target}"
            )
    return basis


def dim_zero(module: AdModuleBasis) -> int:
    """The dimension of the zero-weight space R_0."""
    return module.dim_at((0,) * module.rank)
