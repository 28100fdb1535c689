"""Exact symbolic engine for the affine Lie algebra of type B_l at the
half-integer levels n - l + 1/2: singular-vector verification, zero-weight
polynomial extraction, highest-weight classification and admissibility
certificates, all in rational arithmetic."""

from .rootsys import (
    Root,
    RootSystem,
    Weight,
    build_root_system,
    weight_from_fundamental,
)
from .liealg import BasisElement, LieAlgebra
from .uea import (
    UEA,
    CartanPolynomial,
    TermGuardExceeded,
    UEAElement,
    check_identity,
    identity_suite,
    poly_echelon,
    spans_equal,
)
from .affine import (
    AdmissibilityResult,
    AffineRealRoot,
    AffineWeight,
    SingularReport,
    VacuumModule,
    VermaVector,
    affine_bracket,
    build_singular_candidate,
    check_singular,
    dual_coxeter_number,
    is_admissible,
    level_of,
)
from .zero_weight import (
    OracleCeilingExceeded,
    explicit_p,
    explicit_q,
    generate_module,
    p0_basis,
    singular_image,
    verify_membership,
)
from .classify import (
    ClassificationResult,
    Entry,
    certify,
    classify_category_o,
    classify_finite_dim,
    merge_results,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
