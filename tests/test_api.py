"""The library surface: the names ``blvoa`` exports, and the test-only
helpers that left ``src`` for the references under tests/."""

import importlib

import pytest

import blvoa

EXPORTS = [
    "AdmissibilityResult",
    "AffineRealRoot",
    "AffineWeight",
    "BasisElement",
    "CartanPolynomial",
    "ClassificationResult",
    "Entry",
    "LieAlgebra",
    "OracleCeilingExceeded",
    "Root",
    "RootSystem",
    "SingularReport",
    "TermGuardExceeded",
    "UEA",
    "UEAElement",
    "VacuumModule",
    "VermaVector",
    "Weight",
    "affine",
    "affine_bracket",
    "build_root_system",
    "build_singular_candidate",
    "certify",
    "check_identity",
    "check_singular",
    "classify",
    "classify_category_o",
    "classify_finite_dim",
    "dual_coxeter_number",
    "explicit_p",
    "explicit_q",
    "generate_module",
    "identity_suite",
    "is_admissible",
    "level_of",
    "liealg",
    "merge_results",
    "p0_basis",
    "poly_echelon",
    "rootsys",
    "singular_image",
    "spans_equal",
    "uea",
    "verify_membership",
    "weight_from_fundamental",
    "zero_weight",
]


def test_exports_are_pinned():
    assert sorted(blvoa.__all__) == EXPORTS


# (module, name) of each helper that moved to a reference under tests/
MOVED = [
    ("blvoa.classify", "mu_s"),
    ("blvoa.classify", "mu_s_prime"),
    ("blvoa.classify", "_mu_subset"),
    ("blvoa.classify", "_all_subsets"),
    ("blvoa.classify", "_sorted_entries"),
    ("blvoa.classify", "solve_triangular"),
    ("blvoa.zero_weight", "q_value"),
    ("blvoa.uea", "check_commuting_monomials"),
    ("blvoa.uea", "poly_in_span"),
    ("blvoa.uea", "_compositions"),
    ("blvoa.affine", "fz_image"),
    ("blvoa.zero_weight", "AdModuleBasis"),
]

MOVED_METHODS = [
    ("blvoa.uea", "UEA", "ad_word"),
    ("blvoa.uea", "UEA", "ad_power_multinomial"),
    ("blvoa.liealg", "LieAlgebra", "chevalley_generators"),
    ("blvoa.rootsys", "RootSystem", "fundamental_weight"),
    ("blvoa.rootsys", "Weight", "is_zero"),
    ("blvoa.affine", "AffineRealRoot", "coroot_vector"),
    ("blvoa.uea", "CartanPolynomial", "evaluate_weight"),
    ("blvoa.uea", "UEA", "hw_polynomial"),
]


@pytest.mark.parametrize("module,name", MOVED, ids=[n for _, n in MOVED])
def test_moved_helpers_are_gone_from_src(module, name):
    with pytest.raises(ImportError):
        exec(f"from {module} import {name}", {})
    assert name not in blvoa.__all__


@pytest.mark.parametrize(
    "module,cls,name", MOVED_METHODS, ids=[n for _, _, n in MOVED_METHODS]
)
def test_moved_methods_are_gone_from_src(module, cls, name):
    assert not hasattr(getattr(importlib.import_module(module), cls), name)
