"""Exact verification engine for the determinant structure of 1-D Gaussian
covariance matrices of evenly spaced points: closed-form elimination stages,
the h-factor determinant factorization, its leading spacing-order term, the
simplicial multiset identities behind them, and an exhaustive minor
positivity probe."""

from .exact import EtaPoly, poly_h
from .multisets import (
    IDENTITY_NAMES,
    IdentityReport,
    LiftDualityError,
    SideConditionError,
    SignedMultiset,
    SimplexSpec,
    enumerate_simplex,
    identity_param_names,
    lift_duality,
    verify_identity,
)
from .neville import (
    brute_force_det,
    diagonal_product,
    neville_eliminate,
)
from .closedform import (
    AgreementReport,
    FactoredDeterminant,
    LeadingTerm,
    ai1_grid_holds,
    ai2_grid_holds,
    check_ai1,
    check_ai2,
    closed_form_u,
    factored_determinant,
    leading_term,
    series_determinant,
    superfactorial,
    verify_closed_form,
)
from .tpprobe import MinorIndex, TpReport, all_minors_positive

__version__ = "0.1.0"

__all__ = [
    "EtaPoly",
    "poly_h",
    "IDENTITY_NAMES",
    "IdentityReport",
    "LiftDualityError",
    "SideConditionError",
    "SignedMultiset",
    "SimplexSpec",
    "enumerate_simplex",
    "identity_param_names",
    "lift_duality",
    "verify_identity",
    "brute_force_det",
    "diagonal_product",
    "neville_eliminate",
    "AgreementReport",
    "FactoredDeterminant",
    "LeadingTerm",
    "ai1_grid_holds",
    "ai2_grid_holds",
    "check_ai1",
    "check_ai2",
    "closed_form_u",
    "factored_determinant",
    "leading_term",
    "series_determinant",
    "superfactorial",
    "verify_closed_form",
    "MinorIndex",
    "TpReport",
    "all_minors_positive",
    "__version__",
]
