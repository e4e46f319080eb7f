"""bivnorm: the bivariate normal copula, end to end.

Univariate normal kernel, Owen's T-function, the bivariate normal CDF (an
array-native Genz kernel and five reference engines), the copula layer
(symmetries, conditionals, diagonal machinery, reduction identities),
diagonal bounds and approximations with worst-case error scans, concordance
measures with inversions, the skew-normal and Vasicek distributions, and
slow reference oracles for cross-validation.
"""

from .errors import BivnormError, ConvergenceError, DomainError, EngineRejected
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, quad1d
from .gauss import (
    h_function,
    hermite_he,
    mills_ratio,
    norm_cdf,
    norm_pdf,
    norm_quantile,
)
from .owen import owen_t, owen_t_unbounded
from .engines import (
    Phi2Method,
    phi2_cdf,
    phi2_density,
    phi2_owen,
    validate_rho,
)
from .copula import (
    HalflineReduction,
    SymmetryImage,
    SymmetryKind,
    apply_symmetry,
    cond_cdf_given_u,
    cond_cdf_given_v,
    copula_cdf,
    copula_cond_integral,
    copula_density,
    copula_factor_integral,
    copula_single_factor,
    diag_cdf,
    diag_g,
    diag_g_transform,
    halfline_cdf,
    line_from_diag,
    reduce_to_halflines,
)
from .bounds import (
    DiagApproxKind,
    DiagBoundKind,
    ScanReport,
    bound_error_scan,
    diag_approx,
    diag_bound,
    upper_thm3_stationary_rho,
)
from .concordance import (
    Measure,
    MeasureValue,
    diag_integral,
    diag_integral_closed,
    diag_integral_closed_alt,
    gini_forms,
    halfline_integral,
    halfline_integral_closed,
    measure_closed_form,
    measure_invert,
    measure_numeric,
)
from .dists import SkewNormal, Vasicek
from .oracle import (
    FactorModel,
    McConfig,
    McEstimate,
    mc_conditional_probability,
    mc_factor_model,
    quad2d_phi2,
)

__version__ = "0.1.0"

__all__ = [
    "BivnormError",
    "ConvergenceError",
    "DomainError",
    "EngineRejected",
    "QuadratureConfig",
    "DEFAULT_CONFIG",
    "quad1d",
    "norm_pdf",
    "norm_cdf",
    "norm_quantile",
    "mills_ratio",
    "h_function",
    "hermite_he",
    "owen_t",
    "owen_t_unbounded",
    "Phi2Method",
    "phi2_density",
    "phi2_cdf",
    "phi2_owen",
    "validate_rho",
    "copula_cdf",
    "copula_density",
    "cond_cdf_given_u",
    "cond_cdf_given_v",
    "SymmetryKind",
    "SymmetryImage",
    "apply_symmetry",
    "diag_g",
    "diag_cdf",
    "halfline_cdf",
    "HalflineReduction",
    "reduce_to_halflines",
    "line_from_diag",
    "diag_g_transform",
    "copula_factor_integral",
    "copula_single_factor",
    "copula_cond_integral",
    "DiagBoundKind",
    "DiagApproxKind",
    "ScanReport",
    "diag_bound",
    "diag_approx",
    "bound_error_scan",
    "upper_thm3_stationary_rho",
    "Measure",
    "MeasureValue",
    "measure_closed_form",
    "measure_numeric",
    "measure_invert",
    "gini_forms",
    "diag_integral",
    "halfline_integral",
    "diag_integral_closed",
    "diag_integral_closed_alt",
    "halfline_integral_closed",
    "SkewNormal",
    "Vasicek",
    "FactorModel",
    "McConfig",
    "McEstimate",
    "quad2d_phi2",
    "mc_factor_model",
    "mc_conditional_probability",
]
