"""Concordance measures of the bivariate normal copula.

Closed forms, quadrature cross-checks from the defining integrals, and
inversions back to the correlation parameter:

    blomqvist_beta   (2/pi) asin(rho)
    kendall_tau      (2/pi) asin(rho)      (equal to beta for this family)
    spearman_rho     (6/pi) asin(rho/2)
    gini_gamma       (2/pi) (asin((1+rho)/2) - asin((1-rho)/2))
    gamma_tilde      (4/pi) asin(rho/sqrt(2))

gamma_tilde is the half-line analogue of Gini's gamma: it integrates the
copula along u = 1/2 and v = 1/2 instead of along the two diagonals.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DomainError
from .engines import phi2_owen, validate_rho
from .copula import copula_cdf, diag_cdf, halfline_cdf
from .gauss import _scalar
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, _enforce, gauss_legendre

__all__ = [
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
]


class Measure(enum.Enum):
    BLOMQVIST_BETA = "blomqvist_beta"
    KENDALL_TAU = "kendall_tau"
    SPEARMAN_RHO = "spearman_rho"
    GINI_GAMMA = "gini_gamma"
    GAMMA_TILDE = "gamma_tilde"


@dataclass(frozen=True)
class MeasureValue:
    """A measure result carrying its tag and the correlation it came from."""

    measure: Measure
    value: float
    rho_source: float

    def __post_init__(self) -> None:
        if not -1.0 - 1e-9 <= self.value <= 1.0 + 1e-9:
            raise DomainError(f"measure values live in [-1, 1], got {self.value!r}")

    def back_solve(self) -> float:
        """Correlation recovering this value through the closed-form inverse."""
        return measure_invert(self.measure, min(max(self.value, -1.0), 1.0))


def measure_closed_form(measure, rho: float) -> MeasureValue:
    """Closed-form value of a concordance measure at correlation rho."""
    m = Measure(measure)
    r = validate_rho(_scalar(rho, "rho"))
    if m in (Measure.BLOMQVIST_BETA, Measure.KENDALL_TAU):
        value = (2.0 / np.pi) * np.arcsin(r)
    elif m is Measure.SPEARMAN_RHO:
        value = (6.0 / np.pi) * np.arcsin(0.5 * r)
    elif m is Measure.GINI_GAMMA:
        value = gini_forms(r)[1]
    else:  # GAMMA_TILDE
        value = (4.0 / np.pi) * np.arcsin(r / np.sqrt(2.0))
    return MeasureValue(m, float(value), r)


def gini_forms(rho: float) -> tuple[float, float, float]:
    """Gini's gamma in its three equivalent arcsine forms (they agree to
    ~1e-15 for |rho| <= 0.99; keeping all three exercises the arcsine
    addition identity). Near |rho| = 1 the first magnifies the rounding of
    1 +- rho (3.5e-11 at 1 - 1e-12), so measure_closed_form uses the second."""
    r = validate_rho(_scalar(rho, "rho"))
    f1 = (2.0 / np.pi) * (np.arcsin(0.5 * (1.0 + r)) - np.arcsin(0.5 * (1.0 - r)))
    f2 = (4.0 / np.pi) * (
        np.arcsin(0.5 * np.sqrt(1.0 + r)) - np.arcsin(0.5 * np.sqrt(1.0 - r))
    )
    f3 = (4.0 / np.pi) * np.arcsin(
        0.25 * (np.sqrt((1.0 + r) * (3.0 + r)) - np.sqrt((1.0 - r) * (3.0 - r)))
    )
    return float(f1), float(f2), float(f3)


# ---------------------------------------------------------------------------
# numeric cross-checks from the defining integrals
# ---------------------------------------------------------------------------

# Order of the rule of the tau and Spearman integrals. C(u, v) has singular
# derivatives at u, v in {0, 1}, where a plain rule in u converges only
# algebraically; u = sin^2(theta) flattens them (Sidi's sin^m transformation).
_SINE_N = 128


@cache
def _sine_rule() -> tuple[np.ndarray, ...]:
    """Nodes x = PhiInv(u) and weights of Gauss-Legendre in t on [-1, 1]
    mapped by u = sin^2(pi (t + 1) / 4), then the upper triangle of its
    tensor grid: nodes (x_i, x_j), i <= j, and weights w_i w_j, doubled off
    the diagonal. x is made exactly antisymmetric, as u(-t) = 1 - u(t)."""
    t, w = gauss_legendre(_SINE_N)
    theta = 0.25 * np.pi * (t + 1.0)
    x = ndtri(np.sin(theta) ** 2)
    x = 0.5 * (x - x[::-1])
    w = w * (0.25 * np.pi) * np.sin(2.0 * theta)
    i, j = np.triu_indices(_SINE_N)
    rule = (x, w, x[i], x[j], np.where(i == j, 1.0, 2.0) * w[i] * w[j])
    for a in rule:
        a.flags.writeable = False
    return rule


def _kendall_numeric(r: float) -> float:
    # 1 - 4 int int (dC/du)(dC/dv) du dv with the closed-form conditionals.
    x, w = _sine_rule()[:2]
    s = np.sqrt(1.0 - r * r)
    cond_u = ndtr((x[None, :] - r * x[:, None]) / s)  # dC/du at (u_i, v_j)
    inner = (cond_u * cond_u.T) @ w  # dC/dv at (u_i, v_j) is dC/du at (u_j, v_i)
    return 1.0 - 4.0 * float(np.dot(w, inner))


def _spearman_numeric(r: float) -> float:
    # 12 int int C(u, v) du dv - 3 by phi2_owen; C(u, v) = C(v, u), so only
    # the upper triangle of the tensor grid is evaluated.
    xi, xj, weight = _sine_rule()[2:]
    return 12.0 * float(np.dot(weight, phi2_owen(xi, xj, r))) - 3.0


def measure_numeric(measure, rho: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> MeasureValue:
    """Evaluate a measure from its defining integral (|rho| <= 0.99).

    Routes: beta through the copula midpoint; tau through the conditional
    product integral; Spearman through the double integral of C; Gini's
    gamma as 4 (D(rho) - D(-rho)) with D the diagonal moment integral (the
    anti-diagonal leg by C(u, 1-u; rho) = u - C(u, u; -rho)); gamma_tilde
    as 8 L(rho) - 2 with L the half-line moment integral.

    Beta, Gini's gamma and gamma_tilde honour ``cfg`` and raise
    ConvergenceError when they miss it: beta through the auto kernel's fixed
    error floor, the two gammas through the two-level rule of the moment
    integrals. Tau and Spearman use one fixed 128-node sine-graded rule and
    ignore ``cfg``; over 91 rho in [-0.99, 0.99] they are at most 5.2e-10
    (tau) and 5.1e-14 (Spearman) from the closed forms.
    """
    m = Measure(measure)
    r = validate_rho(_scalar(rho, "rho"))
    if abs(r) > 0.99:
        raise DomainError("numeric cross-checks require |rho| <= 0.99")
    if m is Measure.BLOMQVIST_BETA:
        value = 4.0 * copula_cdf(0.5, 0.5, r, cfg=cfg) - 1.0
    elif m is Measure.KENDALL_TAU:
        value = _kendall_numeric(r)
    elif m is Measure.SPEARMAN_RHO:
        value = _spearman_numeric(r)
    elif m is Measure.GINI_GAMMA:
        value = 4.0 * (diag_integral(r, cfg) - diag_integral(-r, cfg))
    else:  # GAMMA_TILDE
        value = 8.0 * halfline_integral(r, cfg) - 2.0
    return MeasureValue(m, float(value), r)


def measure_invert(measure, value: float) -> float:
    """Correlation recovering the given measure value.

    Four measures invert by plain arcsine algebra; Gini's gamma uses
    rho = sin(g pi/4) sqrt(3 - tan^2(g pi/4)).
    """
    m = Measure(measure)
    x = float(value)
    if np.isnan(x) or abs(x) > 1.0:
        raise DomainError(f"measure values live in [-1, 1], got {value!r}")
    if m in (Measure.BLOMQVIST_BETA, Measure.KENDALL_TAU):
        rho = np.sin(0.5 * np.pi * x)
    elif m is Measure.SPEARMAN_RHO:
        rho = 2.0 * np.sin(np.pi * x / 6.0)
    elif m is Measure.GINI_GAMMA:
        angle = 0.25 * np.pi * x
        rho = np.sin(angle) * np.sqrt(3.0 - np.tan(angle) ** 2)
    else:  # GAMMA_TILDE
        rho = np.sqrt(2.0) * np.sin(0.25 * np.pi * x)
    return float(np.clip(rho, -1.0, 1.0))


# ---------------------------------------------------------------------------
# moment integrals along the diagonal and the half-line
# ---------------------------------------------------------------------------

# Gauss-Legendre order on each panel of the moment integrals.
_GRID_N = 512

# Levels of the moment integrals: the _GRID_N-point rule on the halves, then
# on the quarters, of [0, 1]; both have a panel edge at u = 1/2, where the
# diagonal has a kink at rho = -1 and the half-line at |rho| = 1. Halves at
# 256 nodes miss the default 1e-12 near |rho| = 1 (by up to 5e-12); 1024
# nodes per half do as well as the quarters but take 0.15 s to compute
# (2-vCPU Xeon, one BLAS thread), where the 512-node rule is cached already.
_LEVEL_PANELS = (2, 4)


def _panel_integral(section, cfg: QuadratureConfig, what: str) -> float:
    # int_0^1 section(u) du at both levels, one array call per level.
    x, w = gauss_legendre(_GRID_N)
    levels = []
    for m in _LEVEL_PANELS:
        t = (x + 1.0 + 2.0 * np.arange(m)[:, None]) / (2.0 * m)
        levels.append(np.dot(np.tile(w, m), section(t.ravel())) / (2.0 * m))
    coarse, fine = levels
    _enforce(abs(fine - coarse), fine, cfg, what)
    return float(fine)


def diag_integral(rho: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """int_0^1 C(u, u; rho) du by Gauss-Legendre on the halves and on the
    quarters of [0, 1]; raises ConvergenceError when the two miss ``cfg``."""
    r = validate_rho(_scalar(rho, "rho"))
    return _panel_integral(lambda t: diag_cdf(t, r), cfg, "diagonal integral")


def halfline_integral(rho: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """int_0^1 C(u, 1/2; rho) du by Gauss-Legendre on the halves and on the
    quarters of [0, 1]; raises ConvergenceError when the two miss ``cfg``."""
    r = validate_rho(_scalar(rho, "rho"))
    return _panel_integral(lambda t: halfline_cdf(t, r), cfg, "half-line integral")


def diag_integral_closed(rho: float) -> float:
    """int_0^1 C(u, u; rho) du = 1/4 + asin((1+rho)/2) / (2 pi), with the
    arcsine as atan2(1 + rho, sqrt((1 - rho)(3 + rho))) to keep its digits
    near rho = 1."""
    r = validate_rho(rho)
    return 0.25 + np.arctan2(1.0 + r, np.sqrt((1.0 - r) * (3.0 + r))) / (2.0 * np.pi)


def diag_integral_closed_alt(rho: float) -> float:
    """Equivalent form 1/2 - asin(sqrt(1-rho)/2) / pi."""
    r = validate_rho(rho)
    return 0.5 - np.arcsin(0.5 * np.sqrt(1.0 - r)) / np.pi


def halfline_integral_closed(rho: float) -> float:
    """int_0^1 C(u, 1/2; rho) du = 1/4 + asin(rho/sqrt(2)) / (2 pi)."""
    r = validate_rho(rho)
    return 0.25 + np.arcsin(r / np.sqrt(2.0)) / (2.0 * np.pi)
