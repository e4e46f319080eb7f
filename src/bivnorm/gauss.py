"""Univariate standard-normal kernel.

Density, CDF, quantile, Mills' ratio and the probabilists' Hermite
polynomials. Everything downstream (the T-function, the bivariate engines,
the diagonal bounds) is built from these five primitives. All functions are
vectorized over numpy arrays and return scalars for scalar input.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from .errors import DomainError

__all__ = [
    "norm_pdf",
    "norm_cdf",
    "norm_quantile",
    "mills_ratio",
    "h_function",
    "hermite_he",
]

_SQRT_2PI = np.sqrt(2.0 * np.pi)

# Below this density value the Halley correction of the quantile and the
# direct Mills formula are dominated by underflow.
_PDF_FLOOR = 1e-300

# Direct (1 - Phi)/phi loses nothing up to here thanks to the reflected CDF;
# beyond it the continued fraction avoids 0/0 once phi underflows.
_MILLS_SWITCH = 6.0


def _as_float_array(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _maybe_scalar(arr: np.ndarray, scalar: bool):
    return float(arr) if scalar else arr


def _validate_unit(x, name: str, interior: bool = False) -> tuple[np.ndarray, bool]:
    arr, scalar = _as_float_array(x)
    inside = (arr > 0.0) & (arr < 1.0) if interior else (arr >= 0.0) & (arr <= 1.0)
    if not inside.all():  # NaN fails this too
        raise DomainError(f"{name} must lie in {'(0, 1)' if interior else '[0, 1]'}, got {x!r}")
    return arr, scalar


def norm_pdf(x):
    """Standard normal density phi(x) = exp(-x^2/2) / sqrt(2 pi)."""
    arr, scalar = _as_float_array(x)
    return _maybe_scalar(np.exp(-0.5 * arr * arr) / _SQRT_2PI, scalar)


def norm_cdf(x):
    """Standard normal distribution function Phi(x).

    Accepts +-inf. Backed by the complementary-error-function kernel, which
    keeps relative accuracy in both tails; absolute error stays below 1e-15.
    """
    arr, scalar = _as_float_array(x)
    return _maybe_scalar(special.ndtr(arr), scalar)


def norm_quantile(p):
    """Inverse of :func:`norm_cdf` on [0, 1].

    The endpoints map to -inf / +inf so that copula boundary cases flow
    through the limit-handling paths. Values outside [0, 1] raise
    DomainError. A rational first guess is polished with one Halley step
    against :func:`norm_cdf`, which pins the round trip
    ``norm_cdf(norm_quantile(p)) == p`` to ~1e-15 independently of the
    starting approximation.
    """
    arr, scalar = _validate_unit(p, "quantile level")
    x = special.ndtri(arr)
    pdf = norm_pdf(x)
    with np.errstate(invalid="ignore", divide="ignore"):
        # Halley: x' = x - 2 f / (2 phi(x) + x f); skip where phi underflows,
        # which includes x = -+inf at p = 0, 1.
        f = special.ndtr(x) - arr
        step = np.where(pdf > _PDF_FLOOR, 2.0 * f / (2.0 * pdf + x * f), 0.0)
    return _maybe_scalar(x - step, scalar)


def _mills_continued_fraction(x: np.ndarray, depth: int = 80) -> np.ndarray:
    # R(x) = 1 / (x + 1 / (x + 2 / (x + 3 / ...))), evaluated backward.
    t = np.zeros_like(x)
    for k in range(depth, 0, -1):
        t = k / (x + t)
    return 1.0 / (x + t)


def mills_ratio(x):
    """Mills' ratio R(x) = (1 - Phi(x)) / phi(x).

    The direct formula (with the reflected CDF, so no cancellation) is used
    for x < 6; beyond that a continued fraction takes over, which stays
    accurate long after phi(x) underflows.
    """
    arr, scalar = _as_float_array(x)
    small = arr < _MILLS_SWITCH
    out = np.empty_like(arr)
    if np.any(small):
        xs = arr[small]
        # phi underflows to 0 below x ~ -38.6, where R is +inf.
        with np.errstate(divide="ignore"):
            out[small] = special.ndtr(-xs) / norm_pdf(xs)
    if np.any(~small):
        out[~small] = _mills_continued_fraction(arr[~small])
    return _maybe_scalar(out, scalar)


def h_function(x):
    """x * R(x) with R the Mills ratio: zero at 0, increasing to 1."""
    arr, scalar = _as_float_array(x)
    with np.errstate(invalid="ignore"):  # inf * R(inf) = inf * 0; the limit is 1
        out = np.where(arr == np.inf, 1.0, arr * mills_ratio(arr))
    return _maybe_scalar(out, scalar)


def hermite_he(k: int, x):
    """Probabilists' Hermite polynomial He_k(x).

    Uses the stable three-term recurrence He_{k+1} = x He_k - k He_{k-1};
    matches the explicit alternating sum for all k >= 0.
    """
    if k < 0 or int(k) != k:
        raise DomainError(f"Hermite degree must be a nonnegative integer, got {k!r}")
    arr, scalar = _as_float_array(x)
    prev = np.ones_like(arr)
    if k == 0:
        return _maybe_scalar(prev, scalar)
    cur = arr.copy()
    for m in range(1, int(k)):
        prev, cur = cur, arr * cur - m * prev
    return _maybe_scalar(cur, scalar)
