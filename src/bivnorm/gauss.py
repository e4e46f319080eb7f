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
_SQRT_HALF_PI = np.sqrt(0.5 * np.pi)

# From here up R(x) = sqrt(pi/2) erfcx(x / sqrt 2), which stays accurate after
# phi(x) underflows; below it the direct (1 - Phi)/phi with the reflected CDF
# is about 4x more accurate than erfcx.
_MILLS_SWITCH = 0.0


def _as_float_array(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _maybe_scalar(arr: np.ndarray, scalar: bool):
    return float(arr) if scalar else arr


def _scalar(x, name: str) -> float:
    # For the scalar-only functions: a number or 0-d array, never a longer array.
    arr, scalar = _as_float_array(x)
    if not scalar:
        raise DomainError(f"{name} must be a scalar here, got {x!r}")
    return float(arr)


def _all(mask) -> bool:
    # mask.all() costs ~1.4 us on a 0-d mask, where bool() takes 0.05 us; a
    # comparison of Python floats is a plain bool, with no ndim.
    return bool(mask.all()) if getattr(mask, "ndim", 0) else bool(mask)


def _any(mask) -> bool:
    return bool(mask.any()) if getattr(mask, "ndim", 0) else bool(mask)


def _validate_unit(x, name: str, interior: bool = False) -> tuple[np.ndarray, bool]:
    arr, scalar = _as_float_array(x)
    # A 0-d value compares as a float: the check takes ~0.7 us, against ~3.2 us
    # on a 0-d array.
    a = float(arr) if scalar else arr
    inside = (a > 0.0) & (a < 1.0) if interior else (a >= 0.0) & (a <= 1.0)
    if not _all(inside):  # NaN fails this too
        raise DomainError(f"{name} must lie in {'(0, 1)' if interior else '[0, 1]'}, got {x!r}")
    return arr, scalar


def norm_pdf(x):
    """Standard normal density phi(x) = exp(-x^2/2) / sqrt(2 pi).

    x is split as hi + (x - hi) with hi on a 2**-16 grid, so hi * hi is
    exact and exp(-x^2/2) = exp(-hi^2/2) exp(-(x - hi)(x + hi)/2) loses
    nothing to the rounding of x * x, which a direct exp(-x * x / 2) turns
    into a relative error of ~x^2/2 ulp (5.7e-14 near x = -37). Against
    40-digit mpmath the worst relative error on [-37, 37] is 4.4e-16.
    """
    arr, scalar = _as_float_array(x)
    # phi(40) < 1e-348 underflows to 0, so clipping there changes no result
    # and keeps x * 65536 and the split finite at +-inf.
    a = np.minimum(np.abs(arr), 40.0)
    hi = np.trunc(a * 65536.0) / 65536.0
    out = np.exp(-0.5 * hi * hi) * np.exp(-0.5 * (a - hi) * (a + hi)) / _SQRT_2PI
    return _maybe_scalar(out, scalar)


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
    DomainError. Backed by ``scipy.special.ndtri``: 2 ulp from the exact
    quantile of the given double at worst on the committed mpmath grid
    (p down to 1e-300 and up to 1 - 2**-53), and held to 4 ulp.
    """
    arr, scalar = _validate_unit(p, "quantile level")
    return _maybe_scalar(special.ndtri(arr), scalar)


def mills_ratio(x):
    """Mills' ratio R(x) = (1 - Phi(x)) / phi(x).

    For x >= 0 it is sqrt(pi/2) erfcx(x / sqrt 2); for x < 0 it is the direct
    formula with the reflected CDF. On the committed mpmath grid the worst
    relative error is 8.9e-16 on [0, 1e4] and 4.3e-16 on [-37, 0), both
    held to 2e-15. R overflows to +inf below about x = -37.7.
    """
    arr, scalar = _as_float_array(x)
    small = arr < _MILLS_SWITCH
    out = np.empty_like(arr)
    if np.any(small):
        xs = arr[small]
        # 1/phi overflows below x ~ -37.7 and phi is 0 below ~ -38.6: R = +inf.
        with np.errstate(divide="ignore", over="ignore"):
            out[small] = special.ndtr(-xs) / norm_pdf(xs)
    if np.any(~small):
        out[~small] = _SQRT_HALF_PI * special.erfcx(arr[~small] / np.sqrt(2.0))
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
