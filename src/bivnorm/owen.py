"""Owen's T-function.

T(h, a) = (1/2pi) * integral_0^a exp(-h^2 (1+x^2)/2) / (1+x^2) dx

is the one-dimensional workhorse behind the half-plane decomposition of the
bivariate normal CDF: every line, diagonal, and general-point formula in the
copula layer reduces to a couple of T evaluations. The values come from
:func:`scipy.special.owens_t` (the Patefield-Tandy algorithm).

The public functions check their arguments; the package's own callers pass
values they have already checked to :func:`_owen_t`, which checks nothing
and also takes h = +-inf, where T is 0.
"""

from __future__ import annotations

import numpy as np
from scipy.special import owens_t

from .errors import DomainError
from .gauss import _as_float_array, _maybe_scalar

__all__ = ["owen_t", "owen_t_unbounded"]


def _owen_t(h, a):
    """T(h, a) on arrays that broadcast, with no checks: odd in a, even in h."""
    return np.sign(a) * owens_t(np.abs(h), np.abs(a))


def owen_t(h, a):
    """Owen's T(h, a) for finite h; a may be +-inf.

    Odd in a and even in h by construction (the kernel only ever sees |h|
    and |a|); |T| <= 1/4. Absolute accuracy is ~1e-16.
    """
    h_arr, h_scalar = _as_float_array(h)
    a_arr, a_scalar = _as_float_array(a)
    # owens_t answers NaN silently, so the domain is checked here.
    if not np.all(np.isfinite(h_arr)):
        raise DomainError("owen_t requires finite h")
    if np.any(np.isnan(a_arr)):
        raise DomainError("owen_t requires a to be a number or +-inf")
    return _maybe_scalar(_owen_t(h_arr, a_arr), h_scalar and a_scalar)


def owen_t_unbounded(h, sign: int):
    """Limit of T(h, a) as a -> sign * inf: sign * (1 - Phi(|h|)) / 2."""
    if sign not in (-1, 1):
        raise DomainError(f"sign must be +1 or -1, got {sign!r}")
    arr, scalar = _as_float_array(h)
    if not np.all(np.isfinite(arr)):
        raise DomainError("owen_t_unbounded requires finite h")
    return _maybe_scalar(_owen_t(arr, sign * np.inf), scalar)
