"""Bivariate standard normal density and CDF.

``auto``, the default of :func:`phi2_cdf`, is a vectorized port of Genz's
``BVNU`` (Genz 2004, Statistics and Computing 14, after Drezner-Wesolowsky):
one fixed 20-node Gauss-Legendre rule, in asin(rho) for |rho| < 0.925 and on
the remainder of the expansion about rho = +-1 beyond (reflecting k -> -k for
rho < 0). Its error floor :data:`AUTO_ERROR_FLOOR` is fixed; a ``cfg`` asking
for less (under the package's abs-or-rel rule) raises ConvergenceError.

Five reference engines, selectable through :class:`Phi2Method`, honour
``cfg`` and run point by point:

owen
    Half-plane decomposition via Owen's T-function. Closed-form speed,
    vectorized; the reference route for scans.
plackett_from_independence
    Integrates the correlation derivative d(Phi2)/d(rho) = phi2 from 0
    up to rho, starting at the independence value Phi(h) Phi(k).
plackett_from_max
    Same derivative integrated downward from the comonotone value
    min(Phi(h), Phi(k)), with a substitution that removes the
    1/sqrt(1-r^2) endpoint singularity; the right tool for |rho| near 1.
tetrachoric
    Hermite power series in rho; rejected for |rho| > 0.6 where its
    convergence turns hopeless.
single_factor_quadrature
    Gauss-Hermite quadrature of the one-factor conditional-independence
    representation with loadings sqrt(|rho|), at two orders whose gap is
    held to ``cfg``.
"""

from __future__ import annotations

import enum
import math

import numpy as np
from scipy.special import log_ndtr, ndtr

from .errors import DomainError, EngineRejected
from .gauss import norm_pdf, _all, _any, _as_float_array, _maybe_scalar
from .owen import _owen_t
from .quadrature import (
    DEFAULT_CONFIG, QuadratureConfig, _enforce, gauss_hermite, gauss_legendre, quad1d,
)

__all__ = [
    "Phi2Method",
    "validate_rho",
    "phi2_density",
    "phi2_cdf",
    "phi2_owen",
]

_TWO_PI = 2.0 * np.pi
_SQRT_2PI = np.sqrt(_TWO_PI)

# Worst absolute error of the auto kernel against 40-digit mpmath on the
# committed grid of tests/data/phi2_mpmath_grid.csv (measured 2.2e-16),
# rounded up; auto cannot certify a tolerance below it.
AUTO_ERROR_FLOOR = 1e-15

# Genz's switch from the arcsine-angle rule to the expansion about +-1, and
# the order of the one Gauss-Legendre rule both branches use.
_GENZ_SWITCH = 0.925
_GENZ_ORDER = 20
# That rule as both branches use it: nodes shifted to [0, 2] for the angle,
# and the squared half-nodes ((x + 1)/2)^2 that scale 1 - r^2.
_GENZ_X1 = gauss_legendre(_GENZ_ORDER)[0] + 1.0
_GENZ_W = gauss_legendre(_GENZ_ORDER)[1]
_GENZ_T = (0.5 * _GENZ_X1) ** 2
# Phi(+-40) is 1 or 0 in double (Phi(-40) < 1e-348 underflows), so beyond
# |h| = 40 Phi2 rounds to its exact limit at +-inf. The auto path resolves
# such arguments there, which also keeps h k and h^2 finite in the kernel;
# the named engines see every finite value as the caller gave it.
_GENZ_REACH = 40.0
_FLOAT_MAX = np.finfo(float).max

# Beyond here the Hermite series needs too many terms to be trustworthy.
TETRACHORIC_RHO_MAX = 0.6
_SERIES_TERMS = 60

# Gauss-Hermite orders (coarse, fine) of the single-factor engine, banded by
# |rho|: the probit factors steepen like 1/sqrt(1-|rho|), so high
# correlation needs denser rules to stay below 1e-12.
_GH_BANDS = ((0.8, (128, 192)), (1.0, (768, 1024)))


class Phi2Method(enum.Enum):
    """Selector for the Phi2 evaluation engines."""

    AUTO = "auto"
    OWEN = "owen"
    PLACKETT_FROM_INDEPENDENCE = "plackett_from_independence"
    PLACKETT_FROM_MAX = "plackett_from_max"
    TETRACHORIC = "tetrachoric"
    SINGLE_FACTOR_QUADRATURE = "single_factor_quadrature"


def validate_rho(rho, interior: bool = False):
    """Check rho in [-1, 1] (strictly inside when ``interior``); arrays
    pass through, a scalar comes back as a float."""
    arr, scalar = _as_float_array(rho)
    # A scalar validates as a float in ~0.5 us; the array path takes 2 us or
    # more.
    r = float(arr) if scalar else arr
    size = abs(r) if scalar else np.abs(r).max(initial=0.0)
    if not size <= 1.0:  # NaN fails this too
        raise DomainError(f"correlation must lie in [-1, 1], got {rho!r}")
    if interior and size == 1.0:
        raise DomainError("correlation must lie strictly inside (-1, 1) here")
    return r


def phi2_density(x, y, rho):
    """Bivariate standard normal density phi2(x, y; rho), |rho| < 1."""
    r = validate_rho(rho, interior=True)
    x_arr, xs = _as_float_array(x)
    y_arr, ys = _as_float_array(y)
    omr2 = 1.0 - r * r
    q = (x_arr * x_arr - 2.0 * r * x_arr * y_arr + y_arr * y_arr) / (2.0 * omr2)
    return _maybe_scalar(np.exp(-q) / (_TWO_PI * np.sqrt(omr2)), xs and ys)


# ---------------------------------------------------------------------------
# owen engine (vectorized)
# ---------------------------------------------------------------------------


def phi2_owen(h, k, rho):
    """Phi2 via the T-function split, vectorized over finite h, k.

    Phi2 = (Phi(h) + Phi(k))/2 - T(h, a_h) - T(k, a_k) - delta with
    a_h = (k/h - rho)/sqrt(1-rho^2) (and symmetrically a_k), where delta
    is 1/2 when exactly one argument lies below its median. h = 0 or
    k = 0 sends the corresponding slope to +-inf, which the T-function
    absorbs as its one-sided limit; the sign follows the other argument.
    The convention for delta at exactly 1/2 matches the displayed case
    split, with "u >= 1/2" containing the boundary. h, k and rho broadcast.
    """
    r = validate_rho(rho, interior=True)
    h_arr, hs = _as_float_array(h)
    k_arr, ks = _as_float_array(k)
    if not (np.all(np.isfinite(h_arr)) and np.all(np.isfinite(k_arr))):
        raise DomainError("phi2_owen requires finite arguments")
    # Adding 0.0 turns -0.0 into +0.0, so a zero argument sends its slope to
    # +-inf with the sign of the other one; T(0, +-inf) = +-1/4.
    h_arr, k_arr = h_arr + 0.0, k_arr + 0.0
    u = ndtr(h_arr)
    v = ndtr(k_arr)
    denom = np.sqrt(1.0 - r * r)
    # h = k = 0 gives 0/0 slopes; the centre value replaces that NaN below.
    with np.errstate(divide="ignore", invalid="ignore"):
        a_h = (k_arr / h_arr - r) / denom
        a_k = (h_arr / k_arr - r) / denom
    delta = 0.5 * ((h_arr < 0.0) != (k_arr < 0.0))
    out = 0.5 * (u + v) - _owen_t(h_arr, a_h) - _owen_t(k_arr, a_k) - delta
    out = np.where((h_arr == 0.0) & (k_arr == 0.0), 0.25 + np.arcsin(r) / _TWO_PI, out)
    out = np.clip(out, np.maximum(u + v - 1.0, 0.0), np.minimum(u, v))
    return _maybe_scalar(out, hs and ks and np.ndim(r) == 0)


# ---------------------------------------------------------------------------
# correlation-path (Plackett) engines
# ---------------------------------------------------------------------------


def _plackett_from_independence(h: float, k: float, rho: float, cfg: QuadratureConfig) -> float:
    # phi2(h, k; r) = exp((b r - a)/(1 - r^2)) / (2 pi sqrt(1 - r^2)).
    a, b = 0.5 * (h * h + k * k), h * k

    def integrand(r: float) -> float:
        omr2 = 1.0 - r * r
        return math.exp((b * r - a) / omr2) / (_TWO_PI * math.sqrt(omr2))

    return ndtr(h) * ndtr(k) + quad1d(integrand, 0.0, rho, cfg)


def _plackett_from_max(h: float, k: float, rho: float, cfg: QuadratureConfig) -> float:
    # Substituting r = 1 - (1-rho) s^2 cancels the sqrt(1-r^2) blowup at
    # r = 1 against the Jacobian; what remains is smooth on [0, 1]:
    #   integrand(s) = sqrt(1-rho)/pi * exp(E) / sqrt(2 - omr),
    #   E = -((h-k)^2 + 2 h k omr) / (2 omr (2 - omr)),  omr = (1-rho) s^2.
    # As in _genz: Phi(+-40) is 1 or 0 in double, and (h - k)^2 stays finite.
    h = min(max(h, -40.0), 40.0)
    k = min(max(k, -40.0), 40.0)
    one_m_rho = 1.0 - rho
    diff2 = (h - k) ** 2
    hk2 = 2.0 * h * k
    coef = math.sqrt(one_m_rho) / math.pi

    def integrand(s: float) -> float:
        omr = one_m_rho * s * s
        if omr == 0.0:
            return 0.0 if diff2 != 0.0 else coef * math.exp(-0.25 * hk2) / math.sqrt(2.0)
        # E <= 0 for 0 < omr < 2, so exp cannot overflow; a tiny omr sends
        # E to -inf and the integrand to 0.
        expo = -(diff2 + hk2 * omr) / (2.0 * omr * (2.0 - omr))
        return coef * math.exp(expo) / math.sqrt(2.0 - omr)

    # For h != k the integrand climbs from 0 to its plateau around
    # s0 = |h-k|/sqrt(1-rho), nearing it like 1 - s0^2/(4 s^2); the adaptive
    # rule misses that when s0 is small, so it runs over the pieces between
    # s0 16^j. Below s = 1e-16 the climb holds no visible mass.
    edges = [0.0]
    s0 = max(abs(h - k) / np.sqrt(one_m_rho), 1e-16) if h != k else 1.0
    while s0 < 1.0:
        edges.append(s0)
        s0 *= 16.0
    edges.append(1.0)
    pieces = sum(quad1d(integrand, a, b, cfg) for a, b in zip(edges, edges[1:]))
    return min(ndtr(h), ndtr(k)) - pieces


# ---------------------------------------------------------------------------
# tetrachoric series engine
# ---------------------------------------------------------------------------


def _tetrachoric(h: float, k: float, rho: float, cfg: QuadratureConfig) -> float:
    if abs(rho) > TETRACHORIC_RHO_MAX:
        raise EngineRejected(
            f"tetrachoric series is limited to |rho| <= {TETRACHORIC_RHO_MAX}, got {rho}"
        )
    scale = norm_pdf(h) * norm_pdf(k)
    # Running Hermite recurrence; c_m = rho^(m+1) / (m+1)!.
    he_h_prev, he_h = 0.0, 1.0
    he_k_prev, he_k = 0.0, 1.0
    c = rho
    total = 0.0
    last_terms = [np.inf, np.inf]
    for m in range(_SERIES_TERMS):
        term = he_h * he_k * c
        total += term
        last_terms[m % 2] = abs(term)
        he_h_prev, he_h = he_h, h * he_h - m * he_h_prev
        he_k_prev, he_k = he_k, k * he_k - m * he_k_prev
        c *= rho / (m + 2)
    # Odd/even Hermite zeros make single terms vanish spuriously; the tail
    # estimate takes the larger of the last two.
    value = ndtr(h) * ndtr(k) + scale * total
    _enforce(max(last_terms) * scale, value, cfg, f"tetrachoric series of {_SERIES_TERMS} terms")
    return value


# ---------------------------------------------------------------------------
# single-factor Gauss-Hermite engine
# ---------------------------------------------------------------------------


def _one_factor(h: float, k: float, alpha: float, beta: float, orders: tuple[int, int],
                cfg: QuadratureConfig, what: str) -> float:
    """E[ Phi((h - alpha Z)/sa) Phi((k - beta Z)/sb) ] by Gauss-Hermite at
    the two ``orders``; the finer value, held to ``cfg`` by their gap."""
    sa = math.sqrt(1.0 - alpha * alpha)
    sb = math.sqrt(1.0 - beta * beta)
    coarse, fine = [
        float(np.dot(w, ndtr((h - alpha * z) / sa) * ndtr((k - beta * z) / sb)))
        for z, w in map(gauss_hermite, orders)
    ]
    _enforce(abs(fine - coarse), fine, cfg, what)
    return fine


def _single_factor(h: float, k: float, rho: float, cfg: QuadratureConfig) -> float:
    # One common factor with loadings of size sqrt(|rho|); the sign of rho
    # goes onto one loading so that alpha * beta = rho.
    beta = math.sqrt(abs(rho))
    orders = next(pair for cap, pair in _GH_BANDS if abs(rho) <= cap)
    return _one_factor(h, k, math.copysign(beta, rho), beta, orders, cfg, "single-factor engine")


# ---------------------------------------------------------------------------
# auto: Genz's BVNU kernel (vectorized)
# ---------------------------------------------------------------------------


def _genz_asin(h: np.ndarray, k: np.ndarray, u: np.ndarray, v: np.ndarray,
               r: np.ndarray) -> np.ndarray:
    # Plackett's identity with rho = sin(theta), u = Phi(h), v = Phi(k):
    #   Phi2 = u v + 1/(2pi) int_0^asin(r) exp((hk sin t - (h^2+k^2)/2) / cos^2 t) dt.
    half = 0.5 * np.arcsin(r)
    sn = np.sin(half[..., None] * _GENZ_X1)
    hk = (h * k)[..., None]
    hs = (0.5 * (h * h + k * k))[..., None]
    total = (np.exp((sn * hk - hs) / (1.0 - sn * sn)) * _GENZ_W).sum(axis=-1)
    return half * total / _TWO_PI + u * v


def _genz_high(h: np.ndarray, k: np.ndarray, r: np.ndarray) -> np.ndarray:
    # Genz's expansion about rho = +-1, written for the upper orthant
    # P(X > -h, Y > -kk) with kk = sign(r) k: for r < 0 the second argument
    # is reflected, and the result mapped back below.
    kk = np.sign(r) * k
    hk = h * kk
    as_ = (1.0 - r) * (1.0 + r)
    a = np.sqrt(as_)
    bs = (kk - h) ** 2
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 80.0
    cd = c * d
    dbs = 1.0 - d * bs
    bvn = a * np.exp(-0.5 * (bs / as_ + hk)) * (1.0 - c * (bs - as_) * dbs / 3.0 + cd * as_ * as_)
    # exp(-hk/2) Phi(-b/a) in one exponent: exp(-hk/2) alone overflows for
    # hk < -1418, where the product is far below double precision.
    b = np.sqrt(bs)
    bvn -= _SQRT_2PI * b * np.exp(log_ndtr(-b / a) - 0.5 * hk) * (1.0 - c * bs * dbs / 3.0)
    # The smooth remainder, on [0, a] in x = sqrt(1 - r'^2). The loop term
    # is 1 + c xs (1 + 5 d xs): with d = (12 - hk)/80 the factor 5 matters.
    xs = np.multiply.outer(as_, _GENZ_T)  # as_ is a float for a float r
    rs = np.sqrt(1.0 - xs)
    bsx = bs[..., None] / xs
    hkc = hk[..., None]
    series = np.exp(-0.5 * (bsx + hkc)) * (1.0 + c[..., None] * xs * (1.0 + 5.0 * d[..., None] * xs))
    exact = np.exp(-0.5 * bsx - hkc / (1.0 + rs)) / rs
    bvn = (0.5 * a * ((series - exact) * _GENZ_W).sum(axis=-1) - bvn) / _TWO_PI
    # A batch of one sign needs only its own mapping.
    positive = r > 0.0
    if _all(positive):
        return bvn + ndtr(np.minimum(h, kk))
    between = np.where(h > 0.0, ndtr(-kk) - ndtr(-h), ndtr(h) - ndtr(kk))
    neg = np.where(h <= kk, -bvn, between - bvn)
    if not _any(positive):
        return neg
    return np.where(positive, bvn + ndtr(np.minimum(h, kk)), neg)


def _genz(h: np.ndarray, k: np.ndarray, u: np.ndarray, v: np.ndarray,
          r: np.ndarray) -> np.ndarray:
    """Phi2 for |h|, |k| <= _GENZ_REACH and 0 < |r| < 1, given u = Phi(h),
    v = Phi(k); the arrays broadcast. _phi2 keeps larger arguments out."""
    low = np.abs(r) < _GENZ_SWITCH
    if _all(low):
        return _genz_asin(h, k, u, v, r)
    if not _any(low):
        return _genz_high(h, k, r)
    h, k, u, v, r, low = np.broadcast_arrays(h, k, u, v, r, low)
    high = ~low
    out = np.empty(low.shape)
    out[low] = _genz_asin(h[low], k[low], u[low], v[low], r[low])
    out[high] = _genz_high(h[high], k[high], r[high])
    return out


# ---------------------------------------------------------------------------
# public CDF with dispatch
# ---------------------------------------------------------------------------

_ENGINES = {
    Phi2Method.OWEN: lambda h, k, r, cfg: phi2_owen(h, k, r),
    Phi2Method.PLACKETT_FROM_INDEPENDENCE: _plackett_from_independence,
    Phi2Method.PLACKETT_FROM_MAX: _plackett_from_max,
    Phi2Method.TETRACHORIC: _tetrachoric,
    Phi2Method.SINGLE_FACTOR_QUADRATURE: _single_factor,
}


def _phi2(h, k, u, v, r, method: Phi2Method, cfg: QuadratureConfig) -> np.ndarray:
    """Phi2 at validated h, k, r that broadcast, given u = Phi(h), v = Phi(k).

    Boundary policy: infinite arguments and rho in {-1, 0, 1} resolve to the
    exact limits in u, v (max(u + v - 1, 0), u v, min(u, v)), so the engines
    only see finite arguments and 0 < |rho| < 1, and every result is clipped
    to those Frechet bounds. On the auto path |h| or |k| beyond _GENZ_REACH
    counts as infinite; the copula's ndtri values never leave +-38.5. The
    copula passes its own u, v, so that it is exact on the boundary of the
    unit square."""
    reach = _GENZ_REACH if method is Phi2Method.AUTO else _FLOAT_MAX
    lower = np.maximum(u + v - 1.0, 0.0)
    upper = np.minimum(u, v)
    # Builtin abs() takes 0.05 us on a numpy scalar and is np.abs on arrays.
    inner = (abs(h) <= reach) & (abs(k) <= reach) & (abs(r) < 1.0) & (r != 0.0)
    if _all(inner):
        if method is Phi2Method.AUTO:
            value = _genz(h, k, u, v, r)
            # The kernel's error is AUTO_ERROR_FLOOR everywhere, so only an
            # abs_tol below it can fail the abs-or-rel rule.
            if cfg.abs_tol < AUTO_ERROR_FLOOR:
                _enforce(AUTO_ERROR_FLOOR, value, cfg, "the auto kernel")
        else:
            engine = _ENGINES[method]
            h, k, r = np.broadcast_arrays(h, k, r)
            points = zip(h.ravel().tolist(), k.ravel().tolist(), r.ravel().tolist())
            value = np.reshape([engine(*p, cfg) for p in points], h.shape)
        return np.minimum(np.maximum(value, lower), upper)
    # Resolve the boundary points here and send the interior ones back
    # through the branch above.
    h, k, u, v, r, inner = np.broadcast_arrays(h, k, u, v, r, inner)
    # u + v - 1 can round above min(u, v) where Phi(h) rounds to 1 at a finite h.
    out = np.where(r == 0.0, u * v, np.where(r > 0.0, upper, np.minimum(lower, upper)))
    out = np.where(h > reach, v, np.where(k > reach, u, out))
    if _any(inner):
        out[inner] = _phi2(h[inner], k[inner], u[inner], v[inner], r[inner], method, cfg)
    return out


def phi2_cdf(
    h,
    k,
    rho,
    method: Phi2Method = Phi2Method.AUTO,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
):
    """Phi2(h, k; rho) = P(X <= h, Y <= k) for standard normal (X, Y).

    h, k and rho broadcast; all-scalar input returns a float. +-inf
    arguments and rho in {-1, 0, 1} give the exact limits, and the result
    always lies within the Frechet bounds.
    """
    r = validate_rho(rho)
    h_arr, h_scalar = _as_float_array(h)
    k_arr, k_scalar = _as_float_array(k)
    if _any(np.isnan(h_arr)) or _any(np.isnan(k_arr)):
        raise DomainError("phi2_cdf arguments must not be NaN")
    # Phi2Method(member) is the member itself; a tag maps to its member.
    out = _phi2(h_arr, k_arr, ndtr(h_arr), ndtr(k_arr), r, Phi2Method(method), cfg)
    # validate_rho gives a scalar rho back as a float.
    return _maybe_scalar(out, h_scalar and k_scalar and isinstance(r, float))
