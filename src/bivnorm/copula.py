"""The bivariate normal copula layer.

C(u, v; rho) = Phi2(PhiInv(u), PhiInv(v); rho) together with its density,
conditionals, symmetry group, the diagonal slope function g, and the
reduction identities that relate general points, the half-line v = 1/2 and
the diagonal u = v to each other.

Each public function checks its arguments once, at entry; after that the
values go to ``ndtri``, ``ndtr`` and ``owen._owen_t`` unchecked, on whole
broadcast arrays. u in {0, 1} maps to -+inf, where T is 0 and Phi is 0 or
1, so the closed forms give the exact boundary values with no masks.
"""

from __future__ import annotations

import contextlib
import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DomainError
from .engines import Phi2Method, _one_factor, _phi2, validate_rho
from .gauss import _as_float_array, _maybe_scalar, _scalar, _validate_unit
from .owen import _owen_t
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, _enforce, gauss_hermite, quad1d

__all__ = [
    "SymmetryKind",
    "SymmetryImage",
    "HalflineReduction",
    "copula_cdf",
    "copula_density",
    "cond_cdf_given_u",
    "cond_cdf_given_v",
    "apply_symmetry",
    "diag_g",
    "diag_cdf",
    "halfline_cdf",
    "reduce_to_halflines",
    "line_from_diag",
    "diag_g_transform",
    "copula_factor_integral",
    "copula_single_factor",
    "copula_cond_integral",
]

def copula_cdf(
    u,
    v,
    rho,
    method: Phi2Method = Phi2Method.AUTO,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
):
    """C(u, v; rho), exact on the boundary of the unit square and at
    rho in {-1, 0, 1}, numeric via the selected engine elsewhere.

    u, v and rho broadcast; all-scalar input returns a float.
    """
    uu, u_scalar = _validate_unit(u, "u")
    vv, v_scalar = _validate_unit(v, "v")
    r = validate_rho(rho)
    # 0 and 1 map to -+inf, which _phi2 resolves to the exact margins.
    out = _phi2(ndtri(uu), ndtri(vv), uu, vv, r, Phi2Method(method), cfg)
    # validate_rho gives a scalar rho back as a float.
    return _maybe_scalar(out, u_scalar and v_scalar and isinstance(r, float))


def copula_density(u, v, rho):
    """Copula density c(u, v; rho) for interior u, v and |rho| < 1.

    Evaluated in the cancellation-free exponential form
    exp((2 rho x y - rho^2 (x^2 + y^2)) / (2 (1-rho^2))) / sqrt(1-rho^2)
    with x, y the normal quantiles of u, v.
    """
    r = validate_rho(rho, interior=True)
    u_arr, us = _validate_unit(u, "u", interior=True)
    v_arr, vs = _validate_unit(v, "v", interior=True)
    x, y = ndtri(u_arr), ndtri(v_arr)
    omr2 = 1.0 - r * r
    expo = (2.0 * r * x * y - r * r * (x * x + y * y)) / (2.0 * omr2)
    return _maybe_scalar(np.exp(expo) / np.sqrt(omr2), us and vs)


def cond_cdf_given_u(u, v, rho):
    """P(V <= v | U = u) = Phi((PhiInv(v) - rho PhiInv(u)) / sqrt(1-rho^2)),
    the partial derivative of C with respect to u."""
    r = validate_rho(rho, interior=True)
    u_arr, us = _validate_unit(u, "u", interior=True)
    v_arr, vs = _validate_unit(v, "v")
    x = ndtri(u_arr)
    y = ndtri(v_arr)
    out = ndtr((y - r * x) / np.sqrt(1.0 - r * r))
    return _maybe_scalar(out, us and vs)


def cond_cdf_given_v(u, v, rho):
    """P(U <= u | V = v); mirror image of :func:`cond_cdf_given_u`."""
    return cond_cdf_given_u(v, u, rho)


class SymmetryKind(enum.Enum):
    """The four exchangeability / reflection identities of the copula."""

    SWAP = "swap"
    REFLECT_V = "reflect_v"
    REFLECT_U = "reflect_u"
    REFLECT_UV = "reflect_uv"


@dataclass(frozen=True)
class SymmetryImage:
    """Transformed evaluation: C(u, v; rho) = offset + sign * C(u', v'; rho')."""

    u: float
    v: float
    rho: float
    offset: float
    sign: int

    def value(self) -> float:
        return self.offset + self.sign * copula_cdf(self.u, self.v, self.rho)


def apply_symmetry(kind: SymmetryKind, u: float, v: float, rho: float) -> SymmetryImage:
    """Rewrite C(u, v; rho) through one of its exact symmetries.

    swap:        C(v, u; rho)
    reflect_v:   u - C(u, 1-v; -rho)
    reflect_u:   v - C(1-u, v; -rho)
    reflect_uv:  u + v - 1 + C(1-u, 1-v; rho)   (radial symmetry)
    """
    _validate_unit(u, "u")
    _validate_unit(v, "v")
    r = validate_rho(rho)
    kind = SymmetryKind(kind)
    if kind is SymmetryKind.SWAP:
        return SymmetryImage(v, u, r, 0.0, +1)
    if kind is SymmetryKind.REFLECT_V:
        return SymmetryImage(u, 1.0 - v, -r, u, -1)
    if kind is SymmetryKind.REFLECT_U:
        return SymmetryImage(1.0 - u, v, -r, v, -1)
    return SymmetryImage(1.0 - u, 1.0 - v, r, u + v - 1.0, +1)


# ---------------------------------------------------------------------------
# diagonal machinery
# ---------------------------------------------------------------------------


def _lam(rho):
    # sqrt((1-rho)/(1+rho)); +inf at rho = -1, 0 at rho = 1. Entering
    # np.errstate costs ~1.1 us, so a 0-d rho other than -1 skips it.
    quiet = np.ndim(rho) or rho == -1.0
    with np.errstate(divide="ignore") if quiet else contextlib.nullcontext():
        return np.sqrt((1.0 - rho) / (1.0 + rho))


def _slope(u, rho) -> np.ndarray:
    # g(u; rho) for u in [0, 1] and rho in [-1, 1], broadcast. u = 0 and 1
    # keep their limits, where lam * -+inf is NaN at rho = 1; at rho = 1 the
    # interior value is 1/2, which the bound scans need.
    with np.errstate(invalid="ignore"):
        return np.where((u > 0.0) & (u < 1.0), ndtr(_lam(rho) * ndtri(u)), u)


def diag_g(u, rho):
    """g(u; rho) = Phi(sqrt((1-rho)/(1+rho)) PhiInv(u)).

    The conditional probability P(V <= u | U = u), and half the derivative
    of the diagonal section u -> C(u, u; rho). Satisfies g(1/2) = 1/2,
    g(1-u) = 1 - g(u), and g(g(u; rho); -rho) = u. The endpoint limits are
    0 and 1 (no tail dependence). |rho| = 1 with interior u is rejected.
    u and rho broadcast.
    """
    r_arr, r_scalar = _as_float_array(validate_rho(rho))
    u_arr, u_scalar = _validate_unit(u, "u")
    if np.any((u_arr > 0.0) & (u_arr < 1.0) & (np.abs(r_arr) == 1.0)):
        raise DomainError("diag_g is not defined at |rho| = 1 for interior u")
    return _maybe_scalar(_slope(u_arr, r_arr), u_scalar and r_scalar)


def diag_cdf(u, rho):
    """Diagonal section C(u, u; rho) = u - 2 T(PhiInv(u), sqrt((1-rho)/(1+rho))).

    Closed form through the T-function. u and rho broadcast; exact at
    u in {0, 1} and rho in {-1, 1}.
    """
    r_arr, r_scalar = _as_float_array(validate_rho(rho))
    u_arr, u_scalar = _validate_unit(u, "u")
    out = u_arr - 2.0 * _owen_t(ndtri(u_arr), _lam(r_arr))
    return _maybe_scalar(np.minimum(np.maximum(out, 0.0), 1.0), u_scalar and r_scalar)


def halfline_cdf(u, rho):
    """Half-line section C(u, 1/2; rho) = u/2 - T(PhiInv(u), -rho/sqrt(1-rho^2)).

    u and rho broadcast; the slope degenerates to -+inf at rho = +-1, which
    the T-function absorbs as its one-sided limit.
    """
    r_arr, r_scalar = _as_float_array(validate_rho(rho))
    u_arr, u_scalar = _validate_unit(u, "u")
    with np.errstate(divide="ignore"):
        slope = -r_arr / np.sqrt(1.0 - r_arr * r_arr)
    out = 0.5 * u_arr - _owen_t(ndtri(u_arr), slope)
    return _maybe_scalar(np.minimum(np.maximum(out, 0.0), 1.0), u_scalar and r_scalar)


@dataclass(frozen=True)
class HalflineReduction:
    """C(u, v; rho) rewritten as C(u, 1/2; rho_u) + C(v, 1/2; rho_v) - delta."""

    u: float
    rho_u: float
    v: float
    rho_v: float
    delta: float

    def value(self) -> float:
        return (
            halfline_cdf(self.u, self.rho_u)
            + halfline_cdf(self.v, self.rho_v)
            - self.delta
        )


def reduce_to_halflines(u: float, v: float, rho: float) -> HalflineReduction:
    """Split a general evaluation into two half-line evaluations.

    The transformed correlations are rho_u = -a_u / sqrt(1 + a_u^2) with
    a_u = (PhiInv(v)/PhiInv(u) - rho)/sqrt(1-rho^2) (and symmetrically for
    rho_v); delta is 1/2 when exactly one argument is below 1/2. Arguments
    at exactly 1/2 make the slope ratio undefined and are rejected; callers
    fall back to the direct formula there.
    """
    r = validate_rho(_scalar(rho, "rho"), interior=True)
    u, v = _scalar(u, "u"), _scalar(v, "v")
    for name, val in (("u", u), ("v", v)):
        _validate_unit(val, name, interior=True)
        if val == 0.5:
            raise DomainError(f"the half-line split is singular at {name} = 1/2")
    h = ndtri(u)
    k = ndtri(v)
    denom = np.sqrt(1.0 - r * r)
    a_u = (k / h - r) / denom
    a_v = (h / k - r) / denom
    rho_u = -a_u / np.hypot(1.0, a_u)
    rho_v = -a_v / np.hypot(1.0, a_v)
    delta = 0.5 if (u < 0.5) != (v < 0.5) else 0.0
    return HalflineReduction(u, float(rho_u), v, float(rho_v), delta)


def line_from_diag(u: float, rho: float) -> float:
    """C(u, 1/2; rho) recovered from the diagonal section at 1 - 2 rho^2:
    half of it for rho < 0, its reflection u - half for rho > 0."""
    r = validate_rho(_scalar(rho, "rho"))
    _validate_unit(_scalar(u, "u"), "u")
    half_diag = 0.5 * diag_cdf(u, 1.0 - 2.0 * r * r)
    return half_diag if r < 0.0 else float(u) - half_diag


def diag_g_transform(u: float, rho: float) -> float:
    """C(u, u; rho) via the substitution identity
    2 u g(u; rho) - C(g(u; rho), g(u; rho); -rho)."""
    r = validate_rho(rho, interior=True)
    _validate_unit(u, "u", interior=True)
    g = diag_g(u, r)
    return 2.0 * u * g - diag_cdf(g, -r)


# ---------------------------------------------------------------------------
# factor-form integral representations
# ---------------------------------------------------------------------------

_FACTOR_ORDERS = ((0.8, (80, 112)), (1.0, (384, 512)))


def _factor_orders(*loadings: float) -> tuple[int, int]:
    worst = max(abs(x) for x in loadings)
    return next(pair for cap, pair in _FACTOR_ORDERS if worst <= cap)


def _factor_integral_fixed(
    h: float, k: float, alpha: float, beta: float, gamma: float, order: int
) -> float:
    # E[ Phi((h - alpha Y)/sa) Phi((k - beta Yt)/sb) ] with corr(Y, Yt) = gamma,
    # written as a tensor integral over independent (Y, W).
    z, w = gauss_hermite(order)
    sa = np.sqrt(1.0 - alpha * alpha)
    sb = np.sqrt(1.0 - beta * beta)
    sg = np.sqrt(1.0 - gamma * gamma)
    fy = ndtr((h - alpha * z) / sa)
    inner = ndtr((k - beta * (gamma * z[:, None] + sg * z[None, :])) / sb) @ w
    return float(np.dot(w, fy * inner))


def copula_factor_integral(
    u: float,
    v: float,
    alpha: float,
    beta: float,
    gamma: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """Two-factor integral representation of C(u, v; alpha beta gamma).

    Numerically integrates the double integral of the conditional default
    probabilities against a correlated factor pair; equals the direct copula
    value at rho = alpha * beta * gamma. The result of two Gauss-Hermite
    resolutions must agree within the configured tolerance, otherwise a
    convergence failure is raised.
    """
    for name, val in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if not -1.0 < _scalar(val, name) < 1.0:
            raise DomainError(f"{name} must lie in (-1, 1), got {val!r}")
    _validate_unit(_scalar(u, "u"), "u")
    _validate_unit(_scalar(v, "v"), "v")
    if u in (0.0, 1.0) or v in (0.0, 1.0):
        return copula_cdf(u, v, alpha * beta * gamma)
    h = ndtri(u)
    k = ndtri(v)
    # gamma only turns the inner probit's direction to (gamma, sg); its slope
    # beta/sb, and so the rule it needs, depends on the loadings alone.
    lo, hi = _factor_orders(alpha, beta)
    coarse = _factor_integral_fixed(h, k, alpha, beta, gamma, lo)
    fine = _factor_integral_fixed(h, k, alpha, beta, gamma, hi)
    _enforce(abs(fine - coarse), fine, cfg, "factor integral")
    return float(np.clip(fine, 0.0, 1.0))


def copula_single_factor(
    u: float,
    v: float,
    alpha: float,
    beta: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """One-factor limit of the factor integral: C(u, v; alpha beta) as
    E[ Phi((PhiInv(u) - alpha Z)/sa) Phi((PhiInv(v) - beta Z)/sb) ]."""
    for name, val in (("alpha", alpha), ("beta", beta)):
        if not -1.0 < _scalar(val, name) < 1.0:
            raise DomainError(f"{name} must lie in (-1, 1), got {val!r}")
    _validate_unit(_scalar(u, "u"), "u")
    _validate_unit(_scalar(v, "v"), "v")
    if u in (0.0, 1.0) or v in (0.0, 1.0):
        return copula_cdf(u, v, alpha * beta)
    value = _one_factor(ndtri(u), ndtri(v), alpha, beta,
                        _factor_orders(alpha, beta), cfg, "single-factor integral")
    return float(np.clip(value, 0.0, 1.0))


def copula_cond_integral(
    u: float,
    v: float,
    rho: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    axis: str = "u",
) -> float:
    """C(u, v; rho) as the integral of a conditional CDF.

    axis="u" integrates P(V <= v | U = t) over t in [0, u]; axis="v"
    integrates P(U <= u | V = t) over t in [0, v], which is the same with
    u and v swapped. Substituting t = Phi(x) gives
    int_{-inf}^{PhiInv(u)} phi(x) Phi((PhiInv(v) - rho x)/sqrt(1-rho^2)) dx.
    """
    r = validate_rho(_scalar(rho, "rho"), interior=True)
    _validate_unit(_scalar(u, "u"), "u")
    _validate_unit(_scalar(v, "v"), "v")
    if axis not in ("u", "v"):
        raise DomainError(f'axis must be "u" or "v", got {axis!r}')
    if axis == "v":
        u, v = v, u
    if u == 0.0:
        return 0.0
    h = ndtri(u)
    k = ndtri(v)
    s = math.sqrt(1.0 - r * r)
    coef = 1.0 / math.sqrt(2.0 * math.pi)
    return quad1d(lambda x: coef * math.exp(-0.5 * x * x) * ndtr((k - r * x) / s), -np.inf, h, cfg)
