"""Independent correctness reference for the benchmark.

Everything here is built on scipy.special (``owens_t``, ``ndtr``, ``ndtri``)
and shares no code with bivnorm. The bivariate normal CDF is the Owen
T-split

    Phi2(h, k; rho) = (Phi(h) + Phi(k))/2 - T(h, a_h) - T(k, a_k) - delta,
    a_h = (k - rho h) / (h sqrt(1 - rho^2)),  a_k likewise,
    delta = 1/2 when exactly one of h, k lies below 0,

with the boundary cases (+-inf arguments, rho in {-1, 0, 1}, h = 0 or
k = 0) written out. Its own accuracy is tested against mpmath in
``test_reference.py``. The closed forms below are the paper's formulas for
the quantities the analyses estimate numerically.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr, ndtri, owens_t

# The library's documented absolute accuracy for Phi2 and the copula.
PHI2_ABS_TOL = 1e-12

_TWO_PI = 2.0 * np.pi


def phi2(h, k, rho):
    """Phi2(h, k; rho) for broadcastable h, k, rho; returns an ndarray."""
    h, k, r = (np.asarray(x, dtype=float) for x in np.broadcast_arrays(h, k, rho))
    ph, pk = ndtr(h), ndtr(k)
    out = np.empty(h.shape)

    lower = np.isneginf(h) | np.isneginf(k)
    upper_h = np.isposinf(h) & ~lower
    upper_k = np.isposinf(k) & ~lower & ~upper_h
    finite = ~(lower | upper_h | upper_k)
    indep = finite & (r == 0.0)
    como = finite & (r == 1.0)
    anti = finite & (r == -1.0)
    center = finite & (np.abs(r) < 1.0) & (r != 0.0) & (h == 0.0) & (k == 0.0)
    general = finite & (np.abs(r) < 1.0) & (r != 0.0) & ~center

    out[lower] = 0.0
    out[upper_h] = pk[upper_h]
    out[upper_k] = ph[upper_k]
    out[indep] = ph[indep] * pk[indep]
    out[como] = np.minimum(ph[como], pk[como])
    out[anti] = np.maximum(ph[anti] + pk[anti] - 1.0, 0.0)
    out[center] = 0.25 + np.arcsin(r[center]) / _TWO_PI

    hh, kk, rr = h[general], k[general], r[general]
    s = np.sqrt(1.0 - rr * rr)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_h = np.where(hh != 0.0, owens_t(hh, (kk - rr * hh) / (hh * s)), np.sign(kk) * 0.25)
        t_k = np.where(kk != 0.0, owens_t(kk, (hh - rr * kk) / (kk * s)), np.sign(hh) * 0.25)
    delta = 0.5 * ((hh < 0.0) != (kk < 0.0))
    out[general] = 0.5 * (ph[general] + pk[general]) - t_h - t_k - delta
    return out


def copula(u, v, rho):
    """C(u, v; rho) = Phi2(PhiInv(u), PhiInv(v); rho); PhiInv(0) = -inf."""
    return phi2(ndtri(np.asarray(u, dtype=float)), ndtri(np.asarray(v, dtype=float)), rho)


def diag(u, rho):
    """Diagonal section C(u, u; rho)."""
    return copula(u, u, rho)


def owen_t(h, a):
    return owens_t(np.asarray(h, dtype=float), np.asarray(a, dtype=float))


def skew_normal_cdf(x, lam):
    """P(X <= x) for the skew-normal law: Phi(x) - 2 T(x, lam)."""
    return ndtr(x) - 2.0 * owens_t(x, lam)


def copula_density(u, v, rho):
    """c(u, v; rho) as the ratio of the bivariate to the product density,
    both written from their definitions."""
    x = ndtri(np.asarray(u, dtype=float))
    y = ndtri(np.asarray(v, dtype=float))
    omr2 = 1.0 - rho * rho
    log_joint = -(x * x - 2.0 * rho * x * y + y * y) / (2.0 * omr2) - 0.5 * np.log(omr2)
    return np.exp(log_joint + 0.5 * (x * x + y * y))


def within(value, expected, abs_tol: float, rel_tol: float = 0.0) -> bool:
    """True when every element agrees to abs_tol + rel_tol * |expected|."""
    value = np.asarray(value, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if value.shape != expected.shape and value.size != expected.size:
        return False
    err = np.abs(value - expected)
    return bool(np.all(np.isfinite(value)) and np.all(err <= abs_tol + rel_tol * np.abs(expected)))


# ---------------------------------------------------------------------------
# closed forms the paper's analyses reproduce
# ---------------------------------------------------------------------------

MEASURE_CLOSED = {
    "blomqvist_beta": lambda r: (2.0 / np.pi) * np.arcsin(r),
    "kendall_tau": lambda r: (2.0 / np.pi) * np.arcsin(r),
    "spearman_rho": lambda r: (6.0 / np.pi) * np.arcsin(0.5 * r),
    "gini_gamma": lambda r: (2.0 / np.pi) * (np.arcsin(0.5 * (1.0 + r)) - np.arcsin(0.5 * (1.0 - r))),
    "gamma_tilde": lambda r: (4.0 / np.pi) * np.arcsin(r / np.sqrt(2.0)),
}


def diag_integral(rho):
    """int_0^1 C(u, u; rho) du."""
    return 0.25 + np.arcsin(0.5 * (1.0 + rho)) / _TWO_PI


def halfline_integral(rho):
    """int_0^1 C(u, 1/2; rho) du."""
    return 0.25 + np.arcsin(rho / np.sqrt(2.0)) / _TWO_PI


# Worst-case errors of the diagonal bounds on the wedge 0 <= u <= 1/2,
# 0 <= rho <= 1, as the paper states them: (value, tolerance, rho at the
# worst point or None, tolerance on that rho). The tolerances are half a
# unit in the last digit the paper gives; its 0.0155 is approximate.
# meyer_refined is an upper limit rather than a value.
SCAN_CONSTANTS = {
    "lower_thm1": (0.25, 1e-9, None, None),
    "upper_thm1": (0.25, 1e-9, None, None),
    "upper_thm2": (0.05263, 5e-6, 0.7712, 5e-5),
    "upper_thm3": (0.0155, 1e-4, 0.5961, 5e-5),
}
MEYER_REFINED_LIMIT = 6e-4

# Which diagonal candidates are bounds, and on which side.
BOUND_SIDE = {
    "lower_thm1": -1,
    "upper_thm1": 1,
    "lower_thm2": -1,
    "upper_thm2": 1,
    "upper_thm3": 1,
}


def diag_bound(kind: str, u, rho):
    """The five diagonal bounds written from their definitions."""
    u = np.asarray(u, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if kind == "upper_thm3":
        return 2.0 * u * _g_closed(u / 2.0, rho)
    g = _g_closed(u, rho)
    factor = {
        "lower_thm1": 1.0,
        "upper_thm1": 2.0,
        "lower_thm2": 1.0 + (2.0 / np.pi) * np.arcsin(rho),
        "upper_thm2": 1.0 + rho,
    }[kind]
    return u * g * factor


def meyer_refined(u, rho):
    """u g (1 + asin(rho)/pi + rho/2 + ((2/pi) asin(rho) - rho) u)."""
    u = np.asarray(u, dtype=float)
    rho = np.asarray(rho, dtype=float)
    a = np.arcsin(rho)
    return u * _g_closed(u, rho) * (1.0 + a / np.pi + 0.5 * rho + ((2.0 / np.pi) * a - rho) * u)


def _g_closed(u, rho):
    # g with its limits: 0 at u = 0, and 1/2 for interior u at rho = 1.
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.sqrt((1.0 - rho) / (1.0 + rho))
        g = ndtr(lam * ndtri(u))
    return np.where(u <= 0.0, 0.0, g)
