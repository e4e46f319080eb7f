"""Bounds and approximations for the diagonal section C(u, u; rho).

All statements live on the wedge 0 <= u <= 1/2, 0 <= rho <= 1 (the symmetry
and reduction identities of the copula layer map every other evaluation into
it). With g(u; rho) the diagonal slope function, the implemented bounds are

lower_thm1:  u g                      tight at rho = 0 or u = 0
upper_thm1:  2 u g                    tight at rho = 1 or u = 0
lower_thm2:  u g (1 + (2/pi) asin rho)  the optimal lower a(rho)-multiple,
                                        additionally tight at u = 1/2
upper_thm2:  u g (1 + rho)            the optimal upper a(rho)-multiple
upper_thm3:  2 u g(u/2)               alternative upper bound

and the approximations

mee_owen:       conditional-moment normal approximation
cox_wermuth:    conditional-mean probit approximation
mallows:        quantile-shift approximation of the T-function split
meyer_tight:    u g (1 + rho + ((4/pi) asin rho - 2 rho) u); conjectured to
                be an upper bound, reported but never asserted
meyer_refined:  the average of meyer_tight and lower_thm2,
                u g (1 + (1/pi) asin rho + rho/2 + ((2/pi) asin rho - rho) u),
                whose two errors nearly cancel: tight at rho in {0, 1},
                u in {0, 1/2}, absolute error below 6e-4 on the wedge

The error-scan facility reproduces the known worst-case constants
(0.25 for the plain product bounds, ~0.05263 at rho ~ 0.7712 for the scaled
upper bound, ~0.015 at rho ~ 0.5961 for the half-argument bound).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import DomainError
from .copula import _lam, _slope, diag_cdf
from .gauss import norm_cdf, norm_pdf, norm_quantile, _maybe_scalar

__all__ = [
    "DiagBoundKind",
    "DiagApproxKind",
    "ScanReport",
    "diag_bound",
    "diag_approx",
    "bound_error_scan",
    "upper_thm3_stationary_rho",
]


class DiagBoundKind(enum.Enum):
    LOWER_THM1 = "lower_thm1"
    UPPER_THM1 = "upper_thm1"
    LOWER_THM2 = "lower_thm2"
    UPPER_THM2 = "upper_thm2"
    UPPER_THM3 = "upper_thm3"


class DiagApproxKind(enum.Enum):
    MEE_OWEN = "mee_owen"
    COX_WERMUTH = "cox_wermuth"
    MALLOWS = "mallows"
    MEYER_TIGHT = "meyer_tight"
    MEYER_REFINED = "meyer_refined"


_LOWER_KINDS = {DiagBoundKind.LOWER_THM1, DiagBoundKind.LOWER_THM2}


def _validate_wedge(u, rho, u_open_zero: bool = False):
    """(u, rho) as float arrays, and whether both came in as scalars."""
    u_arr = np.asarray(u, dtype=float)
    r_arr = np.asarray(rho, dtype=float)
    lo_ok = (u_arr > 0.0) if u_open_zero else (u_arr >= 0.0)
    if np.any(~lo_ok) or np.any(u_arr > 0.5) or np.any(np.isnan(u_arr)):
        lo = "(0" if u_open_zero else "[0"
        raise DomainError(f"u must lie in {lo}, 1/2], got {u!r}")
    if np.any(r_arr < 0.0) or np.any(r_arr > 1.0) or np.any(np.isnan(r_arr)):
        raise DomainError(f"rho must lie in [0, 1], got {rho!r}")
    return u_arr, r_arr, u_arr.ndim == 0 and r_arr.ndim == 0


def diag_bound(kind: DiagBoundKind, u, rho):
    """Evaluate one of the diagonal bounds on the wedge; vectorized."""
    if not isinstance(kind, DiagBoundKind):
        kind = DiagBoundKind(kind)
    u_arr, r_arr, scalar = _validate_wedge(u, rho)
    g = _slope(u_arr, r_arr)
    if kind is DiagBoundKind.LOWER_THM1:
        out = u_arr * g
    elif kind is DiagBoundKind.UPPER_THM1:
        out = 2.0 * u_arr * g
    elif kind is DiagBoundKind.LOWER_THM2:
        out = u_arr * g * (1.0 + (2.0 / np.pi) * np.arcsin(r_arr))
    elif kind is DiagBoundKind.UPPER_THM2:
        out = u_arr * g * (1.0 + r_arr)
    else:  # UPPER_THM3
        out = 2.0 * u_arr * _slope(u_arr / 2.0, r_arr)
    return _maybe_scalar(out, scalar)


def diag_approx(kind: DiagApproxKind, u, rho):
    """Evaluate one of the named diagonal approximations; vectorized."""
    if not isinstance(kind, DiagApproxKind):
        kind = DiagApproxKind(kind)
    u_arr, r_arr, scalar = _validate_wedge(u, rho, u_open_zero=True)
    u_b, r_b = np.broadcast_arrays(u_arr, r_arr)

    if kind in (DiagApproxKind.MEYER_TIGHT, DiagApproxKind.MEYER_REFINED):
        g = _slope(u_b, r_b)
        asin = np.arcsin(r_b)
        if kind is DiagApproxKind.MEYER_TIGHT:
            factor = 1.0 + r_b + ((4.0 / np.pi) * asin - 2.0 * r_b) * u_b
        else:
            factor = 1.0 + asin / np.pi + 0.5 * r_b + ((2.0 / np.pi) * asin - r_b) * u_b
        return _maybe_scalar(u_b * g * factor, scalar)

    x = norm_quantile(u_b)
    if kind is DiagApproxKind.MALLOWS:
        shift = norm_quantile(u_b / 2.0 + 0.25) - norm_quantile(0.75)
        return _maybe_scalar(2.0 * u_b * norm_cdf(_lam(r_b) * shift), scalar)

    pdf_x = norm_pdf(x)
    num = u_b * x + r_b * pdf_x
    if kind is DiagApproxKind.COX_WERMUTH:
        return _maybe_scalar(u_b * norm_cdf(_lam(r_b) * num / ((1.0 + r_b) * u_b)), scalar)

    # MEE_OWEN: normal approximation matching the first two conditional moments.
    rad = u_b * u_b - r_b * r_b * pdf_x * (u_b * x + pdf_x)
    if np.any(rad <= 0.0):
        raise DomainError("conditional-moment approximation undefined here (radicand <= 0)")
    return _maybe_scalar(u_b * norm_cdf(num / np.sqrt(rad)), scalar)


# ---------------------------------------------------------------------------
# error scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanReport:
    """Worst-case error of a bound/approximation over the wedge grid.

    ``min_signed_error`` is the most negative value of (candidate - C); for
    a would-be upper bound it staying ~nonnegative supports (but never
    proves) the bound property.
    """

    kind: str
    max_abs_error: float
    u_at_max: float
    rho_at_max: float
    min_signed_error: float
    n_u: int
    n_rho: int

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "max_abs_error": self.max_abs_error,
            "u_at_max": self.u_at_max,
            "rho_at_max": self.rho_at_max,
            "min_signed_error": self.min_signed_error,
            "n_u": self.n_u,
            "n_rho": self.n_rho,
        }


def _candidate(kind) -> tuple[str, bool]:
    """Resolve a kind (enum or tag) to (tag, needs_positive_u)."""
    if isinstance(kind, (DiagBoundKind, DiagApproxKind)):
        return kind.value, isinstance(kind, DiagApproxKind)
    tag = str(kind)
    try:
        DiagBoundKind(tag)
        return tag, False
    except ValueError:
        DiagApproxKind(tag)  # raises ValueError for unknown tags
        return tag, True


def _evaluate(tag: str, u: np.ndarray, rho: np.ndarray) -> np.ndarray:
    try:
        return diag_bound(DiagBoundKind(tag), u, rho)
    except ValueError:
        return diag_approx(DiagApproxKind(tag), u, rho)


def _golden_max(f, lo: float, hi: float, iters: int = 80) -> tuple[float, float]:
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def bound_error_scan(
    kind,
    n_u: int = 200,
    n_rho: int = 200,
    refine: bool = True,
) -> ScanReport:
    """Scan |candidate - C(u, u; rho)| over the wedge.

    A coarse n_u x n_rho grid locates the worst point, then coordinate-wise
    golden-section sweeps around it polish the location to ~1e-10; the
    reported maximum is never below the coarse-grid one.
    """
    tag, needs_pos_u = _candidate(kind)
    if n_u < 2 or n_rho < 2:
        raise DomainError("scan grids need at least 2 points per axis")
    u = np.linspace(0.0, 0.5, n_u)
    if needs_pos_u:
        u = u[1:]
    rho = np.linspace(0.0, 1.0, n_rho)
    uu = u[:, None]
    rr = rho[None, :]
    signed = _evaluate(tag, uu, rr) - diag_cdf(uu, rr)
    abs_err = np.abs(signed)
    flat = int(np.nanargmax(abs_err))
    iu, ir = np.unravel_index(flat, abs_err.shape)
    best_u, best_rho = float(u[iu]), float(rho[ir])
    best_err = float(abs_err[iu, ir])
    min_signed = float(np.nanmin(signed))

    if refine:

        def err_at(uq: float, rq: float) -> float:
            return abs(_evaluate(tag, np.asarray(uq), np.asarray(rq)) - diag_cdf(uq, rq))

        u_lo = u[max(iu - 1, 0)]
        u_hi = u[min(iu + 1, len(u) - 1)]
        r_lo = rho[max(ir - 1, 0)]
        r_hi = rho[min(ir + 1, len(rho) - 1)]
        cu, cr = best_u, best_rho
        for _ in range(3):
            cu, _val = _golden_max(lambda x: err_at(x, cr), u_lo, u_hi)
            cr, val = _golden_max(lambda x: err_at(cu, x), r_lo, r_hi)
            if val > best_err:
                best_err, best_u, best_rho = val, cu, cr
    return ScanReport(
        kind=tag,
        max_abs_error=best_err,
        u_at_max=best_u,
        rho_at_max=best_rho,
        min_signed_error=min_signed,
        n_u=n_u,
        n_rho=n_rho,
    )


def upper_thm3_stationary_rho() -> float:
    """The correlation where the half-argument upper bound is worst.

    At u = 1/2 the gap rho -> 2u g(u/2) - C peaks where
    phi(lam(rho) q) = -(1 + rho) / (2 pi q), q = PhiInv(1/4); solved by
    bracketing rather than hard-coding the constant."""
    q = norm_quantile(0.25)

    def f(rho: float) -> float:
        return norm_pdf(_lam(rho) * q) + (1.0 + rho) / (2.0 * np.pi * q)

    return float(brentq(f, 1e-6, 1.0 - 1e-9, xtol=1e-13))
