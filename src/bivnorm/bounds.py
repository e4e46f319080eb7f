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
from scipy.special import ndtr, ndtri

from .errors import DomainError
from .copula import _lam, _slope, diag_cdf
from .gauss import norm_pdf, _maybe_scalar

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

    x = ndtri(u_b)
    if kind is DiagApproxKind.MALLOWS:
        shift = ndtri(u_b / 2.0 + 0.25) - ndtri(0.75)
        return _maybe_scalar(2.0 * u_b * ndtr(_lam(r_b) * shift), scalar)

    pdf_x = norm_pdf(x)
    num = u_b * x + r_b * pdf_x
    if kind is DiagApproxKind.COX_WERMUTH:
        return _maybe_scalar(u_b * ndtr(_lam(r_b) * num / ((1.0 + r_b) * u_b)), scalar)

    # MEE_OWEN: normal approximation matching the first two conditional moments.
    rad = u_b * u_b - r_b * r_b * pdf_x * (u_b * x + pdf_x)
    if np.any(rad <= 0.0):
        raise DomainError("conditional-moment approximation undefined here (radicand <= 0)")
    return _maybe_scalar(u_b * ndtr(num / np.sqrt(rad)), scalar)


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


def _candidate(kind):
    """Resolve a kind (enum or tag) to (tag, needs_positive_u, evaluate)."""
    try:
        member = DiagBoundKind(kind)
    except ValueError:
        member = DiagApproxKind(kind)  # raises ValueError for unknown tags
        return member.value, True, lambda u, rho: diag_approx(member, u, rho)
    return member.value, False, lambda u, rho: diag_bound(member, u, rho)


# The refinement zooms on the coarse argmax: each level evaluates a
# _ZOOM x _ZOOM tensor grid over the current bracket and shrinks it to +-1
# cell around that grid's argmax (a factor of 8 or more per level), until
# both widths are below _ZOOM_WIDTH; about ten array calls in all.
_ZOOM = 17
_ZOOM_WIDTH = 1e-10


def _bracket(grid: np.ndarray, i: int) -> tuple[float, float]:
    return float(grid[max(i - 1, 0)]), float(grid[min(i + 1, len(grid) - 1)])


def bound_error_scan(
    kind,
    n_u: int = 200,
    n_rho: int = 200,
    refine: bool = True,
) -> ScanReport:
    """Scan |candidate - C(u, u; rho)| over the wedge.

    A coarse n_u x n_rho grid locates the worst point, then a zoom of small
    tensor grids over its +-1-cell bracket polishes the location to ~1e-10;
    the reported maximum is never below the coarse-grid one.
    """
    tag, needs_pos_u, evaluate = _candidate(kind)
    if n_u < 2 or n_rho < 2:
        raise DomainError("scan grids need at least 2 points per axis")
    u = np.linspace(0.0, 0.5, n_u)
    if needs_pos_u:
        u = u[1:]
    rho = np.linspace(0.0, 1.0, n_rho)
    signed = evaluate(u[:, None], rho[None, :]) - diag_cdf(u[:, None], rho[None, :])
    min_signed = float(np.nanmin(signed))
    best_err = -1.0
    while True:
        abs_err = np.abs(signed)
        iu, ir = np.unravel_index(int(np.nanargmax(abs_err)), abs_err.shape)
        if abs_err[iu, ir] > best_err:
            best_err, best_u, best_rho = float(abs_err[iu, ir]), float(u[iu]), float(rho[ir])
        u_lo, u_hi = _bracket(u, iu)
        r_lo, r_hi = _bracket(rho, ir)
        if not refine or max(u_hi - u_lo, r_hi - r_lo) < _ZOOM_WIDTH:
            break
        u = np.linspace(u_lo, u_hi, _ZOOM)
        rho = np.linspace(r_lo, r_hi, _ZOOM)
        signed = evaluate(u[:, None], rho[None, :]) - diag_cdf(u[:, None], rho[None, :])
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
    q = ndtri(0.25)

    def f(rho: float) -> float:
        return norm_pdf(_lam(rho) * q) + (1.0 + rho) / (2.0 * np.pi * q)

    return float(brentq(f, 1e-6, 1.0 - 1e-9, xtol=1e-13))
