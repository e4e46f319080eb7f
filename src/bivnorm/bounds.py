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
import functools
from dataclasses import asdict, dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import erfcx, ndtr, ndtri

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


def _mee_owen(u, rho):
    # Normal approximation matching the first two conditional moments, with
    # the radicand divided through by u^2 (m = phi(x)/u), so that it does not
    # underflow for tiny u. m is the Mills ratio phi(x)/Phi(x) at the rounded
    # x = PhiInv(u), not phi(x)/u: x + m ~ 1/|x| cancels, and phi(x)/u would
    # amplify the rounding of x about x^2 times.
    x = ndtri(u)
    m = np.sqrt(2.0 / np.pi) / erfcx(-x / np.sqrt(2.0))
    rad = 1.0 - rho * rho * m * (x + m)
    if np.any(rad <= 0.0):
        raise DomainError("conditional-moment approximation undefined here (radicand <= 0)")
    return u * ndtr((x + rho * m) / np.sqrt(rad))


def _cox_wermuth(u, rho):
    x = ndtri(u)
    return u * ndtr(_lam(rho) * (u * x + rho * norm_pdf(x)) / ((1.0 + rho) * u))


# The kinds that are a factor a(u, rho) times u g(u; rho), each defined once
# by its factor. The scan multiplies its cached coarse u g grid by the factor.
_UG_FACTORS = {
    DiagBoundKind.LOWER_THM1: lambda u, rho: 1.0,
    DiagBoundKind.UPPER_THM1: lambda u, rho: 2.0,
    DiagBoundKind.LOWER_THM2: lambda u, rho: 1.0 + (2.0 / np.pi) * np.arcsin(rho),
    DiagBoundKind.UPPER_THM2: lambda u, rho: 1.0 + rho,
    DiagApproxKind.MEYER_TIGHT: lambda u, rho: (
        1.0 + rho + ((4.0 / np.pi) * np.arcsin(rho) - 2.0 * rho) * u
    ),
    DiagApproxKind.MEYER_REFINED: lambda u, rho: (
        1.0 + np.arcsin(rho) / np.pi + 0.5 * rho + ((2.0 / np.pi) * np.arcsin(rho) - rho) * u
    ),
}


def _ug_multiple(factor):
    return lambda u, rho: (u * _slope(u, rho)) * factor(u, rho)


# One formula per kind. Each takes checked (u, rho) arrays that broadcast and
# computes a factor of u alone or of rho alone on that argument's own axis.
_FORMULAS = {
    **{member: _ug_multiple(factor) for member, factor in _UG_FACTORS.items()},
    DiagBoundKind.UPPER_THM3: lambda u, rho: 2.0 * u * _slope(u / 2.0, rho),
    DiagApproxKind.MEE_OWEN: _mee_owen,
    DiagApproxKind.COX_WERMUTH: _cox_wermuth,
    DiagApproxKind.MALLOWS: lambda u, rho: (
        2.0 * u * ndtr(_lam(rho) * (ndtri(u / 2.0 + 0.25) - ndtri(0.75)))
    ),
}


def _open_at_zero(member) -> bool:
    # The approximations take PhiInv(u) or divide by u, so they exclude u = 0.
    return isinstance(member, DiagApproxKind)


def _evaluate(member, u, rho):
    """Check (u, rho) against the wedge once, then evaluate member's formula."""
    u_arr = np.asarray(u, dtype=float)
    r_arr = np.asarray(rho, dtype=float)
    open_zero = _open_at_zero(member)
    lo_ok = (u_arr > 0.0) if open_zero else (u_arr >= 0.0)
    if np.any(~lo_ok) or np.any(u_arr > 0.5) or np.any(np.isnan(u_arr)):
        raise DomainError(f"u must lie in {'(0' if open_zero else '[0'}, 1/2], got {u!r}")
    if np.any(r_arr < 0.0) or np.any(r_arr > 1.0) or np.any(np.isnan(r_arr)):
        raise DomainError(f"rho must lie in [0, 1], got {rho!r}")
    return _maybe_scalar(_FORMULAS[member](u_arr, r_arr), u_arr.ndim == 0 and r_arr.ndim == 0)


def diag_bound(kind: DiagBoundKind, u, rho):
    """Evaluate one of the diagonal bounds on the wedge; vectorized."""
    return _evaluate(DiagBoundKind(kind), u, rho)


def diag_approx(kind: DiagApproxKind, u, rho):
    """Evaluate one of the named diagonal approximations; vectorized."""
    return _evaluate(DiagApproxKind(kind), u, rho)


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
        return asdict(self)


# The refinement zooms twice on the coarse argmax: each level evaluates a
# _ZOOM x _ZOOM tensor grid over the +-1-cell bracket of the previous argmax
# (a factor of 8 or more per level). One Newton step on the 3 x 3 stencil
# around the last level's argmax then moves to the peak of the quadratic
# through it; the point it lands on is evaluated, not predicted.
_ZOOM = 17
_ZOOM_LEVELS = 2


@functools.lru_cache(maxsize=4)
def _exact_grid(n_u: int, n_rho: int) -> np.ndarray:
    """C(u, u; rho) and u g(u; rho), stacked, on the coarse scan grid
    linspace(0, 1/2, n_u) x linspace(0, 1, n_rho): computed once per grid
    size and shared, read-only, by every kind's scan."""
    u = np.linspace(0.0, 0.5, n_u)[:, None]
    rho = np.linspace(0.0, 1.0, n_rho)[None, :]
    grids = np.empty((2, n_u, n_rho))
    grids[0] = diag_cdf(u, rho)
    grids[1] = u * _slope(u, rho)
    grids.flags.writeable = False
    return grids


def _bracket(grid: np.ndarray, i: int) -> tuple[float, float]:
    return float(grid[max(i - 1, 0)]), float(grid[min(i + 1, len(grid) - 1)])


def _argmax(abs_err: np.ndarray) -> tuple[int, int]:
    # np.nanargmax copies its argument, which on a coarse grid costs more
    # than the search; it runs only when a NaN is the plain argmax.
    i = int(np.argmax(abs_err))
    if np.isnan(abs_err.flat[i]):
        i = int(np.nanargmax(abs_err))
    return np.unravel_index(i, abs_err.shape)


def _newton_point(abs_err: np.ndarray, u: np.ndarray, rho: np.ndarray, iu: int, ir: int):
    """The peak of the quadratic through the 3 x 3 stencil around the grid's
    argmax (iu, ir), clipped into the stencil; None where there is none.

    An axis whose argmax is at the end of the grid stays fixed: the maximum
    lies on the wedge edge there (u = 1/2, or rho in {0, 1}). So the fit is
    2-D with the mixed term, 1-D along the other axis, or, at a corner,
    absent. A singular or indefinite Hessian gives no step.
    """
    free_u, free_r = 0 < iu < len(u) - 1, 0 < ir < len(rho) - 1
    if not (free_u or free_r):
        return None
    c = abs_err[iu, ir]
    gu, huu, gr, hrr, hur = 0.0, -1.0, 0.0, -1.0, 0.0
    if free_u:
        lo, hi = abs_err[iu - 1, ir], abs_err[iu + 1, ir]
        gu, huu = (hi - lo) / 2.0, hi - 2.0 * c + lo
    if free_r:
        lo, hi = abs_err[iu, ir - 1], abs_err[iu, ir + 1]
        gr, hrr = (hi - lo) / 2.0, hi - 2.0 * c + lo
    if free_u and free_r:
        s = abs_err[iu - 1:iu + 2, ir - 1:ir + 2]
        hur = (s[2, 2] - s[2, 0] - s[0, 2] + s[0, 0]) / 4.0
    det = huu * hrr - hur * hur
    if not (huu < 0.0 and det > 0.0):
        return None
    # The step -H^-1 g in cells, clipped to +-1 cell and into the grid.
    su = min(max((hur * gr - hrr * gu) / det, -1.0), 1.0)
    sr = min(max((hur * gu - huu * gr) / det, -1.0), 1.0)
    return (
        min(max(u[iu] + su * (u[1] - u[0]), u[0]), u[-1]),
        min(max(rho[ir] + sr * (rho[1] - rho[0]), rho[0]), rho[-1]),
    )


def bound_error_scan(
    kind,
    n_u: int = 200,
    n_rho: int = 200,
    refine: bool = True,
) -> ScanReport:
    """Scan |candidate - C(u, u; rho)| over the wedge.

    A coarse n_u x n_rho grid locates the worst point. The refinement then
    zooms twice with a small tensor grid over the +-1-cell bracket of the
    argmax, and takes one Newton step on the 3 x 3 stencil around the last
    argmax (along the free axes only where the argmax lies on the wedge
    edge). Only evaluated points are reported, so the reported maximum is
    the error at the reported point and is never below the coarse-grid one.
    The coarse grid's exact C and u g are computed once per grid size and
    shared by every kind (a bounded cache of the last four sizes); the kinds
    that are a factor times u g only multiply by their factor there.
    """
    try:
        member = DiagBoundKind(kind)
    except ValueError:
        member = DiagApproxKind(kind)  # raises ValueError for unknown tags
    formula = _FORMULAS[member]
    # The grids below lie on the wedge by construction, so the formula runs
    # unchecked. The approximations drop u = 0, so they need one u point more.
    open_zero = _open_at_zero(member)
    if n_u < 2 + open_zero or n_rho < 2:
        raise DomainError(
            "scan grids need at least 2 points per axis, not counting u = 0 for approximations"
        )
    u = np.linspace(0.0, 0.5, n_u)[open_zero:]
    rho = np.linspace(0.0, 1.0, n_rho)
    exact, ug = _exact_grid(n_u, n_rho)
    factor = _UG_FACTORS.get(member)
    # The coarse grids are large, so they are worked on in place.
    if factor is None:
        signed = formula(u[:, None], rho[None, :])
    else:
        signed = ug[open_zero:] * factor(u[:, None], rho[None, :])
    signed -= exact[open_zero:]
    min_signed = float(np.nanmin(signed))
    abs_err = np.abs(signed, out=signed)
    best_err = -1.0
    for level in range(1 + _ZOOM_LEVELS * refine):
        if level:
            u = np.linspace(*_bracket(u, iu), _ZOOM)
            rho = np.linspace(*_bracket(rho, ir), _ZOOM)
            uu, rr = u[:, None], rho[None, :]
            abs_err = np.abs(formula(uu, rr) - diag_cdf(uu, rr))
        iu, ir = _argmax(abs_err)
        if abs_err[iu, ir] > best_err:
            best_err, best_u, best_rho = float(abs_err[iu, ir]), float(u[iu]), float(rho[ir])
    point = _newton_point(abs_err, u, rho, iu, ir) if refine else None
    if point is not None:
        err = abs(float(formula(*point) - diag_cdf(*point)))
        if err > best_err:
            best_err, (best_u, best_rho) = err, point
    return ScanReport(
        kind=member.value,
        max_abs_error=best_err,
        u_at_max=float(best_u),
        rho_at_max=float(best_rho),
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
