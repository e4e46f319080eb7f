"""1-D quadrature: adaptive integration, fixed node rules, the shared
tolerance configuration and the rule that holds results to it.

:func:`quad1d` wraps the adaptive Gauss-Kronrod integrator of
:mod:`scipy.integrate` for integrands that take one scalar at a time (the
correlation-path engines, the conditional-CDF integral). Fixed rules read
their nodes from :func:`gauss_legendre` or :func:`gauss_hermite`, which
compute each order once and share it read-only, and are certified by
comparing two orders. :func:`_enforce` judges every error estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np
from scipy import integrate
from scipy.special import roots_hermite

from .errors import ConvergenceError


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budgets for the numeric integrals.

    abs_tol / rel_tol:
        Target absolute and relative error of the integrals. A result whose
        error estimate misses both ``abs_tol`` and ``rel_tol`` times its
        magnitude raises ConvergenceError.
    max_subdivisions:
        Interval-splitting budget of the adaptive integrator.
    series_max_terms:
        Truncation budget for the correlation power series engine.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_subdivisions: int = 200
    series_max_terms: int = 60

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if self.series_max_terms < 1:
            raise ValueError("series_max_terms must be >= 1")


DEFAULT_CONFIG = QuadratureConfig()


@cache
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@cache
def gauss_hermite(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite rule for the standard normal weight: E[f(Z)] is
    approximated by ``w @ f(z)``, with the weights summing to 1."""
    x, w = roots_hermite(order)
    z, w = np.sqrt(2.0) * x, w / np.sqrt(np.pi)
    z.flags.writeable = w.flags.writeable = False
    return z, w


def quad1d(
    fn: Callable[[float], float],
    a: float,
    b: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """Integrate ``fn`` over ``[a, b]`` with the adaptive Gauss-Kronrod rule.

    The integrand must be finite on the open interval; integrable endpoint
    singularities are handled by the underlying subdivision. Raises
    ConvergenceError (carrying the achieved estimate) when the error estimate
    misses both tolerances of ``cfg``.
    """
    if a == b:
        return 0.0
    # Ask for one order more than the contract so the returned estimate
    # certifies cfg.abs_tol with margin.
    out = integrate.quad(
        fn,
        a,
        b,
        epsabs=cfg.abs_tol / 10.0,
        epsrel=cfg.rel_tol / 10.0,
        limit=cfg.max_subdivisions,
        full_output=1,
    )
    value, abserr = out[0], out[1]
    _enforce(abserr, value, cfg, f"quadrature on [{a}, {b}]")
    return value


def _enforce(estimate, value, cfg: QuadratureConfig, what: str) -> None:
    """Raise ConvergenceError where the error estimate misses both
    ``cfg.abs_tol`` and ``cfg.rel_tol * |value|``; arrays broadcast, and the
    error carries the largest estimate."""
    if np.any((estimate > cfg.abs_tol) & (estimate > cfg.rel_tol * np.abs(value))):
        worst = float(np.max(estimate))
        raise ConvergenceError(
            f"{what} reached error estimate {worst:.3e} (target {cfg.abs_tol:.3e})",
            estimate=worst,
        )
