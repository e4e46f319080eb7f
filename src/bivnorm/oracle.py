"""Slow, independent reference implementations.

These deliberately avoid every code path of the production engines: the
bivariate CDF is integrated as a raw double integral of the density, and the
factor-model construction is simulated path by path. Tests and the CLI
``compare`` command use them as ground truth.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import ndtr, ndtri

from .errors import DomainError
from .engines import validate_rho
from .gauss import _scalar, _validate_unit
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, _enforce

__all__ = [
    "FactorModel",
    "McConfig",
    "McEstimate",
    "quad2d_phi2",
    "mc_factor_model",
    "mc_conditional_probability",
]

# Truncating the lower integration limits this far below the upper ones (and
# never above -9) leaves less than 1e-18 of probability mass outside.
_TAIL_CUT = 9.0

# Paths drawn per block of the Monte Carlo estimators.
_BLOCK_SIZE = 1 << 19


def quad2d_phi2(
    h: float,
    k: float,
    rho: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """Phi2(h, k; rho) by adaptive 2-D quadrature of the density.

    The quadrant is truncated to [min(-9, h-9), min(h, 9)] x (same in k);
    the discarded analytic tail is below double precision. Raises
    ConvergenceError carrying the achieved estimate when the integrator
    cannot certify ``cfg.abs_tol``.
    """
    r = validate_rho(_scalar(rho, "rho"), interior=True)
    h = _scalar(h, "h")
    k = _scalar(k, "k")
    if np.isnan(h) or np.isnan(k):
        raise DomainError("quad2d_phi2 arguments must not be NaN")
    if h == -np.inf or k == -np.inf:
        return 0.0
    hi_x = min(h, _TAIL_CUT)
    hi_y = min(k, _TAIL_CUT)
    lo_x = min(-_TAIL_CUT, hi_x - _TAIL_CUT)
    lo_y = min(-_TAIL_CUT, hi_y - _TAIL_CUT)
    omr2 = 1.0 - r * r
    coef = 1.0 / (2.0 * math.pi * math.sqrt(omr2))
    inv = 0.5 / omr2
    with warnings.catch_warnings():
        # accuracy is enforced through the returned estimate below
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, abserr = integrate.dblquad(
            lambda y, x: coef * math.exp((2.0 * r * x * y - x * x - y * y) * inv),
            lo_x,
            hi_x,
            lo_y,
            hi_y,
            epsabs=cfg.abs_tol / 10.0,
            epsrel=cfg.rel_tol / 10.0,
        )
    _enforce(abserr, value, cfg, "2-D quadrature")
    return float(value)


# ---------------------------------------------------------------------------
# factor-model Monte Carlo
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactorModel:
    """One-factor pair X = alpha Y + sqrt(1-alpha^2) eps (and the tilde
    copy with loading beta), where corr(Y, Yt) = gamma. The indicators
    {X <= PhiInv(u)}, {Xt <= PhiInv(v)} have joint success probability
    C(u, v; alpha beta gamma)."""

    alpha: float
    beta: float
    gamma: float
    u: float
    v: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta"):
            val = getattr(self, name)
            if not -1.0 < val < 1.0 or val == 0.0:
                raise DomainError(f"{name} must lie in (-1, 1) \\ {{0}}, got {val!r}")
        if not -1.0 < self.gamma < 1.0:
            raise DomainError(f"gamma must lie in (-1, 1), got {self.gamma!r}")
        for name in ("u", "v"):
            _validate_unit(getattr(self, name), name)

    @property
    def rho(self) -> float:
        return self.alpha * self.beta * self.gamma


@dataclass(frozen=True)
class McConfig:
    """Path count and seed; identical seeds give identical estimates."""

    n_paths: int = 1_000_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_paths < 1:
            raise DomainError("n_paths must be >= 1")


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    std_error: float
    n_paths: int


def _blocks(mc: McConfig):
    """Yield (rng, n) per block; the n add up to mc.n_paths."""
    n_blocks = -(-mc.n_paths // _BLOCK_SIZE)
    # Counter-based bit generator with an independent child seed per block:
    # the estimate does not depend on how blocks are scheduled.
    for i, child in enumerate(np.random.SeedSequence(mc.seed).spawn(n_blocks)):
        n = min(_BLOCK_SIZE, mc.n_paths - i * _BLOCK_SIZE)
        yield np.random.Generator(np.random.Philox(child)), n


def mc_factor_model(model: FactorModel, mc: McConfig = McConfig()) -> McEstimate:
    """Estimate P(both indicators hit) = C(u, v; alpha beta gamma).

    Draws the correlated factor pair by the linear construction
    Yt = gamma Y + sqrt(1-gamma^2) W, adds independent idiosyncratic noise,
    and averages the indicator product; the standard error is the binomial
    one."""
    c_g = np.sqrt(1.0 - model.gamma**2)
    c_a = np.sqrt(1.0 - model.alpha**2)
    c_b = np.sqrt(1.0 - model.beta**2)
    t_u = ndtri(model.u)
    t_v = ndtri(model.v)
    hits = 0
    for rng, n in _blocks(mc):
        y = rng.standard_normal(n)
        yt = model.gamma * y + c_g * rng.standard_normal(n)
        x = model.alpha * y + c_a * rng.standard_normal(n)
        xt = model.beta * yt + c_b * rng.standard_normal(n)
        hits += int(np.count_nonzero((x <= t_u) & (xt <= t_v)))
    p_hat = hits / mc.n_paths
    se = np.sqrt(max(p_hat * (1.0 - p_hat), 1e-30) / mc.n_paths)
    return McEstimate(float(p_hat), float(se), mc.n_paths)


def mc_conditional_probability(model: FactorModel, mc: McConfig = McConfig()) -> McEstimate:
    """Estimate E[ Phi((PhiInv(u) - alpha Y) / sqrt(1-alpha^2)) ].

    The conditional hit probability given the factor; its expectation is u,
    which makes this a useful smoke check of the factor construction."""
    c_a = np.sqrt(1.0 - model.alpha**2)
    t_u = ndtri(model.u)
    total = 0.0
    total_sq = 0.0
    for rng, n in _blocks(mc):
        p = ndtr((t_u - model.alpha * rng.standard_normal(n)) / c_a)
        total += float(np.sum(p))
        total_sq += float(np.sum(p * p))
    mean = total / mc.n_paths
    var = max(total_sq / mc.n_paths - mean * mean, 0.0)
    se = np.sqrt(var / mc.n_paths)
    return McEstimate(float(mean), float(se), mc.n_paths)
