"""Independent reference implementations.

These deliberately avoid every code path of the production engines: the
bivariate CDF is a fixed-panel 2-D Gauss-Legendre quadrature that evaluates
nothing but ``exp``, and the factor-model construction is simulated path by
path. Tests and the CLI ``compare`` command use them as ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DomainError
from .engines import validate_rho
from .gauss import _scalar, _validate_unit
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, _enforce, gauss_legendre

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

# (nodes per panel, widest panel) of the oracle's coarse and fine levels.
_LEVELS = ((16, 2.0), (20, 1.5))

_TWO_PI = 2.0 * math.pi

# Paths drawn per block of the Monte Carlo estimators.
_BLOCK_SIZE = 1 << 19


def quad2d_phi2(
    h: float,
    k: float,
    rho: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """Phi2(h, k; rho) by fixed-panel Gauss-Legendre quadrature of the
    whitened form P(X <= h, rho X + s Z <= k), s = sqrt(1 - rho^2):

        int_{x <= h} phi(x) int_{z <= (k - rho x)/s} phi(z) dz dx.

    x runs over [min(-9, h-9), min(h, 9)] and z from -9 to the inner limit
    clipped to [-9, 9]; the discarded mass is below double precision. The
    outer panels grade geometrically (s, 2s, 4s, ...) away from x = k/rho,
    where the inner limit crosses 0 with slope -rho/s, so |rho| -> 1 costs
    log(1/s) panels. Only ``exp`` is evaluated, at two levels whose gap is
    held to ``cfg``; ConvergenceError carries the gap when it misses.
    """
    r = validate_rho(_scalar(rho, "rho"), interior=True)
    h = _scalar(h, "h")
    k = _scalar(k, "k")
    if np.isnan(h) or np.isnan(k):
        raise DomainError("quad2d_phi2 arguments must not be NaN")
    if h == -np.inf or k == -np.inf:
        return 0.0
    hi = min(h, _TAIL_CUT)
    lo = min(-_TAIL_CUT, hi - _TAIL_CUT)
    coarse, fine = (_whitened(k, r, lo, hi, order, width) for order, width in _LEVELS)
    _enforce(abs(fine - coarse), fine, cfg, "2-D quadrature")
    return fine


def _whitened(k: float, r: float, lo: float, hi: float, order: int, width: float) -> float:
    # The whitened double integral over x in [lo, hi], panels at most `width`
    # wide with `order` nodes each.
    s = math.sqrt((1.0 - r) * (1.0 + r))
    x0 = min(max(k / r, lo), hi) if r else hi
    n_even = math.ceil(2.0 * _TAIL_CUT / width)
    # Outer edges: offsets s, 2s, 4s, ... from x0 while narrower than
    # `width`, then steps of `width` beyond any point of [lo, hi].
    graded = s * 2.0 ** np.arange(math.ceil(math.log2(width / s)))
    d = np.cumsum(np.concatenate(([0.0], graded, np.full(n_even, width))))
    x, wx = _panels(np.unique(np.clip(np.concatenate((x0 - d, x0 + d)), lo, hi)), order)
    # Inner: [-9, b(x)] in n_even equal panels per outer node, one exp for all.
    span = np.clip((k - r * x) / s, -_TAIL_CUT, _TAIL_CUT) + _TAIL_CUT
    u, wu = _panels(np.linspace(0.0, 1.0, n_even + 1), order)
    z = np.multiply.outer(span, u)
    z -= _TAIL_CUT
    np.square(z, out=z)
    z *= -0.5
    np.exp(z, out=z)
    inner = span * (z @ wu)
    return float(np.dot(wx * np.exp(-0.5 * x * x), inner)) / _TWO_PI


def _panels(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    # Gauss-Legendre of `order` on each panel between consecutive edges.
    t, w = gauss_legendre(order)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (mid + half * t).ravel(), (half * w).ravel()


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
