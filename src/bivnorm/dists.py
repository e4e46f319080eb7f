"""Distributions expressed through the bivariate normal copula.

The skew-normal CDF is a single bivariate normal rectangle probability (or,
equivalently, a diagonal section of the copula); the Vasicek distribution is
the probit-normal mixing law of one-factor threshold models, whose second
moment is a diagonal copula value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DomainError
from .engines import Phi2Method, phi2_cdf
from .copula import copula_cdf, diag_cdf
from .gauss import norm_pdf, _as_float_array, _maybe_scalar, _scalar, _validate_unit
from .quadrature import DEFAULT_CONFIG, QuadratureConfig

__all__ = ["SkewNormal", "Vasicek"]


@dataclass(frozen=True)
class SkewNormal:
    """Skew-normal law with density 2 phi(x) Phi(lam * x)."""

    lam: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.lam):
            raise DomainError(f"skewness parameter must be finite, got {self.lam!r}")

    def pdf(self, x):
        """Density 2 phi(x) Phi(lam x); vectorized."""
        arr, scalar = _as_float_array(x)
        return _maybe_scalar(2.0 * norm_pdf(arr) * ndtr(self.lam * arr), scalar)

    def cdf(
        self,
        x: float,
        method: Phi2Method = Phi2Method.AUTO,
        cfg: QuadratureConfig = DEFAULT_CONFIG,
    ) -> float:
        """P(X <= x) = 2 Phi2(x, 0; -lam / sqrt(1 + lam^2))."""
        rho = -self.lam / np.hypot(1.0, self.lam)
        return min(2.0 * phi2_cdf(_scalar(x, "x"), 0.0, rho, method, cfg), 1.0)

    def cdf_diagonal(self, x: float) -> float:
        """Same CDF through the diagonal copula section at
        rho = (1 - lam^2) / (1 + lam^2), split by the sign of lam."""
        rho = (1.0 - self.lam**2) / (1.0 + self.lam**2)
        if self.lam >= 0.0:
            return diag_cdf(ndtr(float(x)), rho)
        return 1.0 - diag_cdf(ndtr(-float(x)), rho)


@dataclass(frozen=True)
class Vasicek:
    """Vasicek law on (0, 1): P = Phi((PhiInv(p) + sqrt(rho) Y) / sqrt(1-rho))
    for standard normal Y, so that PhiInv(P) is normal with mean
    PhiInv(p)/sqrt(1-rho) and variance rho/(1-rho)."""

    p: float
    rho: float

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise DomainError(f"p must lie in (0, 1), got {self.p!r}")
        if not 0.0 < self.rho < 1.0:
            raise DomainError(f"rho must lie in (0, 1), got {self.rho!r}")

    # -- probit-scale parameters ------------------------------------------

    @property
    def probit_mean(self) -> float:
        return ndtri(self.p) / np.sqrt(1.0 - self.rho)

    @property
    def probit_variance(self) -> float:
        return self.rho / (1.0 - self.rho)

    # -- distribution functions -------------------------------------------

    def cdf(self, q) -> float:
        """P(P <= q) = Phi((sqrt(1-rho) PhiInv(q) - PhiInv(p)) / sqrt(rho))."""
        arr, scalar = _validate_unit(q, "q")
        out = ndtr(
            (np.sqrt(1.0 - self.rho) * ndtri(arr) - ndtri(self.p))
            / np.sqrt(self.rho)
        )
        return _maybe_scalar(out, scalar)

    def quantile(self, alpha) -> float:
        """q_alpha = Phi((sqrt(rho) PhiInv(alpha) + PhiInv(p)) / sqrt(1-rho))."""
        arr, scalar = _validate_unit(alpha, "alpha")
        out = ndtr(
            (np.sqrt(self.rho) * ndtri(arr) + ndtri(self.p))
            / np.sqrt(1.0 - self.rho)
        )
        return _maybe_scalar(out, scalar)

    def median(self) -> float:
        """Phi(PhiInv(p) / sqrt(1-rho)) = Phi(probit mean)."""
        return float(ndtr(self.probit_mean))

    def pdf(self, q) -> float:
        """Density sqrt((1-rho)/rho) phi((sqrt(1-rho) PhiInv(q) - PhiInv(p))
        / sqrt(rho)) / phi(PhiInv(q)) for interior q."""
        arr, scalar = _validate_unit(q, "q", interior=True)
        x = ndtri(arr)
        z = (np.sqrt(1.0 - self.rho) * x - ndtri(self.p)) / np.sqrt(self.rho)
        out = np.sqrt((1.0 - self.rho) / self.rho) * norm_pdf(z) / norm_pdf(x)
        return _maybe_scalar(out, scalar)

    # -- shape --------------------------------------------------------------

    def shape(self) -> str:
        """"unimodal" (rho < 1/2), "monotone" (rho = 1/2), "u_shaped" (else)."""
        if self.rho < 0.5:
            return "unimodal"
        if self.rho == 0.5:
            return "monotone"
        return "u_shaped"

    def mode(self) -> float:
        """Phi(sqrt(1-rho)/(1-2 rho) PhiInv(p)); only for rho < 1/2."""
        if self.rho >= 0.5:
            raise DomainError(f"no interior mode for rho >= 1/2 (shape: {self.shape()})")
        return float(
            ndtr(np.sqrt(1.0 - self.rho) / (1.0 - 2.0 * self.rho) * ndtri(self.p))
        )

    # -- moments -------------------------------------------------------------

    def mean(self) -> float:
        return self.p

    def second_moment(self) -> float:
        """E(P^2) = C(p, p; rho)."""
        return diag_cdf(self.p, self.rho)

    def variance(self) -> float:
        return self.second_moment() - self.p * self.p

    def pair_product_moment(self, other: "Vasicek", gamma: float) -> float:
        """E(P Pt) = C(p, pt; gamma sqrt(rho rhot)) where gamma is the
        correlation of the probit-scale normals."""
        if not -1.0 <= gamma <= 1.0:
            raise DomainError(f"gamma must lie in [-1, 1], got {gamma!r}")
        return copula_cdf(self.p, other.p, gamma * np.sqrt(self.rho * other.rho))

    def pair_cov(self, other: "Vasicek", gamma: float) -> float:
        """cov(P, Pt) = C(p, pt; gamma sqrt(rho rhot)) - p pt."""
        return self.pair_product_moment(other, gamma) - self.p * other.p
