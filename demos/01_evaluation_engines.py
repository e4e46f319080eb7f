"""Evaluating the bivariate normal CDF five independent ways.

Every engine reaches the same surface from a different direction: a
T-function split, two correlation-path integrals started from opposite ends,
a Hermite power series, and Gauss-Hermite quadrature of the one-factor
representation. Watching them agree to 12+ digits (and against a slow 2-D
quadrature of the density) is the whole point of having them all.
"""

import numpy as np

from bivnorm import Phi2Method, QuadratureConfig, phi2_cdf, quad2d_phi2

M = Phi2Method

# A point in the body of the distribution and the engine lineup.
h, k, rho = 0.3, -0.4, 0.6
engines = [
    M.OWEN,
    M.PLACKETT_FROM_INDEPENDENCE,
    M.PLACKETT_FROM_MAX,
    M.TETRACHORIC,
    M.SINGLE_FACTOR_QUADRATURE,
]

truth = quad2d_phi2(h, k, rho)
print(f"Phi2({h}, {k}; {rho})  [2-D quadrature oracle] = {truth:.15f}\n")
print(f"{'engine':32s} {'value':>18s} {'error vs oracle':>16s}")
for engine in engines:
    val = phi2_cdf(h, k, rho, engine)
    print(f"{engine.value:32s} {val:18.15f} {abs(val - truth):16.2e}")

# The midpoint has a closed form: 1/4 + asin(rho)/(2 pi). At rho = 1/2 it
# is exactly 1/3, a pleasant smoke test.
print()
for rho in (0.5, -0.5, 0.9):
    val = phi2_cdf(0.0, 0.0, rho)
    closed = 0.25 + np.arcsin(rho) / (2 * np.pi)
    print(f"Phi2(0, 0; {rho:+.1f}) = {val:.15f}   closed form {closed:.15f}")

# High correlation is where the engine split matters: the correlation-path
# integral from independence must cross most of [0, rho], while the one from
# the comonotone end only covers the short remainder (with the endpoint
# singularity absorbed by a substitution).
print()
rho = 0.97
for engine in (M.PLACKETT_FROM_INDEPENDENCE, M.PLACKETT_FROM_MAX, M.OWEN):
    val = phi2_cdf(-1.0, 0.5, rho, engine)
    print(f"rho={rho}: {engine.value:32s} {val:.15f}")

# The series engine knows its limits: it refuses |rho| > 0.6 rather than
# returning a half-converged number.
from bivnorm import EngineRejected

try:
    phi2_cdf(0.0, 0.0, 0.9, M.TETRACHORIC)
except EngineRejected as exc:
    print(f"\ntetrachoric at rho=0.9 -> rejected: {exc}")

# Tolerances are explicit. An impossible budget raises instead of lying.
from bivnorm import ConvergenceError

try:
    phi2_cdf(0.3, -0.4, 0.6, M.PLACKETT_FROM_INDEPENDENCE,
             QuadratureConfig(abs_tol=1e-30, rel_tol=1e-30))
except ConvergenceError as exc:
    print(f"starved quadrature -> {exc}")
