"""Bounds and approximations on the diagonal.

On the wedge 0 <= u <= 1/2, 0 <= rho <= 1 the diagonal section C(u, u; rho)
is sandwiched by simple expressions in u, rho and the slope function g.
The scans below recover each bound's worst-case error and its location,
matching the known constants (1/4; 0.05263 at rho=0.7712; ~0.0155 at
rho=0.5961) to the digits shown.
"""

import numpy as np

from bivnorm import (
    DiagApproxKind,
    DiagBoundKind,
    bound_error_scan,
    diag_approx,
    diag_bound,
    diag_cdf,
    upper_thm3_stationary_rho,
)

# -- a pointwise look at the sandwich ---------------------------------------
u, rho = 0.3, 0.6
c = diag_cdf(u, rho)
print(f"C({u}, {u}; {rho}) = {c:.12f}")
print(f"{'bound':12s} {'value':>14s} {'gap to C':>12s}")
for kind in DiagBoundKind:
    b = diag_bound(kind, u, rho)
    print(f"{kind.value:12s} {b:14.12f} {b - c:+12.2e}")

print()
print(f"{'approximation':14s} {'value':>14s} {'error':>12s}")
for kind in DiagApproxKind:
    a = diag_approx(kind, u, rho)
    print(f"{kind.value:14s} {a:14.12f} {abs(a - c):12.2e}")

# -- worst-case scans --------------------------------------------------------
print("\nworst-case error scans (200 x 200 grid + zoom refinement):")
for kind in DiagBoundKind:
    rep = bound_error_scan(kind)
    print(f"  {kind.value:12s} max |err| = {rep.max_abs_error:.6f} "
          f"at u = {rep.u_at_max:.4f}, rho = {rep.rho_at_max:.4f}")

# The half-argument bound's worst correlation also comes out of a root find
# on its stationarity condition; scan and root agree to ~1e-8.
print(f"\nstationary rho of the half-argument bound: "
      f"{upper_thm3_stationary_rho():.10f}")

# -- approximation quality ----------------------------------------------------
print("\napproximation scans:")
for kind in DiagApproxKind:
    rep = bound_error_scan(kind)
    note = ""
    if kind is DiagApproxKind.MEYER_TIGHT:
        # conjectured upper bound: report the most negative signed gap,
        # never assert it
        note = f"  (min signed error {rep.min_signed_error:+.2e}, conjectured >= 0)"
    print(f"  {kind.value:14s} max |err| = {rep.max_abs_error:.6f}{note}")

# The refined approximation averages the conjectured-tight family and the
# optimal lower bound; their errors nearly cancel, leaving < 6e-4 everywhere.
rep = bound_error_scan(DiagApproxKind.MEYER_REFINED)
print(f"\nrefined approximation worst error: {rep.max_abs_error:.6f} (< 0.0006)")
