"""Write phi2_mpmath_grid.csv: Phi2(h, k; rho) at 40 digits with mpmath.

Run from the root of a checkout (takes about a minute):

    python3 tests/data/make_phi2_grid.py

The points are drawn with a fixed seed: |h|, |k| <= 8, one third each in
the arcsine branch of the auto kernel (|rho| < 0.925), its high-correlation
branch with rho > 0, and that branch with rho < 0, where 1 - |rho| runs
log-uniformly down to 1e-6. A fifth of the points put k within 1e-5 of h,
where the expansion about rho = +-1 is most delicate. Each value is the
integral of phi(x) Phi((k - rho x)/sqrt(1 - rho^2)) over x <= h, computed
twice (with and without extra breakpoints around the step of the inner CDF)
and kept only when the two agree to 1e-30.
"""

from __future__ import annotations

import csv
import os

import mpmath as mp
import numpy as np

mp.mp.dps = 40

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "phi2_mpmath_grid.csv")
N_PER_BRANCH = 110


def mp_phi2(h: float, k: float, rho: float, extra: bool) -> mp.mpf:
    h, k, rho = mp.mpf(h), mp.mpf(k), mp.mpf(rho)
    s = mp.sqrt(1 - rho * rho)

    def f(x):
        return mp.npdf(x) * mp.ncdf((k - rho * x) / s)

    step = k / rho
    width = s / abs(rho)
    cuts = [step + m * width for m in (-16, -4, -1, 0, 1, 4, 16)] if extra else [step]
    pts = [mp.ninf] + sorted(c for c in cuts if c < h) + [h]
    return mp.quad(f, pts)


def points(rng: np.random.Generator):
    for branch in range(3):
        for i in range(N_PER_BRANCH):
            if i % 2:
                h, k = rng.uniform(-8.0, 8.0, 2)
            else:
                h, k = np.clip(rng.normal(0.0, 2.0, 2), -8.0, 8.0)
            if i % 5 == 0:
                k = h + rng.uniform(-1e-5, 1e-5)
            if branch == 0:
                rho = rng.uniform(-0.925, 0.925)
            else:
                rho = 1.0 - 10.0 ** rng.uniform(-6.0, np.log10(0.075))
                rho = rho if branch == 1 else -rho
            yield float(h), float(k), float(rho)


def main() -> None:
    rng = np.random.default_rng(20040101)
    rows = []
    for h, k, rho in points(rng):
        a = mp_phi2(h, k, rho, extra=False)
        b = mp_phi2(h, k, rho, extra=True)
        if abs(a - b) > mp.mpf("1e-30"):
            raise SystemExit(f"mpmath disagrees with itself at {(h, k, rho)}: {a} vs {b}")
        rows.append((repr(h), repr(k), repr(rho), mp.nstr(b, 25)))
    with open(OUT, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("h", "k", "rho", "phi2"))
        writer.writerows(rows)


if __name__ == "__main__":
    main()
