"""Write gauss_mpmath_grid.csv: the normal quantile and Mills' ratio at 40
digits with mpmath.

Run from the root of a checkout (takes a few seconds):

    python3 tests/data/make_gauss_grid.py

The points are drawn with a fixed seed. Quantile levels p are uniform on
(0, 1), log-uniform down to 1e-300, and 1 - q with q log-uniform down to
2**-53 (near 1). Each quantile is the root of Phi(x) = p for the double p,
found by Newton's method from scipy's value. Each Mills point x is uniform
on [-37, 0] or [0, 10], or log-uniform on [10, 1e4], plus a few fixed
points. Every value is computed at 40 and at 60 digits and kept only when
the two agree to 1e-30 relative.
"""

from __future__ import annotations

import csv
import os

import mpmath as mp
import numpy as np
from scipy import special

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "gauss_mpmath_grid.csv")
N_QUANTILE = 1500
N_MILLS = 600
FIXED_MILLS = (-37.0, -10.0, -1.0, 0.0, 1e-8, 0.5, 3.0, 6.0, 10.0, 1e2, 1e3, 1e4)


def mp_quantile(p: float) -> mp.mpf:
    # Above 1/2 solve Phi(-x) = 1 - p, which mpmath forms exactly, so the
    # root keeps its digits as p -> 1.
    sign, q = (-1, 1 - mp.mpf(p)) if p > 0.5 else (1, mp.mpf(p))
    x = mp.mpf(float(special.ndtri(float(q))))
    for _ in range(50):
        step = (mp.ncdf(x) - q) / mp.npdf(x)
        x -= step
        if abs(step) <= mp.mpf(10) ** (-mp.mp.dps) * max(abs(x), 1):
            return sign * x
    raise SystemExit(f"Newton did not converge at p = {p!r}")


def mp_mills(x: float) -> mp.mpf:
    x = mp.mpf(x)
    return mp.ncdf(-x) / mp.npdf(x)


def at_two_precisions(fn, x: float) -> mp.mpf:
    with mp.workdps(40):
        a = fn(x)
    with mp.workdps(60):
        b = fn(x)
    if abs(a - b) > mp.mpf("1e-30") * abs(b):
        raise SystemExit(f"{fn.__name__} disagrees with itself at {x!r}: {a} vs {b}")
    return b


def quantile_points(rng: np.random.Generator):
    for i in range(N_QUANTILE):
        if i % 3 == 0:
            yield float(rng.uniform(0.0, 1.0))
        elif i % 3 == 1:
            yield float(10.0 ** rng.uniform(-300.0, 0.0))
        else:
            yield float(1.0 - 10.0 ** rng.uniform(np.log10(2.0**-53), 0.0))


def mills_points(rng: np.random.Generator):
    yield from FIXED_MILLS
    for i in range(N_MILLS):
        if i % 3 == 0:
            yield float(rng.uniform(-37.0, 0.0))
        elif i % 3 == 1:
            yield float(rng.uniform(0.0, 10.0))
        else:
            yield float(10.0 ** rng.uniform(1.0, 4.0))


def main() -> None:
    rng = np.random.default_rng(19580101)
    rows = [("quantile", repr(p), mp.nstr(at_two_precisions(mp_quantile, p), 25))
            for p in quantile_points(rng)]
    rows += [("mills", repr(x), mp.nstr(at_two_precisions(mp_mills, x), 25))
             for x in mills_points(rng)]
    with open(OUT, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("function", "x", "value"))
        writer.writerows(rows)


if __name__ == "__main__":
    main()
