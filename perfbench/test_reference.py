"""The benchmark's correctness reference, held against mpmath at 40 digits.

Run with ``python -m pytest perfbench/test_reference.py``. The points
include |rho| close to 1 and arguments deep in the lower tail, where the
T-split is most exposed to cancellation.
"""

from __future__ import annotations

import os
import sys

import mpmath as mp
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402

mp.mp.dps = 40


def mp_phi2(h: float, k: float, rho: float) -> mp.mpf:
    """Phi2 = int_{-inf}^{h} phi(x) Phi((k - rho x) / sqrt(1 - rho^2)) dx.

    The inner CDF steps from 0 to 1 near x = k / rho when |rho| -> 1, so
    the integral is split there.
    """
    h, k, rho = mp.mpf(h), mp.mpf(k), mp.mpf(rho)
    s = mp.sqrt(1 - rho * rho)

    def f(x):
        return mp.npdf(x) * mp.ncdf((k - rho * x) / s)

    pts = [mp.ninf]
    step = k / rho
    if step < h:
        pts.append(step)
    pts.append(h)
    return mp.quad(f, pts)


POINTS = [
    (0.0, 0.0, 0.5),
    (0.3, -0.4, 0.6),
    (-1.5, 2.0, -0.7),
    (1.2, 1.2, 0.999999),
    (-2.0, 1.0, -0.999999),
    (-5.612, -5.2, 0.9999),  # u ~ 1e-8
    (-6.0, -7.0, -0.3),
    (5.0, -9.0, 0.99),
    (-3.0, -3.0, 0.999),
    (-37.0, 0.5, 0.3),
    (2.5, -0.1, 0.95),
    # h and k 2.7e-6 apart with rho > 0.8: auto's from-max engine is off
    # by 3.3e-7 here, so the reference must hold at this point.
    (-0.9994036109355074, -0.9994063187420841, 0.8254279688397536),
]


@pytest.mark.parametrize("h,k,rho", POINTS)
def test_phi2_matches_mpmath(h, k, rho):
    exact = mp_phi2(h, k, rho)
    got = float(ref.phi2(h, k, rho))
    assert abs(got - float(exact)) <= 1e-15


def test_boundary_cases_are_exact():
    inf = float("inf")
    assert ref.phi2(inf, 0.3, 0.5) == pytest.approx(float(mp.ncdf(0.3)), abs=1e-15)
    assert ref.phi2(-inf, 0.3, 0.5) == 0.0
    assert ref.phi2(0.3, -0.4, 1.0) == pytest.approx(float(mp.ncdf(-0.4)), abs=1e-15)
    assert ref.phi2(0.3, 0.4, -1.0) == pytest.approx(float(mp.ncdf(0.3) + mp.ncdf(0.4) - 1), abs=1e-15)
    assert ref.phi2(0.3, 0.4, 0.0) == pytest.approx(float(mp.ncdf(0.3) * mp.ncdf(0.4)), abs=1e-15)


@pytest.mark.parametrize("u,v,rho", [(1e-8, 3e-7, 0.5), (1e-8, 0.9, 0.999), (0.2, 1 - 1e-8, -0.95)])
def test_copula_matches_mpmath(u, v, rho):
    h = float(mp.sqrt(2) * mp.erfinv(2 * mp.mpf(u) - 1))
    k = float(mp.sqrt(2) * mp.erfinv(2 * mp.mpf(v) - 1))
    assert abs(float(ref.copula(u, v, rho)) - float(mp_phi2(h, k, rho))) <= 1e-15


def test_skew_normal_matches_mpmath():
    lam, x = 1.5, 0.7
    exact = 2 * mp.quad(lambda t: mp.npdf(t) * mp.ncdf(lam * t), [mp.ninf, 0, x])
    assert abs(float(ref.skew_normal_cdf(x, lam)) - float(exact)) <= 1e-15
