"""Univariate kernel tests.

Expected values were frozen from independent oracles: mpmath evaluations of
the closed forms at 35 digits, a root solve of the CDF for the quantile, and
the explicit alternating sum for the Hermite polynomials.
"""

import csv
import math
import os
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bivnorm import (
    DomainError,
    h_function,
    hermite_he,
    mills_ratio,
    norm_cdf,
    norm_pdf,
    norm_quantile,
)
from bivnorm.gauss import _validate_unit

INV_SQRT_2PI = 0.3989422804014327  # 1/sqrt(2 pi)
PDF_AT_1 = 0.24197072451914337    # phi(1), mpmath
CDF_AT_1 = 0.8413447460685429     # Phi(1), mpmath
Q_AT_0_25 = -0.6744897501960817   # root solve of Phi(x) = 1/4 to 1e-15
MILLS_AT_0 = 1.2533141373155003   # sqrt(pi/2)

# 40-digit mpmath values of the quantile and Mills' ratio, written by
# data/make_gauss_grid.py.
GRID_CSV = os.path.join(os.path.dirname(__file__), "data", "gauss_mpmath_grid.csv")


def hermite_explicit(k: int, x: float) -> float:
    # Explicit alternating sum, the oracle for the recurrence.
    total = 0.0
    for i in range(k // 2 + 1):
        total += (
            math.factorial(k)
            / (math.factorial(i) * math.factorial(k - 2 * i))
            * (-0.5) ** i
            * x ** (k - 2 * i)
        )
    return total


class TestPdf:
    def test_at_zero(self):
        assert norm_pdf(0.0) == pytest.approx(INV_SQRT_2PI, abs=1e-16)

    def test_at_one(self):
        assert norm_pdf(1.0) == pytest.approx(PDF_AT_1, abs=5e-17)

    def test_even_symmetry(self):
        x = np.linspace(-8.0, 8.0, 101)
        np.testing.assert_array_equal(norm_pdf(x), norm_pdf(-x))

    def test_positive(self):
        assert np.all(norm_pdf(np.linspace(-30, 30, 301)) >= 0.0)
        assert norm_pdf(0.0) > 0.0

    def test_relative_accuracy_against_mpmath(self):
        # exp(-x * x / 2) turns the rounding of x * x into a relative error
        # of ~x^2/2 ulp (5.7e-14 near x = -37); the split form stays within
        # a few ulp (4.4e-16 measured)
        x = np.linspace(-37.0, 37.0, 2001)
        with mp.workdps(40):
            ref = np.array([float(mp.npdf(mp.mpf(float(t)))) for t in x])
        assert np.max(np.abs(norm_pdf(x) - ref) / ref) <= 2e-15

    def test_underflow_is_exact_and_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = norm_pdf(np.array([-np.inf, -1e300, -40.0, 40.0, 1e300, np.inf]))
        np.testing.assert_array_equal(out, 0.0)
        assert np.isnan(norm_pdf(np.nan))

    def test_matches_cdf_derivative(self):
        # central finite difference of the CDF
        x = np.linspace(-8.0, 8.0, 81)
        eps = 1e-6
        deriv = (norm_cdf(x + eps) - norm_cdf(x - eps)) / (2 * eps)
        assert np.max(np.abs(deriv - norm_pdf(x))) < 1e-8


class TestCdf:
    def test_center_and_limits(self):
        assert norm_cdf(0.0) == 0.5
        assert norm_cdf(np.inf) == 1.0
        assert norm_cdf(-np.inf) == 0.0

    def test_at_one(self):
        assert norm_cdf(1.0) == pytest.approx(CDF_AT_1, abs=1e-15)

    def test_monotone(self):
        x = np.linspace(-12.0, 12.0, 1001)
        assert np.all(np.diff(norm_cdf(x)) >= 0.0)

    def test_deep_tail_relative_accuracy(self):
        # Phi(-10) = 7.619853024160526e-24 (mpmath)
        assert norm_cdf(-10.0) == pytest.approx(7.619853024160526e-24, rel=1e-13)


class TestQuantile:
    def test_median(self):
        assert norm_quantile(0.5) == 0.0

    def test_frozen_values(self):
        assert norm_quantile(0.25) == pytest.approx(Q_AT_0_25, abs=1e-15)
        assert norm_quantile(CDF_AT_1) == pytest.approx(1.0, abs=1e-14)

    def test_boundaries_map_to_infinity(self):
        assert norm_quantile(0.0) == -np.inf
        assert norm_quantile(1.0) == np.inf

    def test_domain_error(self):
        with pytest.raises(DomainError):
            norm_quantile(-0.01)
        with pytest.raises(DomainError):
            norm_quantile(1.01)
        with pytest.raises(DomainError):
            norm_quantile(np.nan)

    def test_roundtrip_grid(self):
        p = np.linspace(1e-6, 1 - 1e-6, 2001)
        err = np.abs(norm_cdf(norm_quantile(p)) - p)
        assert np.max(err) < 1e-13

    def test_roundtrip_central_relative(self):
        p = np.linspace(0.01, 0.99, 197)
        err = np.abs(norm_cdf(norm_quantile(p)) - p) / p
        assert np.max(err) < 1e-14

    def test_odd_symmetry_at_exact_dyadics(self):
        # p = k/64 is exact in binary, so 1 - p carries no rounding.
        p = np.arange(1, 64) / 64.0
        q = norm_quantile(p)
        q_mirror = norm_quantile(1.0 - p)
        assert np.max(np.abs(q + q_mirror)) < 1e-13

    @given(st.floats(min_value=1e-8, max_value=1 - 1e-8))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, p):
        assert abs(norm_cdf(norm_quantile(p)) - p) <= 1e-13


# The unit check's edges: (value, accepted on [0, 1], accepted on (0, 1)).
UNIT_EDGES = [
    (0.0, True, False),
    (1.0, True, False),
    (-0.0, True, False),
    (0.5, True, True),
    (np.nextafter(1.0, 2.0), False, False),
    (np.nextafter(0.0, -1.0), False, False),
    (np.nan, False, False),
    (np.array(0.25), True, True),
    (np.array(1.0), True, False),
    (np.float32(0.75), True, True),
    (np.float32(0.0), True, False),
]


class TestUnitCheck:
    @pytest.mark.parametrize("value,closed,interior", UNIT_EDGES)
    def test_scalar_and_array_agree(self, value, closed, interior):
        for inside, accepted in ((False, closed), (True, interior)):
            span = "(0, 1)" if inside else "[0, 1]"
            for x in (value, np.array([value])):
                if accepted:
                    arr, scalar = _validate_unit(x, "u", interior=inside)
                    assert scalar == (np.ndim(x) == 0)
                    assert np.array_equal(arr, np.asarray(x, dtype=float))
                else:
                    with pytest.raises(DomainError) as info:
                        _validate_unit(x, "u", interior=inside)
                    assert str(info.value) == f"u must lie in {span}, got {x!r}"


class TestMillsRatio:
    def test_at_zero(self):
        assert mills_ratio(0.0) == pytest.approx(MILLS_AT_0, abs=1e-15)

    def test_positive(self):
        x = np.linspace(-10.0, 60.0, 400)
        assert np.all(mills_ratio(x) > 0.0)

    def test_against_reflected_cdf(self):
        # the erfcx form agrees with the direct formula where both are accurate
        for x in [-5.0, -1.0, 0.5, 3.0, 5.9]:
            direct = norm_cdf(-x) / norm_pdf(x)
            assert mills_ratio(x) == pytest.approx(direct, rel=1e-14)

    def test_branches_agree_at_switch(self):
        # erfcx form at x = 6 vs the direct formula
        direct = norm_cdf(-6.0) / norm_pdf(6.0)
        assert mills_ratio(6.0) == pytest.approx(direct, rel=1e-13)

    def test_underflowed_density_is_silent(self):
        # phi(-40) underflows to 0: R = +inf and h = -inf, without a warning;
        # h(+inf) is its limit 1, not inf * R(inf) = inf * 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mills_ratio(-40.0) == np.inf
            # 1/phi overflows here before phi itself underflows
            assert mills_ratio(-38.0) == np.inf
            assert mills_ratio(-38.5) == np.inf
            assert h_function(-40.0) == -np.inf
            assert h_function(np.inf) == 1.0
            assert mills_ratio(np.array([-40.0, 0.0]))[0] == np.inf

    def test_h_at_zero(self):
        assert h_function(0.0) == 0.0

    def test_h_limit_one(self):
        assert abs(h_function(40.0) - 1.0) < 1e-3

    def test_h_strictly_increasing(self):
        x = np.linspace(0.0, 30.0, 500)
        assert np.all(np.diff(h_function(x)) > 0.0)


def _grid(function: str) -> tuple[np.ndarray, np.ndarray]:
    with open(GRID_CSV, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["function"] == function]
    x = np.array([float(r["x"]) for r in rows])
    return x, np.array([float(r["value"]) for r in rows])


class TestMpmathGrid:
    def test_quantile_within_4_ulp(self):
        # p uniform, log-uniform down to 1e-300, and near 1 up to 1 - 2**-53
        p, ref = _grid("quantile")
        assert len(p) == 1500
        ulp = np.abs(norm_quantile(p) - ref) / np.spacing(np.abs(ref))
        assert np.max(ulp) <= 4.0

    def test_mills_relative_accuracy(self):
        x, ref = _grid("mills")
        assert len(x) == 612 and x.min() == -37.0 and x.max() == 1e4
        rel = np.abs(mills_ratio(x) - ref) / ref
        assert np.max(rel[x >= 0.0]) <= 2e-15
        # the direct formula below 0, over the split-form density: 4.3e-16
        # measured (5.6e-14 near x = -34 with exp(-x * x / 2))
        assert np.max(rel[x < 0.0]) <= 2e-15


class TestHermite:
    def test_degree_zero(self):
        assert hermite_he(0, 3.7) == 1.0

    def test_degree_two(self):
        assert hermite_he(2, 3.0) == 8.0

    def test_he5_frozen(self):
        assert hermite_he(5, 1.5) == pytest.approx(-3.65625, abs=1e-12)
        assert hermite_explicit(5, 1.5) == -3.65625

    @pytest.mark.parametrize("k", range(0, 21))
    def test_recurrence_matches_explicit_sum(self, k):
        x = np.linspace(-4.0, 4.0, 17)
        expected = np.array([hermite_explicit(k, xi) for xi in x])
        got = hermite_he(k, x)
        scale = np.maximum(np.abs(expected), 1.0)
        assert np.max(np.abs(got - expected) / scale) < 1e-9

    def test_negative_degree_rejected(self):
        with pytest.raises(DomainError):
            hermite_he(-1, 0.0)
