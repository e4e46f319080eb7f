"""Concordance measure tests: closed forms, defining-integral cross-checks,
inversions, and the moment integrals along the diagonal and half-line."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bivnorm import (
    ConvergenceError,
    DomainError,
    Measure,
    QuadratureConfig,
    diag_integral,
    diag_integral_closed,
    diag_integral_closed_alt,
    gini_forms,
    halfline_integral,
    halfline_integral_closed,
    measure_closed_form,
    measure_invert,
    measure_numeric,
)

SPEARMAN_05 = 0.4825837395309975  # (6/pi) asin(1/4), mpmath 35 digits

ALL = list(Measure)


class TestClosedForms:
    def test_kendall_at_half(self):
        assert measure_closed_form(Measure.KENDALL_TAU, 0.5).value == pytest.approx(
            1 / 3, abs=1e-15
        )

    def test_gamma_tilde_comonotone(self):
        assert measure_closed_form(Measure.GAMMA_TILDE, 1.0).value == pytest.approx(
            1.0, abs=1e-15
        )

    def test_spearman_frozen(self):
        assert measure_closed_form(Measure.SPEARMAN_RHO, 0.5).value == pytest.approx(
            SPEARMAN_05, abs=1e-15
        )

    def test_tau_equals_beta(self):
        for rho in np.linspace(-1, 1, 21):
            t = measure_closed_form(Measure.KENDALL_TAU, rho).value
            b = measure_closed_form(Measure.BLOMQVIST_BETA, rho).value
            assert t == b

    @pytest.mark.parametrize("measure", ALL)
    def test_odd_fixed_points_monotone(self, measure):
        assert measure_closed_form(measure, 0.0).value == 0.0
        assert measure_closed_form(measure, 1.0).value == pytest.approx(1.0, abs=1e-15)
        assert measure_closed_form(measure, -1.0).value == pytest.approx(-1.0, abs=1e-15)
        rhos = np.linspace(-1, 1, 41)
        vals = [measure_closed_form(measure, r).value for r in rhos]
        assert np.all(np.diff(vals) > 0)
        for r in rhos:
            assert measure_closed_form(measure, r).value == pytest.approx(
                -measure_closed_form(measure, -r).value, abs=1e-15
            )

    def test_value_sign_matches_rho(self):
        for measure in ALL:
            for rho in (-0.7, -0.1, 0.1, 0.7):
                mv = measure_closed_form(measure, rho)
                assert np.sign(mv.value) == np.sign(mv.rho_source)

    def test_gini_three_forms_agree(self):
        for rho in np.linspace(-1, 1, 81):
            f1, f2, f3 = gini_forms(rho)
            assert abs(f1 - f2) <= 1e-13
            assert abs(f1 - f3) <= 1e-13
            assert abs(f2 - f3) <= 1e-13

    def test_spearman_between_tau_and_rho(self):
        # scan-confirmed ordering on (0, 1); see the closed forms
        rho = np.linspace(1e-4, 1 - 1e-6, 5000)
        tau = (2 / np.pi) * np.arcsin(rho)
        rs = (6 / np.pi) * np.arcsin(rho / 2)
        assert np.all(rs >= tau - 1e-13)
        assert np.all(rs <= rho + 1e-13)


class TestNumericCrossChecks:
    @pytest.mark.parametrize("measure", ALL)
    @pytest.mark.parametrize("rho", [-0.5, 0.2, 0.8])
    def test_matches_closed_form(self, measure, rho):
        closed = measure_closed_form(measure, rho).value
        numeric = measure_numeric(measure, rho).value
        assert numeric == pytest.approx(closed, abs=1e-6)

    @pytest.mark.parametrize("measure", [Measure.GINI_GAMMA, Measure.GAMMA_TILDE])
    def test_moment_integral_measures_to_1e12(self, measure):
        for rho in np.linspace(-0.99, 0.99, 45):
            closed = measure_closed_form(measure, rho).value
            assert abs(measure_numeric(measure, rho).value - closed) <= 1e-12

    def test_unreachable_tolerance_raises(self):
        tight = QuadratureConfig(abs_tol=1e-30, rel_tol=1e-30)
        with pytest.raises(ConvergenceError):
            measure_numeric("gini_gamma", 0.5, tight)

    def test_kendall_at_zero(self):
        assert abs(measure_numeric(Measure.KENDALL_TAU, 0.0).value) < 1e-8

    def test_range_guard(self):
        with pytest.raises(DomainError):
            measure_numeric(Measure.KENDALL_TAU, 0.999)


class TestInversion:
    def test_kendall_example(self):
        assert measure_invert(Measure.KENDALL_TAU, 1 / 3) == pytest.approx(0.5, abs=1e-15)

    def test_gini_endpoint(self):
        assert measure_invert(Measure.GINI_GAMMA, 1.0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("measure", ALL)
    def test_roundtrip(self, measure):
        for rho in np.linspace(-0.99, 0.99, 23):
            value = measure_closed_form(measure, rho).value
            back = measure_invert(measure, value)
            assert back == pytest.approx(rho, abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            measure_invert(Measure.GINI_GAMMA, 1.2)

    @given(st.floats(min_value=-0.999, max_value=0.999))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, rho):
        for measure in (Measure.GINI_GAMMA, Measure.GAMMA_TILDE):
            value = measure_closed_form(measure, rho).value
            assert abs(measure_invert(measure, value) - rho) <= 1e-10


class TestMomentIntegrals:
    def test_diag_at_zero(self):
        assert diag_integral(0.0) == pytest.approx(1 / 3, abs=1e-10)
        assert diag_integral_closed(0.0) == pytest.approx(1 / 3, abs=1e-15)

    def test_diag_at_one(self):
        assert diag_integral_closed(1.0) == pytest.approx(0.5, abs=1e-15)
        assert diag_integral(1.0) == pytest.approx(0.5, abs=1e-10)

    def test_halfline_at_zero(self):
        assert halfline_integral(0.0) == pytest.approx(0.25, abs=1e-10)
        assert halfline_integral_closed(0.0) == 0.25

    @pytest.mark.parametrize("rho", [-0.9, -0.4, 0.3, 0.6, 0.95])
    def test_quadrature_matches_closed_forms(self, rho):
        assert diag_integral(rho) == pytest.approx(diag_integral_closed(rho), abs=1e-8)
        assert halfline_integral(rho) == pytest.approx(
            halfline_integral_closed(rho), abs=1e-8
        )

    def test_fixed_rule_on_dense_grid(self):
        # Steps of 0.005 in rho, plus rho = +-(1 - 1e-8), where the sections
        # nearly have their kink at u = 1/2.
        rhos = np.concatenate((np.linspace(-1.0, 1.0, 401), [-1.0 + 1e-8, 1.0 - 1e-8]))
        for rho in rhos:
            assert abs(diag_integral(rho) - diag_integral_closed(rho)) <= 1e-12
            assert abs(halfline_integral(rho) - halfline_integral_closed(rho)) <= 1e-12

    def test_alternative_diag_identity(self):
        for rho in np.linspace(-1, 1, 41):
            assert diag_integral_closed(rho) == pytest.approx(
                diag_integral_closed_alt(rho), abs=1e-13
            )
