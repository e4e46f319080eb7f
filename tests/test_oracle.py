"""Oracle module tests: the 2-D quadrature reference and the factor-model
Monte Carlo."""

import tracemalloc

import numpy as np
import pytest

from bivnorm import (
    ConvergenceError,
    DomainError,
    FactorModel,
    McConfig,
    QuadratureConfig,
    copula_cdf,
    mc_conditional_probability,
    mc_factor_model,
    norm_cdf,
    phi2_cdf,
    phi2_density,
    quad1d,
    quad2d_phi2,
)

PHI2_12_M03_08 = 0.3813900467032083  # mpmath conditioning integral, 35 digits

# (h, k, rho, Phi2) on every (h, k) pair of {-8, -3, 0, 2.5, inf}^2, each
# rho in {+-0.3, +-0.8, +-0.99, 0.999} 3-4 times. Phi2 is a 40-digit mpmath
# quad of phi(x) Phi((k - rho x)/s) over x <= h, split at the step
# x = k/rho where it lies below h (Phi(h) where k = inf); extra splits at
# k/rho +- {1, 4, 16} s/|rho| moved no value by 1e-35.
MPMATH_PHI2 = [
    (-8.0, -8.0, 0.3, 1.750664974025027e-24),
    (-3.0, 0.0, 0.3, 0.0011450414881995054),
    (0.0, np.inf, 0.3, 0.5),
    (np.inf, -3.0, 0.3, 0.0013498980316300946),
    (-8.0, 2.5, -0.3, 3.275720164757969e-16),
    (0.0, -8.0, -0.3, 3.3283273996404338e-18),
    (2.5, 0.0, -0.3, 0.4949602409427098),
    (np.inf, np.inf, -0.3, 1.0),
    (-3.0, -3.0, 0.8, 0.0003720923962678164),
    (0.0, 2.5, 0.8, 0.49999901427853377),
    (np.inf, -8.0, 0.8, 6.220960574271784e-16),
    (-8.0, 0.0, -0.8, 1.6387780896490555e-42),
    (-3.0, np.inf, -0.8, 0.0013498980316300946),
    (2.5, -3.0, -0.8, 0.0005730699591840613),
    (np.inf, 2.5, -0.8, 0.9937903346742238),
    (-3.0, -8.0, 0.99, 6.220960574271784e-16),
    (0.0, 0.0, 0.99, 0.4774732931777939),
    (2.5, np.inf, 0.99, 0.9937903346742238),
    (-8.0, -3.0, -0.99, 0.0),
    (-3.0, 2.5, -0.99, 6.430432946408355e-08),
    (2.5, -8.0, -0.99, 0.0),
    (np.inf, 0.0, -0.99, 0.5),
    (-8.0, np.inf, 0.999, 6.220960574271784e-16),
    (0.0, -3.0, 0.999, 0.0013498980316300946),
    (2.5, 2.5, 0.999, 0.9934777448469434),
]


class TestQuad2d:
    def test_center(self):
        assert quad2d_phi2(0.0, 0.0, 0.5) == pytest.approx(1 / 3, abs=1e-12)

    def test_independence_factorizes(self):
        for h, k in [(0.4, -1.1), (2.0, 2.0)]:
            assert quad2d_phi2(h, k, 1e-15) == pytest.approx(
                norm_cdf(h) * norm_cdf(k), abs=1e-12
            )

    def test_frozen_value(self):
        assert quad2d_phi2(1.2, -0.3, 0.8) == pytest.approx(PHI2_12_M03_08, abs=1e-12)

    def test_self_consistency_under_refinement(self):
        loose = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-10)
        tight = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13)
        a = quad2d_phi2(0.7, -0.2, 0.6, loose)
        b = quad2d_phi2(0.7, -0.2, 0.6, tight)
        assert abs(a - b) < loose.abs_tol

    def test_infinite_lower_corner(self):
        assert quad2d_phi2(-np.inf, 0.5, 0.3) == 0.0

    def test_upper_truncation(self):
        assert quad2d_phi2(np.inf, 0.5, 0.3, QuadratureConfig(abs_tol=1e-10)) == (
            pytest.approx(norm_cdf(0.5), abs=1e-10)
        )

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(ConvergenceError) as info:
            quad2d_phi2(0.3, -0.4, 0.6, QuadratureConfig(abs_tol=1e-18, rel_tol=1e-18))
        assert info.value.estimate > 1e-18

    def test_boundary_rho_rejected(self):
        with pytest.raises(DomainError):
            quad2d_phi2(0.0, 0.0, 1.0)

    def test_against_mpmath(self):
        for h, k, rho, value in MPMATH_PHI2:
            assert abs(quad2d_phi2(h, k, rho) - value) <= 1e-13, (h, k, rho)

    @pytest.mark.parametrize("rho", [0.99999, -0.999999])
    def test_memory_bounded_as_rho_nears_one(self, rho):
        # Panels graded away from x = k/rho keep the node count at
        # O(log(1/s)); panels of width ~s everywhere would need tens of MB.
        tracemalloc.start()
        try:
            try:
                value = quad2d_phi2(0.3, -0.4, rho)
            except ConvergenceError:
                value = None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6
        if value is not None:
            assert abs(value - phi2_cdf(0.3, -0.4, rho)) <= 1e-14


class TestQuad1d:
    def test_linear(self):
        assert quad1d(lambda t: t, 0.0, 1.0) == pytest.approx(0.5, abs=1e-13)

    def test_center_derivative_integral(self):
        for rho in (0.3, 0.8, -0.6):
            val = quad1d(lambda r: phi2_density(0.0, 0.0, r), 0.0, rho)
            assert val == pytest.approx(np.arcsin(rho) / (2 * np.pi), abs=1e-12)

    def test_diagonal_moment_integral(self):
        from bivnorm import diag_cdf

        val = quad1d(lambda t: diag_cdf(t, 0.6), 0.0, 1.0)
        assert val == pytest.approx(0.25 + np.arcsin(0.8) / (2 * np.pi), abs=1e-10)

    def test_budget_exhaustion(self):
        cfg = QuadratureConfig(abs_tol=1e-30, rel_tol=1e-30)
        with pytest.raises(ConvergenceError):
            quad1d(lambda t: np.sqrt(abs(t - 0.3)), 0.0, 1.0, cfg)


class TestFactorModelMc:
    def test_model_validation(self):
        with pytest.raises(DomainError):
            FactorModel(0.0, 0.5, 0.5, 0.5, 0.5)
        with pytest.raises(DomainError):
            FactorModel(0.5, 0.5, 1.0, 0.5, 0.5)
        with pytest.raises(DomainError):
            FactorModel(0.5, 0.5, 0.5, 1.5, 0.5)

    def test_rho_product(self):
        assert FactorModel(0.9, 0.9, 0.617, 0.5, 0.5).rho == pytest.approx(0.49977, abs=1e-10)

    def test_independent_factors_give_product(self):
        model = FactorModel(0.6, 0.7, 0.0, 0.3, 0.6)
        est = mc_factor_model(model, McConfig(n_paths=400_000, seed=5))
        assert abs(est.estimate - 0.18) <= 3 * est.std_error

    def test_center_config_hits_closed_form(self):
        model = FactorModel(0.9, 0.9, 0.617, 0.5, 0.5)
        est = mc_factor_model(model, McConfig(n_paths=1_000_000, seed=42))
        truth = copula_cdf(0.5, 0.5, model.rho)
        assert abs(est.estimate - truth) <= 3 * est.std_error

    def test_conditional_probability_identity(self):
        model = FactorModel(0.8, 0.4, 0.3, 0.35, 0.5)
        est = mc_conditional_probability(model, McConfig(n_paths=400_000, seed=11))
        assert abs(est.estimate - 0.35) <= 4 * est.std_error

    def test_deterministic_per_seed(self):
        model = FactorModel(0.5, 0.6, 0.4, 0.3, 0.7)
        mc = McConfig(n_paths=100_000, seed=123)
        a = mc_factor_model(model, mc)
        b = mc_factor_model(model, mc)
        assert a == b

    def test_different_seeds_differ(self):
        model = FactorModel(0.5, 0.6, 0.4, 0.3, 0.7)
        a = mc_factor_model(model, McConfig(n_paths=100_000, seed=1))
        b = mc_factor_model(model, McConfig(n_paths=100_000, seed=2))
        assert a.estimate != b.estimate

    def test_standard_error_scale(self):
        model = FactorModel(0.5, 0.6, 0.4, 0.3, 0.7)
        est = mc_factor_model(model, McConfig(n_paths=250_000, seed=3))
        p = est.estimate
        assert est.std_error == pytest.approx(np.sqrt(p * (1 - p) / 250_000), rel=1e-12)
