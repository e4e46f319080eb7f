"""Engine tests: frozen oracle values, cross-engine agreement, validity
regions, boundary shortcuts, and the correlation-derivative consistency."""

import os

import numpy as np
import pytest

from bivnorm import (
    ConvergenceError,
    DomainError,
    EngineRejected,
    Phi2Method,
    QuadratureConfig,
    copula_cdf,
    norm_cdf,
    phi2_cdf,
    phi2_density,
    phi2_owen,
    quad1d,
    validate_rho,
)
from bivnorm.engines import AUTO_ERROR_FLOOR

M = Phi2Method

# mpmath conditioning-integral values at 35 digits
PHI2_DENS_1_M1_05 = 0.024871417406145683
PHI2_03_M04_06 = 0.2975267245175321
PHI2_M1_05_095 = 0.1586552285663037

# 330 mpmath values at 40 digits; tests/data/make_phi2_grid.py writes them
MPMATH_GRID = os.path.join(os.path.dirname(__file__), "data", "phi2_mpmath_grid.csv")

GRID_H = (-3.0, -1.5, -0.5, 0.0, 0.5, 1.5, 3.0)
GRID_RHO = (-0.95, -0.8, -0.6, -0.3, -0.05, 0.05, 0.3, 0.6, 0.8, 0.95)


class TestDensity:
    def test_origin_independence(self):
        assert phi2_density(0.0, 0.0, 0.0) == pytest.approx(1 / (2 * np.pi), abs=1e-16)

    def test_factorizes_at_rho_zero(self):
        from bivnorm import norm_pdf

        for x, y in [(0.3, -1.2), (2.0, 2.0), (-0.7, 0.1)]:
            assert phi2_density(x, y, 0.0) == pytest.approx(
                norm_pdf(x) * norm_pdf(y), rel=1e-15
            )

    def test_frozen_value(self):
        assert phi2_density(1.0, -1.0, 0.5) == pytest.approx(PHI2_DENS_1_M1_05, rel=1e-14)

    def test_exchange_symmetry(self):
        assert phi2_density(0.7, -0.2, 0.4) == phi2_density(-0.2, 0.7, 0.4)

    def test_rejects_unit_correlation(self):
        with pytest.raises(DomainError):
            phi2_density(0.0, 0.0, 1.0)


class TestShortcuts:
    def test_center_closed_form(self):
        assert phi2_cdf(0.0, 0.0, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_independence(self):
        for h, k in [(0.3, -0.4), (2.0, 1.0)]:
            assert phi2_cdf(h, k, 0.0) == norm_cdf(h) * norm_cdf(k)

    def test_frechet_boundaries(self):
        assert phi2_cdf(2.0, 2.0, -1.0) == pytest.approx(2 * norm_cdf(2.0) - 1.0, abs=1e-15)
        assert phi2_cdf(0.5, -0.2, 1.0) == norm_cdf(-0.2)

    def test_infinite_arguments(self):
        assert phi2_cdf(np.inf, 0.7, 0.5) == norm_cdf(0.7)
        assert phi2_cdf(0.7, np.inf, 0.5) == norm_cdf(0.7)
        assert phi2_cdf(-np.inf, 0.7, 0.5) == 0.0
        assert phi2_cdf(0.7, -np.inf, 0.5) == 0.0

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            phi2_cdf(np.nan, 0.0, 0.5)
        with pytest.raises(DomainError):
            phi2_cdf(0.0, 0.0, np.nan)


class TestFrozenOracleValues:
    def test_auto_engine(self):
        assert phi2_cdf(0.3, -0.4, 0.6) == pytest.approx(PHI2_03_M04_06, abs=1e-12)
        assert phi2_cdf(-1.0, 0.5, 0.95) == pytest.approx(PHI2_M1_05_095, abs=1e-12)

    @pytest.mark.parametrize(
        "method", [M.OWEN, M.PLACKETT_FROM_INDEPENDENCE, M.SINGLE_FACTOR_QUADRATURE, M.TETRACHORIC]
    )
    def test_each_engine(self, method):
        assert phi2_cdf(0.3, -0.4, 0.6, method) == pytest.approx(PHI2_03_M04_06, abs=1e-11)

    def test_plackett_from_max_high_rho(self):
        assert phi2_cdf(-1.0, 0.5, 0.95, M.PLACKETT_FROM_MAX) == pytest.approx(
            PHI2_M1_05_095, abs=1e-12
        )


def _applicable_engines(rho: float) -> list[Phi2Method]:
    engines = [
        M.OWEN,
        M.PLACKETT_FROM_INDEPENDENCE,
        M.PLACKETT_FROM_MAX,
        M.SINGLE_FACTOR_QUADRATURE,
    ]
    if abs(rho) <= 0.5:
        engines.append(M.TETRACHORIC)
    return engines


class TestCrossEngine:
    def test_pairwise_agreement_sample(self):
        # the full 7 x 7 x 10 grid runs in the acceptance suite
        for rho in (-0.95, -0.3, 0.05, 0.6, 0.95):
            for h, k in [(-1.5, 0.5), (0.0, 0.5), (3.0, -3.0), (0.0, 0.0)]:
                values = [phi2_cdf(h, k, rho, m) for m in _applicable_engines(rho)]
                assert max(values) - min(values) < 1e-9

    def test_auto_matches_owen_at_high_rho(self):
        a = phi2_cdf(0.0, 0.0, 0.9)
        b = phi2_cdf(0.0, 0.0, 0.9, M.OWEN)
        assert a == pytest.approx(b, abs=1e-12)


class TestInvariants:
    def test_frechet_sandwich(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            h, k = rng.uniform(-3.5, 3.5, 2)
            rho = rng.uniform(-0.99, 0.99)
            val = phi2_cdf(h, k, rho)
            lo = max(norm_cdf(h) + norm_cdf(k) - 1.0, 0.0)
            hi = min(norm_cdf(h), norm_cdf(k))
            assert lo - 1e-13 <= val <= hi + 1e-13

    def test_monotone_in_rho(self):
        rhos = np.linspace(-0.98, 0.98, 25)
        for h, k in [(-1.5, 0.5), (0.0, 0.0), (2.0, -2.0)]:
            vals = [phi2_cdf(h, k, r) for r in rhos]
            assert np.all(np.diff(vals) >= -1e-12)

    def test_correlation_derivative_consistency(self):
        # Phi2(., rho) - Phi2(., sigma) equals the integral of the density
        # over the correlation interval.
        cfg = QuadratureConfig()
        for h, k in [(0.3, -0.4), (-1.0, -1.0)]:
            for sigma, rho in [(-0.5, 0.7), (0.2, 0.9)]:
                diff = phi2_cdf(h, k, rho) - phi2_cdf(h, k, sigma)
                integral = quad1d(lambda r: phi2_density(h, k, r), sigma, rho, cfg)
                assert diff == pytest.approx(integral, abs=1e-10)

    def test_path_from_countermonotone_end(self):
        # starting the correlation path at the lower Frechet bound:
        # Phi2 = max(Phi(h)+Phi(k)-1, 0) + integral_{-1}^{rho} phi2 dr
        cfg = QuadratureConfig(abs_tol=1e-11, rel_tol=1e-11)
        for h, k, rho in [(-0.524, 0.253, -0.2), (0.5, 0.8, 0.4)]:
            base = max(norm_cdf(h) + norm_cdf(k) - 1.0, 0.0)
            integral = quad1d(lambda r: phi2_density(h, k, r), -1.0, rho, cfg)
            assert base + integral == pytest.approx(phi2_cdf(h, k, rho), abs=1e-10)

    def test_tetrachoric_partial_sums_converge(self):
        cfg = QuadratureConfig()
        for rho in (-0.5, -0.25, 0.25, 0.5):
            for h, k in [(0.0, 0.0), (-1.5, 0.5), (3.0, -3.0)]:
                a = phi2_cdf(h, k, rho, M.TETRACHORIC, cfg)
                b = phi2_cdf(h, k, rho)
                assert a == pytest.approx(b, abs=1e-10)


class TestValidityAndErrors:
    def test_tetrachoric_rejected_beyond_cap(self):
        with pytest.raises(EngineRejected):
            phi2_cdf(0.0, 0.0, 0.9, M.TETRACHORIC)

    def test_tetrachoric_unconverged_budget(self):
        cfg = QuadratureConfig(abs_tol=1e-30, rel_tol=1e-30)
        with pytest.raises(ConvergenceError) as info:
            phi2_cdf(0.5, 0.5, 0.6, M.TETRACHORIC, cfg)
        assert np.isfinite(info.value.estimate)

    def test_tetrachoric_nan_tail_raises(self):
        # phi(h) underflows to 0 and the Hermite terms overflow: the tail
        # estimate is inf * 0 = NaN, which must not pass as converged.
        with np.errstate(all="ignore"), pytest.raises(ConvergenceError):
            phi2_cdf(1e200, 0.5, 0.5, M.TETRACHORIC)

    def test_plackett_budget_exhausted(self):
        cfg = QuadratureConfig(abs_tol=1e-30, rel_tol=1e-30)
        with pytest.raises(ConvergenceError):
            phi2_cdf(0.3, -0.4, 0.6, M.PLACKETT_FROM_INDEPENDENCE, cfg)

    def test_rho_out_of_range(self):
        with pytest.raises(DomainError):
            phi2_cdf(0.0, 0.0, 1.2)

    def test_validate_rho_arrays(self):
        assert isinstance(validate_rho(np.float64(0.5)), float)
        r = validate_rho([-1.0, 0.0, 0.5])
        assert isinstance(r, np.ndarray) and r.tolist() == [-1.0, 0.0, 0.5]
        for bad in ([0.2, np.nan], [0.2, 1.5]):
            with pytest.raises(DomainError):
                validate_rho(bad)
        with pytest.raises(DomainError):
            validate_rho([0.2, -1.0], interior=True)


class TestOwenVectorized:
    def test_grid_matches_scalar(self):
        h = np.linspace(-3, 3, 7)
        grid = phi2_owen(h[:, None], h[None, :], 0.7)
        for i, hi in enumerate(h):
            for j, kj in enumerate(h):
                assert grid[i, j] == phi2_owen(float(hi), float(kj), 0.7)

    def test_zero_argument_rows(self):
        # h = 0 exercises the infinite-slope limit inside the split
        for k in (-1.5, -0.5, 0.5, 1.5):
            direct = phi2_cdf(0.0, k, 0.6)
            assert phi2_owen(0.0, k, 0.6) == pytest.approx(direct, abs=1e-12)
            assert phi2_owen(k, 0.0, 0.6) == pytest.approx(direct, abs=1e-12)

    def test_rejects_infinite(self):
        with pytest.raises(DomainError):
            phi2_owen(np.inf, 0.0, 0.5)


def _mpmath_grid():
    return np.loadtxt(MPMATH_GRID, delimiter=",", skiprows=1, unpack=True)


class TestGenzKernel:
    """The auto kernel against 40-digit mpmath, one branch at a time."""

    @pytest.mark.parametrize("h,k,rho,exact", [
        (0.3, -0.4, 0.6, 0.2975267245175320695623),
        (-1.2, 0.7, -0.9, 0.007532632601987626474977),
        (2.1, 1.9, 0.92, 0.96714385273476485858),
    ])
    def test_arcsine_branch(self, h, k, rho, exact):
        assert abs(phi2_cdf(h, k, rho) - exact) <= 1e-15

    # rho ~ 0.96 is where a dropped factor 5 in the loop term
    # 1 + c xs (1 + 5 d xs) shows as an error of 1.7e-5.
    @pytest.mark.parametrize("h,k,rho,exact", [
        (-1.0, 0.5, 0.95, 0.1586552285663037176146),
        (0.8, 0.7, 0.96, 0.7369689186468978820223),
        (-2.5, -2.4, 0.999999, 0.006209665325776135166978),
    ])
    def test_high_branch_positive_rho(self, h, k, rho, exact):
        assert abs(phi2_cdf(h, k, rho) - exact) <= 1e-15

    @pytest.mark.parametrize("h,k,rho,exact", [
        (-1.0, 1.5, -0.96, 0.09264402164578767004368),
        (0.4, -0.3, -0.95, 0.06858969184466313364063),
        (1.5, 1.7, -0.999, 0.8886273359725988903315),
    ])
    def test_high_branch_negative_rho(self, h, k, rho, exact):
        assert abs(phi2_cdf(h, k, rho) - exact) <= 1e-15

    def test_committed_mpmath_grid(self):
        h, k, rho, exact = _mpmath_grid()
        assert len(h) >= 300
        for branch in (np.abs(rho) < 0.925, rho >= 0.925, rho <= -0.925):
            assert np.count_nonzero(branch) >= 100
        assert np.max(np.abs(phi2_cdf(h, k, rho) - exact)) <= AUTO_ERROR_FLOOR

    def test_array_call_equals_scalar_loop(self):
        h, k, rho, _ = _mpmath_grid()
        loop = [phi2_cdf(*p) for p in zip(h.tolist(), k.tolist(), rho.tolist())]
        assert np.array_equal(phi2_cdf(h, k, rho), np.array(loop))

    def test_high_branch_matches_owen(self):
        # The expansion branch against the T-function route on random points;
        # the largest gap is one step of 2.2e-16 in the last bit below 1.
        rng = np.random.default_rng(9)
        h, k = rng.uniform(-8.0, 8.0, (2, 2000))
        rho = rng.choice([-1.0, 1.0], 2000) * rng.uniform(0.925, 1.0 - 1e-9, 2000)
        owen = [phi2_owen(*p) for p in zip(h.tolist(), k.tolist(), rho.tolist())]
        assert np.max(np.abs(phi2_cdf(h, k, rho) - owen)) <= np.finfo(float).eps

    def test_broadcasting_and_limits_in_arrays(self):
        h = np.array([0.3, np.inf, -np.inf, 0.3, 0.3, 0.3])
        rho = np.array([0.5, 0.5, 0.5, 0.0, 1.0, -1.0])
        got = phi2_cdf(h, -0.4, rho)
        expected = [phi2_cdf(float(a), -0.4, float(r)) for a, r in zip(h, rho)]
        assert np.array_equal(got, expected)
        assert got[1] == norm_cdf(-0.4) and got[2] == 0.0
        assert phi2_cdf(h[:, None], h[None, :3], 0.7).shape == (6, 3)
        with pytest.raises(DomainError):
            phi2_cdf([0.3, np.nan], 0.0, 0.5)

    def test_named_engines_take_arrays(self):
        h = np.array([0.3, -1.0, np.inf])
        got = phi2_cdf(h, 0.5, 0.6, M.PLACKETT_FROM_INDEPENDENCE)
        expected = [phi2_cdf(float(a), 0.5, 0.6, M.PLACKETT_FROM_INDEPENDENCE) for a in h]
        assert np.array_equal(got, expected)

    def test_tolerance_below_error_floor(self):
        # quad1d's rule: a value fails only when its error misses both the
        # absolute and the relative tolerance.
        tight = QuadratureConfig(abs_tol=1e-30, rel_tol=1e-30)
        with pytest.raises(ConvergenceError) as info:
            phi2_cdf(0.3, -0.4, 0.6, cfg=tight)
        assert info.value.estimate == AUTO_ERROR_FLOOR
        relative = QuadratureConfig(abs_tol=1e-30, rel_tol=1e-12)
        assert phi2_cdf(0.3, -0.4, 0.6, cfg=relative) == phi2_cdf(0.3, -0.4, 0.6)
        with pytest.raises(ConvergenceError):
            phi2_cdf(-6.0, -6.0, 0.6, cfg=relative)
        # exact limits need no certificate
        assert phi2_cdf(0.3, -0.4, 0.0, cfg=tight) == norm_cdf(0.3) * norm_cdf(-0.4)


class TestRegressionInputs:
    """Inputs the adaptive auto path and the 96-node single-factor rule
    missed (perfbench/NOTE.md); mpmath at 40 digits."""

    def test_auto_close_arguments_at_high_rho(self):
        got = phi2_cdf(-0.9994036109355074, -0.9994063187420841, 0.8254279688397536)
        assert abs(got - 0.10174854399809230371) <= 1e-14

    def test_plackett_from_max_close_arguments(self):
        # h and k 2.7e-6 apart: the integrand's climb near s = 0 is that
        # narrow, and one adaptive pass over [0, 1] missed it by 3.3e-7.
        got = phi2_cdf(-0.9994036109355074, -0.9994063187420841, 0.8254279688397536,
                       "plackett_from_max")
        assert abs(got - 0.10174854399809230371) <= 1e-12

    def test_plackett_from_max_huge_arguments(self):
        # (h - k)^2 of h = 1e200 overflowed a Python float.
        for h, k in ((1e200, 0.5), (0.5, 1e200)):
            assert phi2_cdf(h, k, 0.5, M.PLACKETT_FROM_MAX) == norm_cdf(0.5)
            assert phi2_cdf(-h, -k, 0.5, M.PLACKETT_FROM_MAX) == 0.0

    def test_copula_lower_tail_near_rho_089(self):
        got = copula_cdf(0.0016355603504203114, 0.8689240132225767, -0.8912792249381268)
        assert abs(got - 2.3889150017052491132e-7) <= 1e-14

    def test_copula_diagonal_near_rho_089(self):
        got = copula_cdf(0.19918438949540884, 0.19919041541327798, -0.888498482904899)
        assert abs(got - 8.3070615343875922281e-6) <= 1e-14

    def test_single_factor_at_rho_08(self):
        got = phi2_cdf(-0.129, 0.191, 0.8, "single_factor_quadrature")
        assert abs(got - 0.39792988037884463701) <= 1e-14

    def test_single_factor_honours_cfg_at_high_rho(self):
        # 768 and 1024 Gauss-Hermite nodes differ by 1.4e-7 here, where auto
        # and owen agree to 1e-16: the default cfg raises, a loose one passes.
        h, k, rho = 0.5875776494217408, 0.7758833157547933, 0.9886427023002682
        with pytest.raises(ConvergenceError):
            phi2_cdf(h, k, rho, "single_factor_quadrature")
        loose = QuadratureConfig(abs_tol=1e-6, rel_tol=1e-6)
        got = phi2_cdf(h, k, rho, "single_factor_quadrature", loose)
        assert abs(got - phi2_cdf(h, k, rho)) <= 1e-6
