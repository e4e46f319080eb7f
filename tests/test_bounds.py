"""Diagonal bound/approximation tests: sandwich ordering, tightness cases,
optimality witnesses, and the worst-case-error scans."""

import mpmath as mp
import numpy as np
import pytest
from scipy.special import ndtri

from bivnorm import bounds as bounds_module
from bivnorm import (
    DiagApproxKind,
    DiagBoundKind,
    DomainError,
    bound_error_scan,
    diag_approx,
    diag_bound,
    diag_cdf,
    diag_g,
    upper_thm3_stationary_rho,
)

B = DiagBoundKind
A = DiagApproxKind

# closed-form worst-case constants of the scaled upper bound
THM2_RHO_STAR = np.sqrt(1.0 - 4.0 / np.pi**2)          # 0.7711778...
THM2_MAX_ERR = (THM2_RHO_STAR - (2 / np.pi) * np.arcsin(THM2_RHO_STAR)) / 4.0


def _wedge_grid(n_u=60, n_rho=60):
    u = np.linspace(0.0, 0.5, n_u)[:, None]
    rho = np.linspace(0.0, 1.0, n_rho)[None, :]
    return u, rho


class TestBoundValues:
    def test_lower_product_worst_case(self):
        # bound u g = 1/4 vs C = 1/2 at (1/2, 1)
        assert diag_bound(B.LOWER_THM1, 0.5, 1.0) == pytest.approx(0.25, abs=1e-15)
        assert diag_cdf(0.5, 1.0) == 0.5

    def test_upper_scaled_tight_at_rho_zero(self):
        for u in (0.1, 0.3, 0.5):
            assert diag_bound(B.UPPER_THM2, u, 0.0) == pytest.approx(u * u, abs=1e-14)

    def test_lower_scaled_tight_at_half(self):
        for rho in (0.2, 0.5, 0.9):
            expected = 0.25 + np.arcsin(rho) / (2 * np.pi)
            assert diag_bound(B.LOWER_THM2, 0.5, rho) == pytest.approx(expected, abs=1e-14)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            diag_bound(B.LOWER_THM1, 0.6, 0.5)
        with pytest.raises(DomainError):
            diag_bound(B.LOWER_THM1, 0.3, -0.1)
        with pytest.raises(DomainError):
            diag_bound(B.LOWER_THM1, 0.3, 1.1)


class TestSandwich:
    def test_ordering_on_grid(self):
        u, rho = _wedge_grid()
        c = np.vectorize(lambda a, b: diag_cdf(a, b))(u, rho)
        l1 = diag_bound(B.LOWER_THM1, u, rho)
        l2 = diag_bound(B.LOWER_THM2, u, rho)
        u1 = diag_bound(B.UPPER_THM1, u, rho)
        u2 = diag_bound(B.UPPER_THM2, u, rho)
        u3 = diag_bound(B.UPPER_THM3, u, rho)
        slack = 1e-13
        assert np.all(l1 <= l2 + slack)
        assert np.all(l2 <= c + slack)
        assert np.all(c <= u2 + slack)
        assert np.all(u2 <= u1 + slack)
        assert np.all(c <= u3 + slack)

    def test_upper_scaled_cannot_improve(self):
        # Shaving the factor below 1 + rho breaks the bound for small enough
        # u. The violation point moves out only logarithmically (a 1e-3
        # shave first fails near u ~ 1e-156, far beyond float range), so the
        # witness is exhibited at shave 0.03 and the limit itself is checked
        # through the monotone decay of (1+rho) - C/(u g) toward 0.
        rho = 0.5
        a = 1.0 + rho - 0.03
        u = np.logspace(-8, np.log10(0.5), 400)
        shaved = u * diag_g(u, rho) * a
        c = np.array([diag_cdf(x, rho) for x in u])
        assert np.any(shaved < c - 1e-15)

        gaps = [
            1.5 - diag_cdf(x, rho) / (x * diag_g(x, rho))
            for x in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12)
        ]
        assert np.all(np.diff(gaps) < 0)
        assert gaps[-1] > 0


class TestArrayEqualsScalar:
    U_EDGES = np.array([0.0, 1e-300, 1e-12, 1e-6, 0.1, 0.25, 0.4, 0.5])
    RHO_EDGES = np.array([0.0, 1e-12, 0.3, 0.7, 1.0 - 1e-12, 1.0])

    @pytest.mark.parametrize("kind", list(B) + list(A), ids=lambda k: k.value)
    def test_separable_grid_equals_scalar_loop(self, kind):
        evaluate = diag_bound if isinstance(kind, B) else diag_approx
        u = self.U_EDGES if isinstance(kind, B) else self.U_EDGES[1:]
        expected = np.array(
            [[evaluate(kind, float(x), float(r)) for r in self.RHO_EDGES] for x in u]
        )
        out = evaluate(kind, u[:, None], self.RHO_EDGES[None, :])
        assert out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()


class TestApproximations:
    def test_conditional_moment_collapses_at_independence(self):
        for u in (0.1, 0.3, 0.5):
            assert diag_approx(A.MEE_OWEN, u, 0.0) == pytest.approx(u * u, rel=1e-12)

    def test_refined_tight_cases(self):
        for rho in (0.2, 0.6, 0.95):
            expected = 0.25 + np.arcsin(rho) / (2 * np.pi)
            assert diag_approx(A.MEYER_REFINED, 0.5, rho) == pytest.approx(
                expected, abs=1e-14
            )
        for u in (0.1, 0.3, 0.5):
            assert diag_approx(A.MEYER_REFINED, u, 0.0) == pytest.approx(u * u, abs=1e-14)
            assert diag_approx(A.MEYER_REFINED, u, 1.0) == pytest.approx(u, abs=1e-14)

    def test_tight_family_tight_cases(self):
        for u in (0.1, 0.3, 0.5):
            assert diag_approx(A.MEYER_TIGHT, u, 0.0) == pytest.approx(u * u, abs=1e-14)
            assert diag_approx(A.MEYER_TIGHT, u, 1.0) == pytest.approx(u, abs=1e-14)
        for rho in (0.3, 0.8):
            expected = diag_cdf(0.5, rho)
            assert diag_approx(A.MEYER_TIGHT, 0.5, rho) == pytest.approx(expected, abs=1e-13)

    def test_mallows_frozen_value(self):
        # formula evaluation frozen from a 35-digit build of the display
        assert diag_approx(A.MALLOWS, 0.25, 0.5) == pytest.approx(
            0.14159628839023486, abs=1e-14
        )
        # it is a crude approximation: measured worst error on the wedge 0.022
        assert abs(diag_approx(A.MALLOWS, 0.25, 0.5) - diag_cdf(0.25, 0.5)) < 0.03

    def test_conditional_moment_quality_at_moderate_rho(self):
        # "works well for |rho| not too large": measured worst error 8e-4
        # on rho <= 0.5 (degrading to 0.027 at rho -> 1)
        u = np.linspace(0.01, 0.5, 50)[:, None]
        rho = np.linspace(0.0, 0.5, 26)[None, :]
        c = np.vectorize(lambda a, b: diag_cdf(a, b))(u, rho)
        err = np.abs(diag_approx(A.MEE_OWEN, u, rho) - c)
        assert err.max() < 2e-3

    def test_cox_wermuth_tight_at_independence_only(self):
        for u in (0.1, 0.3, 0.5):
            assert diag_approx(A.COX_WERMUTH, u, 0.0) == pytest.approx(u * u, rel=1e-12)
        # the conditional-mean replacement is coarse away from rho = 0
        # (measured worst error 0.073 on rho <= 0.6)
        for u, rho in [(0.2, 0.3), (0.4, 0.6)]:
            assert abs(diag_approx(A.COX_WERMUTH, u, rho) - diag_cdf(u, rho)) < 0.08

    def test_zero_u_rejected_for_approx(self):
        with pytest.raises(DomainError):
            diag_approx(A.MEE_OWEN, 0.0, 0.5)

    @pytest.mark.parametrize("u", [1e-200, 1e-300])
    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.99])
    def test_conditional_moment_at_tiny_u(self, u, rho):
        # u * Phi((x + rho m) / sqrt(1 - rho^2 m (x + m))), x = PhiInv(u),
        # m = phi(x)/u, at 40 digits. x + m ~ 1/|x| cancels; m is taken as
        # the Mills ratio phi(x)/Phi(x) at the rounded x, so the rounding of
        # x is not amplified: measured 3.1e-11 relative at u = 1e-300,
        # rho = 0.99 (2.2e-8 with m = phi(x)/u). u^2 at rho = 0 underflows
        # to 0 as it should.
        with mp.workdps(40):
            x = mp.mpf(float(ndtri(u)))
            for _ in range(6):
                x -= (mp.ncdf(x) - u) / mp.npdf(x)
            m = mp.npdf(x) / u
            ref = u * mp.ncdf((x + rho * m) / mp.sqrt(1 - rho * rho * m * (x + m)))
        out = diag_approx(A.MEE_OWEN, u, rho)
        assert out == pytest.approx(float(ref), rel=1e-10, abs=np.finfo(float).tiny)

    def test_conditional_moment_at_subnormal_u(self):
        # The quantile and phi(x) lose digits down here: each point is either
        # a value in [0, u] or a DomainError, never NaN or a warning.
        for u in (5e-324, 1e-320, 1e-310, 2e-308):
            for rho in (0.0, 0.5, 0.99, 1.0):
                try:
                    out = diag_approx(A.MEE_OWEN, u, rho)
                except DomainError:
                    continue
                assert 0.0 <= out <= u


class TestScans:
    def test_lower_product_scan(self):
        rep = bound_error_scan(B.LOWER_THM1, n_u=200, n_rho=200)
        assert rep.max_abs_error == pytest.approx(0.25, abs=1e-6)
        assert rep.u_at_max == pytest.approx(0.5, abs=1e-6)
        assert rep.rho_at_max == pytest.approx(1.0, abs=1e-6)

    def test_upper_product_scan(self):
        rep = bound_error_scan(B.UPPER_THM1, n_u=200, n_rho=200)
        assert rep.max_abs_error == pytest.approx(0.25, abs=1e-6)
        assert rep.u_at_max == pytest.approx(0.5, abs=1e-6)
        assert rep.rho_at_max == pytest.approx(0.0, abs=1e-6)

    def test_upper_scaled_scan_reproduces_constants(self):
        rep = bound_error_scan(B.UPPER_THM2, n_u=200, n_rho=200)
        assert rep.max_abs_error == pytest.approx(THM2_MAX_ERR, abs=5e-7)
        assert rep.u_at_max == pytest.approx(0.5, abs=1e-6)
        assert rep.rho_at_max == pytest.approx(THM2_RHO_STAR, abs=1e-6)

    def test_lower_scaled_stays_small(self):
        rep = bound_error_scan(B.LOWER_THM2, n_u=200, n_rho=200)
        assert rep.max_abs_error < 0.006

    def test_half_argument_scan_matches_stationary_point(self):
        rep = bound_error_scan(B.UPPER_THM3, n_u=200, n_rho=200)
        rho_star = upper_thm3_stationary_rho()
        assert rho_star == pytest.approx(0.5961, abs=2e-4)
        assert rep.rho_at_max == pytest.approx(rho_star, abs=1e-6)
        assert rep.u_at_max == pytest.approx(0.5, abs=1e-6)
        assert rep.max_abs_error == pytest.approx(0.0155504, abs=1e-6)

    def test_refined_approximation_error_cap(self):
        rep = bound_error_scan(A.MEYER_REFINED, n_u=200, n_rho=200)
        assert rep.max_abs_error <= 6e-4

    def test_tight_family_conjecture_reported_not_asserted(self):
        rep = bound_error_scan(A.MEYER_TIGHT, n_u=120, n_rho=120)
        # the report exposes the signed minimum; the conjectured bound
        # property is only reported, so the assertion is about reporting
        assert np.isfinite(rep.min_signed_error)
        assert rep.max_abs_error < 0.01

    def test_scan_accepts_string_tags(self):
        rep = bound_error_scan("upper_thm2", n_u=50, n_rho=50)
        assert rep.kind == "upper_thm2"

    def test_scan_grid_validation(self):
        with pytest.raises(DomainError):
            bound_error_scan(B.LOWER_THM1, n_u=1)
        with pytest.raises(DomainError):
            bound_error_scan(B.LOWER_THM1, n_rho=1)
        # the approximations drop u = 0, so n_u = 2 would scan u = 1/2 alone
        for kind in A:
            with pytest.raises(DomainError):
                bound_error_scan(kind, n_u=2, n_rho=2)
            assert bound_error_scan(kind, n_u=3, n_rho=2).n_u == 3
        assert bound_error_scan(B.LOWER_THM1, n_u=2, n_rho=2).n_u == 2


class TestScanRefinement:
    @pytest.mark.parametrize("kind", list(B) + list(A), ids=lambda k: k.value)
    def test_refinement_is_array_native_and_no_worse(self, kind, monkeypatch):
        coarse = bound_error_scan(kind, n_u=200, n_rho=200, refine=False)
        calls = []

        def counted(u, rho):
            calls.append(1)
            return diag_cdf(u, rho)

        monkeypatch.setattr(bounds_module, "diag_cdf", counted)
        rep = bound_error_scan(kind, n_u=200, n_rho=200)
        # one coarse-grid call, then one small tensor grid per zoom level
        assert len(calls) <= 15
        evaluate = diag_bound if isinstance(kind, B) else diag_approx
        u, rho = rep.u_at_max, rep.rho_at_max
        assert abs(rep.max_abs_error - abs(evaluate(kind, u, rho) - diag_cdf(u, rho))) <= 1e-15
        assert rep.max_abs_error >= coarse.max_abs_error
        assert rep.min_signed_error == coarse.min_signed_error


class TestExactGridCache:
    def test_ten_kinds_share_one_coarse_grid(self, monkeypatch):
        bounds_module._exact_grid.cache_clear()
        shapes = []

        def counted(u, rho):
            shapes.append(np.broadcast_shapes(np.shape(u), np.shape(rho)))
            return diag_cdf(u, rho)

        monkeypatch.setattr(bounds_module, "diag_cdf", counted)
        for kind in list(B) + list(A):
            bound_error_scan(kind, n_u=120, n_rho=90)
        assert shapes.count((120, 90)) == 1
        assert (119, 90) not in shapes  # the approximations slice the shared grid

    def test_grid_is_read_only(self):
        grid = bounds_module._exact_grid(30, 20)
        with pytest.raises(ValueError):
            grid[0, 0] = 1.0
        assert bounds_module._exact_grid.cache_info().maxsize == 4

    def test_evicted_size_recomputes_the_same_report(self):
        bounds_module._exact_grid.cache_clear()
        first = bound_error_scan(A.MEE_OWEN, n_u=41, n_rho=23)
        for n in (24, 25, 26, 27):
            bound_error_scan(B.UPPER_THM2, n_u=41, n_rho=n)
        misses = bounds_module._exact_grid.cache_info().misses
        again = bound_error_scan(A.MEE_OWEN, n_u=41, n_rho=23)
        assert bounds_module._exact_grid.cache_info().misses == misses + 1
        assert again == first


class TestScanNewtonStep:
    @pytest.mark.parametrize("n", [200, 100, 37])
    @pytest.mark.parametrize("kind", list(B) + list(A), ids=lambda k: k.value)
    def test_reported_error_is_evaluated_and_no_worse_than_coarse(self, kind, n):
        rep = bound_error_scan(kind, n_u=n, n_rho=n)
        evaluate = diag_bound if isinstance(kind, B) else diag_approx
        u, rho = rep.u_at_max, rep.rho_at_max
        assert abs(rep.max_abs_error - abs(evaluate(kind, u, rho) - diag_cdf(u, rho))) <= 1e-15
        grid_u = np.linspace(0.0, 0.5, n)[:, None][isinstance(kind, A):]
        grid_rho = np.linspace(0.0, 1.0, n)[None, :]
        coarse = np.abs(evaluate(kind, grid_u, grid_rho) - diag_cdf(grid_u, grid_rho))
        assert rep.max_abs_error >= np.nanmax(coarse)

    @pytest.mark.parametrize("n", [200, 100, 120, 7])
    @pytest.mark.parametrize("kind", list(bounds_module._UG_FACTORS), ids=lambda k: k.value)
    def test_ug_kinds_coarse_grid_is_the_formula(self, kind, n):
        # The scan multiplies the cached u g grid by the kind's factor; that
        # must be the public formula's grid, byte for byte.
        open_zero = isinstance(kind, A)
        u = np.linspace(0.0, 0.5, n)[open_zero:, None]
        rho = np.linspace(0.0, 1.0, n)[None, :]
        _, ug = bounds_module._exact_grid(n, n)
        coarse = ug[open_zero:] * bounds_module._UG_FACTORS[kind](u, rho)
        evaluate = diag_bound if isinstance(kind, B) else diag_approx
        assert coarse.tobytes() == evaluate(kind, u, rho).tobytes()

    @pytest.mark.parametrize(
        "kind, rho_star",
        [(B.UPPER_THM2, THM2_RHO_STAR), (B.UPPER_THM3, upper_thm3_stationary_rho())],
        ids=["upper_thm2", "upper_thm3"],
    )
    def test_default_scan_keeps_edge_maxima_on_the_edge(self, kind, rho_star):
        # The worst point lies on u = 1/2: the step is 1-D along rho there.
        rep = bound_error_scan(kind)
        assert rep.u_at_max == 0.5
        assert rep.rho_at_max == pytest.approx(rho_star, abs=1e-6)

    def test_step_lands_on_the_peak_of_a_quadratic(self):
        u = np.linspace(0.2, 0.3, 17)
        rho = np.linspace(0.4, 0.6, 17)
        u0, r0 = u[8] + 0.3 * (u[1] - u[0]), rho[8] - 0.6 * (rho[1] - rho[0])
        du, dr = u[:, None] - u0, rho[None, :] - r0
        peak = 1.0 - (40.0 * du**2 + 30.0 * du * dr + 10.0 * dr**2)
        got = bounds_module._newton_point(peak, u, rho, 8, 8)
        assert got == pytest.approx((u0, r0), abs=1e-12)
        # far away the step stops at the stencil's edge
        far = bounds_module._newton_point(peak, u, rho, 4, 12)
        assert far == pytest.approx((u[5], rho[11]), abs=1e-15)
        # a saddle gives no step
        saddle = 1.0 - (40.0 * du**2 - 10.0 * dr**2)
        assert bounds_module._newton_point(saddle, u, rho, 8, 8) is None
        # past the end of the u axis only rho moves, to the edge's own peak;
        # at a corner nothing does
        du = u[:, None] - (u[16] + 0.5 * (u[1] - u[0]))
        beyond = 1.0 - (40.0 * du**2 + 30.0 * du * dr + 10.0 * dr**2)
        got = bounds_module._newton_point(beyond, u, rho, 16, 8)
        assert got[0] == u[16]
        assert got[1] == pytest.approx(r0 - 1.5 * float(du[16, 0]), abs=1e-12)
        assert bounds_module._newton_point(beyond, u, rho, 16, 0) is None
