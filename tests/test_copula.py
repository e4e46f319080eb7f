"""Copula layer tests: boundary exactness, symmetries, conditionals,
diagonal machinery, reduction identities, and factor-form integrals."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import integrate

from bivnorm import (
    DomainError,
    Phi2Method,
    QuadratureConfig,
    SymmetryKind,
    apply_symmetry,
    cond_cdf_given_u,
    cond_cdf_given_v,
    copula_cdf,
    copula_cond_integral,
    copula_density,
    copula_factor_integral,
    copula_single_factor,
    diag_cdf,
    diag_g,
    diag_g_transform,
    halfline_cdf,
    line_from_diag,
    norm_cdf,
    norm_pdf,
    norm_quantile,
    phi2_cdf,
    phi2_density,
    quad1d,
    reduce_to_halflines,
)
from bivnorm.engines import AUTO_ERROR_FLOOR

# mpmath 35-digit values
C_02_04_05 = 0.13797281862277763       # C(0.2, 0.4; 0.5)
CDENS_02_08_M04 = 1.3358337605661221   # c(0.2, 0.8; -0.4) via the ratio form
COND_03_06_07 = 0.807514134328027      # dC/du at (0.3, 0.6; 0.7)
G_02_06 = 0.33694668922398335          # g(0.2; 0.6) = Phi(0.5 PhiInv(0.2))
DIAG_025_08 = 0.16908351653773523      # 2 int_0^0.25 g(t; 0.8) dt

CENTER = lambda rho: 0.25 + np.arcsin(rho) / (2 * np.pi)


class TestCdf:
    def test_center_value(self):
        assert copula_cdf(0.5, 0.5, 0.5) == pytest.approx(1 / 3, abs=1e-14)

    def test_upper_frechet(self):
        assert copula_cdf(0.3, 0.7, 1.0) == 0.3

    def test_frozen_interior_value(self):
        assert copula_cdf(0.2, 0.4, 0.5) == pytest.approx(C_02_04_05, abs=1e-12)

    def test_boundary_exactness(self):
        for rho in (-0.7, 0.0, 0.7):
            assert copula_cdf(0.0, 0.4, rho) == 0.0
            assert copula_cdf(0.4, 0.0, rho) == 0.0
            assert copula_cdf(0.4, 1.0, rho) == 0.4
            assert copula_cdf(1.0, 0.4, rho) == 0.4

    def test_correlation_boundaries(self):
        assert copula_cdf(0.3, 0.6, -1.0) == 0.0
        assert copula_cdf(0.7, 0.6, -1.0) == pytest.approx(0.3, abs=1e-15)
        assert copula_cdf(0.3, 0.6, 0.0) == pytest.approx(0.18, abs=1e-16)

    def test_array_call_keeps_exact_masks(self):
        u = np.array([0.0, 0.4, 1.0, 0.3, 0.7, 0.3, 0.3, 0.2])
        v = np.array([0.4, 1.0, 0.4, 0.6, 0.6, 0.6, 0.7, 0.9])
        rho = np.array([0.7, -0.7, 0.0, -1.0, -1.0, 0.0, 1.0, -0.95])
        got = copula_cdf(u, v, rho)
        expected = [copula_cdf(*p) for p in zip(u.tolist(), v.tolist(), rho.tolist())]
        assert np.array_equal(got, expected)
        assert got[:7].tolist() == [0.0, 0.4, 0.4, 0.0, 0.7 + 0.6 - 1.0, 0.3 * 0.6, 0.3]
        assert copula_cdf(u[:, None], v[None, :], 0.5).shape == (8, 8)
        with pytest.raises(DomainError):
            copula_cdf([0.5, np.nan], 0.5, 0.5)

    def test_array_call_equals_scalar_loop(self):
        # Boundary u, v and rho next to points of both kernel branches (|rho|
        # below and above 0.925), in one mixed batch.
        grid = np.array([0.0, 1e-300, 0.2, 0.5, 0.9, 1.0])
        rhos = np.array([-1.0, -0.97, -0.5, 0.0, 0.5, 0.97, 1.0])
        u, v, rho = (a.ravel() for a in np.meshgrid(grid, grid, rhos, indexing="ij"))
        loop = [copula_cdf(*p) for p in zip(u.tolist(), v.tolist(), rho.tolist())]
        assert np.array_equal(copula_cdf(u, v, rho), loop)
        # An all-interior batch of one branch, broadcast.
        inner = grid[1:-1]
        for r in (0.5, -0.97):
            loop = [[copula_cdf(a, b, r) for b in inner.tolist()] for a in inner.tolist()]
            assert np.array_equal(copula_cdf(inner[:, None], inner[None, :], r), loop)

    def test_domain(self):
        with pytest.raises(DomainError):
            copula_cdf(1.5, 0.5, 0.5)
        with pytest.raises(DomainError):
            copula_cdf(0.5, 0.5, 1.5)


class TestDensity:
    def test_independence(self):
        assert copula_density(0.37, 0.81, 0.0) == 1.0

    def test_center_closed_form(self):
        assert copula_density(0.5, 0.5, 0.5) == pytest.approx(2 / np.sqrt(3), rel=1e-15)

    def test_frozen_value(self):
        assert copula_density(0.2, 0.8, -0.4) == pytest.approx(CDENS_02_08_M04, rel=1e-13)

    def test_exponential_form_equals_ratio_form(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            u, v = rng.uniform(0.02, 0.98, 2)
            rho = rng.uniform(-0.95, 0.95)
            x, y = norm_quantile(u), norm_quantile(v)
            ratio = phi2_density(x, y, rho) / (norm_pdf(x) * norm_pdf(y))
            assert copula_density(u, v, rho) == pytest.approx(ratio, rel=1e-12)

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            copula_density(0.0, 0.5, 0.3)

    def test_integrates_to_cdf(self):
        # 2-D quadrature of the density over [0,u] x [0,v] recovers C; the
        # corner behaviour makes the integrator grumble but not fail
        import warnings

        for u, v, rho in [(0.4, 0.6, 0.4), (0.6, 0.3, -0.5)]:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", integrate.IntegrationWarning)
                val, _err = integrate.dblquad(
                    lambda t, s: copula_density(s, t, rho), 1e-12, u, 1e-12, v,
                    epsabs=1e-10, epsrel=1e-10,
                )
            assert val == pytest.approx(copula_cdf(u, v, rho), abs=1e-8)


class TestConditionals:
    def test_independence(self):
        assert cond_cdf_given_u(0.3, 0.6, 0.0) == pytest.approx(0.6, abs=1e-15)

    def test_median_point(self):
        for rho in (-0.8, 0.2, 0.9):
            assert cond_cdf_given_u(0.5, 0.5, rho) == 0.5

    def test_frozen_value(self):
        assert cond_cdf_given_u(0.3, 0.6, 0.7) == pytest.approx(COND_03_06_07, abs=1e-14)

    def test_mirror(self):
        assert cond_cdf_given_v(0.3, 0.6, 0.7) == cond_cdf_given_u(0.6, 0.3, 0.7)

    def test_monotone_in_v(self):
        v = np.linspace(0.0, 1.0, 101)
        vals = cond_cdf_given_u(0.3, v, 0.7)
        assert np.all(np.diff(vals) >= 0.0)

    def test_matches_finite_difference_of_cdf(self):
        eps = 1e-5
        for u, v, rho in [(0.3, 0.6, 0.7), (0.7, 0.2, -0.5), (0.45, 0.55, 0.2)]:
            fd = (copula_cdf(u + eps, v, rho) - copula_cdf(u - eps, v, rho)) / (2 * eps)
            assert cond_cdf_given_u(u, v, rho) == pytest.approx(fd, abs=1e-6)

    def test_boundary_conditioning_rejected(self):
        with pytest.raises(DomainError):
            cond_cdf_given_u(0.0, 0.5, 0.5)


class TestSymmetries:
    def test_examples(self):
        assert apply_symmetry(SymmetryKind.SWAP, 0.2, 0.7, 0.3).value() == pytest.approx(
            copula_cdf(0.2, 0.7, 0.3), abs=1e-13
        )
        img = apply_symmetry(SymmetryKind.REFLECT_V, 0.2, 0.7, 0.3)
        assert img.u == 0.2 and img.v == pytest.approx(0.3) and img.rho == -0.3

    def test_reflect_uv_fixed_point(self):
        img = apply_symmetry(SymmetryKind.REFLECT_UV, 0.5, 0.5, 0.4)
        assert img.value() == pytest.approx(copula_cdf(0.5, 0.5, 0.4), abs=1e-15)

    def test_reflect_uv_involution(self):
        # dyadic arguments keep 1 - (1 - u) exact
        img = apply_symmetry(SymmetryKind.REFLECT_UV, 0.25, 0.75, 0.4)
        back = apply_symmetry(SymmetryKind.REFLECT_UV, img.u, img.v, img.rho)
        assert (back.u, back.v, back.rho) == (0.25, 0.75, 0.4)
        img = apply_symmetry(SymmetryKind.REFLECT_UV, 0.3, 0.8, 0.4)
        back = apply_symmetry(SymmetryKind.REFLECT_UV, img.u, img.v, img.rho)
        assert back.u == pytest.approx(0.3, abs=1e-16)
        assert back.v == pytest.approx(0.8, abs=1e-16)

    def test_all_identities_random_points(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            u, v = rng.uniform(0.01, 0.99, 2)
            rho = rng.uniform(-0.99, 0.99)
            direct = copula_cdf(u, v, rho)
            for kind in SymmetryKind:
                assert apply_symmetry(kind, u, v, rho).value() == pytest.approx(
                    direct, abs=1e-12
                )


_UNIT = st.floats(0.0, 1.0)
_RHO = st.floats(-1.0, 1.0)
_REAL = st.floats(allow_nan=False)
# u + v - 1 rounds by up to 2**-52: at u = 1 it can exceed v = C(1, v).
_LOWER_TOL = np.finfo(float).eps
# Two values each within the kernel's error floor, plus a few roundings of
# 1 - u and of sums of order 1.
_MONOTONE_TOL = 2 * AUTO_ERROR_FLOOR
_SYMMETRY_TOL = 1e-14


@st.composite
def _columns(draw, *elements):
    """Equal-length arrays of 1 to 64 points, one per element strategy."""
    n = draw(st.integers(1, 64))
    return [draw(arrays(float, n, elements=e)) for e in elements]


def _assert_within_frechet(c, p, q):
    assert np.all(np.maximum(p + q - 1.0, 0.0) - _LOWER_TOL <= c)
    assert np.all(c <= np.minimum(p, q))


def _assert_all_close(images, c):
    for image in images:
        assert np.max(np.abs(image - c)) <= _SYMMETRY_TOL


class TestArrayProperties:
    """copula_cdf and phi2_cdf on arrays that mix interior, boundary and
    infinite points: the properties hold point by point."""

    @given(_columns(_UNIT, _UNIT, _RHO))
    @settings(max_examples=50, deadline=None)
    def test_copula_frechet_and_symmetries(self, cols):
        u, v, rho = cols
        c = copula_cdf(u, v, rho)
        _assert_within_frechet(c, u, v)
        _assert_all_close(
            (
                copula_cdf(v, u, rho),
                u - copula_cdf(u, 1.0 - v, -rho),
                v - copula_cdf(1.0 - u, v, -rho),
                u + v - 1.0 + copula_cdf(1.0 - u, 1.0 - v, rho),
            ),
            c,
        )

    @given(_columns(_REAL, _REAL, _RHO))
    # Phi(9) rounds to 1, and Phi(9) + Phi(-1) - 1 to above Phi(-1)
    @example([np.array([9.0]), np.array([-1.0]), np.array([-1.0])])
    @settings(max_examples=50, deadline=None)
    def test_phi2_frechet_and_symmetries(self, cols):
        h, k, rho = cols
        p, q = norm_cdf(h), norm_cdf(k)
        c = phi2_cdf(h, k, rho)
        _assert_within_frechet(c, p, q)
        _assert_all_close(
            (
                phi2_cdf(k, h, rho),
                p - phi2_cdf(h, -k, -rho),
                q - phi2_cdf(-h, k, -rho),
                p + q - 1.0 + phi2_cdf(-h, -k, rho),
            ),
            c,
        )

    @given(_columns(_UNIT), _UNIT, _RHO)
    @settings(max_examples=50, deadline=None)
    def test_copula_monotone(self, cols, w, rho):
        u = np.sort(cols[0])
        assert np.all(np.diff(copula_cdf(u, w, rho)) >= -_MONOTONE_TOL)
        assert np.all(np.diff(copula_cdf(w, u, rho)) >= -_MONOTONE_TOL)

    @given(_columns(_REAL), _REAL, _RHO)
    @settings(max_examples=50, deadline=None)
    def test_phi2_monotone(self, cols, x, rho):
        h = np.sort(cols[0])
        assert np.all(np.diff(phi2_cdf(h, x, rho)) >= -_MONOTONE_TOL)
        assert np.all(np.diff(phi2_cdf(x, h, rho)) >= -_MONOTONE_TOL)

    @given(
        _columns(_UNIT, _UNIT, _RHO, *2 * [st.sampled_from([-1.0, 0.0, 1.0])]),
        st.integers(0, 2),
        st.integers(0, 63),
    )
    @settings(max_examples=50, deadline=None)
    def test_copula_exact_limits_and_nan(self, cols, which, at):
        # an edge code of -1 keeps the drawn point, 0 or 1 puts it on that edge
        u, v, rho, eu, ev = cols
        u = np.where(eu >= 0.0, eu, u)
        v = np.where(ev >= 0.0, ev, v)
        edge = (eu >= 0.0) | (ev >= 0.0)
        expected = np.where((u == 0.0) | (v == 0.0), 0.0, np.where(u == 1.0, v, u))
        assert np.array_equal(copula_cdf(u, v, rho)[edge], expected[edge])
        args = [u, v, rho]
        args[which][at % rho.size] = np.nan
        with pytest.raises(DomainError):
            copula_cdf(*args)

    @given(
        _columns(_REAL, _REAL, _RHO, *2 * [st.sampled_from([0.0, -np.inf, np.inf])]),
        st.integers(0, 2),
        st.integers(0, 63),
    )
    @settings(max_examples=50, deadline=None)
    def test_phi2_exact_limits_and_nan(self, cols, which, at):
        # an edge code of 0 keeps the drawn point, +-inf replaces it
        h, k, rho, eh, ek = cols
        h = np.where(eh != 0.0, eh, h)
        k = np.where(ek != 0.0, ek, k)
        edge = np.isinf(h) | np.isinf(k)
        expected = np.where(
            (h == -np.inf) | (k == -np.inf), 0.0, np.where(h == np.inf, norm_cdf(k), norm_cdf(h))
        )
        assert np.array_equal(phi2_cdf(h, k, rho)[edge], expected[edge])
        args = [h, k, rho]
        args[which][at % rho.size] = np.nan
        with pytest.raises(DomainError):
            phi2_cdf(*args)


class TestDiagG:
    def test_identity_at_rho_zero(self):
        for u in (0.1, 0.5, 0.9):
            assert diag_g(u, 0.0) == pytest.approx(u, abs=1e-15)

    def test_median_fixed(self):
        for rho in (-0.9, -0.2, 0.4, 0.95):
            assert diag_g(0.5, rho) == 0.5

    def test_frozen_value(self):
        assert diag_g(0.2, 0.6) == pytest.approx(G_02_06, abs=1e-15)

    def test_reflection(self):
        for u in (0.05, 0.3, 0.45):
            for rho in (-0.7, 0.3):
                assert diag_g(1 - u, rho) == pytest.approx(1 - diag_g(u, rho), abs=1e-14)

    def test_no_tail_dependence(self):
        # the endpoint limits are 0 and 1; convergence slows as rho -> 1
        # (g ~ Phi(lam PhiInv(u))), so the caps are rho-dependent
        for rho, cap in [(-0.9, 1e-20), (0.0, 2e-6), (0.5, 1e-2), (0.9, 0.15)]:
            assert diag_g(1e-6, rho) < cap
            assert 1.0 - diag_g(1 - 1e-6, rho) < cap
            # and the decay toward the limit is monotone
            assert diag_g(1e-9, rho) < diag_g(1e-6, rho) < diag_g(1e-3, rho)

    def test_boundary_domain_error(self):
        with pytest.raises(DomainError):
            diag_g(0.3, 1.0)
        assert diag_g(0.0, 1.0) == 0.0  # boundary u passes through as a limit
        with pytest.raises(DomainError):
            diag_g(0.3, np.array([0.5, -1.0]))
        assert diag_g(np.array([0.0, 1.0]), np.array([1.0, -1.0])).tolist() == [0.0, 1.0]

    def test_array_call_equals_scalar_loop(self):
        u = np.linspace(0.0, 1.0, 23)[:, None]
        rho = np.linspace(-0.99, 0.99, 17)
        loop = [[diag_g(a, b) for b in rho.tolist()] for a in u.ravel().tolist()]
        assert np.array_equal(diag_g(u, rho), np.array(loop))

    def test_inverse_law_grid(self):
        # Asserted where the intermediate lands in the lower half: the
        # reflection g(1-u) = 1 - g(u) maps every other case onto these, and
        # the lower tail keeps full floating-point resolution (the upper tail
        # saturates at 1 - eps/2, where no u-space round trip can recover).
        worst = 0.0
        for rho in np.linspace(-0.989, 0.989, 41):
            for u in np.linspace(0.002, 0.998, 99):
                inner = diag_g(u, rho)
                if not 0.0 < inner <= 0.5:
                    continue
                worst = max(worst, abs(diag_g(inner, -rho) - u))
        assert worst <= 1e-12

    @given(
        st.floats(min_value=0.001, max_value=0.999),
        st.floats(min_value=-0.99, max_value=0.99),
    )
    @settings(max_examples=300, deadline=None)
    def test_inverse_law_property(self, u, rho):
        inner = diag_g(u, rho)
        if 0.0 < inner <= 0.5:
            assert abs(diag_g(inner, -rho) - u) <= 1e-12


class TestDiagCdf:
    def test_center(self):
        assert diag_cdf(0.5, 0.5) == pytest.approx(1 / 3, abs=1e-14)

    def test_independence_square(self):
        for u in (0.1, 0.4, 0.8):
            assert diag_cdf(u, 0.0) == pytest.approx(u * u, abs=1e-14)

    def test_frozen_quadrature_value(self):
        assert diag_cdf(0.25, 0.8) == pytest.approx(DIAG_025_08, abs=1e-12)

    def test_matches_general_cdf(self):
        for u in (0.05, 0.3, 0.62, 0.9):
            for rho in (-0.9, -0.3, 0.4, 0.95):
                assert diag_cdf(u, rho) == pytest.approx(
                    copula_cdf(u, u, rho), abs=1e-10
                )

    def test_derivative_is_twice_g(self):
        eps = 1e-6
        for u, rho in [(0.3, 0.5), (0.7, -0.4)]:
            fd = (diag_cdf(u + eps, rho) - diag_cdf(u - eps, rho)) / (2 * eps)
            assert fd == pytest.approx(2 * diag_g(u, rho), abs=1e-7)

    def test_quadrature_route(self):
        # independent route: 2 int_0^u g(t) dt
        cfg = QuadratureConfig(abs_tol=1e-12)
        val = 2 * quad1d(lambda t: diag_g(t, 0.8), 0.0, 0.25, cfg)
        assert diag_cdf(0.25, 0.8) == pytest.approx(val, abs=1e-11)

    def test_broadcasts_rho(self):
        got = diag_cdf(np.array([[0.25], [0.5]]), np.array([0.8, 0.0, -1.0]))
        assert got.shape == (2, 3)
        for i, u in enumerate((0.25, 0.5)):
            for j, rho in enumerate((0.8, 0.0, -1.0)):
                assert got[i, j] == diag_cdf(u, rho)

    def test_array_call_equals_scalar_loop(self):
        u = np.array([0.0, 1e-300, 0.2, 0.5, 0.9, 1.0])[:, None]
        rho = np.array([-1.0, -0.97, -0.5, 0.0, 0.5, 0.97, 1.0])
        loop = [[diag_cdf(a, b) for b in rho.tolist()] for a in u.ravel().tolist()]
        assert np.array_equal(diag_cdf(u, rho), loop)

    def test_rho_boundaries(self):
        assert diag_cdf(0.3, 1.0) == pytest.approx(0.3, abs=1e-15)
        assert diag_cdf(0.3, -1.0) == 0.0
        assert diag_cdf(0.7, -1.0) == pytest.approx(0.4, abs=1e-15)


class TestHalfline:
    def test_matches_general_cdf(self):
        for u in (0.05, 0.3, 0.62, 0.9):
            for rho in (-0.95, -0.3, 0.4, 0.9):
                assert halfline_cdf(u, rho) == pytest.approx(
                    copula_cdf(u, 0.5, rho), abs=1e-10
                )

    def test_rho_zero(self):
        assert halfline_cdf(0.4, 0.0) == pytest.approx(0.2, abs=1e-15)

    def test_array_call_equals_scalar_loop(self):
        u = np.linspace(0.0, 1.0, 23)[:, None]
        rho = np.linspace(-1.0, 1.0, 17)
        loop = [[halfline_cdf(a, b) for b in rho.tolist()] for a in u.ravel().tolist()]
        assert np.array_equal(halfline_cdf(u, rho), np.array(loop))

    def test_rho_boundaries(self):
        assert halfline_cdf(0.3, 1.0) == pytest.approx(0.3, abs=1e-15)
        assert halfline_cdf(0.8, 1.0) == pytest.approx(0.5, abs=1e-15)
        assert halfline_cdf(0.3, -1.0) == 0.0
        assert halfline_cdf(0.8, -1.0) == pytest.approx(0.3, abs=1e-15)


class TestSectionEndpoints:
    """The closed forms give the exact values at u in {0, 1} as IEEE limits
    (PhiInv(0) = -inf, T(+-inf, a) = 0), across the whole rho range."""

    RHOS = [-1.0, -0.97, -0.0, 0.0, 0.5, 1.0]

    def test_exact_and_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for rho in self.RHOS:
                assert (diag_cdf(0.0, rho), diag_cdf(1.0, rho)) == (0.0, 1.0)
                assert (halfline_cdf(0.0, rho), halfline_cdf(1.0, rho)) == (0.0, 0.5)
                assert (diag_g(0.0, rho), diag_g(1.0, rho)) == (0.0, 1.0)
            u = np.array([0.0, 0.3, 1.0])[:, None]
            rho = np.array(self.RHOS)
            diag, half = diag_cdf(u, rho), halfline_cdf(u, rho)
            g = diag_g(u[::2], rho)
        assert (diag[0] == 0.0).all() and (diag[2] == 1.0).all()
        assert (half[0] == 0.0).all() and (half[2] == 0.5).all()
        assert (g[0] == 0.0).all() and (g[1] == 1.0).all()
        assert np.array_equal(diag[1], [diag_cdf(0.3, r) for r in self.RHOS])
        assert np.array_equal(half[1], [halfline_cdf(0.3, r) for r in self.RHOS])


class TestReductions:
    def test_diagonal_case(self):
        red = reduce_to_halflines(0.4, 0.4, 0.0)
        assert red.rho_u == pytest.approx(-np.sqrt(0.5), abs=1e-15)
        assert red.rho_v == pytest.approx(-np.sqrt(0.5), abs=1e-15)
        assert red.delta == 0.0
        assert red.value() == pytest.approx(0.16, abs=1e-12)

    def test_general_points(self):
        for u, v, rho in [(0.3, 0.7, 0.2), (0.1, 0.25, -0.6), (0.8, 0.65, 0.9)]:
            red = reduce_to_halflines(u, v, rho)
            assert red.value() == pytest.approx(copula_cdf(u, v, rho), abs=1e-10)

    def test_singular_at_half(self):
        with pytest.raises(DomainError):
            reduce_to_halflines(0.5, 0.7, 0.2)
        with pytest.raises(DomainError):
            reduce_to_halflines(0.7, 0.5, 0.2)

    def test_diag_to_line(self):
        for u in (0.1, 0.35, 0.75):
            for rho in (-0.8, -0.2, 0.5, 0.9):
                lhs = diag_cdf(u, rho)
                rhs = 2 * halfline_cdf(u, -np.sqrt((1 - rho) / 2))
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_line_from_diag(self):
        assert line_from_diag(0.3, 0.6) == pytest.approx(
            copula_cdf(0.3, 0.5, 0.6), abs=1e-10
        )
        assert line_from_diag(0.4, -np.sqrt(0.5)) == pytest.approx(0.08, abs=1e-13)
        assert line_from_diag(0.25, 0.0) == 0.125
        for u in (0.2, 0.5, 0.85):
            for rho in (-0.9, -0.4, 0.3, 0.8):
                assert line_from_diag(u, rho) == pytest.approx(
                    halfline_cdf(u, rho), abs=1e-10
                )

    def test_g_transform(self):
        assert diag_g_transform(0.2, 0.7) == pytest.approx(diag_cdf(0.2, 0.7), abs=1e-10)
        for u in (0.1, 0.45, 0.8):
            for rho in (-0.8, 0.3, 0.9):
                assert diag_g_transform(u, rho) == pytest.approx(
                    diag_cdf(u, rho), abs=1e-10
                )

    def test_g_transform_independence(self):
        assert diag_g_transform(0.37, 0.0) == pytest.approx(0.37**2, abs=1e-14)


class TestFactorIntegrals:
    def test_gamma_zero_factorizes(self):
        assert copula_factor_integral(0.3, 0.6, 0.5, 0.4, 0.0) == pytest.approx(
            0.18, abs=1e-11
        )

    def test_matches_direct_cdf(self):
        cfg = QuadratureConfig(abs_tol=1e-9)
        val = copula_factor_integral(0.3, 0.6, 0.7, 0.8, 0.5, cfg)
        assert val == pytest.approx(copula_cdf(0.3, 0.6, 0.28), abs=1e-9)

    def test_single_factor_route(self):
        cfg = QuadratureConfig(abs_tol=1e-9)
        val = copula_single_factor(0.3, 0.6, 0.7, 0.4, cfg)
        assert val == pytest.approx(copula_cdf(0.3, 0.6, 0.28), abs=1e-10)

    def test_cond_integral_both_axes(self):
        direct = copula_cdf(0.3, 0.6, 0.28)
        assert copula_cond_integral(0.3, 0.6, 0.28) == pytest.approx(direct, abs=1e-10)
        assert copula_cond_integral(0.3, 0.6, 0.28, axis="v") == pytest.approx(
            direct, abs=1e-10
        )

    def test_cond_integral_random_points(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            u, v = rng.uniform(0.0, 1.0, 2)
            rho = rng.uniform(-0.99, 0.99)
            direct = copula_cdf(u, v, rho)
            for axis in ("u", "v"):
                assert abs(copula_cond_integral(u, v, rho, axis=axis) - direct) <= 1e-13

    def test_cond_integral_boundary(self):
        for axis in ("u", "v"):
            assert copula_cond_integral(0.0, 0.4, 0.5, axis=axis) == 0.0
            assert copula_cond_integral(0.4, 0.0, 0.5, axis=axis) == 0.0
            assert copula_cond_integral(1.0, 0.4, 0.5, axis=axis) == pytest.approx(0.4, abs=1e-14)
            assert copula_cond_integral(0.4, 1.0, -0.5, axis=axis) == pytest.approx(0.4, abs=1e-14)

    def test_one_sided_limit_identity(self):
        # alpha -> 1 form: int_-inf^PhiInv(u) int Phi((PhiInv(v)-b y)/sb)
        # phi2(x, y; g) dy dx with b g = rho; documented as a test identity only.
        from bivnorm import norm_cdf

        u, v, beta, gamma = 0.4, 0.6, 0.8, 0.5
        rho = beta * gamma
        hu = norm_quantile(u)
        sb = np.sqrt(1 - beta * beta)

        def integrand(y, x):
            return norm_cdf((norm_quantile(v) - beta * y) / sb) * phi2_density(x, y, gamma)

        val, _ = integrate.dblquad(integrand, -9.0, hu, -9.0, 9.0, epsabs=1e-10)
        assert val == pytest.approx(copula_cdf(u, v, rho), abs=1e-8)

    def test_boundary_shortcuts(self):
        assert copula_factor_integral(0.0, 0.6, 0.5, 0.5, 0.5) == 0.0
        assert copula_factor_integral(1.0, 0.6, 0.5, 0.5, 0.5) == 0.6

    def test_loading_domain(self):
        with pytest.raises(DomainError):
            copula_factor_integral(0.3, 0.6, 1.0, 0.5, 0.5)
