"""Acceptance suite.

Each test pins one acceptance criterion at its stated tolerance and prints a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to
see them). Criteria with runtime caps assert those too.
"""

import time

import numpy as np
import pytest

from bivnorm import (
    DiagApproxKind,
    DiagBoundKind,
    FactorModel,
    McConfig,
    Measure,
    Phi2Method,
    QuadratureConfig,
    SkewNormal,
    SymmetryKind,
    Vasicek,
    apply_symmetry,
    bound_error_scan,
    copula_cdf,
    diag_cdf,
    diag_g,
    diag_g_transform,
    diag_integral,
    diag_integral_closed,
    gini_forms,
    halfline_cdf,
    halfline_integral,
    halfline_integral_closed,
    line_from_diag,
    mc_factor_model,
    measure_closed_form,
    measure_invert,
    measure_numeric,
    phi2_cdf,
    quad2d_phi2,
    reduce_to_halflines,
)

M = Phi2Method


def _report(num: int, ok: bool, description: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {status} - {description}{suffix}")
    assert ok, f"criterion {num}: {description}{suffix}"


def test_criterion_01_center_value():
    start = time.perf_counter()
    rhos = np.linspace(-0.99, 0.99, 41)
    worst = max(
        abs(copula_cdf(0.5, 0.5, r) - (0.25 + np.arcsin(r) / (2 * np.pi))) for r in rhos
    )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(1, ok, "midpoint closed form over 41 correlations",
            f"max err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_cross_engine_agreement():
    start = time.perf_counter()
    grid = (-3.0, -1.5, -0.5, 0.0, 0.5, 1.5, 3.0)
    rhos = (-0.95, -0.8, -0.6, -0.3, -0.05, 0.05, 0.3, 0.6, 0.8, 0.95)
    worst = 0.0
    for rho in rhos:
        engines = [M.OWEN, M.PLACKETT_FROM_INDEPENDENCE, M.PLACKETT_FROM_MAX,
                   M.SINGLE_FACTOR_QUADRATURE]
        if abs(rho) <= 0.5:
            engines.append(M.TETRACHORIC)
        for h in grid:
            for k in grid:
                vals = [phi2_cdf(h, k, rho, e) for e in engines]
                worst = max(worst, max(vals) - min(vals))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    _report(2, ok, "pairwise engine agreement on the 7x7x10 grid",
            f"max spread {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_oracle_agreement():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    cfg = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-12)
    worst = 0.0
    for _ in range(500):
        h, k = rng.uniform(-3.5, 3.5, 2)
        rho = rng.uniform(-0.95, 0.95)
        worst = max(worst, abs(phi2_cdf(h, k, rho) - quad2d_phi2(h, k, rho, cfg)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 120.0
    _report(3, ok, "auto engine vs 2-D quadrature oracle on 500 random points",
            f"max err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_symmetries():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        u, v = rng.uniform(0.005, 0.995, 2)
        rho = rng.uniform(-0.99, 0.99)
        direct = copula_cdf(u, v, rho)
        for kind in SymmetryKind:
            worst = max(worst, abs(apply_symmetry(kind, u, v, rho).value() - direct))
    ok = worst <= 1e-12
    _report(4, ok, "four symmetry identities on 1000 random points",
            f"max residual {worst:.2e}")


def test_criterion_05_reductions():
    worst = 0.0
    # general-point split into two half-lines
    unit = (0.1, 0.2, 0.35, 0.65, 0.8, 0.9)
    for u in unit:
        for v in unit:
            for rho in (-0.8, -0.5, -0.2, 0.2, 0.5, 0.8):
                err = abs(reduce_to_halflines(u, v, rho).value() - copula_cdf(u, v, rho))
                worst = max(worst, err)
    # diagonal <-> half-line in both directions
    for u in (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95):
        for rho in (-0.95, -0.6, -0.2, 0.2, 0.6, 0.95):
            lhs = diag_cdf(u, rho)
            rhs = 2.0 * halfline_cdf(u, -np.sqrt((1.0 - rho) / 2.0))
            worst = max(worst, abs(lhs - rhs))
            worst = max(worst, abs(line_from_diag(u, rho) - halfline_cdf(u, rho)))
    # substitution identity on the diagonal
    for u in (0.1, 0.3, 0.5, 0.7, 0.9):
        for rho in (-0.9, -0.5, 0.3, 0.7, 0.9):
            worst = max(worst, abs(diag_g_transform(u, rho) - diag_cdf(u, rho)))
    ok = worst <= 1e-10
    _report(5, ok, "half-line/diagonal reduction identities",
            f"max residual {worst:.2e}")


def test_criterion_06_plain_product_bounds():
    rep_lo = bound_error_scan(DiagBoundKind.LOWER_THM1, 200, 200)
    rep_hi = bound_error_scan(DiagBoundKind.UPPER_THM1, 200, 200)
    ok = (
        abs(rep_lo.max_abs_error - 0.25) <= 1e-6
        and abs(rep_lo.u_at_max - 0.5) <= 1e-6
        and abs(rep_lo.rho_at_max - 1.0) <= 1e-6
        and abs(rep_hi.max_abs_error - 0.25) <= 1e-6
        and abs(rep_hi.u_at_max - 0.5) <= 1e-6
        and abs(rep_hi.rho_at_max - 0.0) <= 1e-6
    )
    _report(6, ok, "plain product bounds: worst error 1/4 at the stated corners",
            f"lower {rep_lo.max_abs_error:.7f} @ rho={rep_lo.rho_at_max:.4f}, "
            f"upper {rep_hi.max_abs_error:.7f} @ rho={rep_hi.rho_at_max:.4f}")


def test_criterion_07_scaled_bounds():
    rep_hi = bound_error_scan(DiagBoundKind.UPPER_THM2, 200, 200)
    rep_lo = bound_error_scan(DiagBoundKind.LOWER_THM2, 200, 200)
    ok = (
        abs(rep_hi.max_abs_error - 0.05263) <= 5e-4
        and abs(rep_hi.rho_at_max - 0.7712) <= 1e-3
        and abs(rep_hi.u_at_max - 0.5) <= 1e-4
        and rep_lo.max_abs_error < 0.006
    )
    _report(7, ok, "scaled bounds: upper worst 0.05263 @ rho 0.7712, lower below 0.006",
            f"upper {rep_hi.max_abs_error:.6f} @ rho={rep_hi.rho_at_max:.5f}, "
            f"lower max {rep_lo.max_abs_error:.6f}")


def test_criterion_08_half_argument_bound():
    rep = bound_error_scan(DiagBoundKind.UPPER_THM3, 200, 200)
    ok = (
        abs(rep.max_abs_error - 0.015) <= 1e-3
        and abs(rep.rho_at_max - 0.5961) <= 5e-3
        and abs(rep.u_at_max - 0.5) <= 1e-4
    )
    _report(8, ok, "half-argument upper bound: worst ~0.015 @ rho ~0.5961",
            f"{rep.max_abs_error:.6f} @ rho={rep.rho_at_max:.5f}")


def test_criterion_09_refined_approximation():
    rep = bound_error_scan(DiagApproxKind.MEYER_REFINED, 200, 200)
    ok = rep.max_abs_error <= 6e-4
    _report(9, ok, "refined diagonal approximation stays below 6e-4",
            f"max err {rep.max_abs_error:.6f}")


def test_criterion_10_concordance():
    worst_numeric = 0.0
    for measure in Measure:
        for rho in (-0.8, -0.5, -0.2, 0.2, 0.5, 0.8):
            closed = measure_closed_form(measure, rho).value
            numeric = measure_numeric(measure, rho).value
            worst_numeric = max(worst_numeric, abs(closed - numeric))
    worst_gini = max(
        max(abs(a - b), abs(a - c), abs(b - c))
        for a, b, c in (gini_forms(r) for r in np.linspace(-1, 1, 41))
    )
    worst_invert = 0.0
    for measure in Measure:
        for rho in np.linspace(-0.99, 0.99, 23):
            value = measure_closed_form(measure, rho).value
            worst_invert = max(worst_invert, abs(measure_invert(measure, value) - rho))
    ok = worst_numeric <= 1e-6 and worst_gini <= 1e-13 and worst_invert <= 1e-10
    _report(10, ok, "concordance: integrals, equal Gini forms, inversions",
            f"numeric {worst_numeric:.2e}, gini {worst_gini:.2e}, invert {worst_invert:.2e}")


def test_criterion_11_moment_integrals():
    worst = 0.0
    for rho in np.linspace(-1.0, 1.0, 21):
        worst = max(worst, abs(diag_integral(rho) - diag_integral_closed(rho)))
        worst = max(worst, abs(halfline_integral(rho) - halfline_integral_closed(rho)))
    ok = worst <= 1e-8
    _report(11, ok, "diagonal and half-line moment integrals vs arcsine forms",
            f"max err {worst:.2e}")


def test_criterion_12_factor_model_monte_carlo():
    start = time.perf_counter()
    configs = [
        FactorModel(0.9, 0.9, 0.617, 0.5, 0.5),
        FactorModel(0.5, 0.5, 0.8, 0.3, 0.6),
        FactorModel(-0.6, 0.7, 0.5, 0.2, 0.4),
        FactorModel(0.8, 0.3, -0.4, 0.7, 0.1),
        FactorModel(0.4, 0.9, 0.9, 0.05, 0.5),
        FactorModel(0.7, 0.7, 0.0, 0.5, 0.5),
        FactorModel(-0.3, -0.4, 0.6, 0.6, 0.6),
        FactorModel(0.95, 0.95, 0.95, 0.4, 0.3),
        FactorModel(0.2, 0.6, -0.8, 0.8, 0.2),
        FactorModel(0.85, 0.6, 0.7, 0.25, 0.75),
    ]
    failures = []
    for seed, model in enumerate(configs):
        est = mc_factor_model(model, McConfig(n_paths=1_000_000, seed=seed))
        truth = copula_cdf(model.u, model.v, model.rho)
        if abs(est.estimate - truth) > 4.0 * est.std_error:
            failures.append((seed, est.estimate, truth, est.std_error))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    _report(12, ok, "factor-model MC within 4 SE for 10 seeded configurations",
            f"{elapsed:.1f}s" + (f", failures: {failures}" if failures else ""))


def test_criterion_13_skew_normal():
    from scipy import integrate

    worst = 0.0
    for lam in (-2.0, -0.5, 0.0, 0.5, 2.0):
        sn = SkewNormal(lam)
        for x in np.linspace(-3.0, 3.0, 13):
            a = sn.cdf(float(x))
            b = sn.cdf_diagonal(float(x))
            ref, _ = integrate.quad(sn.pdf, -np.inf, x, epsabs=1e-12)
            worst = max(worst, abs(a - b), abs(a - ref), abs(b - ref))
    ok = worst <= 1e-8
    _report(13, ok, "skew-normal: both rectangle routes and density quadrature",
            f"max spread {worst:.2e}")


def test_criterion_14_vasicek():
    from scipy import integrate

    def richardson(f, x, eps=1e-5):
        central = lambda e: (f(x + e) - f(x - e)) / (2 * e)
        return (4 * central(eps / 2) - central(eps)) / 3

    worst_moment = 0.0
    worst_trip = 0.0
    worst_mode = 0.0
    for p, rho in [(0.02, 0.15), (0.1, 0.2), (0.3, 0.4), (0.5, 0.3)]:
        dist = Vasicek(p, rho)
        mean, _ = integrate.quad(lambda q: q * dist.pdf(q), 1e-14, 1 - 1e-14,
                                 epsabs=1e-11, limit=300)
        second, _ = integrate.quad(lambda q: q * q * dist.pdf(q), 1e-14, 1 - 1e-14,
                                   epsabs=1e-11, limit=300)
        worst_moment = max(worst_moment, abs(mean - p),
                           abs(second - diag_cdf(p, rho)))
        for alpha in (0.001, 0.05, 0.5, 0.95, 0.999):
            worst_trip = max(worst_trip, abs(dist.cdf(dist.quantile(alpha)) - alpha))
        worst_mode = max(worst_mode, abs(richardson(dist.pdf, dist.mode())))
    ok = worst_moment <= 1e-7 and worst_trip <= 1e-12 and worst_mode <= 1e-6
    _report(14, ok, "Vasicek: moments by quadrature, round trips, mode stationarity",
            f"moments {worst_moment:.2e}, trip {worst_trip:.2e}, mode {worst_mode:.2e}")


def test_criterion_15_series_truncation():
    cfg = QuadratureConfig(series_max_terms=60)
    grid = (-3.0, -1.5, -0.5, 0.0, 0.5, 1.5, 3.0)
    worst = 0.0
    for rho in (-0.5, -0.3, -0.05, 0.05, 0.3, 0.5):
        for h in grid:
            for k in grid:
                a = phi2_cdf(h, k, rho, M.TETRACHORIC, cfg)
                b = phi2_cdf(h, k, rho)
                worst = max(worst, abs(a - b))
    ok = worst <= 1e-10
    _report(15, ok, "60-term series matches the auto engine for |rho| <= 0.5",
            f"max err {worst:.2e}")
