"""The benchmark's workloads, built from a seed, with their correctness checks.

A workload is a sequence of rounds. A round is a fixed mix of operations
whose inputs come from ``(seed, round index)``, so the same seed gives the
same inputs and every round has the same composition. Each operation is

    Op(kind, points, args, fn, check)

``args()`` builds the call's arguments (outside the timed region, so large
arrays are made just before they are used and freed right after),
``fn(*args)`` is the timed call into bivnorm, and ``check(args, result)``
compares the result with the independent reference in ``reference.py``
(again outside the timed region). A check returns True or False, or None
when the round checks its results together at the end: ``Round.finish``
then returns one line per result that missed its reference.

Every call goes through an attribute of the ``bivnorm`` package or of one of
its modules at call time, so that the span wrappers of ``spans.py`` see it.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import ndtri

import bivnorm as bn
from bivnorm import cli as bn_cli

import reference as ref
from spans import HIGH_RHO

TOL = ref.PHI2_ABS_TOL


@dataclass
class Op:
    kind: str
    points: int
    args: Callable[[], tuple]
    fn: Callable
    check: Callable[[tuple, object], bool | None]


@dataclass
class Round:
    ops: list[Op] = field(default_factory=list)
    finish: Callable[[], list[str]] = list


def rng_for(seed: int, index: int, *extra: int) -> np.random.Generator:
    return np.random.default_rng([seed, index, *extra])


def unit_points(rng: np.random.Generator, n: int, lo: float = 1e-12) -> np.ndarray:
    """Half uniform on (0, 1), half log-uniform in the tails down to 1e-8."""
    t = 10.0 ** rng.uniform(-8.0, np.log10(0.5), n)
    tails = np.where(rng.random(n) < 0.5, t, 1.0 - t)
    return np.clip(np.where(rng.random(n) < 0.5, tails, rng.random(n)), lo, 1.0 - lo)


def correlations(rng: np.random.Generator, n: int, high_share: float = 0.25) -> np.ndarray:
    """A fixed share with 0.8 < |rho| < 0.999 (auto's from-max branch), the
    rest uniform on [-0.8, 0.8]; positions shuffled."""
    n_high = int(round(high_share * n))
    high = rng.choice([-1.0, 1.0], n_high) * rng.uniform(0.8001, 0.999, n_high)
    low = rng.uniform(-0.8, 0.8, n - n_high)
    return rng.permutation(np.concatenate([high, low]))


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bn_cli.main(argv)
    return code, out.getvalue()


def _fmt12(value: float) -> float:
    # The CLI prints floats with 12 significant digits by default.
    return float(format(value, ".12g"))


# ---------------------------------------------------------------------------
# scalar_mix: single-point calls as pricing and risk code makes them
# ---------------------------------------------------------------------------

# Calls per round (1000, so that a round's tail is its 99th percentile).
SCALAR_COUNTS = {
    "copula_cdf": 600,
    "phi2_cdf": 200,
    "vasicek.pair_cov": 70,
    "vasicek.second_moment": 70,
    "skew_normal.cdf": 60,
}
# Of the phi2_cdf calls per round: +-inf arguments and rho in {-1, 0, 1},
# which the library answers without an engine.
PHI2_SHORT_INF = 8
PHI2_SHORT_RHO = 8


def scalar_round(seed: int, index: int) -> Round:
    rng = rng_for(seed, index)
    ops: list[Op] = []
    checks: list[Callable[[], list[str]]] = []

    def deferred(kind, fn, columns, expected, tol):
        # One op per row of ``columns``; results are compared in one pass.
        n = len(columns[0])
        got = np.full(n, np.nan)
        ran = np.zeros(n, dtype=bool)
        rows = [tuple(float(c[i]) for c in columns) for i in range(n)]
        for i, row in enumerate(rows):

            def store(args, result, i=i):
                got[i] = result
                ran[i] = True

            ops.append(Op(kind_of(kind, row), 1, lambda row=row: row, fn, store))

        def check() -> list[str]:
            exp = expected()
            bad = np.flatnonzero(ran & ~(np.abs(got - exp) <= tol))
            return [f"{kind}{rows[i]} = {float(got[i])!r}, reference {float(exp[i])!r}" for i in bad]

        checks.append(check)

    def kind_of(kind, row):
        if kind in ("copula_cdf", "phi2_cdf") and HIGH_RHO < abs(row[2]) < 1.0:
            return kind + ".high_rho"
        return kind

    n = SCALAR_COUNTS["copula_cdf"]
    u, v, r = unit_points(rng, n, 1e-8), unit_points(rng, n, 1e-8), correlations(rng, n)
    deferred("copula_cdf", lambda *a: bn.copula_cdf(*a), (u, v, r),
             lambda: ref.copula(u, v, r), TOL)

    n = SCALAR_COUNTS["phi2_cdf"]
    h, k = ndtri(unit_points(rng, n, 1e-8)), ndtri(unit_points(rng, n, 1e-8))
    rp = correlations(rng, n)
    quarter = PHI2_SHORT_INF // 4
    h[:quarter], h[quarter:2 * quarter] = np.inf, -np.inf
    k[2 * quarter:3 * quarter], k[3 * quarter:PHI2_SHORT_INF] = np.inf, -np.inf
    rp[PHI2_SHORT_INF:PHI2_SHORT_INF + PHI2_SHORT_RHO] = np.resize([-1.0, 0.0, 1.0, 0.0], PHI2_SHORT_RHO)
    perm = rng.permutation(n)
    h, k, rp = h[perm], k[perm], rp[perm]
    deferred("phi2_cdf", lambda *a: bn.phi2_cdf(*a), (h, k, rp),
             lambda: ref.phi2(h, k, rp), TOL)

    n = SCALAR_COUNTS["vasicek.pair_cov"]
    p1, p2 = 10.0 ** rng.uniform(-4, -1, n), 10.0 ** rng.uniform(-4, -1, n)
    r1, r2 = rng.uniform(0.05, 0.45, n), rng.uniform(0.05, 0.45, n)
    gam = rng.uniform(-0.95, 0.95, n)
    deferred(
        "vasicek.pair_cov",
        lambda a, b, c, d, g: bn.Vasicek(a, c).pair_cov(bn.Vasicek(b, d), g),
        (p1, p2, r1, r2, gam),
        lambda: ref.copula(p1, p2, gam * np.sqrt(r1 * r2)) - p1 * p2,
        TOL,
    )

    n = SCALAR_COUNTS["vasicek.second_moment"]
    p, rv = 10.0 ** rng.uniform(-4, -1, n), rng.uniform(0.05, 0.95, n)
    deferred("vasicek.second_moment", lambda a, b: bn.Vasicek(a, b).second_moment(),
             (p, rv), lambda: ref.diag(p, rv), TOL)

    n = SCALAR_COUNTS["skew_normal.cdf"]
    lam, x = rng.uniform(-4.0, 4.0, n), rng.normal(0.0, 2.0, n)
    # 2 Phi2(x, 0; .): twice the Phi2 tolerance.
    deferred("skew_normal.cdf", lambda a, b: bn.SkewNormal(a).cdf(b), (lam, x),
             lambda: ref.skew_normal_cdf(x, lam), 2 * TOL)

    order = rng.permutation(len(ops))
    return Round([ops[i] for i in order], lambda: [line for c in checks for line in c()])


# ---------------------------------------------------------------------------
# batch_arrays: vectorized calls on 1e3 and 1e6 points
# ---------------------------------------------------------------------------

SMALL, LARGE = 1_000, 1_000_000
# Every round calls each function at SMALL points, SMALL_PER_WEIGHT times per
# unit of weight, and LARGE_CALLS times at LARGE points. The weights put the
# median call inside the owen_t cluster rather than on the boundary between
# two functions whose times differ several-fold. The 20 large calls put the
# tail of a round (the call with 10 slower ones) on the fastest of the three
# 1e6-point copula_density calls: the 8 large calls of the four Owen's T
# functions and two density calls are slower. The fastest of three is less
# exposed to a stall of the host than a single call would be.
SMALL_PER_WEIGHT = 40
BATCH_WEIGHTS = {
    "phi2_owen": 3,
    "owen_t": 3,
    "diag_cdf": 1,
    "halfline_cdf": 1,
    "norm_quantile": 1,
    "copula_density": 1,
    "diag_bound": 1,
    "diag_approx": 1,
}
LARGE_CALLS = {
    "phi2_owen": 2,
    "owen_t": 2,
    "diag_cdf": 2,
    "halfline_cdf": 2,
    "norm_quantile": 3,
    "copula_density": 3,
    "diag_bound": 3,
    "diag_approx": 3,
}
BOUND_KINDS = tuple(ref.BOUND_SIDE)


def batch_args(name: str, rng: np.random.Generator, n: int, slot: int) -> tuple:
    if name == "phi2_owen":
        return ndtri(unit_points(rng, n)), ndtri(unit_points(rng, n)), float(rng.uniform(-0.99, 0.99))
    if name == "owen_t":
        small = rng.uniform(-1.0, 1.0, n)
        big = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(0.0, 1.5, n)
        a = np.where(rng.random(n) < 0.5, small, big)
        a[: max(n // 100, 1)] = np.inf
        return rng.normal(0.0, 2.5, n), a
    if name in ("diag_cdf", "halfline_cdf"):
        return unit_points(rng, n), float(rng.uniform(-0.99, 0.99))
    if name == "norm_quantile":
        return (unit_points(rng, n),)
    if name == "copula_density":
        return unit_points(rng, n), unit_points(rng, n), float(rng.uniform(-0.95, 0.95))
    if name == "diag_bound":
        return BOUND_KINDS[slot % len(BOUND_KINDS)], rng.uniform(0.0, 0.5, n), rng.uniform(0.0, 1.0, n)
    # diag_approx: the paper's refined approximation
    return "meyer_refined", rng.uniform(1e-12, 0.5, n), rng.uniform(0.0, 1.0, n)


BATCH_FNS = {
    "phi2_owen": lambda *a: bn.phi2_owen(*a),
    "owen_t": lambda *a: bn.owen_t(*a),
    "diag_cdf": lambda *a: bn.diag_cdf(*a),
    "halfline_cdf": lambda *a: bn.halfline_cdf(*a),
    "norm_quantile": lambda *a: bn.norm_quantile(*a),
    "copula_density": lambda *a: bn.copula_density(*a),
    "diag_bound": lambda *a: bn.diag_bound(*a),
    "diag_approx": lambda *a: bn.diag_approx(*a),
}


def batch_check(name: str, args: tuple, got) -> bool:
    got = np.asarray(got, dtype=float)
    if name == "phi2_owen":
        return ref.within(got, ref.phi2(*args), TOL)
    if name == "owen_t":
        return ref.within(got, ref.owen_t(*args), TOL)
    if name == "diag_cdf":
        return ref.within(got, ref.diag(*args), TOL)
    if name == "halfline_cdf":
        u, r = args
        return ref.within(got, ref.copula(u, 0.5, r), TOL)
    if name == "norm_quantile":
        return ref.within(got, ndtri(args[0]), 1e-15, 1e-12)
    if name == "copula_density":
        return ref.within(got, ref.copula_density(*args), 0.0, 1e-9)
    kind, u, r = args
    exact = ref.diag(u, r)
    if name == "diag_bound":
        side = ref.BOUND_SIDE[kind]
        return ref.within(got, ref.diag_bound(kind, u, r), TOL) and bool(
            np.all(side * (got - exact) >= -TOL)
        )
    return ref.within(got, ref.meyer_refined(u, r), TOL) and bool(
        np.all(np.abs(got - exact) <= ref.MEYER_REFINED_LIMIT)
    )


def batch_round(seed: int, index: int) -> Round:
    rng = rng_for(seed, index)
    plan = [(name, SMALL, slot) for name, w in BATCH_WEIGHTS.items()
            for slot in range(w * SMALL_PER_WEIGHT)]
    plan += [(name, LARGE, slot) for name, calls in LARGE_CALLS.items() for slot in range(calls)]
    ops = []
    for j in rng.permutation(len(plan)):
        name, n, slot = plan[j]
        ops.append(Op(
            f"{name}.{'1e3' if n == SMALL else '1e6'}",
            n,
            lambda name=name, n=n, slot=slot, j=j: batch_args(name, rng_for(seed, index, int(j)), n, slot),
            BATCH_FNS[name],
            lambda args, got, name=name: batch_check(name, args, got),
        ))
    return Round(ops)


# ---------------------------------------------------------------------------
# paper_analyses: the paper's analyses as tasks
# ---------------------------------------------------------------------------

SCAN_KINDS = [k.value for k in bn.DiagBoundKind] + [k.value for k in bn.DiagApproxKind]
MEASURES = [m.value for m in bn.Measure]

# The library's tested accuracy of its quadrature estimates.
MEASURE_TOL = 1e-6
INTEGRAL_TOL = 1e-8


def _scan_check(kind: str, rep) -> bool:
    u_star, r_star, err = float(rep.u_at_max), float(rep.rho_at_max), float(rep.max_abs_error)
    candidate = (bn.diag_bound(kind, u_star, r_star) if kind in ref.BOUND_SIDE
                 else bn.diag_approx(kind, u_star, r_star))
    # The reported worst error is the error at the reported point.
    ok = abs(abs(candidate - float(ref.diag(u_star, r_star))) - err) <= TOL
    if kind in ref.SCAN_CONSTANTS:
        value, tol, rho_star, rho_tol = ref.SCAN_CONSTANTS[kind]
        ok &= abs(err - value) <= tol
        if rho_star is not None:
            ok &= abs(r_star - rho_star) <= rho_tol
    if kind == "meyer_refined":
        ok &= err < ref.MEYER_REFINED_LIMIT
    if kind in ref.BOUND_SIDE or kind == "meyer_refined":
        # ... and no point of the coarse grid is worse.
        u = np.linspace(0.0, 0.5, rep.n_u)[:, None]
        if kind == "meyer_refined":
            u = u[1:]
        r = np.linspace(0.0, 1.0, rep.n_rho)[None, :]
        cand = ref.meyer_refined(u, r) if kind == "meyer_refined" else ref.diag_bound(kind, u, r)
        grid_err = np.abs(cand - ref.diag(np.broadcast_to(u, cand.shape), r))
        ok &= err >= float(np.nanmax(grid_err)) - TOL
    if ref.BOUND_SIDE.get(kind) == 1:
        ok &= rep.min_signed_error >= -TOL
    return bool(ok)


def _measure_check(name: str, rho: float, mv) -> bool:
    return abs(mv.value - ref.MEASURE_CLOSED[name](rho)) <= MEASURE_TOL


def _cli_eval_check(args, out) -> bool:
    (argv,) = args
    code, text = out
    u, v, rho = (float(argv[i]) for i in (3, 5, 7))
    value = float(text)
    return (code == 0 and value == _fmt12(bn.copula_cdf(u, v, rho))
            and abs(value - float(ref.copula(u, v, rho))) <= 2 * TOL)


def _cli_scan_check(args, out) -> bool:
    (argv,) = args
    code, text = out
    kind, n = argv[2], int(argv[4].split("x")[0])
    (row,) = json.loads(text)
    lib = bn.bound_error_scan(kind, n_u=n, n_rho=n).to_dict()
    same = all(row[k] == (_fmt12(v) if isinstance(v, float) else v) for k, v in lib.items())
    return code == 0 and same and row["kind"] == kind


def _cli_concordance_check(args, out) -> bool:
    (argv,) = args
    code, text = out
    rho = float(argv[4])
    rows = {r["kind"]: r["value"] for r in json.loads(text)}
    closed = ref.MEASURE_CLOSED["gini_gamma"](rho)
    numeric = bn.measure_numeric("gini_gamma", rho).value
    return (code == 0
            and all(abs(rows[k] - closed) <= 2 * TOL for k in rows if k.startswith("closed_form"))
            and rows["numeric"] == _fmt12(numeric)
            and abs(rows["numeric"] - closed) <= MEASURE_TOL)


def _cli_dist_check(args, out) -> bool:
    (argv,) = args
    code, text = out
    p, rho, q = float(argv[3]), float(argv[5]), float(argv[7])
    rows = {r["quantity"]: r["value"] for r in json.loads(text)}
    dist = bn.Vasicek(p, rho)
    expected = {
        "quantile": float(dist.quantile(q)),
        "mean": dist.mean(),
        "second_moment": dist.second_moment(),
        "variance": dist.variance(),
    }
    return (code == 0
            and all(rows[k] == _fmt12(v) for k, v in expected.items())
            and abs(rows["second_moment"] - float(ref.diag(p, rho))) <= 2 * TOL)


def _cli_compare_check(args, out) -> bool:
    (argv,) = args
    code, text = out
    rows = json.loads(text)
    ok = code == 0
    engines = set()
    for row in rows:
        if row["kind"] == "summary":
            engines.discard(row["engine"])
            continue
        h, k, rho, engine = row["h"], row["k"], row["rho"], row["engine"]
        if row["status"].startswith("rejected"):
            ok &= engine == "tetrachoric" and abs(rho) > 0.6
            continue
        engines.add(engine)
        lib = bn.phi2_cdf(h, k, rho, engine)
        ok &= row["value"] == _fmt12(lib)
        ok &= abs(row["value"] - float(ref.phi2(h, k, rho))) <= 2 * TOL
        # Engine against the 2-D quadrature oracle: both hold 1e-12.
        ok &= row["abs_error"] <= 2 * TOL + 1e-12 * abs(row["value"])
    return bool(ok and not engines and len(rows) > 0)


# Passes over the task list per round, so that a round has enough tasks
# for a tail with 10 beyond it.
PAPER_PASSES = 4


def paper_round(seed: int, index: int) -> Round:
    rng = rng_for(seed, index)
    ops: list[Op] = []

    def add(kind, args, fn, check):
        ops.append(Op(kind, 1, lambda args=args: args, fn, check))

    for _ in range(PAPER_PASSES):
        _paper_pass(rng, add)
    order = rng.permutation(len(ops))
    return Round([ops[i] for i in order])


def _paper_pass(rng: np.random.Generator, add) -> None:
    for kind in SCAN_KINDS:
        add(f"bound_error_scan.{kind}", (kind,), lambda k: bn.bound_error_scan(k),
            lambda args, rep: _scan_check(args[0], rep))
    for name in MEASURES:
        rho = float(rng.uniform(-0.9, 0.9))
        add(f"measure_numeric.{name}", (name, rho), lambda m, r: bn.measure_numeric(m, r),
            lambda args, mv: _measure_check(args[0], args[1], mv))
    rho = float(rng.uniform(-0.95, 0.95))
    add("diag_integral", (rho,), lambda r: bn.diag_integral(r),
        lambda args, x: abs(x - ref.diag_integral(args[0])) <= INTEGRAL_TOL)
    rho = float(rng.uniform(-0.95, 0.95))
    add("halfline_integral", (rho,), lambda r: bn.halfline_integral(r),
        lambda args, x: abs(x - ref.halfline_integral(args[0])) <= INTEGRAL_TOL)

    u, v = (float(x) for x in rng.uniform(0.01, 0.99, 2))
    a, b = (float(x) for x in rng.choice([-1.0, 1.0], 2) * rng.uniform(0.3, 0.9, 2))
    g = float(rng.uniform(-0.9, 0.9))
    add("copula_factor_integral", (u, v, a, b, g), lambda *x: bn.copula_factor_integral(*x),
        lambda x, c: abs(c - float(ref.copula(x[0], x[1], x[2] * x[3] * x[4]))) <= TOL)
    add("copula_single_factor", (u, v, a, b), lambda *x: bn.copula_single_factor(*x),
        lambda x, c: abs(c - float(ref.copula(x[0], x[1], x[2] * x[3]))) <= TOL)

    cli = lambda argv: run_cli(argv)  # noqa: E731
    uu, vv = unit_points(rng, 2, 1e-8)
    add("cli.eval", (["eval", "copula", "--u", repr(float(uu)), "--v", repr(float(vv)),
                      "--rho", repr(float(correlations(rng, 1, 0.0)[0]))],),
        cli, _cli_eval_check)
    add("cli.scan-bounds", (["scan-bounds", "--kind", str(rng.choice(SCAN_KINDS)),
                             "--grid", "100x100", "--format", "json"],),
        cli, _cli_scan_check)
    add("cli.concordance", (["concordance", "--measure", "gini", "--rho",
                             repr(float(rng.uniform(-0.9, 0.9))), "--numeric",
                             "--format", "json"],),
        cli, _cli_concordance_check)
    add("cli.dist", (["dist", "vasicek", "--p", repr(float(10.0 ** rng.uniform(-4, -1))),
                      "--rho", repr(float(rng.uniform(0.05, 0.6))), "--quantile",
                      repr(float(rng.uniform(0.5, 0.999))), "--moments", "--format", "json"],),
        cli, _cli_dist_check)
    # A 2 x 2 x 1 grid: the default grid takes about 40 s. |rho| > 0.6, so
    # the tetrachoric engine is rejected at every point.
    hs = [repr(round(float(x), 3)) for x in rng.uniform(-2.0, 2.0, 2)]
    ks = [repr(round(float(x), 3)) for x in rng.uniform(-2.0, 2.0, 2)]
    rho = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.65, 0.85))
    add("cli.compare", (["compare", "--h-grid", *hs, "--k-grid", *ks, "--rho",
                         repr(round(rho, 3)), "--format", "json"],),
        cli, _cli_compare_check)


# ---------------------------------------------------------------------------

WORKLOADS = {
    "scalar_mix": scalar_round,
    "batch_arrays": batch_round,
    "paper_analyses": paper_round,
}


def warmup_calls() -> list[tuple[str, Callable[[], object]]]:
    """One call per entry point the workloads use, on small inputs.

    Set-up runs these once so that lazy imports, the argument parser and
    the quadrature node caches are filled before anything is timed.
    """
    x = np.linspace(0.05, 0.95, 8)
    h = ndtri(x)
    return [
        ("norm_quantile", lambda: bn.norm_quantile(0.3)),
        ("owen_t", lambda: bn.owen_t(h, x * 3.0)),
        ("phi2_cdf", lambda: bn.phi2_cdf(0.3, -0.4, 0.5)),
        ("phi2_cdf.high_rho", lambda: bn.phi2_cdf(0.3, -0.4, 0.95)),
        ("phi2_owen", lambda: bn.phi2_owen(h, h[::-1], 0.5)),
        ("copula_cdf", lambda: bn.copula_cdf(0.3, 0.4, 0.5)),
        ("copula_density", lambda: bn.copula_density(x, x[::-1], 0.5)),
        ("diag_cdf", lambda: bn.diag_cdf(x, 0.5)),
        ("halfline_cdf", lambda: bn.halfline_cdf(x, 0.5)),
        ("diag_bound", lambda: bn.diag_bound("upper_thm2", x / 2.0, x)),
        ("diag_approx", lambda: bn.diag_approx("meyer_refined", x / 2.0, x)),
        ("bound_error_scan", lambda: bn.bound_error_scan("upper_thm3", 8, 8, refine=False)),
        ("measure_numeric", lambda: bn.measure_numeric("kendall_tau", 0.5)),
        ("diag_integral", lambda: bn.diag_integral(0.5)),
        ("halfline_integral", lambda: bn.halfline_integral(0.5)),
        ("copula_factor_integral", lambda: bn.copula_factor_integral(0.3, 0.6, 0.5, 0.5, 0.5)),
        ("copula_single_factor", lambda: bn.copula_single_factor(0.3, 0.6, 0.5, 0.5)),
        ("vasicek", lambda: bn.Vasicek(0.01, 0.2).pair_cov(bn.Vasicek(0.02, 0.1), 0.5)),
        ("vasicek.second_moment", lambda: bn.Vasicek(0.01, 0.2).second_moment()),
        ("skew_normal", lambda: bn.SkewNormal(1.5).cdf(0.7)),
        ("quad2d_phi2", lambda: bn.quad2d_phi2(0.5, -1.0, 0.3)),
        ("cli", lambda: run_cli(["eval", "copula", "--u", "0.3", "--v", "0.4", "--rho", "0.5"])),
    ]
