"""Command-line front end.

Subcommands: ``eval`` (single values), ``compare`` (engines vs the 2-D
quadrature oracle on a grid, optionally with a Monte Carlo column),
``scan-bounds`` (worst-case error scans of the diagonal
bounds/approximations), ``concordance`` (closed form / numeric /
inversion), ``dist`` (skew-normal and Vasicek queries).

Exit codes: 0 success, 2 argument problems, 3 numerical failure. Output goes
to stdout as plain values, CSV (stable header), or a JSON array; identical
flags and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from functools import cache

import numpy as np

from .errors import ConvergenceError, DomainError, EngineRejected
from .quadrature import QuadratureConfig
from .engines import Phi2Method, phi2_cdf
from .gauss import norm_cdf
from .owen import owen_t
from .copula import (
    cond_cdf_given_u,
    cond_cdf_given_v,
    copula_cdf,
    copula_density,
    diag_g,
)
from .bounds import DiagApproxKind, DiagBoundKind, bound_error_scan
from .concordance import (
    Measure,
    gini_forms,
    measure_closed_form,
    measure_invert,
    measure_numeric,
)
from .dists import SkewNormal, Vasicek
from .oracle import FactorModel, McConfig, mc_factor_model, quad2d_phi2

_DEFAULT_DIGITS = 12

_MEASURE_ALIASES = {
    "beta": Measure.BLOMQVIST_BETA,
    "tau": Measure.KENDALL_TAU,
    "spearman": Measure.SPEARMAN_RHO,
    "gini": Measure.GINI_GAMMA,
    "gtilde": Measure.GAMMA_TILDE,
}
_MEASURE_CHOICES = sorted({m.value for m in Measure} | set(_MEASURE_ALIASES))

_DEFAULT_GRID = (-3.0, -1.5, -0.5, 0.0, 0.5, 1.5, 3.0)
_DEFAULT_RHOS = (-0.95, -0.8, -0.6, -0.3, -0.05, 0.05, 0.3, 0.6, 0.8, 0.95)


def _fmt(value, digits: int) -> str:
    if isinstance(value, float):
        return format(value, f".{digits}g")
    return str(value)


def _emit(rows: list[dict], fmt: str, digits: int) -> None:
    if fmt == "json":
        printable = [
            {k: (float(_fmt(v, digits)) if isinstance(v, float) else v) for k, v in row.items()}
            for row in rows
        ]
        print(json.dumps(printable))
        return
    if fmt == "csv":
        header = list(rows[0].keys())
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row.get(col, ""), digits) for col in header])
        return
    for row in rows:
        print(" ".join(_fmt(v, digits) for v in row.values()))


def _cfg(args) -> QuadratureConfig:
    return QuadratureConfig(abs_tol=args.abs_tol, rel_tol=args.rel_tol)


def _method(args) -> Phi2Method:
    return Phi2Method(args.method)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


_EVAL_FLAGS = {
    "copula": ("u", "v", "rho"),
    "phi2": ("h", "k", "rho"),
    "density": ("u", "v", "rho"),
    "cond": ("u", "v", "rho"),
    "owen-t": ("h", "a"),
    "g": ("u", "rho"),
}


def cmd_eval(args) -> list[dict]:
    cfg = _cfg(args)
    what = args.quantity
    missing = [f"--{name}" for name in _EVAL_FLAGS[what] if getattr(args, name) is None]
    if missing:
        raise DomainError(f"eval {what} needs {' '.join(missing)}")
    if what == "copula":
        value = copula_cdf(args.u, args.v, args.rho, _method(args), cfg)
    elif what == "phi2":
        value = phi2_cdf(args.h, args.k, args.rho, _method(args), cfg)
    elif what == "density":
        value = copula_density(args.u, args.v, args.rho)
    elif what == "cond":
        fn = cond_cdf_given_u if args.given == "u" else cond_cdf_given_v
        value = fn(args.u, args.v, args.rho)
    elif what == "owen-t":
        value = owen_t(args.h, args.a)
    else:  # g
        value = diag_g(args.u, args.rho)
    return [{"value": float(value)}]


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def cmd_compare(args) -> list[dict]:
    cfg = _cfg(args)
    engines = [Phi2Method(e) for e in args.engines]
    rows: list[dict] = []
    worst: dict[str, float] = {}
    for rho in args.rho:
        for h in args.h_grid:
            for k in args.k_grid:
                truth = quad2d_phi2(h, k, rho, cfg)
                for engine in engines:
                    row = {
                        "kind": "point",
                        "engine": engine.value,
                        "h": h,
                        "k": k,
                        "rho": rho,
                        "status": "ok",
                        "value": float("nan"),
                        "abs_error": float("nan"),
                    }
                    try:
                        val = phi2_cdf(h, k, rho, engine, cfg)
                    except EngineRejected as exc:
                        row["status"] = f"rejected ({exc})"
                        rows.append(row)
                        continue
                    except ConvergenceError as exc:
                        row["status"] = f"unconverged (estimate {exc.estimate:.3e})"
                        rows.append(row)
                        continue
                    row["value"] = val
                    row["abs_error"] = abs(val - truth)
                    worst[engine.value] = max(worst.get(engine.value, 0.0), row["abs_error"])
                    rows.append(row)
                if args.mc_paths:
                    est = _mc_point(h, k, rho, args.mc_paths, args.seed)
                    rows.append(
                        {
                            "kind": "point",
                            "engine": "mc",
                            "h": h,
                            "k": k,
                            "rho": rho,
                            "status": f"se={est.std_error:.2e}",
                            "value": est.estimate,
                            "abs_error": abs(est.estimate - truth),
                        }
                    )
    for engine in engines:
        if engine.value in worst:
            rows.append(
                {
                    "kind": "summary",
                    "engine": engine.value,
                    "h": float("nan"),
                    "k": float("nan"),
                    "rho": float("nan"),
                    "status": "max",
                    "value": float("nan"),
                    "abs_error": worst[engine.value],
                }
            )
    return rows


def _mc_point(h: float, k: float, rho: float, n_paths: int, seed: int):
    # Route the point through the factor-model sampler: split rho into
    # loadings alpha beta = rho / 0.99 against factor correlation 0.99
    # (plain half loadings at independence).
    if rho == 0.0:
        model = FactorModel(0.5, 0.5, 0.0, float(norm_cdf(h)), float(norm_cdf(k)))
    else:
        if abs(rho) >= 0.99:
            raise DomainError("Monte Carlo comparison needs |rho| < 0.99")
        load = np.sqrt(abs(rho) / 0.99)
        model = FactorModel(
            float(np.copysign(load, rho)), float(load), 0.99,
            float(norm_cdf(h)), float(norm_cdf(k)),
        )
    return mc_factor_model(model, McConfig(n_paths=n_paths, seed=seed))


# ---------------------------------------------------------------------------
# scan-bounds
# ---------------------------------------------------------------------------


def cmd_scan_bounds(args) -> list[dict]:
    n_u, n_rho = args.grid
    report = bound_error_scan(args.kind, n_u=n_u, n_rho=n_rho, refine=not args.no_refine)
    return [report.to_dict()]


# ---------------------------------------------------------------------------
# concordance
# ---------------------------------------------------------------------------


def cmd_concordance(args) -> list[dict]:
    measure = _MEASURE_ALIASES.get(args.measure, None) or Measure(args.measure)
    cfg = _cfg(args)
    closed = measure_closed_form(measure, args.rho)
    rows = [
        {"kind": "closed_form", "measure": measure.value, "rho": args.rho, "value": closed.value}
    ]
    if measure is Measure.GINI_GAMMA:
        for i, form in enumerate(gini_forms(args.rho), start=1):
            rows.append(
                {"kind": f"closed_form_{i}", "measure": measure.value, "rho": args.rho, "value": form}
            )
    if args.numeric:
        num = measure_numeric(measure, args.rho, cfg)
        rows.append(
            {"kind": "numeric", "measure": measure.value, "rho": args.rho, "value": num.value}
        )
    if args.invert:
        back = measure_invert(measure, closed.value)
        rows.append(
            {"kind": "inverted", "measure": measure.value, "rho": back, "value": closed.value}
        )
    return rows


# ---------------------------------------------------------------------------
# dist
# ---------------------------------------------------------------------------


def cmd_dist(args) -> list[dict]:
    rows: list[dict] = []
    if args.family == "skew-normal":
        dist = SkewNormal(args.lam)
        if args.pdf_at is not None:
            rows.append({"family": "skew-normal", "quantity": "pdf", "arg": args.pdf_at,
                         "value": float(dist.pdf(args.pdf_at))})
        if args.x is not None:
            rows.append({"family": "skew-normal", "quantity": "cdf", "arg": args.x,
                         "value": dist.cdf(args.x, _method(args), _cfg(args))})
        if not rows:
            raise DomainError("skew-normal queries need --x (CDF) or --pdf-at")
        return rows
    dist = Vasicek(args.p, args.rho)
    if args.quantile is not None:
        rows.append({"family": "vasicek", "quantity": "quantile", "arg": args.quantile,
                     "value": float(dist.quantile(args.quantile))})
    if args.cdf is not None:
        rows.append({"family": "vasicek", "quantity": "cdf", "arg": args.cdf,
                     "value": float(dist.cdf(args.cdf))})
    if args.pdf_at is not None:
        rows.append({"family": "vasicek", "quantity": "pdf", "arg": args.pdf_at,
                     "value": float(dist.pdf(args.pdf_at))})
    if args.mode:
        rows.append({"family": "vasicek", "quantity": "mode", "arg": float("nan"),
                     "value": dist.mode()})
    if args.median:
        rows.append({"family": "vasicek", "quantity": "median", "arg": float("nan"),
                     "value": dist.median()})
    if args.moments:
        rows.append({"family": "vasicek", "quantity": "mean", "arg": float("nan"),
                     "value": dist.mean()})
        rows.append({"family": "vasicek", "quantity": "second_moment", "arg": float("nan"),
                     "value": dist.second_moment()})
        rows.append({"family": "vasicek", "quantity": "variance", "arg": float("nan"),
                     "value": dist.variance()})
    if args.shape:
        rows.append({"family": "vasicek", "quantity": "shape", "arg": float("nan"),
                     "value": dist.shape()})
    if not rows:
        raise DomainError("nothing to compute: pass --quantile/--cdf/--pdf-at/--moments/--mode/--median/--shape")
    return rows


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    p.add_argument("--digits", type=int, default=_DEFAULT_DIGITS)
    p.add_argument("--abs-tol", type=float, default=1e-12)
    p.add_argument("--rel-tol", type=float, default=1e-12)


# Built once per process. No command mutates the parsed ``args``, so the
# list defaults of ``compare`` can be shared between calls; keep it so.
@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bivnorm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    methods = [m.value for m in Phi2Method]

    p = sub.add_parser("eval", help="evaluate a single quantity")
    p.add_argument("quantity", choices=("copula", "phi2", "density", "cond", "owen-t", "g"))
    p.add_argument("--u", type=float)
    p.add_argument("--v", type=float)
    p.add_argument("--h", type=float)
    p.add_argument("--k", type=float)
    p.add_argument("--a", type=float)
    p.add_argument("--rho", type=float)
    p.add_argument("--given", choices=("u", "v"), default="u")
    p.add_argument("--method", choices=methods, default="auto")
    _add_common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("compare", help="engines vs the 2-D quadrature oracle")
    p.add_argument("--h-grid", type=float, nargs="+", default=list(_DEFAULT_GRID))
    p.add_argument("--k-grid", type=float, nargs="+", default=list(_DEFAULT_GRID))
    p.add_argument("--rho", type=float, nargs="+", default=list(_DEFAULT_RHOS))
    p.add_argument("--engines", nargs="+", default=[m.value for m in Phi2Method if m is not Phi2Method.AUTO],
                   choices=methods)
    p.add_argument("--mc-paths", type=int, default=0,
                   help="additionally estimate each point by Monte Carlo with this many paths")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("scan-bounds", help="worst-case error scan on the diagonal wedge")
    kinds = [k.value for k in DiagBoundKind] + [k.value for k in DiagApproxKind]
    p.add_argument("--kind", required=True, choices=kinds)
    p.add_argument("--grid", type=_parse_grid, default=(200, 200), help="NxM, default 200x200")
    p.add_argument("--no-refine", action="store_true")
    _add_common(p)
    p.set_defaults(fn=cmd_scan_bounds)

    p = sub.add_parser("concordance", help="concordance measures")
    p.add_argument("--measure", required=True, choices=_MEASURE_CHOICES)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--numeric", action="store_true")
    p.add_argument("--invert", action="store_true")
    _add_common(p)
    p.set_defaults(fn=cmd_concordance)

    p = sub.add_parser("dist", help="skew-normal / Vasicek queries")
    p.add_argument("family", choices=("skew-normal", "vasicek"))
    p.add_argument("--lam", type=float, default=0.0, help="skewness parameter")
    p.add_argument("--x", type=float, help="skew-normal evaluation point")
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--rho", type=float, default=0.1)
    p.add_argument("--quantile", type=float)
    p.add_argument("--cdf", type=float)
    p.add_argument("--pdf-at", type=float)
    p.add_argument("--moments", action="store_true")
    p.add_argument("--mode", action="store_true")
    p.add_argument("--median", action="store_true")
    p.add_argument("--shape", action="store_true")
    p.add_argument("--method", choices=methods, default="auto")
    _add_common(p)
    p.set_defaults(fn=cmd_dist)

    return parser


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        a, b = text.lower().split("x")
        return int(a), int(b)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"grid must look like 200x200, got {text!r}") from exc


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rows = args.fn(args)
    except EngineRejected as exc:
        print(f"engine rejected: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical failure: {exc} (estimate {exc.estimate:.3e})", file=sys.stderr)
        return 3
    _emit(rows, args.format, args.digits)
    return 0


if __name__ == "__main__":
    sys.exit(main())
