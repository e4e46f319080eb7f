"""Command-line front end.

Subcommands: ``eval`` (single values), ``compare`` (engines vs the 2-D
quadrature oracle on a grid, optionally with a Monte Carlo column),
``scan-bounds`` (worst-case error scans of the diagonal
bounds/approximations), ``concordance`` (closed form / numeric /
inversion), ``dist skew-normal`` and ``dist vasicek`` (queries of the two
laws). Each subcommand accepts only the flags it reads: every one takes
``--format`` and ``--digits``; ``--abs-tol`` and ``--rel-tol`` go where a
result honours them (``eval``, ``compare``, ``concordance``, ``dist
skew-normal``), and ``--method`` on ``eval`` and ``dist skew-normal``.
``eval`` rejects a flag that its quantity does not read: ``--given`` goes
with ``cond`` only, ``--method`` and the tolerances with ``copula`` and
``phi2`` only.

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
_NAN = float("nan")

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


# --method, --abs-tol, --rel-tol and eval's --given default to None, so that
# eval can tell a flag given on the command line; unset, the library's
# default applies.
def _cfg(args) -> QuadratureConfig:
    given = {name: getattr(args, name) for name in ("abs_tol", "rel_tol")}
    return QuadratureConfig(**{name: tol for name, tol in given.items() if tol is not None})


def _method(args) -> Phi2Method:
    return Phi2Method(args.method) if args.method else Phi2Method.AUTO


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


_ENGINE_FLAGS = ("method", "abs_tol", "rel_tol")

# Each quantity: the point flags it needs, the optional flags it reads, and
# its value from the parsed arguments.
_EVAL = {
    "copula": (("u", "v", "rho"), _ENGINE_FLAGS,
               lambda a: copula_cdf(a.u, a.v, a.rho, _method(a), _cfg(a))),
    "phi2": (("h", "k", "rho"), _ENGINE_FLAGS,
             lambda a: phi2_cdf(a.h, a.k, a.rho, _method(a), _cfg(a))),
    "density": (("u", "v", "rho"), (), lambda a: copula_density(a.u, a.v, a.rho)),
    "cond": (("u", "v", "rho"), ("given",),
             lambda a: (cond_cdf_given_v if a.given == "v" else cond_cdf_given_u)(
                 a.u, a.v, a.rho)),
    "owen-t": (("h", "a"), (), lambda a: owen_t(a.h, a.a)),
    "g": (("u", "rho"), (), lambda a: diag_g(a.u, a.rho)),
}
_EVAL_POINT_FLAGS = tuple(dict.fromkeys(flag for needs, _, _ in _EVAL.values() for flag in needs))


def cmd_eval(args) -> list[dict]:
    needs, reads, value = _EVAL[args.quantity]
    missing = [f"--{name}" for name in needs if getattr(args, name) is None]
    if missing:
        raise DomainError(f"eval {args.quantity} needs {' '.join(missing)}")
    unread = [f"--{name.replace('_', '-')}"
              for name in (*_EVAL_POINT_FLAGS, "given", *_ENGINE_FLAGS)
              if name not in needs + reads and getattr(args, name) is not None]
    if unread:
        raise DomainError(f"eval {args.quantity} does not read {' '.join(unread)}")
    return [{"value": float(value(args))}]


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def _compare_row(kind, engine, h, k, rho, status, value=_NAN, abs_error=_NAN) -> dict:
    return {"kind": kind, "engine": engine, "h": h, "k": k, "rho": rho,
            "status": status, "value": value, "abs_error": abs_error}


def cmd_compare(args) -> list[dict]:
    # The whole grid is checked before any point is computed.
    if args.mc_paths and any(abs(rho) >= 0.99 for rho in args.rho):
        raise DomainError("Monte Carlo comparison needs |rho| < 0.99")
    cfg = _cfg(args)
    engines = [Phi2Method(e) for e in args.engines]
    rows: list[dict] = []
    worst: dict[str, float] = {}
    for rho in args.rho:
        for h in args.h_grid:
            for k in args.k_grid:
                truth = quad2d_phi2(h, k, rho, cfg)
                for engine in engines:
                    row = _compare_row("point", engine.value, h, k, rho, "ok")
                    try:
                        row["value"] = phi2_cdf(h, k, rho, engine, cfg)
                    except EngineRejected as exc:
                        row["status"] = f"rejected ({exc})"
                    except ConvergenceError as exc:
                        row["status"] = f"unconverged (estimate {exc.estimate:.3e})"
                    else:
                        row["abs_error"] = abs(row["value"] - truth)
                        worst[engine.value] = max(worst.get(engine.value, 0.0), row["abs_error"])
                    rows.append(row)
                if args.mc_paths:
                    est = _mc_point(h, k, rho, args.mc_paths, args.seed)
                    rows.append(_compare_row("point", "mc", h, k, rho, f"se={est.std_error:.2e}",
                                             est.estimate, abs(est.estimate - truth)))
    rows += [_compare_row("summary", e.value, _NAN, _NAN, _NAN, "max", abs_error=worst[e.value])
             for e in engines if e.value in worst]
    return rows


def _mc_point(h: float, k: float, rho: float, n_paths: int, seed: int):
    # Route the point through the factor-model sampler: split rho into
    # loadings alpha beta = rho / 0.99 against factor correlation 0.99
    # (plain half loadings at independence); |rho| < 0.99 is checked by
    # cmd_compare.
    if rho == 0.0:
        model = FactorModel(0.5, 0.5, 0.0, float(norm_cdf(h)), float(norm_cdf(k)))
    else:
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


def _concordance_row(kind: str, measure: Measure, rho, value) -> dict:
    return {"kind": kind, "measure": measure.value, "rho": rho, "value": value}


def cmd_concordance(args) -> list[dict]:
    measure = _MEASURE_ALIASES.get(args.measure, None) or Measure(args.measure)
    cfg = _cfg(args)
    closed = measure_closed_form(measure, args.rho)
    rows = [_concordance_row("closed_form", measure, args.rho, closed.value)]
    if measure is Measure.GINI_GAMMA:
        rows += [_concordance_row(f"closed_form_{i}", measure, args.rho, form)
                 for i, form in enumerate(gini_forms(args.rho), start=1)]
    if args.numeric:
        rows.append(_concordance_row("numeric", measure, args.rho,
                                     measure_numeric(measure, args.rho, cfg).value))
    if args.invert:
        rows.append(_concordance_row("inverted", measure, measure_invert(measure, closed.value),
                                     closed.value))
    return rows


# ---------------------------------------------------------------------------
# dist
# ---------------------------------------------------------------------------


def _dist_row(family: str, quantity: str, arg, value) -> dict:
    return {"family": family, "quantity": quantity, "arg": arg, "value": value}


def cmd_skew_normal(args) -> list[dict]:
    cfg = _cfg(args)
    law = SkewNormal(args.lam)
    rows: list[dict] = []
    if args.pdf_at is not None:
        rows.append(_dist_row("skew-normal", "pdf", args.pdf_at, float(law.pdf(args.pdf_at))))
    if args.x is not None:
        rows.append(_dist_row("skew-normal", "cdf", args.x, law.cdf(args.x, _method(args), cfg)))
    if not rows:
        raise DomainError("skew-normal queries need --x (CDF) or --pdf-at")
    return rows


# Each Vasicek query flag, in the order its rows print, with the methods of
# the law it prints. A flag that takes a point evaluates them there; a
# switch prints properties of the law.
_VASICEK_QUERIES = (
    ("--quantile", True, ("quantile",)),
    ("--cdf", True, ("cdf",)),
    ("--pdf-at", True, ("pdf",)),
    ("--mode", False, ("mode",)),
    ("--median", False, ("median",)),
    ("--moments", False, ("mean", "second_moment", "variance")),
    ("--shape", False, ("shape",)),
)


def cmd_vasicek(args) -> list[dict]:
    law = Vasicek(args.p, args.rho)
    rows: list[dict] = []
    for flag, takes_point, methods in _VASICEK_QUERIES:
        given = getattr(args, flag[2:].replace("-", "_"))
        if given is None:
            continue
        for name in methods:
            method = getattr(law, name)
            if takes_point:
                rows.append(_dist_row("vasicek", name, given, float(method(given))))
            else:
                rows.append(_dist_row("vasicek", name, _NAN, method()))
    if not rows:
        flags = "/".join(flag for flag, _, _ in _VASICEK_QUERIES)
        raise DomainError(f"nothing to compute: pass {flags}")
    return rows


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _digits(text: str) -> int:
    try:
        digits = int(text)
    except ValueError:
        digits = -1
    if digits < 0:
        raise argparse.ArgumentTypeError(f"digits must be a non-negative integer, got {text!r}")
    return digits


# Built once per process. No command mutates the parsed ``args``, so the
# list defaults of ``compare`` can be shared between calls; keep it so.
@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bivnorm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    methods = [m.value for m in Phi2Method]
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    output.add_argument("--digits", type=_digits, default=_DEFAULT_DIGITS)
    tolerances = argparse.ArgumentParser(add_help=False)
    tolerances.add_argument("--abs-tol", type=float)
    tolerances.add_argument("--rel-tol", type=float)
    method = argparse.ArgumentParser(add_help=False)
    method.add_argument("--method", choices=methods)

    p = sub.add_parser("eval", help="evaluate a single quantity",
                       parents=[output, tolerances, method])
    p.add_argument("quantity", choices=_EVAL)
    for name in _EVAL_POINT_FLAGS:
        p.add_argument(f"--{name}", type=float)
    p.add_argument("--given", choices=("u", "v"))
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("compare", help="engines vs the 2-D quadrature oracle",
                       parents=[output, tolerances])
    p.add_argument("--h-grid", type=float, nargs="+", default=list(_DEFAULT_GRID))
    p.add_argument("--k-grid", type=float, nargs="+", default=list(_DEFAULT_GRID))
    p.add_argument("--rho", type=float, nargs="+", default=list(_DEFAULT_RHOS))
    p.add_argument("--engines", nargs="+", default=[m.value for m in Phi2Method if m is not Phi2Method.AUTO],
                   choices=methods)
    p.add_argument("--mc-paths", type=int, default=0,
                   help="additionally estimate each point by Monte Carlo with this many paths")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("scan-bounds", help="worst-case error scan on the diagonal wedge",
                       parents=[output])
    kinds = [k.value for k in DiagBoundKind] + [k.value for k in DiagApproxKind]
    p.add_argument("--kind", required=True, choices=kinds)
    p.add_argument("--grid", type=_parse_grid, default=(200, 200), help="NxM, default 200x200")
    p.add_argument("--no-refine", action="store_true")
    p.set_defaults(fn=cmd_scan_bounds)

    p = sub.add_parser("concordance", help="concordance measures", parents=[output, tolerances])
    p.add_argument("--measure", required=True, choices=_MEASURE_CHOICES)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--numeric", action="store_true")
    p.add_argument("--invert", action="store_true")
    p.set_defaults(fn=cmd_concordance)

    family = sub.add_parser("dist", help="skew-normal / Vasicek queries").add_subparsers(
        dest="family", required=True)
    # Exact flags only: vasicek's --p must not be read as --pdf-at here.
    p = family.add_parser("skew-normal", help="skew-normal pdf and CDF", allow_abbrev=False,
                          parents=[output, tolerances, method])
    p.add_argument("--lam", type=float, default=0.0, help="skewness parameter")
    p.add_argument("--x", type=float, help="CDF evaluation point")
    p.add_argument("--pdf-at", type=float)
    p.set_defaults(fn=cmd_skew_normal)
    p = family.add_parser("vasicek", help="Vasicek default-rate law", parents=[output])
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--rho", type=float, default=0.1)
    for flag, takes_point, _ in _VASICEK_QUERIES:
        if takes_point:
            p.add_argument(flag, type=float)
        else:
            p.add_argument(flag, action="store_true", default=None)
    p.set_defaults(fn=cmd_vasicek)

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
