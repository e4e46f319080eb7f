"""Span tracing of bivnorm's layers, installed from outside the library.

Every public function of each layer module (the names in its ``__all__``,
or its non-underscore functions when it has none, plus the public methods of
its public classes) is replaced by a wrapper at every place it is bound:
its own module, each bivnorm module that imported it, and the package
namespace. Calls between layers therefore pass through the wrappers, e.g.
``copula.owen_t``, ``bounds.owen_t`` and the ``engines.phi2_density`` that
the quadrature lambdas look up at call time.

Each wrapper records one span (function, parent span, start, end, points)
into flat in-memory arrays; nothing is written until :meth:`Tracer.dump`.
Three wrappers also count what their layer decides: ``quad1d`` counts the
integrand evaluations of the ``fn`` it is handed, ``phi2_cdf`` counts
correlations beyond the 0.8 split and engine rejections, and ``owen_t``
counts points on the |a| > 1 complement branch.
"""

from __future__ import annotations

import enum
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "bivnorm"
LAYERS = (
    "gauss",
    "owen",
    "quadrature",
    "engines",
    "copula",
    "bounds",
    "concordance",
    "dists",
    "oracle",
    "cli",
)

# auto sends 0.8 < |rho| < 1 to the from-max correlation path.
HIGH_RHO = 0.8


def _points(args) -> int:
    """Points a call computes on: the size of its array arguments broadcast."""
    shapes = [a.shape for a in args if type(a) is np.ndarray]
    if not shapes:
        return 1
    try:
        return max(int(np.prod(np.broadcast_shapes(*shapes))), 1)
    except ValueError:
        return max(int(np.prod(s)) for s in shapes)


def _public_callables(module):
    """(owner, attribute name, function) for each public function of a layer."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, name, obj
        elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, BaseException)):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield obj, attr, member


class Tracer:
    """Records spans for the ten layers while installed."""

    def __init__(self):
        self.names: list[tuple[str, str]] = []  # function id -> (layer, qualname)
        self.fn = array("q")
        self.parent = array("q")
        self.t0 = array("q")
        self.t1 = array("q")
        self.points = array("q")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.fn)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for owner, attr, func in _public_callables(module):
                fid = len(self.names)
                self.names.append((layer, f"{func.__qualname__}"))
                wrapper = self._wrap(layer, attr, func, fid)
                if inspect.isclass(owner):
                    self._patch(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is func:
                            self._patch(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, layer: str, attr: str, func, fid: int):
        fn_a, parent_a, t0_a, t1_a, pts_a = self.fn, self.parent, self.t0, self.t1, self.points
        stack, counts, clock = self._stack, self.counts, time.perf_counter_ns

        def open_span(args) -> int:
            idx = len(fn_a)
            fn_a.append(fid)
            parent_a.append(stack[-1])
            pts_a.append(_points(args))
            t1_a.append(0)
            stack.append(idx)
            t0_a.append(clock())
            return idx

        def close_span(idx: int) -> None:
            t1_a[idx] = clock()
            stack.pop()

        if layer == "quadrature" and attr == "quad1d":

            def wrapper(fn, *args, **kwargs):
                evals = [0]

                def counted(x):
                    evals[0] += 1
                    return fn(x)

                idx = open_span(args)
                try:
                    return func(counted, *args, **kwargs)
                except Exception as exc:
                    counts[f"quadrature.{type(exc).__name__}"] += 1
                    raise
                finally:
                    close_span(idx)
                    pts_a[idx] = evals[0]
                    counts["quadrature.integrand_evals"] += evals[0]

        elif layer == "engines" and attr == "phi2_cdf":

            def wrapper(*args, **kwargs):
                rho = args[2] if len(args) > 2 else kwargs.get("rho")
                if HIGH_RHO < abs(float(rho)) < 1.0:
                    counts["engines.high_rho"] += 1
                counts["engines.phi2_cdf"] += 1
                idx = open_span(args)
                try:
                    return func(*args, **kwargs)
                except Exception as exc:
                    counts[f"engines.{type(exc).__name__}"] += 1
                    raise
                finally:
                    close_span(idx)

        elif layer == "owen" and attr == "owen_t":

            def wrapper(*args, **kwargs):
                h, a = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in args[:2]))
                aa = np.abs(a)
                counts["owen.points"] += aa.size
                counts["owen.complement"] += int(np.count_nonzero(np.isfinite(aa) & (aa > 1.0)))
                idx = open_span(args)
                try:
                    return func(*args, **kwargs)
                finally:
                    close_span(idx)

        else:

            def wrapper(*args, **kwargs):
                idx = open_span(args)
                try:
                    return func(*args, **kwargs)
                finally:
                    close_span(idx)

        wrapper.__name__ = func.__name__
        wrapper.__qualname__ = func.__qualname__
        wrapper.__doc__ = func.__doc__
        wrapper.__wrapped__ = func
        return wrapper

    # -- results -----------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "fn": np.frombuffer(self.fn, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "t0": np.frombuffer(self.t0, dtype=np.int64),
            "t1": np.frombuffer(self.t1, dtype=np.int64),
            "points": np.frombuffer(self.points, dtype=np.int64),
        }

    def self_ns(self) -> np.ndarray:
        """Span duration minus the time its child spans cover."""
        c = self.columns()
        dur = (c["t1"] - c["t0"]).astype(float)
        child = c["parent"] >= 0
        covered = np.bincount(c["parent"][child], weights=dur[child], minlength=len(dur))
        return dur - covered

    def layer_metrics(self, ops: int, ops_from: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over every recorded span.

        ``gauss.calls_per_op`` counts only spans from index ``ops_from`` on,
        over ``ops`` workload operations.
        """
        c = self.columns()
        layer_of_fn = np.array([LAYERS.index(layer) for layer, _ in self.names], dtype=np.int64)
        layer = layer_of_fn[c["fn"]] if len(c["fn"]) else np.zeros(0, dtype=np.int64)
        n_layers = len(LAYERS)
        calls = np.bincount(layer, minlength=n_layers)
        points = np.bincount(layer, weights=c["points"].astype(float), minlength=n_layers)
        self_s = np.bincount(layer, weights=self.self_ns(), minlength=n_layers) / 1e9

        out: dict[str, tuple[float, str]] = {}
        for i, name in enumerate(LAYERS):
            out[f"{name}.calls"] = (int(calls[i]), "count")
            out[f"{name}.points"] = (int(points[i]), "count")
            out[f"{name}.self_s"] = (float(self_s[i]), "s")
            out[f"{name}.ns_per_point"] = (
                float(self_s[i] * 1e9 / points[i]) if points[i] else 0.0,
                "ns",
            )

        k = self.counts
        quad_calls = int(calls[LAYERS.index("quadrature")])
        out["quadrature.integrand_evals"] = (int(k["quadrature.integrand_evals"]), "count")
        out["quadrature.evals_per_call"] = (
            k["quadrature.integrand_evals"] / quad_calls if quad_calls else 0.0,
            "count",
        )
        out["quadrature.convergence_errors"] = (int(k["quadrature.ConvergenceError"]), "count")
        out["engines.high_rho_share"] = (
            k["engines.high_rho"] / k["engines.phi2_cdf"] if k["engines.phi2_cdf"] else 0.0,
            "ratio",
        )
        out["engines.rejected"] = (int(k["engines.EngineRejected"]), "count")
        out["owen.complement_share"] = (
            k["owen.complement"] / k["owen.points"] if k["owen.points"] else 0.0,
            "ratio",
        )
        gauss_in_ops = int(np.count_nonzero(layer[ops_from:] == LAYERS.index("gauss")))
        out["gauss.calls_per_op"] = (gauss_in_ops / ops if ops else 0.0, "count")
        return out

    def dump(self, path: str, meta: dict) -> None:
        """Write the spans and the function table to ``path`` (.npz)."""
        names = np.array([f"{layer}:{qual}" for layer, qual in self.names])
        np.savez_compressed(path, names=names, meta=np.array(repr(meta)), **self.columns())
