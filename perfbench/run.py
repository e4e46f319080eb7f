"""bivnorm benchmark: one workload per run, end to end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scalar_mix --seed 1 --seconds 15 --trace 0

The library is imported from ``src/`` of the current directory. Each
workload is a closed loop with one caller: the next call starts when the
previous one returns, and whole rounds run until the timed calls add up to
``--seconds``. Every result is checked against ``reference.py`` outside the
timed region. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` reports the
per-layer metrics: it runs the workload untraced for half of ``--seconds``,
replays the same calls with span wrappers installed (after one traced
warm-up call per entry point), and then times four kernels at 1e3..1e6
points. The spans are written to ``perfbench/out/spans-<workload>.npz``.
See NOTE.md for what each metric should move.
"""

import os

# One BLAS thread, for this process and the set-up probes it starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import calibration  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 3
# Timed work between two calibration samples, and the calibration loop
# that each workload's time is measured against (see calibration.py).
CAL_EVERY_NS = 50_000_000
CAL_WINDOW = 3
CAL_KIND = {"scalar_mix": "scalar", "batch_arrays": "mixed", "paper_analyses": "mixed"}
SETUP_TIMEOUT_S = 120
# Span memory is about 40 bytes a span; the traced replay stops here.
SPAN_BUDGET = 1_000_000
SWEEP_FUNCTIONS = ("owen_t", "phi2_owen", "diag_cdf", "norm_quantile")
SWEEP_REPS = {1_000: 50, 10_000: 10, 100_000: 3, 1_000_000: 1}
# Points of the largest array one call computes on, per workload: the
# 1e6-point batch calls, and the 512 x 512 tensor grid of the numeric
# Spearman and Kendall measures.
LARGEST_ARRAY_POINTS = {"scalar_mix": 1, "batch_arrays": 1_000_000, "paper_analyses": 512 * 512}
# Owen's T evaluates its integrand on up to 64 Gauss-Legendre nodes per point.
TEMP_NODES = 64


class Record:
    """Per-operation times and check outcomes of one pass."""

    def __init__(self):
        self.kinds: list[str] = []
        self.points: list[int] = []
        self.ns: list[int] = []
        self.failed = 0
        self.failures: list[str] = []
        self.cal: list[int] = []  # calibration samples, ns
        self.norm: list[float] = []  # per operation: the calibration time it is measured in, ns
        self.round_ends: list[int] = []  # operations done at the end of each round

    def __len__(self):
        return len(self.ns)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(what)

    def call(self, kind: str, points: int, fn, args: tuple, check) -> int:
        """Time ``fn(*args)``, then check the result; returns the time in ns.

        A call that raises, or whose check returns False, is a failed
        operation. The check runs outside the timed region.
        """
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args)
            error = None
        except Exception as exc:
            result, error = None, exc
        dt = time.perf_counter_ns() - t0
        self.kinds.append(kind)
        self.points.append(points)
        self.ns.append(dt)
        if error is not None:
            self.fail(f"{kind}{_brief(args)}: raised {type(error).__name__}: {error}")
        elif check(args, result) is False:
            self.fail(f"{kind}{_brief(args)}: check failed")
        return dt


def _brief(args: tuple) -> str:
    """The arguments of a failed call, arrays by their shape."""
    return "(" + ", ".join(f"<array {a.shape}>" if hasattr(a, "shape") and a.ndim else repr(a)
                           for a in args) + ")"


def run_ops(make_round, seed: int, budget_s: float, limit=None, tracer=None,
            cal_kind=None) -> Record:
    """Closed loop over whole rounds until the timed calls reach ``budget_s``,
    or, with ``limit``, replay exactly the first ``limit`` calls.

    With ``cal_kind``, a sample of that calibration loop is taken before the
    first call and after every CAL_EVERY_NS of timed calls, and each call is
    measured against the median of the last CAL_WINDOW samples: the speed
    of the host in the same fraction of a second.
    """
    rec = Record()
    timed = 0
    since_cal = CAL_EVERY_NS
    norm = 0.0
    index = 0
    while True:
        rnd = make_round(seed, index)
        for op in rnd.ops:
            if limit is not None and len(rec) >= limit:
                break
            if cal_kind is not None and since_cal >= CAL_EVERY_NS:
                rec.cal.append(calibration.sample(cal_kind))
                norm = statistics.median(rec.cal[-CAL_WINDOW:])
                since_cal = 0
            dt = rec.call(op.kind, op.points, op.fn, op.args(), op.check)
            rec.norm.append(norm)
            timed += dt
            since_cal += dt
            if tracer is not None and len(tracer) >= SPAN_BUDGET:
                limit = len(rec)
        for line in rnd.finish():
            rec.fail(f"round {index}: {line}")
        rec.round_ends.append(len(rec))
        index += 1
        if limit is not None:
            if len(rec) >= limit:
                return rec
        elif timed >= budget_s * 1e9:
            return rec


def setup_seconds() -> list[float]:
    probe = os.path.join(HERE, "setup_probe.py")
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, probe], cwd=ROOT, capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S, check=True)
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def l3_bytes():
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as fh:
            text = fh.read().strip()
    except OSError:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    temp = LARGEST_ARRAY_POINTS[workload] * TEMP_NODES * 8
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OMP_NUM_THREADS"],
        "l3_bytes": l3_bytes(),
        "largest_temporary_bytes": temp,
    }


def tail(times: list, round_ends: list[int]) -> tuple[float, float]:
    """(percentile, time) of the tail.

    In each round, take the time with 10 operations beyond it, the highest
    percentile that has 10 samples beyond it; report the median over the
    rounds. Every round has the same mix, so the percentile is fixed, and
    the median keeps one stall of the host from setting the figure.
    """
    values, start = [], 0
    for end in round_ends:
        block = sorted(times[start:end])
        values.append(block[max(len(block) - 11, 0)])
        start = end
    size = round_ends[0]
    return 100.0 * (size - 10) / size, statistics.median(values)


def end_to_end(rec: Record, setup: list[float]) -> dict:
    """The gated metrics. Each operation time is divided by the calibration
    time measured next to it ("cal", see calibration.py); the same figures
    in wall-clock units are printed beside them."""
    n = len(rec)
    scaled = [t / c for t, c in zip(rec.ns, rec.norm)]
    pct, tail_cal = tail(scaled, rec.round_ends)
    _, tail_ns = tail(rec.ns, rec.round_ends)
    print(f"op_tail is p{pct:.3f} of each round, median over {len(rec.round_ends)} rounds; "
          f"n={n} operations")
    print(f"wall clock: {n / (sum(rec.ns) / 1e9):.6g} ops/s, "
          f"p50 {statistics.median(rec.ns) / 1e6:.6g} ms, tail {tail_ns / 1e6:.6g} ms; "
          f"cal {statistics.median(rec.cal) / 1e6:.6g} ms (median of {len(rec.cal)} samples)")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_cal": (n / sum(scaled), "1/cal"),
        "op_p50_cal": (statistics.median(scaled), "cal"),
        "op_tail_cal": (tail_cal, "cal"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def report_kinds(rec: Record) -> None:
    by_kind: dict[str, list[int]] = {}
    for kind, ns in zip(rec.kinds, rec.ns):
        by_kind.setdefault(kind, []).append(ns)
    for kind in sorted(by_kind):
        times = by_kind[kind]
        print(f"  {kind:40s} n={len(times):7d}  p50 {statistics.median(times) / 1e6:10.4f} ms")


def report_array_sizes(rec: Record) -> None:
    """ns per point over all calls at 1e3 points, and over all at 1e6 points."""
    for label, size in (("small_array_ns_per_point", 1_000), ("large_array_ns_per_point", 1_000_000)):
        ns = sum(t for t, p in zip(rec.ns, rec.points) if p == size)
        pts = sum(p for p in rec.points if p == size)
        if pts:
            print(f"{label} {ns / pts:.4f} ns")


def sweep(workloads, seed: int, rec: Record) -> dict:
    """Untraced ns/point of four kernels at 1e3..1e6 points."""
    out = {}
    for name in SWEEP_FUNCTIONS:
        check = lambda args, got, name=name: workloads.batch_check(name, args, got)  # noqa: E731
        for n, reps in SWEEP_REPS.items():
            times = [
                rec.call(f"sweep.{name}", n, workloads.BATCH_FNS[name],
                         workloads.batch_args(name, workloads.rng_for(seed, rep, n), n, rep), check)
                for rep in range(reps)
            ]
            out[f"sweep.{name}.{n:.0e}.ns_per_point".replace("+0", "")] = (
                statistics.median(times) / n, "ns")
    return out


def traced(workloads, spans, make_round, seed: int, seconds: float, workload: str):
    untraced = run_ops(make_round, seed, seconds / 2.0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        warm = Record()
        for name, call in workloads.warmup_calls():
            warm.call(f"warmup.{name}", 1, call, (), lambda args, got: True)
        ops_from = len(tracer)
        replay = run_ops(make_round, seed, seconds, limit=len(untraced), tracer=tracer)
    finally:
        tracer.uninstall()
    m = len(replay)
    metrics = tracer.layer_metrics(ops=m, ops_from=ops_from)
    metrics["trace.overhead_ratio"] = (sum(replay.ns) / sum(untraced.ns[:m]), "ratio")
    print(f"traced replay: {m} of {len(untraced)} operations, {len(tracer)} spans")

    sweep_rec = Record()
    metrics.update(sweep(workloads, seed, sweep_rec))

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"spans-{workload}.npz")
    tracer.dump(path, {"workload": workload, "seed": seed, "warmup_spans": ops_from, "ops": m})
    print(f"spans written to {os.path.relpath(path, ROOT)}")
    return [untraced, warm, replay, sweep_rec], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bivnorm", "__init__.py")):
        print(f"error: {SRC}/bivnorm not found; run from the root of a bivnorm checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import bivnorm
    import spans
    import workloads

    if not os.path.abspath(bivnorm.__file__).startswith(SRC + os.sep):
        print(f"error: bivnorm was imported from {bivnorm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    make_round = workloads.WORKLOADS[args.workload]

    setup = [] if args.trace else setup_seconds()
    for _name, call in workloads.warmup_calls():
        call()
    print("env " + json.dumps(environment(args.workload, args.seed)))

    if args.trace:
        records, metrics = traced(workloads, spans, make_round, args.seed, args.seconds,
                                  args.workload)
    else:
        rec = run_ops(make_round, args.seed, args.seconds, cal_kind=CAL_KIND[args.workload])
        records = [rec]
        metrics = end_to_end(rec, setup)
        print(f"setup probes (s): {', '.join(f'{s:.4f}' for s in setup)}")
        report_kinds(rec)
        report_array_sizes(rec)

    attempted = sum(len(r) for r in records)
    failed = sum(r.failed for r in records)
    for r in records:
        for line in r.failures:
            print(f"FAILED {line}", file=sys.stderr)
    print(f"failed_op_ratio {failed / attempted:.6g} (failed {failed} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
