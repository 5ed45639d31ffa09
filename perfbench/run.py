"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ./src, and
program outputs go to ./.perfbench (removed at the end; traced runs leave
their span file there).  The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`; the lines
before it give the samples behind each timing (median, quartiles, minimum,
count) and the failed share.

`--trace 0` reports the end-to-end metrics.  `--trace 1` measures the same
untraced passes, then one traced pass, and reports the per-layer metrics
plus the tracing overhead.  Without ./src/cslsim it exits with code 2.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"   # one process, no extra threads

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import workloads as wl  # noqa: E402
from perfbench.tracing import Tracer, import_breakdown, wrapped_bindings  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "point_p50_ms": "ms",
              "point_p99_ms": "ms", "peak_rss_mb": "MB"}

_TIMED = ("specfun.spherical_jn_array", "specfun.spherical_hankel_array",
          "specfun.bessel_I_scaled", "mie.absorption_sums",
          "interferometer.solve_modulation_for_visibility", "interferometer.visibility",
          "interferometer.flux_for_target_visibility", "csl.critical_mass",
          "csl.csl_visibility_ratio", "decoherence.blackbody_rates",
          "decoherence.collision_rate", "decoherence.decoherence_budget")

PER_LAYER = {
    **{f"import.{k}": "s" for k in ("total_s", "scipy_s", "numpy_s", "cslsim_self_s")},
    **{f"{name}.{kind}": unit for name in _TIMED
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "mie.absorption_profile.calls": "count",
    "mie.calls_per_mass": "ratio",
    "decoherence.critical_contour.self_s": "s",
    "decoherence.blackbody_calls_per_temperature": "ratio",
    "cli.main.self_s": "s",
    "cli.bytes_written": "bytes",
    **{f"cli.fig2_rows.{s}": "count" for s in ("ok", "unreachable", "geometry_error")},
    "cli.fig3_contour_points": "count",
    "trace.overhead_s": "s",
}


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as `statistics.quantiles(n=4)` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: list, k: int) -> float:
    """k-th percentile of op latencies.  Inclusive, so that with few ops
    (one per sweep pass) it stays inside the sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[k - 1]


def time_import(ctx: wl.Context) -> float:
    """Wall time of `import cslsim.cli` in a fresh interpreter."""
    start = perf_counter()
    # no timeout: with one, Popen.wait polls the child every 50 ms, which
    # rounds the measured time up to that step
    subprocess.run([sys.executable, "-c", "import cslsim.cli"], env=ctx.env,
                   cwd=ctx.work, check=True)
    return perf_counter() - start


def timed_passes(workload: wl.Workload, ctx: wl.Context, seconds: float,
                 setup_samples: int) -> tuple[list[float], list]:
    """Closed-loop passes until the next one would end after `seconds` of
    pass time, with `setup_samples` import timings spread evenly between
    them.  Returns (import times, passes)."""
    setup, passes, busy = [], [], 0.0
    while True:
        while len(setup) < setup_samples and busy >= len(setup) * seconds / setup_samples:
            setup.append(time_import(ctx))
        start = perf_counter()
        result = workload.run_pass(ctx.work / "pass")
        workload.verify(result, ctx.work / "pass")
        busy += perf_counter() - start
        passes.append(result)
        if busy * (len(passes) + 1) / len(passes) > seconds:
            return setup, passes


def median_per_op(passes: list) -> dict:
    """Each op's median latency (ms) over the passes it succeeded in.

    Every point of `point_reports` costs about the same, so the tail of
    one pass's latencies is the host's, whose speed drifts in phases of
    seconds; the tail of the per-op medians is the program's.
    """
    latencies: dict = {}
    for p in passes:
        for op, ms in p.latencies_ms.items():
            latencies.setdefault(op, []).append(ms)
    return {op: statistics.median(values) for op, values in latencies.items()}


def layer_metrics(tracer: Tracer, traced: wl.Pass, imports: dict,
                  untraced_wall: float) -> dict:
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {f"import.{k}": v for k, v in imports.items()}
    for name in _TIMED:
        metrics[f"{name}.calls"], metrics[f"{name}.self_s"] = totals.get(name, (0, 0.0))
    metrics.update({
        "mie.absorption_profile.calls": calls("mie.absorption_profile"),
        "mie.calls_per_mass": ratio(calls("mie.absorption_profile"), traced.masses),
        "decoherence.critical_contour.self_s":
            totals.get("decoherence.critical_contour", (0, 0.0))[1],
        "decoherence.blackbody_calls_per_temperature":
            ratio(calls("decoherence.blackbody_rates"), traced.grid_temperatures),
        "cli.main.self_s": totals.get("cli.main", (0, 0.0))[1],
        "cli.bytes_written": traced.bytes_written,
        **{f"cli.fig2_rows.{s}": traced.fig2_rows.get(s, 0)
           for s in ("ok", "unreachable", "geometry_error")},
        "cli.fig3_contour_points": traced.contour_points,
        "trace.overhead_s": traced.wall_s - untraced_wall,
    })
    return metrics


def measure(ctx: wl.Context, name: str, seed: int, seconds: float, trace: bool,
            spans_path: Path | None = None) -> tuple[list[str], dict]:
    """Run one workload; returns (report lines, result object)."""
    import cslsim.cli  # noqa: F401  (compiles the package before any timing)

    ctx.work.mkdir(parents=True, exist_ok=True)
    workload = wl.WORKLOADS[name](ctx, wl.make_inputs(name, seed, ctx.sizes))
    workload.warmup()
    setup, passes = timed_passes(workload, ctx, seconds,
                                 0 if trace else ctx.sizes.setup_samples)

    walls = [p.wall_s for p in passes]
    errors = [e for p in passes for e in p.errors]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    lines = [f"workload {name} seed {seed}: {len(passes)} passes, {attempted} ops"]

    if trace:
        imports = import_breakdown(sys.executable, ctx.env, ctx.work,
                                   ctx.sizes.importtime_samples)
        tracer = Tracer()
        with tracer.installed():
            traced = workload.run_pass(ctx.work / "traced", tracer)
        workload.verify(traced, ctx.work / "traced")
        leftover = wrapped_bindings()
        if leftover:
            traced.errors.append(("trace", f"wrappers left installed: {leftover}"))
        if spans_path is not None:
            tracer.dump(spans_path)
        errors += traced.errors
        attempted += traced.attempted
        failed += traced.failed
        untraced = statistics.median(walls)
        metrics = layer_metrics(tracer, traced, imports, untraced)
        lines.append(f"trace overhead: traced pass {traced.wall_s:.4f} s vs untraced "
                     f"median {untraced:.4f} s, {len(tracer.spans)} spans")
        units = PER_LAYER
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        latencies = list(median_per_op(passes).values())
        p50, p99 = ((percentile(latencies, 50), percentile(latencies, 99))
                    if latencies else (0.0, 0.0))
        metrics = {"setup_s": statistics.median(setup), "wall_s": statistics.median(walls),
                   "point_p50_ms": p50, "point_p99_ms": p99, "peak_rss_mb": rss}
        samples = {"setup_s (median reported)": setup,
                   "pass wall_s at reference speed (median reported)": walls,
                   "pass wall_s as measured": [p.raw_wall_s for p in passes],
                   "reference_s (host speed)": [r for p in passes for r in p.references_s],
                   "median op latency_ms (p50 and p99 reported)": latencies}
        for key, values in samples.items():
            if values:
                q1, med, q3 = quartiles(values)
                lines.append(f"{key}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                             f"min {min(values):.6g} n {len(values)}")
        units = END_TO_END

    lines.append(f"failed_share: {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for op, message in errors[:10]:
        lines.append(f"FAILED {op}: {message.strip()}")
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    return lines, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cslsim" / "__init__.py").is_file():
        print(f"error: no src/cslsim package under {root}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import cslsim
    if not Path(cslsim.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"error: imported cslsim from {cslsim.__file__}, not {root / 'src'}",
              file=sys.stderr)
        return 2

    out = root / ".perfbench"
    ctx = wl.Context(root=root, work=out / f"work-{os.getpid()}")
    spans = out / f"spans-{args.workload}-seed{args.seed}.csv" if args.trace else None
    try:
        lines, result = measure(ctx, args.workload, args.seed, args.seconds,
                                bool(args.trace), spans)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
