"""Repeat benchmark runs over seeds and summarise them; optionally A/B.

    python3 perfbench/collect.py --workload mass_sweep --seeds 1-10
    python3 perfbench/collect.py --workload mass_sweep --seeds 1-10 \\
        --checkout ../parent --checkout .

Each run is a fresh `perfbench/run.py` process (this copy of the
benchmark) started in a checkout root.  With one checkout it prints, per
metric, the median, quartiles and spread (q3 - q1) / median over the
seeds.  With two checkouts it runs them as alternating pairs, the first
checkout first on odd seeds and second on even ones, and prints each
side's median and quartiles, the share of pairs the second side wins,
and whether that is a gain: at least 9 wins in 10 pairs and a median
difference larger than the first side's own quartile spread.
`--out FILE` also saves every result line as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.run import quartiles  # noqa: E402

RUN = Path(__file__).resolve().parent / "run.py"
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout} {workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(q1, median, q3, (q3 - q1) / median) of a list of numbers."""
    q1, med, q3 = quartiles(values)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def env_stamp() -> dict:
    import numpy
    import scipy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--checkout", action="append", type=Path, default=None,
                        help="checkout root(s); two for an A/B comparison")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    checkouts = [c.resolve() for c in (args.checkout or [Path.cwd()])]
    if len(checkouts) > 2:
        parser.error("give one checkout, or two for an A/B comparison")
    seeds = seed_list(args.seeds)
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    records, summary = [], {}
    for workload in args.workload:
        results = {c: [] for c in checkouts}
        for seed in seeds:
            for checkout in (checkouts if seed % 2 else checkouts[::-1]):
                start = time.monotonic()
                result = run_once(checkout, workload, seed, seconds, args.trace)
                results[checkout].append(result)
                records.append({"checkout": str(checkout), "workload": workload,
                                "seed": seed, "result": result})
                print(f"{workload} seed {seed} {checkout.name}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} "
                      f"({time.monotonic() - start:.1f} s)", file=sys.stderr)
        print(f"== {workload}: {len(seeds)} seeds, {seconds} s runs")
        summary[workload] = {}
        first = results[checkouts[0]]
        for name, metric in first[0]["metrics"].items():
            a = [r["metrics"][name]["value"] for r in first]
            q1, med, q3, share = spread(a)
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": share,
                                       "n": len(a), "unit": metric["unit"]}
            line = (f"{name:48s} median {med:.6g} {metric['unit']}  q1 {q1:.6g}  "
                    f"q3 {q3:.6g}  spread {share:.3f}")
            if bounds.get(name) is not None:
                line += f" (bound {bounds[name]})"
            if len(checkouts) == 2:
                b = [r["metrics"][name]["value"] for r in results[checkouts[1]]]
                bq1, bmed, bq3, _ = spread(b)
                lower = better.get(name, "lower") == "lower"
                wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
                gain = (med - bmed if lower else bmed - med) > q3 - q1
                worse = (bmed - med if lower else med - bmed) / med if med else 0.0
                verdict = ("GAIN" if wins >= 0.9 * len(a) and gain else
                           "REGRESSION" if bounds.get(name) is not None and worse > bounds[name]
                           else "no gain")
                line += (f"\n{'':48s} vs {bmed:.6g}  q1 {bq1:.6g}  q3 {bq3:.6g}  "
                         f"wins {wins}/{len(a)}  {verdict}")
            print(line)
    if args.out:
        args.out.write_text(json.dumps({"env": env_stamp(), "seconds": seconds,
                                        "summary": summary, "runs": records},
                                       indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
