"""The three benchmark workloads.

Each workload turns `--seed` into ordinary CLI arguments or API inputs,
runs one closed-loop pass over them (the next op starts when the previous
one ends), and checks the outputs after the timed region.  An op fails on
a nonzero exit code, an exception, or a failed output check; fig2
`unreachable` and `geometry_error` rows are valid output, not failures.

The first pass of a run is checked in full; later passes must reproduce
its outputs exactly, which is cheaper and still checks every op.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import statistics
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from . import checks

# Input ranges.  The fig2 range is wide enough for all three row statuses;
# the point ranges span the paper's parameter space.
MASS_RANGE = (5.0, 10.5)          # log10 amu
MASS_JITTER = 0.05
TARGET_V = (0.80, 0.90)
# log10 amu windows, one fig3 mass drawn log-uniform from each.  Below
# ~6.6 collisions set the whole contour (one crossing per temperature row);
# above ~6.9 blackbody radiation bends it across temperature rows, which
# costs about 2.5x more rate evaluations.  Windows that straddle that step
# would make the pass cost depend on the seed rather than on the program.
CONTOUR_WINDOWS = ((6.0, 6.6), (6.9, 7.45), (7.45, 8.0))
POINT_MASS = (1e5, 3e8)           # amu; every target V in range is reachable
POINT_LAMBDA0 = (1e-18, 1e-6)     # Hz
POINT_PRESSURE = (1e-14, 1e-6)    # mbar
POINT_TEMPERATURE = (4.0, 400.0)  # K

# Host-speed reference.  The shared host's speed drifts by up to 2x in
# phases of seconds to minutes, so op times are scaled to the speed at
# which `reference_s` takes REFERENCE_S, from reference samples taken
# around every REFERENCE_EVERY_S of op time (see README.md).
REFERENCE_S = 0.018
REFERENCE_EVERY_S = 0.15


def reference_s() -> float:
    """Seconds taken by a fixed task of the benchmark's own numpy and
    Python code.  It calls nothing in the package, so no change to the
    program can move it; only the host's speed does."""
    start = perf_counter()
    for k in range(200):
        checks.env_exposures(1e-20 * (1 + k), 19300.0, 532e-9, 1, 1e-8, 300.0, 300.0)
    return perf_counter() - start


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; `FULL` is the benchmark, `TINY` the self-tests."""

    fig2_masses: int = 600
    fig3_grid: int = 240
    points: int = 1000
    setup_samples: int = 7
    importtime_samples: int = 3


FULL = Sizes()
TINY = Sizes(fig2_masses=10, fig3_grid=8, points=4, setup_samples=1,
             importtime_samples=1)


@dataclass
class Context:
    """Where the program lives and where its outputs go."""

    root: Path     # checkout holding src/cslsim
    work: Path     # scratch directory for program outputs
    sizes: Sizes = FULL

    @property
    def env(self) -> dict:
        """Environment of child interpreters: this checkout's package first."""
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return env


@dataclass
class Pass:
    """What one pass did: timings, op outcomes and layer counters."""

    wall_s: float = 0.0         # at reference speed, like latencies_ms
    raw_wall_s: float = 0.0     # as measured
    latencies_ms: dict = field(default_factory=dict)  # op -> ms, ops that succeeded
    references_s: list = field(default_factory=list)  # reference samples of the pass
    attempted: int = 0
    errors: list = field(default_factory=list)   # (op, message)
    outputs: dict = field(default_factory=dict)  # op -> comparable output
    fig2_rows: Counter = field(default_factory=Counter)
    masses: int = 0             # masses sent through the Mie layer
    contour_points: int = 0
    grid_temperatures: int = 0  # distinct grid temperatures, summed per contour
    bytes_written: int = 0

    @property
    def failed(self) -> int:
        return len({op for op, _ in self.errors})


def draw_point(rng: random.Random) -> dict:
    def log_uniform(lo, hi):
        return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))
    return {"mass_amu": log_uniform(*POINT_MASS),
            "lambda0": log_uniform(*POINT_LAMBDA0),
            "pressure_mbar": log_uniform(*POINT_PRESSURE),
            "temperature_K": rng.uniform(*POINT_TEMPERATURE),
            "target_v": rng.uniform(*TARGET_V)}


def make_inputs(workload: str, seed: int, sizes: Sizes) -> dict:
    """The seeded inputs of one workload; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "mass_sweep":
        return {"lo": MASS_RANGE[0] + rng.uniform(-MASS_JITTER, MASS_JITTER),
                "hi": MASS_RANGE[1] + rng.uniform(-MASS_JITTER, MASS_JITTER),
                "steps": sizes.fig2_masses,
                "target_v": rng.uniform(*TARGET_V)}
    if workload == "contour_sweep":
        return {"masses": [float(f"{10.0 ** rng.uniform(lo, hi):.6g}")
                           for lo, hi in CONTOUR_WINDOWS],
                "grid": sizes.fig3_grid}
    if workload == "point_reports":
        return {"points": [draw_point(rng) for _ in range(sizes.points)]}
    raise ValueError(f"unknown workload {workload!r}")


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _read_manifest(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _collect_fig2(csv: Path, result: Pass) -> str:
    text = csv.read_text(encoding="utf-8")
    statuses = [row.rsplit(",", 1)[1] for row in text.splitlines()[1:]]
    result.fig2_rows.update(statuses)
    result.masses += len(statuses)
    return text


def _collect_fig3(manifest: Path, result: Pass) -> list[str]:
    m = _read_manifest(manifest)
    texts = [(manifest.parent / f).read_text(encoding="utf-8") for f in m["outputs"]]
    result.contour_points += sum(t.count("\n") - 1 for t in texts)
    result.grid_temperatures += m["args"]["t_steps"] * len(m["args"]["masses_amu"])
    return texts


def _check_fig3(texts: list[str], manifest: Path) -> list[str]:
    m = _read_manifest(manifest)
    errors = []
    for text, mass in zip(texts, m["args"]["masses_amu"]):
        errors += checks.check_contour(text, m, mass)
    return errors


def _scale(result: Pass, chunk: list) -> None:
    """Record the (op, seconds) of `chunk`, which ran since the last
    reference sample, at reference speed; takes the next sample."""
    result.references_s.append(reference_s())
    scale = REFERENCE_S / statistics.fmean(result.references_s[-2:])
    for op, elapsed in chunk:
        result.raw_wall_s += elapsed
        result.wall_s += elapsed * scale
        result.latencies_ms[op] = elapsed * scale * 1e3


class Workload:
    """One workload over fixed inputs.  `run_pass` times only the ops."""

    name = ""

    def __init__(self, ctx: Context, inputs: dict):
        self.ctx = ctx
        self.inputs = inputs
        self.first_outputs: dict | None = None
        self.passes = 0

    def warmup(self) -> None:
        """Fill lazy state (first-call set-up) before timing."""

    def ops(self, out: Path) -> list:
        """(op label, payload) pairs of one pass, in order."""
        raise NotImplementedError

    def execute(self, op: str, payload, out: Path, tracer):
        """Run one op; the return value goes to `collect`."""
        return payload() if tracer is None else tracer.run_op(op, payload)

    def collect(self, op: str, outcome, out: Path, result: Pass) -> None:
        """Record an op's output after its timed call."""
        if outcome != 0:
            result.errors.append((op, f"exit code {outcome}"))

    def check(self, op: str, result: Pass, out: Path) -> list[str]:
        """Full output check of one op of the first pass."""
        raise NotImplementedError

    def run_pass(self, out: Path, tracer=None) -> Pass:
        """Run every op once.  Op times are scaled to reference speed by the
        mean of the reference samples taken just before and after them."""
        result = Pass()
        _fresh(out)
        result.references_s.append(reference_s())
        chunk, chunk_s = [], 0.0
        for op, payload in self.ops(out):
            result.attempted += 1
            try:
                start = perf_counter()
                outcome = self.execute(op, payload, out, tracer)
                elapsed = perf_counter() - start
                self.collect(op, outcome, out, result)
            except Exception:  # a raising op is a failed op, not a crash
                result.errors.append((op, traceback.format_exc(limit=4)))
                continue
            chunk.append((op, elapsed))
            chunk_s += elapsed
            if chunk_s >= REFERENCE_EVERY_S:
                _scale(result, chunk)
                chunk, chunk_s = [], 0.0
        if chunk:
            _scale(result, chunk)
        # manifests hold the command line and a timestamp, so their size
        # varies with the checkout path; the outputs proper do not
        result.bytes_written = sum(p.stat().st_size for p in out.iterdir()
                                   if p.is_file() and not p.name.endswith(".manifest.json"))
        return result

    def verify(self, result: Pass, out: Path) -> None:
        """Check a pass's outputs; later passes must match the first.

        Only the first pass's outputs are kept, so that the benchmark's own
        memory does not grow with the number of passes.
        """
        if self.first_outputs is None:
            self.first_outputs = result.outputs
            for op in result.outputs:
                try:
                    errors = self.check(op, result, out)
                except Exception:
                    errors = [traceback.format_exc(limit=4)]
                result.errors.extend((op, e) for e in errors)
        else:
            for op, output in result.outputs.items():
                if output != self.first_outputs.get(op):
                    result.errors.append((op, "output differs from the first pass"))
            result.outputs = {}


def _cli(argv: list[str]):
    import cslsim.cli
    return lambda: cslsim.cli.main(argv)


class MassSweep(Workload):
    """In-process fig2 over 600 masses: specfun, mie, interferometer."""

    name = "mass_sweep"

    def argv(self, out: Path, steps: int) -> list[str]:
        i = self.inputs
        return ["fig2", f"--mass-range={i['lo']!r}:{i['hi']!r}:{steps}",
                f"--target-V={i['target_v']!r}", "--out", str(out / "fig2.csv")]

    def warmup(self):
        _cli(self.argv(_fresh(self.ctx.work / "warmup"), 8))()

    def ops(self, out):
        return [("fig2", _cli(self.argv(out, self.inputs["steps"])))]

    def collect(self, op, outcome, out, result):
        super().collect(op, outcome, out, result)
        result.outputs[op] = _collect_fig2(out / "fig2.csv", result)

    def check(self, op, result, out):
        manifest = out / "fig2.csv.manifest.json"
        errors = checks.check_fig2(result.outputs[op], _read_manifest(manifest))
        rerun = out / "rerun.csv"
        code = _cli(["rerun", "--manifest", str(manifest), "--out", str(rerun)])()
        if code != 0:
            errors.append(f"rerun exit code {code}")
        elif rerun.read_text(encoding="utf-8") != result.outputs[op]:
            errors.append("rerun output is not byte-identical to the fig2 CSV")
        return errors


class ContourSweep(Workload):
    """In-process fig3 on the 240x240 grid for three masses: decoherence.

    One fig3 call per mass, so that host-speed reference samples fall
    between calls about once a second rather than once a pass.
    """

    name = "contour_sweep"

    def argv(self, out: Path, op: str, mass: float, grid: int) -> list[str]:
        return ["fig3", "--masses", repr(mass),
                f"--p-range=-14:-6:{grid}", f"--T-range=4:400:{grid}",
                "--out", str(out / f"{op}.csv")]

    def warmup(self):
        _cli(self.argv(_fresh(self.ctx.work / "warmup"), "fig3", self.inputs["masses"][0], 6))()

    def ops(self, out):
        grid = self.inputs["grid"]
        return [(f"fig3_{k}", _cli(self.argv(out, f"fig3_{k}", mass, grid)))
                for k, mass in enumerate(self.inputs["masses"])]

    def collect(self, op, outcome, out, result):
        super().collect(op, outcome, out, result)
        result.outputs[op] = _collect_fig3(out / f"{op}.csv.manifest.json", result)

    def check(self, op, result, out):
        return _check_fig3(result.outputs[op], out / f"{op}.csv.manifest.json")


class PointReports(Workload):
    """Public-API calls for one seeded point at a time: the scalar path."""

    name = "point_reports"

    @staticmethod
    def evaluate(point: dict) -> dict:
        import cslsim
        species = cslsim.gold_cluster(point["mass_amu"])
        grating = cslsim.default_grating()
        csl = cslsim.CslParams(lambda0=point["lambda0"])
        env = cslsim.EnvironmentConfig(gas_pressure=point["pressure_mbar"] * 100.0,
                                       environment_temperature=point["temperature_K"])
        flux = cslsim.flux_for_target_visibility(species, grating, point["target_v"])
        return {"species": species, "grating": grating, "csl": csl, "env": env,
                "flux": flux, "obs": cslsim.observables(species, grating, flux),
                "reduction": cslsim.csl_visibility_ratio(species, grating, csl),
                "budget": cslsim.decoherence_budget(species, grating, env)}

    def warmup(self):
        self.evaluate(self.inputs["points"][0])

    def ops(self, out):
        # A new order each pass, so that no point always runs at the same
        # moment of a pass (see `run.median_per_op`).
        self.passes += 1
        ops = [(f"point{k}", lambda p=p: self.evaluate(p))
               for k, p in enumerate(self.inputs["points"])]
        random.Random(self.passes).shuffle(ops)
        return ops

    def collect(self, op, outcome, out, result):
        result.outputs[op] = outcome
        result.masses += 1

    def check(self, op, result, out):
        point = self.inputs["points"][int(op[len("point"):])]
        return checks.check_point(point, result.outputs[op])


WORKLOADS = {w.name: w for w in (MassSweep, ContourSweep, PointReports)}
