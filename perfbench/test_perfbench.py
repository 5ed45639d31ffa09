"""Fast self-tests of the benchmark at tiny problem sizes.

The full workloads never run here: `workloads.TINY` shrinks every grid,
point list and sample count so the whole file takes seconds.
"""

import json
from pathlib import Path

import pytest

from perfbench import checks, run
from perfbench import workloads as wl
from perfbench.tracing import Tracer, parse_importtime, wrapped_bindings

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(tmp_path):
    return wl.Context(root=ROOT, work=tmp_path / "work", sizes=wl.TINY)


def test_benchmark_json_declares_what_the_runner_reports():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload,trace", [(w, t) for w in sorted(wl.WORKLOADS) for t in (0, 1)])
def test_every_declared_metric_is_printed(tmp_path, workload, trace):
    lines, result = run.measure(tiny(tmp_path), workload, seed=3, seconds=0,
                                trace=bool(trace), spans_path=tmp_path / "spans.csv")
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("failed_share: 0 ") for line in lines)
    assert not wrapped_bindings()
    json.dumps(result)


def test_traced_counts_repeat_for_the_same_seed(tmp_path):
    counts = []
    for k in range(2):
        ctx = wl.Context(root=ROOT, work=tmp_path / f"w{k}", sizes=wl.TINY)
        _, result = run.measure(ctx, "mass_sweep", seed=5, seconds=0, trace=True)
        counts.append({name: m["value"] for name, m in result["metrics"].items()
                       if m["unit"] in ("count", "ratio")})
    assert counts[0] == counts[1]
    assert counts[0]["interferometer.flux_for_target_visibility.calls"] == wl.TINY.fig2_masses


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_seed_reproduces_the_inputs(workload):
    first = wl.make_inputs(workload, 11, wl.FULL)
    assert first == wl.make_inputs(workload, 11, wl.FULL)
    assert first != wl.make_inputs(workload, 12, wl.FULL)


def test_wrappers_cover_every_binding_and_are_restored():
    import cslsim
    import cslsim.cli
    import cslsim.interferometer
    import cslsim.mie

    original = cslsim.mie.absorption_profile
    tracer = Tracer()
    with tracer.installed():
        wrapper = cslsim.mie.absorption_profile
        assert wrapper is not original
        for module in (cslsim, cslsim.cli, cslsim.interferometer):
            assert module.absorption_profile is wrapper
        assert "cslsim.interferometer.absorption_profile" in wrapped_bindings()
        tracer.run_op("probe", cslsim.interferometer.visibility, 1.0)
    assert not wrapped_bindings()
    assert cslsim.cli.absorption_profile is original
    totals = tracer.totals()
    assert totals["interferometer.visibility"][0] == 1
    assert totals["specfun.bessel_I_scaled"][0] == 3  # seen through a copied binding


def test_wrappers_are_restored_when_the_pass_raises():
    with pytest.raises(ZeroDivisionError):
        with Tracer().installed():
            1 / 0
    assert not wrapped_bindings()


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.spans = [("a", 0.0, 10.0, -1, "op"), ("b", 1.0, 4.0, 0, "op"),
                    ("c", 2.0, 3.0, 1, "op"), ("b", 5.0, 6.0, 0, "op")]
    assert tracer.totals() == {"a": (1, 6.0), "b": (2, 3.0), "c": (1, 1.0)}


def test_parse_importtime():
    stderr = ("import time: self [us] | cumulative | imported package\n"
              "import time:       100 |        100 |   encodings\n"
              "import time:      2000 |       2000 |       numpy.core\n"
              "import time:      1000 |       3000 |     numpy\n"
              "import time:       500 |        500 |     scipy.integrate\n"
              "import time:        50 |       3550 |   cslsim\n"
              "import time:        20 |       3570 | cslsim.cli\n")
    got = parse_importtime(stderr)
    assert got == pytest.approx({"total_s": 3570e-6, "scipy_s": 500e-6,
                                 "numpy_s": 3000e-6, "cslsim_self_s": 70e-6})


def test_exits_with_code_2_without_the_package(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "mass_sweep", "--seed", "1", "--seconds", "1"]) == 2


def test_checks_reject_wrong_outputs(tmp_path):
    import cslsim.cli

    out = tmp_path / "fig2.csv"
    assert cslsim.cli.main(["fig2", "--mass-range=5:10.5:6", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "fig2.csv.manifest.json").read_text())
    text = out.read_text()
    assert checks.check_fig2(text, manifest) == []
    ok_row = next(r for r in text.splitlines() if r.endswith(",ok"))
    cells = ok_row.split(",")
    cells[4] = repr(float(cells[4]) * 1.001)   # n1 off by 0.1 %
    assert checks.check_fig2(text.replace(ok_row, ",".join(cells)), manifest)
    geometry_row = next(r for r in text.splitlines() if r.endswith(",geometry_error"))
    relabelled = text.replace(geometry_row, geometry_row.replace("geometry_error", "unreachable"))
    assert checks.check_fig2(relabelled, manifest)
    assert checks.check_factor("f", 0.0, 1.0)
    assert checks.check_factor("f", 0.0, 800.0) == []


def test_contour_check_rejects_a_shifted_point(tmp_path):
    import cslsim.cli

    argv = ["fig3", "--masses", "1e7", "--p-range=-14:-6:8", "--T-range=4:400:8",
            "--out", str(tmp_path / "fig3.csv")]
    assert cslsim.cli.main(argv) == 0
    manifest = json.loads((tmp_path / "fig3.csv.manifest.json").read_text())
    text = (tmp_path / "fig3_m1e+07.csv").read_text()
    assert checks.check_contour(text, manifest, 1e7) == []
    header, *rows = text.splitlines()
    shifted = [f"{s},{float(p) * 1.05!r},{t}" for s, p, t in (r.split(",") for r in rows)]
    assert checks.check_contour("\n".join([header, *shifted]) + "\n", manifest, 1e7)
    assert checks.check_contour(header + "\n", manifest, 1e7)


def test_a_run_whose_every_op_raises_still_reports(tmp_path, monkeypatch):
    class Broken(wl.MassSweep):
        def ops(self, out):
            return [("fig2", lambda: 1 / 0)]

    monkeypatch.setitem(wl.WORKLOADS, "mass_sweep", Broken)
    lines, result = run.measure(tiny(tmp_path), "mass_sweep", seed=3, seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert any(line.startswith("FAILED fig2: Traceback") for line in lines)
    json.dumps(result)


def test_later_passes_keep_no_outputs(tmp_path):
    ctx = tiny(tmp_path)
    workload = wl.PointReports(ctx, wl.make_inputs("point_reports", 2, ctx.sizes))
    _, passes = run.timed_passes(workload, ctx, seconds=0, setup_samples=0)
    again = workload.run_pass(ctx.work / "again")
    workload.verify(again, ctx.work / "again")
    assert passes[0].outputs and not again.outputs and not again.errors


@pytest.mark.parametrize("function", ["blackbody_rates", "collision_rate"])
def test_decoherence_checks_catch_a_wrong_rate(tmp_path, monkeypatch, function):
    import cslsim
    import cslsim.cli
    import cslsim.decoherence as deco

    original = getattr(deco, function)

    def off_by_a_percent(*args, **kwargs):
        rates = original(*args, **kwargs)
        return tuple(1.01 * r for r in rates) if isinstance(rates, tuple) else 1.01 * rates

    monkeypatch.setattr(deco, function, off_by_a_percent)
    argv = ["fig3", "--masses", "3e7", "--p-range=-14:-6:8", "--T-range=4:400:8",
            "--out", str(tmp_path / "fig3.csv")]
    assert cslsim.cli.main(argv) == 0
    manifest = json.loads((tmp_path / "fig3.csv.manifest.json").read_text())
    assert checks.check_contour((tmp_path / "fig3_m3e+07.csv").read_text(), manifest, 3e7)
    point = wl.make_inputs("point_reports", 1, wl.FULL)["points"][0]
    assert checks.check_point(point, wl.PointReports.evaluate(point))


def test_percentiles_come_from_per_op_medians():
    passes = [wl.Pass(latencies_ms={"a": 1.0, "b": 2.0}),
              wl.Pass(latencies_ms={"a": 9.0, "b": 2.2}),
              wl.Pass(latencies_ms={"a": 1.2})]
    medians = run.median_per_op(passes)
    assert medians == {"a": 1.2, "b": pytest.approx(2.1)}
    assert run.percentile(list(medians.values()), 50) == pytest.approx(1.65)
    assert run.percentile([5.0], 99) == 5.0


def test_op_times_are_scaled_to_reference_speed(monkeypatch):
    samples = iter([2 * wl.REFERENCE_S, 2 * wl.REFERENCE_S, wl.REFERENCE_S])
    monkeypatch.setattr(wl, "reference_s", lambda: next(samples))
    result = wl.Pass(references_s=[wl.reference_s()])
    wl._scale(result, [("a", 1.0), ("b", 0.5)])   # host at half speed
    wl._scale(result, [("c", 1.0)])               # speeding up again
    assert result.latencies_ms == pytest.approx({"a": 500.0, "b": 250.0, "c": 1000.0 / 1.5})
    assert result.raw_wall_s == 2.5
    assert result.wall_s == pytest.approx(0.75 + 1.0 / 1.5)
