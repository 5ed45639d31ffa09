import argparse
import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

from cslsim import params
from cslsim.cli import (
    EXIT_GEOMETRY,
    EXIT_NONCONVERGENCE,
    EXIT_OK,
    EXIT_USAGE,
    FIG1_HEADER,
    FIG2_HEADER,
    FIG3_HEADER,
    REPORTS,
    SWEEPS,
    _FLAG_KEYS,
    _manifest,
    build_parser,
    main,
)
from cslsim.interferometer import (flux_for_target_visibility, observables, transmissivity,
                                   visibility)
from cslsim.mie import absorption_profile
from cslsim.params import CslParams, RunConfig, default_grating, gold_cluster
from oracles import (
    csl_visibility_ratio_oracle,
    iv_oracle,
    solve_oracle,
    standing_wave_sums_oracle,
)

README = Path(__file__).resolve().parents[1] / "README.md"

CONFIG_TEXT = """\
[species]
label = probe
mass_amu = 1e6
density_kg_m3 = 19300
eps_re = 0.9
eps_im = 3.2

[grating]
wavelength_nm = 157
talbot_order = 2
"""


def run(args):
    return main(args)


def read_rows(path):
    return path.read_text(encoding="utf-8").splitlines()


def test_fig1_header_and_markers(tmp_path):
    out = tmp_path / "fig1.csv"
    code = run(["fig1", "--lambda0-range=-18:-6:13", "--out", str(out)])
    assert code == EXIT_OK
    rows = read_rows(out)
    assert rows[0] == FIG1_HEADER
    table = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows[1:]}
    assert table[1e-10] == pytest.approx(8.666e5, rel=2e-3)
    assert table[1e-16] == pytest.approx(8.67e7, rel=2e-3)
    # sorted by descending rate
    lams = [float(r.split(",")[0]) for r in rows[1:]]
    assert lams == sorted(lams, reverse=True)


def test_fig1_loglog_slope(tmp_path):
    out = tmp_path / "fig1.csv"
    assert run(["fig1", "--lambda0-range=-15:-9:7", "--out", str(out)]) == EXIT_OK
    rows = [r.split(",") for r in read_rows(out)[1:]]
    pts = [(math.log10(float(a)), math.log10(float(b))) for a, b, _ in rows]
    pts.sort()
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        assert (y1 - y0) / (x1 - x0) == pytest.approx(-1.0 / 3.0, abs=1e-6)


def test_fig2_header_and_statuses(tmp_path):
    out = tmp_path / "fig2.csv"
    code = run(["fig2", "--mass-range=5:8.3:8", "--out", str(out)])
    assert code == EXIT_OK
    rows = read_rows(out)
    assert rows[0] == FIG2_HEADER
    statuses = {r.split(",")[-1] for r in rows[1:]}
    assert statuses == {"ok"}
    for r in rows[1:]:
        fields = r.split(",")
        assert float(fields[3]) >= float(fields[4])  # n0 >= n1
        assert 0.0 < float(fields[5]) < 1.0


def test_fig2_geometry_rows_do_not_abort_sweep(tmp_path):
    out = tmp_path / "fig2.csv"
    # extend the sweep beyond R = d; oversized rows are flagged, exit stays 0
    code = run(["fig2", "--mass-range=8:11:7", "--out", str(out)])
    assert code == EXIT_OK
    rows = read_rows(out)
    statuses = [r.split(",")[-1] for r in rows[1:]]
    assert "geometry_error" in statuses and "ok" in statuses
    # flagged rows keep their mass/radius and carry nan payloads
    for r in rows[1:]:
        f = r.split(",")
        if f[-1] != "ok":
            assert f[2] == "nan" and math.isfinite(float(f[0]))


def test_fig3_outputs_per_mass_files(tmp_path):
    out = tmp_path / "fig3.csv"
    code = run(["fig3", "--masses", "1e6,1e7", "--p-range=-12:-6:13",
                "--T-range=80:320:13", "--out", str(out)])
    assert code == EXIT_OK
    for mass in ("1e+06", "1e+07"):
        path = tmp_path / f"fig3_m{mass}.csv"
        assert path.exists()
        rows = read_rows(path)
        assert rows[0] == FIG3_HEADER
        assert len(rows) > 2


def test_fig1_marker_on_a_rounded_grid_value_is_one_row(tmp_path):
    # the grid value 10**-16.0 here is 1.000000000000004e-16, the marker 1e-16
    out = tmp_path / "fig1.csv"
    assert run(["fig1", "--lambda0-range=-17.9:-8.4:6", "--out", str(out)]) == EXIT_OK
    lams = [float(r.split(",")[0]) for r in read_rows(out)[1:]]
    assert len(lams) == 7
    assert sum(math.isclose(lam, 1e-16) for lam in lams) == 1


def test_manifest_rerun_fig1_byte_identical(tmp_path):
    out = tmp_path / "fig1.csv"
    assert run(["fig1", "--lambda0-range=-16:-8:9", "--out", str(out)]) == EXIT_OK
    manifest = tmp_path / "fig1.csv.manifest.json"
    assert manifest.exists()
    meta = json.loads(manifest.read_text())
    assert meta["command"] == "fig1" and meta["tool"] == "cslsim"
    replay = tmp_path / "replay.csv"
    assert run(["rerun", "--manifest", str(manifest), "--out", str(replay)]) == EXIT_OK
    assert replay.read_bytes() == out.read_bytes()


def test_manifest_rerun_fig2_byte_identical(tmp_path):
    out = tmp_path / "fig2.csv"
    assert run(["fig2", "--mass-range=5:8:7", "--out", str(out)]) == EXIT_OK
    replay = tmp_path / "replay.csv"
    assert run(["rerun", "--manifest", str(tmp_path / "fig2.csv.manifest.json"),
                "--out", str(replay)]) == EXIT_OK
    assert replay.read_bytes() == out.read_bytes()


def test_manifest_rerun_fig3_byte_identical(tmp_path):
    out = tmp_path / "fig3.csv"
    assert run(["fig3", "--masses", "1e6,3e7", "--p-range=-14:-6:13",
                "--T-range=4:400:13", "--out", str(out)]) == EXIT_OK
    meta = json.loads((tmp_path / "fig3.csv.manifest.json").read_text())
    assert meta["schema"] == "fig3.v6"
    assert not (tmp_path / "fig3.csv.model.json").exists()
    replay = tmp_path / "replay.csv"
    assert run(["rerun", "--manifest", str(tmp_path / "fig3.csv.manifest.json"),
                "--out", str(replay)]) == EXIT_OK
    for mass in ("1e+06", "3e+07"):
        original = (tmp_path / f"fig3_m{mass}.csv").read_bytes()
        assert original.count(b"\n") > 2
        assert (tmp_path / f"replay_m{mass}.csv").read_bytes() == original


@pytest.mark.parametrize("schema", ["fig1.v1", "fig1.v2", "fig1.v3", "fig2.v1", "fig2.v2",
                                    "fig2.v3", "fig2.v4", "fig2.v5", "fig2.v6", "fig2.v7",
                                    "fig2.v8", "fig2.v10", "fig2.v11", "fig3.v1",
                                    "fig3.v2", "fig1.v4", "fig3.v3", "fig2.v12",
                                    "fig3.v4", "fig3.v5"])
def test_rerun_refuses_another_schema(tmp_path, schema):
    command = schema.split(".")[0]
    sweep = {"fig1": ["--lambda0-range=-12:-10:3"],
             "fig2": ["--mass-range=5:6:3"],
             "fig3": ["--masses", "1e7", "--p-range=-14:-6:5", "--T-range=4:400:5"]}
    out = tmp_path / f"{command}.csv"
    assert run([command, *sweep[command], "--out", str(out)]) == EXIT_OK
    manifest = tmp_path / f"{command}.csv.manifest.json"
    meta = json.loads(manifest.read_text())
    meta["schema"] = schema
    manifest.write_text(json.dumps(meta))
    assert run(["rerun", "--manifest", str(manifest),
                "--out", str(tmp_path / "replay.csv")]) == EXIT_USAGE
    assert not list(tmp_path.glob("replay*"))


def test_rerun_names_a_missing_argument(tmp_path, capsys):
    out = tmp_path / "fig1.csv"
    assert run(["fig1", "--lambda0-range=-12:-10:3", "--out", str(out)]) == EXIT_OK
    manifest = tmp_path / "fig1.csv.manifest.json"
    meta = json.loads(manifest.read_text())
    del meta["args"]["threshold"]
    manifest.write_text(json.dumps(meta))
    capsys.readouterr()
    assert run(["rerun", "--manifest", str(manifest),
                "--out", str(tmp_path / "replay.csv")]) == EXIT_USAGE
    assert "'threshold'" in capsys.readouterr().err
    assert not (tmp_path / "replay.csv").exists()


@pytest.mark.parametrize("command,key,value", [("fig1", "steps", "3"),
                                               ("fig1", "threshold", None),
                                               ("fig1", "markers", 5),
                                               ("fig3", "masses_amu", "1e6"),
                                               ("fig3", "cluster_temperature_K", "2000"),
                                               # right types, values this build refuses
                                               ("fig1", "steps", 0),
                                               ("fig1", "hi_log10", -20.0),
                                               ("fig2", "hi_log10", 4.0),
                                               ("fig2", "target_v", math.nan),
                                               ("fig3", "masses_amu", []),
                                               # 10 ** 400 overflows a double
                                               ("fig1", "hi_log10", 400.0),
                                               ("fig2", "hi_log10", 400.0),
                                               ("fig3", "p_hi_log10", 400.0),
                                               ("fig3", "t_steps", 1),
                                               # -ln(level) is the contour's exposure
                                               ("fig3", "level", -1.0),
                                               ("fig3", "level", 0.0),
                                               ("fig1", "version", "9.9"),
                                               # a key this build does not write
                                               ("fig1", "treshold", 0.1),
                                               ("fig2", "treshold", 0.1),
                                               # no flux reaches a visibility outside (0, 2)
                                               ("fig2", "target_v", 0.0),
                                               ("fig2", "target_v", 2.0),
                                               # fig2 no longer writes the Talbot order,
                                               # which its flux solve does not read
                                               ("fig2", "talbot_order", 2)])
def test_rerun_refuses_a_mistyped_argument(tmp_path, capsys, command, key, value):
    sweep = {"fig1": ["--lambda0-range=-12:-10:3"],
             "fig2": ["--mass-range=5:6:3"],
             "fig3": ["--masses", "1e7", "--p-range=-14:-6:5", "--T-range=4:400:5"]}
    out = tmp_path / f"{command}.csv"
    assert run([command, *sweep[command], "--out", str(out)]) == EXIT_OK
    manifest = tmp_path / f"{command}.csv.manifest.json"
    meta = json.loads(manifest.read_text())
    (meta if key == "version" else meta["args"])[key] = value
    manifest.write_text(json.dumps(meta))
    capsys.readouterr()
    assert run(["rerun", "--manifest", str(manifest),
                "--out", str(tmp_path / "replay.csv")]) == EXIT_USAGE
    assert repr(key) in capsys.readouterr().err
    assert not list(tmp_path.glob("replay*"))


@pytest.mark.parametrize("key,field", [("constants", "planck_h"),
                                       ("decoherence_model", "dc_conductivity")])
def test_rerun_refuses_other_constants(tmp_path, key, field):
    out = tmp_path / "fig1.csv"
    assert run(["fig1", "--lambda0-range=-12:-10:3", "--out", str(out)]) == EXIT_OK
    manifest = tmp_path / "fig1.csv.manifest.json"
    meta = json.loads(manifest.read_text())
    meta[key][field] *= 1.0 + 1e-9
    manifest.write_text(json.dumps(meta))
    assert run(["rerun", "--manifest", str(manifest),
                "--out", str(tmp_path / "replay.csv")]) == EXIT_USAGE
    assert not (tmp_path / "replay.csv").exists()


def test_manifest_constants_and_model_keep_their_bytes():
    # rerun compares these blocks with the manifest's, so a manifest written
    # by an earlier build reruns only while they stay exactly these values
    manifest = _manifest("fig2", {}, [])
    assert manifest["constants"] == {
        "planck_h": 6.62607015e-34, "boltzmann_kB": 1.380649e-23,
        "speed_of_light_c": 299792458.0, "atomic_mass_unit": 1.6605390666e-27,
        "vacuum_permittivity": 8.8541878128e-12}
    assert manifest["decoherence_model"] == {
        "c6_prefactor": 7.57, "gas_electron_count": 10.0,
        "cluster_electrons_per_amu": 0.055847040439400454, "collision_effectiveness": 1.0,
        "dc_conductivity": 41000000.0, "photon_effectiveness_cap": 1.0}


def test_failed_fig3_leaves_no_files(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # a bad mass, and masses whose six-digit file names coincide
    for masses in ("1e6,-5", "1e6,1e6,1000000", "1e6,1.0000001e6"):
        assert run(["fig3", "--masses", masses, "--out", "f.csv"]) == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []
    assert "1000000.0 and 1000000.1" in capsys.readouterr().err


def test_bad_mass_is_reported_in_amu(tmp_path, capsys):
    for argv in (["fig3", "--masses", "1e6,-5"], ["budget", "--mass-amu=-5"]):
        capsys.readouterr()
        assert run([*argv, "--out", str(tmp_path / "f.csv")]) == EXIT_USAGE
        assert "got -5" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_mass_that_underflows_in_kg_is_reported_in_amu(tmp_path, monkeypatch, capsys,
                                                         source):
    # 1e-320 amu is 0.0 kg
    monkeypatch.chdir(tmp_path)
    if source == "flag":
        argv = ["budget", "--mass-amu", "1e-320"]
    else:
        Path("tiny.ini").write_text(CONFIG_TEXT.replace("mass_amu = 1e6", "mass_amu = 1e-320"))
        argv = ["--config", "tiny.ini", "budget"]
    assert run([*argv, "--out", "b.json"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "1e-320 amu" in captured.err
    assert sorted(os.listdir(tmp_path)) == (["tiny.ini"] if source == "config" else [])


@pytest.mark.parametrize("section,key,name", [("csl", "m0_amu", "m0"),
                                               ("environment", "gas_mass_amu", "gas_mass")])
def test_a_config_mass_that_underflows_in_kg_is_reported_in_amu(tmp_path, monkeypatch, capsys,
                                                                section, key, name):
    monkeypatch.chdir(tmp_path)
    Path("tiny.ini").write_text(f"{CONFIG_TEXT}\n[{section}]\n{key} = 1e-320\n")
    assert run(["--config", "tiny.ini", "budget", "--out", "b.json"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{name} must be positive and finite in kg, got 1e-320 amu" in captured.err
    assert os.listdir(tmp_path) == ["tiny.ini"]


def test_interrupted_write_leaves_no_file(tmp_path, monkeypatch):
    import cslsim.cli

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cslsim.cli.os, "replace", fail)
    assert run(["fig1", "--lambda0-range=-12:-10:3",
                "--out", str(tmp_path / "fig1.csv")]) == EXIT_USAGE
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("blocked,argv", [
    ("x_m1e+07.csv", ["fig3", "--masses", "1e6,1e7", "--p-range=-14:-6:5",
                      "--T-range=4:400:5", "--out", "x.csv"]),
    ("f.csv.manifest.json", ["fig1", "--lambda0-range=-12:-10:3", "--out", "f.csv"]),
])
def test_a_run_that_cannot_rename_one_file_writes_none(tmp_path, monkeypatch, blocked, argv):
    # a directory in the way of a later rename: the files renamed before
    # it are removed again, and so is every temporary file
    monkeypatch.chdir(tmp_path)
    (tmp_path / blocked).mkdir()
    before = sorted(tmp_path.iterdir())
    assert run(argv) == EXIT_USAGE
    assert sorted(tmp_path.iterdir()) == before


def _fig2_gold_and_lossless_rows(tmp_path):
    """The rows of two fig2 sweeps at target 0.8: gold, whose rows are `ok`
    or `geometry_error`, and a lossless sphere (eps_im = 0, so n1 is exactly
    0), whose rows are `unreachable` or `geometry_error`."""
    lossless = tmp_path / "lossless.ini"
    lossless.write_text(CONFIG_TEXT.replace("eps_im = 3.2", "eps_im = 0"))
    rows = []
    for config in ([], ["--config", str(lossless)]):
        out = tmp_path / "fig2.csv"
        assert run([*config, "fig2", "--mass-range=5:10.5:12", "--target-V=0.8",
                    "--out", str(out)]) == EXIT_OK
        rows += [r.split(",") for r in read_rows(out)[1:]]
    return rows


def test_fig2_ok_rows_carry_the_scalar_flux(tmp_path):
    rows = _fig2_gold_and_lossless_rows(tmp_path)
    assert {r[-1] for r in rows} == {"ok", "unreachable", "geometry_error"}
    grating = default_grating()
    for row in rows:
        if row[-1] == "ok":
            flux = flux_for_target_visibility(gold_cluster(float(row[0])), grating, 0.8)
            assert float(row[2]) == pytest.approx(flux, rel=1e-12)


def test_fig2_rows_of_an_antiphase_modulation_match_the_oracle():
    # for gold at 157 nm, n1 < 0 between about 2.16e9 and 9.3e9 amu; V and T
    # are even in n1, so these rows are `ok`, with the amplitude |n1| written
    target = 0.85
    _, args_from, files = SWEEPS["fig2"]
    ns = build_parser().parse_args(
        ["fig2", "--mass-range=5:10.5:600", f"--target-V={target!r}"])
    (text,) = files(args_from(ns, RunConfig()), None).values()
    grating = default_grating()
    rows = [row.split(",") for row in text.splitlines()[1:]]
    antiphase = [row for row in rows if row[-1] == "ok"
                 and absorption_profile(gold_cluster(float(row[0])), grating, 1.0).n1 < 0.0]
    assert len(antiphase) == 70
    n1 = solve_oracle(target)
    k = 2.0 * math.pi / grating.laser_wavelength
    prefactor = 4.0 / (params.PLANCK_H * (params.SPEED_OF_LIGHT / grating.laser_wavelength)
                       * k * k)
    for row in antiphase[::7]:  # the mpmath sums take about 30 ms a row
        species = gold_cluster(float(row[0]))
        s0, s1 = standing_wave_sums_oracle(k * params.cluster_radius(species),
                                           species.permittivity)
        assert s1 < 0.0
        n0 = n1 * s0 / -s1
        t = float(mp.exp(-3 * mp.mpf(n0)) * mp.mpf(iv_oracle(0, n1)) ** 3)
        expected = (n1 / (prefactor * -s1), n0, n1, t)
        for cell, value in zip(row[2:6], expected):
            assert float(cell) == pytest.approx(value, rel=1e-10, abs=0.0), row[0]


# the largest relative error of each fig2 column over every fifth row of the
# default run, measured against the 40-digit chain below; each bound adds a
# slack of about 4.5 ulps (1e-15), one ulp (2.2e-16) for the radius, whose
# cube root takes a Newton step, 9e-16 for n0, so that its bound stays at
# 2.2e-15, and 5e-15 for T, whose error is about 3 n0 (12 to 17 here) times
# that of n0.  The flux carries the radius's error three times over, since
# S1 goes as rho^3: x ** (1/3) alone was 1.3e-15 off, the flux 4.5e-15.
FIG2_MEASURED = {"radius_nm": 1.7e-16, "flux": 1.5e-15, "n0": 1.3e-15, "n1": 7.4e-16,
                 "T": 7.1e-15}
FIG2_SLACK = {"radius_nm": 2.2e-16, "flux": 1e-15, "n0": 9e-16, "n1": 1e-15, "T": 5e-15}


def test_every_fifth_default_fig2_row_is_within_its_measured_error_of_40_digits():
    # from each row's mass: R = (3 m / 4 pi rho)^(1/3), the Mie sums from the
    # mpmath oracle at rho = k R, n1 from findroot on ln V with mpmath's I_k,
    # flux = n1 / (P |S1|) with P = 4 / (h nu k^2), n0 = n1 S0 / |S1| and
    # T = exp(-3 n0) I0(n1)^3
    _, args_from, files = SWEEPS["fig2"]
    ns = build_parser().parse_args(["fig2"])
    (text,) = files(args_from(ns, RunConfig()), None).values()
    target = ns.target_V
    with mp.workdps(40):
        def ln_v(x):
            i0 = mp.besseli(0, x)
            return mp.log(2 * mp.besseli(1, x) ** 2 * mp.besseli(2, x) / i0 ** 3)

        n1 = mp.findroot(lambda x: ln_v(x) - mp.log(target), mp.mpf(1))
        i0_cubed = mp.besseli(0, n1) ** 3
        wavelength = mp.mpf(default_grating().laser_wavelength)
        k = 2 * mp.pi / wavelength
        prefactor = 4 / (params.PLANCK_H * (params.SPEED_OF_LIGHT / wavelength) * k * k)
        for row in text.splitlines()[1::5]:
            mass_amu, *cells, status = row.split(",")
            assert status == "ok"
            radius = mp.cbrt(3 * mp.mpf(float(mass_amu)) * params.ATOMIC_MASS_UNIT
                             / (4 * mp.pi * params.GOLD_DENSITY))
            s0, s1 = map(mp.mpf, standing_wave_sums_oracle(
                k * radius, params.GOLD_PERMITTIVITY_157NM))
            n0 = n1 * s0 / abs(s1)
            exact = {"radius_nm": radius * 10 ** 9, "flux": n1 / (prefactor * abs(s1)),
                     "n0": n0, "n1": n1, "T": mp.exp(-3 * n0) * i0_cubed}
            for (column, value), cell in zip(exact.items(), cells):
                error = abs(mp.mpf(float(cell)) / value - 1)
                assert error <= FIG2_MEASURED[column] + FIG2_SLACK[column], (mass_amu, column)


# the largest relative error of the default fig1 run's masses and geometry
# factor, measured against the 40-digit chain below, and a slack of one ulp
FIG1_MEASURED = {"m_c_amu": 2.8e-16, "geometry_factor": 6.1e-17}
FIG1_SLACK = 2.2e-16


def test_every_default_fig1_row_is_within_its_measured_error_of_40_digits():
    # from the inputs, not from the double 2 T0 N g: T0 = m0 d^2 / h with
    # d = lambda / 2, g = 1 - sqrt(pi) r_c / (N d) erf(N d / 2 r_c) and
    # m_c = m0 cbrt(-ln threshold / (2 lambda0 T0 N g)), each at 40 digits
    _, args_from, files = SWEEPS["fig1"]
    ns = build_parser().parse_args(["fig1"])
    (text,) = files(args_from(ns, RunConfig()), None).values()
    grating, csl = RunConfig().grating, RunConfig().csl
    with mp.workdps(40):
        d = mp.mpf(grating.laser_wavelength) / 2
        nd, r_c = grating.talbot_order * d, mp.mpf(csl.r_c)
        t0 = csl.m0 * d ** 2 / params.PLANCK_H
        g = 1 - mp.sqrt(mp.pi) * r_c / nd * mp.erf(nd / (2 * r_c))
        for row in text.splitlines()[1:]:
            lam, m_c_amu, g_cell = map(float, row.split(","))
            m_c = csl.m0 * mp.cbrt(-mp.log(mp.mpf(ns.threshold))
                                   / (2 * lam * t0 * grating.talbot_order * g))
            for column, cell, exact in (("m_c_amu", m_c_amu, m_c / params.ATOMIC_MASS_UNIT),
                                        ("geometry_factor", g_cell, g)):
                error = abs(mp.mpf(cell) / exact - 1)
                assert error <= FIG1_MEASURED[column] + FIG1_SLACK, (lam, column)


# The exposure (a p + b(T)) t_total at a vertex of the default 1e7 amu
# contour meets -ln 0.5 within these tolerances.  Measured at every tenth
# vertex: 3.5e-16 on a grid temperature line, where p is solved in closed
# form, to which the bound adds 1.5e-16, about one rounding of the
# exposure; and 1.1e-13 on a grid pressure line, where the temperature
# solve stops once |ln(b / target)| <= 1e-12, the bound below.
FIG3_ON_TEMPERATURE_LINE = 5e-16
FIG3_ON_PRESSURE_LINE = 1e-12


def test_every_tenth_default_fig3_vertex_meets_the_level_at_30_digits():
    # a, the collision rate per Pa, in closed form: n_gas / p = 1 / (kB T_gas)
    # times (2 / sqrt(pi)) Gamma(9/5) v_p sigma(v_p), with sigma(v) =
    # c6_prefactor (C6 / hbar v)^(2/5) and the Slater-Kirkwood C6 of
    # R^3 = 3 m / (4 pi rho); b(T), absorption, emission at the radiation
    # temperature and Rayleigh scattering, by quadrature of the capped Planck
    # integrands, split at the kink where (N d omega / c)^2 reaches the cap
    from cslsim.decoherence import DEFAULT_MODEL

    _, args_from, files = SWEEPS["fig3"]
    ns = build_parser().parse_args(["fig3"])
    args = args_from(ns, RunConfig())
    rows = files(args, "fig3.csv")["fig3_m1e+07.csv"].splitlines()[1:]
    grating, env, model = RunConfig().grating, RunConfig().environment, DEFAULT_MODEL
    assert len(rows) > 80  # 85 vertices, so nine are checked

    def on_grid(value, lo, hi, steps):
        index = (value - lo) * (steps - 1) / (hi - lo)
        return abs(index - round(index)) < 1e-9

    with mp.workdps(30):
        m = mp.mpf(1e7) * params.ATOMIC_MASS_UNIT
        r3 = 3 * m / (4 * mp.pi * params.GOLD_DENSITY)
        d, c = mp.mpf(grating.laser_wavelength) / 2, mp.mpf(params.SPEED_OF_LIGHT)
        nd = grating.talbot_order * d
        t_total = 2 * nd * m * d / params.PLANCK_H
        a0 = mp.mpf(params.BOHR_RADIUS)
        alpha_c, alpha_g = r3 / a0 ** 3, env.gas_polarizability_volume / a0 ** 3
        electrons_c = 10 ** 7 * mp.mpf(11) / params.GOLD_ATOM_MASS_AMU
        c6 = (mp.mpf(3) / 2 * alpha_c * alpha_g / (mp.sqrt(alpha_c / electrons_c)
                                                   + mp.sqrt(alpha_g / model.gas_electron_count))
              * params.HARTREE_ENERGY * a0 ** 6)
        kt_gas = params.BOLTZMANN_KB * mp.mpf(env.gas_temperature)
        v_p = mp.sqrt(2 * kt_gas / env.gas_mass)
        sigma = model.c6_prefactor * (c6 / (params.HBAR * v_p)) ** (mp.mpf(2) / 5)
        a = 2 / mp.sqrt(mp.pi) * mp.gamma(mp.mpf(9) / 5) * v_p * sigma / kt_gas
        cap = mp.mpf(model.photon_effectiveness_cap)
        # Drude absorption and Rayleigh scattering times the photon flux, per omega^4 and ^6
        k_abs = 12 * params.VACUUM_PERMITTIVITY * r3 / (mp.pi * model.dc_conductivity * c ** 3)
        k_sca = 8 * r3 ** 2 / (3 * mp.pi * c ** 6)

        def b(temperature):
            w = params.BOLTZMANN_KB * mp.mpf(temperature) / params.HBAR
            s = nd * w / c
            kink = mp.sqrt(cap) / s

            def capped(power):  # int_0^inf x^power min(s^2 x^2, cap) / (e^x - 1) dx
                return (mp.quad(lambda x: s * s * x ** (power + 2) / mp.expm1(x), [0, kink])
                        + mp.quad(lambda x: cap * x ** power / mp.expm1(x), [kink, mp.inf]))

            return 2 * k_abs * w ** 5 * capped(4) + k_sca * w ** 7 * capped(6)

        for row in rows[::10]:
            _, p_mbar, temperature = map(float, row.split(","))
            exposure = (a * mp.mpf(p_mbar) * 100 + b(temperature)) * t_total
            on_t_line = on_grid(temperature, args["t_lo"], args["t_hi"], args["t_steps"])
            tolerance = FIG3_ON_TEMPERATURE_LINE if on_t_line else FIG3_ON_PRESSURE_LINE
            assert abs(exposure / -mp.log(mp.mpf(args["level"])) - 1) <= tolerance, row


def test_a_fig2_sweep_shares_one_n1_solve_and_one_mie_evaluation_per_row(tmp_path,
                                                                         monkeypatch):
    import cslsim.interferometer
    import cslsim.mie

    def counted(module, name):
        calls, original = [], getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append(args) or original(*args))
        return calls

    sums = counted(cslsim.mie, "absorption_sums")
    passes = counted(cslsim.interferometer, "_iv012_scaled")  # the n1 solve's series
    # both sweeps ask for one target, so the second reads the first's solve
    statuses = [r[-1] for r in _fig2_gold_and_lossless_rows(tmp_path)]
    assert set(statuses) == {"ok", "unreachable", "geometry_error"}
    assert len(sums) == len(statuses) - statuses.count("geometry_error")
    assert 1 <= len(passes) <= 4


@given(st.floats(3.0, 11.0), st.floats(0.01, 2.0), st.integers(1, 12), st.floats(0.05, 1.7))
@example(9.0, 1.0, 5, 0.85)  # across the gold masses whose n1 is negative
@settings(max_examples=40, deadline=None)
def test_fig2_rows_are_consistent(lo, span, steps, target_v):
    # every target in [0.05, 1.7] is reachable: V(n1) rises to 1.71 on the branch,
    # and V is even in n1, so every row inside the geometry guard is `ok`
    _, args_from, files = SWEEPS["fig2"]
    ns = build_parser().parse_args(
        ["fig2", f"--mass-range={lo!r}:{lo + span!r}:{steps}", f"--target-V={target_v!r}"])
    (text,) = files(args_from(ns, RunConfig()), None).values()
    grating = default_grating()
    period_nm = grating.period * 1e9
    for row in text.splitlines()[1:]:
        mass, radius_nm, flux, n0, n1, t, status = row.split(",")
        assert (status == "geometry_error") == (float(radius_nm) >= period_nm)
        if status != "geometry_error":
            assert status == "ok" and float(n1) > 0.0
            assert math.isfinite(float(flux))
            assert float(n1) <= float(n0) * (1.0 + 1e-12)
            # the row is the library's profile at its flux, bit for bit
            obs = observables(gold_cluster(float(mass)), grating, float(flux))
            assert (obs.n0, abs(obs.n1), obs.transmissivity) == (float(n0), float(n1), float(t))


def test_fig2_unreachable_target_marks_every_row(tmp_path):
    # the geometry guard runs before the target: a sphere past the grating
    # period is geometry_error at any target, and every other row unreachable
    period_nm = default_grating().period * 1e9
    out = tmp_path / "fig2.csv"
    assert run(["fig2", "--mass-range=5:10.5:12", "--target-V=1.9",
                "--out", str(out)]) == EXIT_OK
    rows = [r.split(",") for r in read_rows(out)[1:]]
    assert {status for *_, status in rows} == {"unreachable", "geometry_error"}
    for _, radius_nm, *_, status in rows:
        assert (status == "geometry_error") == (float(radius_nm) >= period_nm)


@pytest.mark.parametrize("target", ["0", "-1", "2", "nan"])
def test_fig2_target_outside_0_2_is_a_usage_error(tmp_path, capsys, target):
    # no flux reaches a visibility outside (0, 2): refused before any row
    assert run(["fig2", "--mass-range=5:10.5:12", f"--target-V={target}",
                "--out", str(tmp_path / "fig2.csv")]) == EXIT_USAGE
    assert "'target_v' must lie in (0, 2)" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_a_permittivity_past_the_bessel_bound_is_a_usage_error(tmp_path, capsys):
    # |sqrt(eps)| k R reaches 334 at 1e10 amu: the Mie sums refuse it, and
    # fig2 must not label that row unreachable
    config = tmp_path / "big.ini"
    config.write_text(CONFIG_TEXT.replace("eps_re = 0.9", "eps_re = 20000"))
    out = tmp_path / "fig2.csv"
    assert run(["--config", str(config), "fig2", "--mass-range=5:10.5:12",
                "--out", str(out)]) == EXIT_USAGE
    assert "sqrt(eps)" in capsys.readouterr().err
    assert not out.exists()


def test_unreadable_manifest_is_usage_error(tmp_path, capsys):
    assert run(["rerun", "--manifest", str(tmp_path / "missing.json")]) == EXIT_USAGE
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run(["rerun", "--manifest", str(broken)]) == EXIT_USAGE
    broken.write_text("[]")
    assert run(["rerun", "--manifest", str(broken)]) == EXIT_USAGE
    # bytes that are not UTF-8, arrays nested past the parser's recursion
    # limit, and an integer past the int-from-text digit limit
    for content in (b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000,
                    b'{"command": "fig1", "args": {"threshold": 1' + b"0" * 5000 + b"}}"):
        broken.write_bytes(content)
        capsys.readouterr()
        assert run(["rerun", "--manifest", str(broken)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"malformed manifest {broken}" in captured.err


def test_unwritable_output_is_usage_error(tmp_path):
    assert run(["fig1", "--lambda0-range=-12:-10:3",
                "--out", str(tmp_path / "missing" / "f.csv")]) == EXIT_USAGE


def test_removed_global_flags_are_usage_errors(tmp_path):
    cfg = tmp_path / "probe.ini"
    cfg.write_text(CONFIG_TEXT)
    for argv in (["--format", "json", "fig1"], ["--jobs", "2", "fig1"],
                 ["fig2", "--species", str(cfg)], ["observables", "--grating", str(cfg)]):
        assert run([*argv, "--out", str(tmp_path / "f.csv")]) == EXIT_USAGE
    assert list(tmp_path.iterdir()) == [cfg]


def test_readme_commands_parse():
    readme = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, flags=re.M | re.S)
    commands = [shlex.split(line)[1:] for block in blocks
                for line in block.splitlines() if line.startswith("cslsim ")]
    assert commands
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_cli_import_loads_no_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, cslsim.cli; print(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    for package in ("scipy", "numpy"):
        assert [m for m in loaded if m.split(".")[0] == package] == []
    # the value types are named tuples: the import pays for neither module
    assert "dataclasses" not in loaded and "inspect" not in loaded


def test_the_module_entry_point_exits_with_the_usage_code(tmp_path):
    # `python -m cslsim.cli` hands main()'s return code to the shell
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "cslsim.cli", "fig2", "--mass-range=5:six:3",
         "--out", str(tmp_path / "x.csv")], env=env, capture_output=True, text=True)
    assert done.returncode == EXIT_USAGE
    assert "--mass-range: could not convert" in done.stderr
    assert list(tmp_path.iterdir()) == []


def test_bad_range_is_usage_error(tmp_path, capsys):
    assert run(["fig1", "--lambda0-range=oops", "--out",
                str(tmp_path / "x.csv")]) == EXIT_USAGE
    assert run(["fig1", "--lambda0-range=-6:-18:5", "--out",
                str(tmp_path / "x.csv")]) == EXIT_USAGE
    for argv in (["fig3", "--masses", "1e7", "--p-range=-14:inf:4", "--T-range=4:400:4"],
                 ["fig2", "--mass-range=5:nan:1"],
                 ["fig2", "--target-V", "nan"]):
        assert run([*argv, "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE
    # each message names the args key, as a rerun of a manifest would
    for argv, message in (
            (["fig3", "--masses", "1e7", "--p-range=-14:-6:1"], "'p_steps' must be >= 2"),
            (["fig1", "--lambda0-range=-18:400:3"], "'hi_log10' must be at most"),
            (["fig2", "--mass-range=5:400:3"], "'hi_log10' must be at most"),
            (["fig2", "--mass-range=400:0:1"], "'lo_log10' must be at most"),
            (["fig3", "--masses", "1e7", "--p-range=-14:400:3"],
             "'p_hi_log10' must be at most"),
            # a non-number names its option
            (["fig2", "--mass-range=5:six:3"], "--mass-range: could not convert"),
            (["fig2", "--mass-range=5:6:3.5"], "--mass-range: invalid literal"),
            (["fig3", "--masses", "1e6,heavy"], "--masses: could not convert")):
        capsys.readouterr()
        assert run([*argv, "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE
        assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_unknown_command_is_usage_error():
    assert run(["frobnicate"]) == EXIT_USAGE
    assert run(["csl-ratio", "--mass-amu", "5e5", "--lambda0", "1e-10"]) == EXIT_USAGE
    assert run(["absorption"]) == EXIT_USAGE


def test_missing_config_is_usage_error(tmp_path):
    assert run(["--config", str(tmp_path / "nope.ini"), "budget",
                "--mass-amu", "1e6"]) == EXIT_USAGE


def test_oversized_species_is_geometry_error(tmp_path):
    cfg = tmp_path / "big.ini"
    cfg.write_text(CONFIG_TEXT.replace("1e6", "1e11"))
    assert run(["--config", str(cfg), "observables",
                "--out", str(tmp_path / "o.json")]) == EXIT_GEOMETRY


def test_observables_with_config(tmp_path):
    cfg = tmp_path / "probe.ini"
    cfg.write_text(CONFIG_TEXT)
    out = tmp_path / "obs.json"
    code = run(["--config", str(cfg), "observables", "--flux", "1.0",
                "--out", str(out)])
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert data["n0"] >= data["n1"] > 0.0
    assert 0.0 <= data["V"] < 2.0
    assert 0.0 < data["T"] <= 1.0


def test_observables_reports_the_truncation_order(tmp_path):
    out = tmp_path / "obs.json"
    assert run(["observables", "--out", str(out)]) == EXIT_OK
    profile = absorption_profile(RunConfig().species, default_grating())
    assert json.loads(out.read_text())["l_max"] == profile.truncation_order


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_observables_at_a_saturating_flux_reports_v_two(capsys):
    assert run(["observables", "--flux", "1e300"]) == EXIT_OK
    data = _strict_json(capsys.readouterr().out)
    assert data["V"] == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("flux, code", [("2e304", EXIT_OK), ("3e304", EXIT_USAGE)])
def test_observables_at_a_modulation_near_the_float_range(tmp_path, capsys, flux, code):
    # at 1e9 amu, flux 2e304 gives n1 = 4.6e307, past where 2 pi n1 overflows;
    # at 3e304, n0 overflows and the profile refuses it, naming the flux
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG_TEXT.replace("mass_amu = 1e6", "mass_amu = 1e9"))
    assert run(["--config", str(cfg), "observables", "--flux", flux]) == code
    captured = capsys.readouterr()
    if code == EXIT_OK:
        data = _strict_json(captured.out)
        assert data["n1"] > 2.87e307 and data["V"] == 2.0 and data["T"] == 0.0
    else:
        assert captured.out == ""
        assert "error: n0 is out of float range at laser wavelength" in captured.err
        assert captured.err.endswith(f" m and flux {float(flux)!r} J/m^2\n")


def test_observables_read_the_amplitude_of_an_antiphase_modulation(tmp_path, capsys):
    # at 3e9 amu, n1 < 0: the report keeps its sign, and V and T read |n1|
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG_TEXT.replace("mass_amu = 1e6", "mass_amu = 3e9"))
    assert run(["--config", str(cfg), "observables", "--flux", "1.0"]) == EXIT_OK
    data = _strict_json(capsys.readouterr().out)
    assert data["n1"] < 0.0
    assert data["V"] == visibility(-data["n1"]) > 1.99
    assert data["T"] == transmissivity(data["n0"], -data["n1"])


def test_an_n0_past_the_float_range_names_the_flux(capsys):
    # at the default mass n0 is 1.66e305 at flux 1e305, and overflows past about 1.08e308
    assert run(["observables", "--flux", "1e305"]) == EXIT_OK
    assert _strict_json(capsys.readouterr().out)["n0"] == pytest.approx(1.66e305, rel=1e-2)
    assert run(["observables", "--flux", "1.1e308"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("n0 is out of float range at laser wavelength 1.57e-07 m "
            "and flux 1.1e+308 J/m^2") in captured.err


@pytest.mark.parametrize("argv, name", [
    (["observables", "--flux", "1e309"], "laser_flux"),
    (["budget", "--lambda0", "1e309"], "lambda0"),
    (["budget", "--pressure-mbar", "1e309"], "gas_pressure"),
])
def test_an_infinite_value_is_named_as_such(capsys, argv, name):
    # 1e309 parses to inf, which is not negative
    assert run(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{name} must be >= 0 and finite, got inf" in captured.err


@pytest.mark.parametrize("argv", [
    ["budget", "--mass-amu", "1e120"],
    ["budget", "--temperature-K=1e300"],
    ["budget", "--mass-amu=1e5", "--pressure-mbar=1", "--temperature-K=1e-300"],
])
def test_budget_past_float_range_is_usage_error(capsys, argv):
    assert run(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not finite" in captured.err


FIG3_SMALL = ["fig3", "--masses", "1e7", "--p-range=-14:-6:3"]


@pytest.mark.parametrize("argv, temperature", [
    (["budget", "--temperature-K", "1e250"], "1e+250"),
    (["budget", "--pressure-mbar", "1", "--temperature-K", "1e-320"], "1e-320"),
    (["budget", "--temperature-K", "1e-320"], "1e-320"),
    ([*FIG3_SMALL, "--T-range=4:1e250:3"], "5e+249"),
    ([*FIG3_SMALL, "--T-range=1e-300:1e5:3"], "1e-300"),
    ([*FIG3_SMALL, "--T-range=1:1e300:3"], "1e+300"),
    # kB T rounds to 0 here, while 2 kB T rounds to the least subnormal
    (["budget", "--pressure-mbar", "1", "--temperature-K", "1e-301"], "1e-301"),
])
def test_a_temperature_past_float_range_is_usage_error(tmp_path, monkeypatch, capsys,
                                                       argv, temperature):
    # budget prints to stdout, fig3 writes fig3_m1e+07.csv in the working directory
    monkeypatch.chdir(tmp_path)
    assert run(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{temperature} K" in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("gas_mass_amu, temperature", [
    # v_p = sqrt(2 kB T / m) underflows to 0, and overflows in a subnormal kg mass
    ("1e30", "1e-300"),
    ("1e-290", "1e+20"),
])
def test_a_gas_speed_past_float_range_names_the_gas_temperature_and_mass(
        tmp_path, monkeypatch, capsys, gas_mass_amu, temperature):
    monkeypatch.chdir(tmp_path)
    Path("gas.ini").write_text(f"[environment]\ngas_mass_amu = {gas_mass_amu}\n")
    assert run(["--config", "gas.ini", "budget", "--temperature-K", temperature,
                "--pressure-mbar", "1e-10"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the gas speed is out of float range at "
                                   f"gas temperature {temperature} K and gas mass ")
    if gas_mass_amu == "1e30":  # a subnormal kg mass reads back in amu with an error
        assert captured.err.endswith(" 1e+30 amu\n")
    assert os.listdir(tmp_path) == ["gas.ini"]


@pytest.mark.parametrize("key, value, message", [
    # the collision rate per Pa underflows to 0, or overflows where kB T_gas is tiny,
    # and the interference time underflows to 0
    ("density_kg_m3", 1e300, "collision rate per Pa is out of float range"),
    ("gas_temperature_K", 1e-290, "collision rate per Pa is out of float range"),
    ("wavelength_m", 1e-320, "interference time underflows"),
])
def test_a_fig3_manifest_past_float_range_is_usage_error(tmp_path, capsys, key, value,
                                                        message):
    out = tmp_path / "fig3.csv"
    assert run([*FIG3_SMALL, "--T-range=4:400:3", "--out", str(out)]) == EXIT_OK
    manifest = tmp_path / "fig3.csv.manifest.json"
    meta = json.loads(manifest.read_text())
    meta["args"][key] = value
    manifest.write_text(json.dumps(meta))
    capsys.readouterr()
    assert run(["rerun", "--manifest", str(manifest),
                "--out", str(tmp_path / "replay.csv")]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("replay*"))


def test_a_talbot_order_past_float_range_is_usage_error(tmp_path, monkeypatch, capsys):
    # 10**400 has no double value, and the Talbot time scales with the order
    monkeypatch.chdir(tmp_path)
    order = str(10 ** 400)
    for argv in (["fig1", "--lambda0-range=-12:-10:3"], [*FIG3_SMALL, "--T-range=4:400:3"],
                 ["budget"]):
        assert run([*argv, f"--talbot-order={order}", "--out", "out.csv"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "talbot_order" in captured.err
        assert os.listdir(tmp_path) == []
    assert run(["fig1", "--lambda0-range=-12:-10:3", "--out", "fig1.csv"]) == EXIT_OK
    meta = json.loads(Path("fig1.csv.manifest.json").read_text())
    meta["args"]["talbot_order"] = 10 ** 400
    Path("fig1.csv.manifest.json").write_text(json.dumps(meta))
    capsys.readouterr()
    assert run(["rerun", "--manifest", "fig1.csv.manifest.json", "--out", "replay.csv"]) \
        == EXIT_USAGE
    assert "talbot_order" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["fig1.csv", "fig1.csv.manifest.json"]


def test_fig3_refuses_stdout_as_its_output(tmp_path, monkeypatch, capsys):
    # fig3 names one file per mass after --out, so "-" names none
    made, cwd = tmp_path / "made", tmp_path / "cwd"
    made.mkdir()
    cwd.mkdir()
    fig3 = [*FIG3_SMALL, "--T-range=4:400:3"]
    assert run([*fig3, "--out", str(made / "fig3.csv")]) == EXIT_OK
    monkeypatch.chdir(cwd)
    for argv in ([*fig3, "--out", "-"],
                 ["rerun", "--manifest", str(made / "fig3.csv.manifest.json"), "--out", "-"]):
        capsys.readouterr()
        assert run(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--out" in captured.err
        assert os.listdir(cwd) == []


@pytest.mark.parametrize("command", ["fig1", "fig2", "fig3", "observables"])
def test_a_grating_wavelength_past_float_range_is_usage_error(tmp_path, monkeypatch, capsys,
                                                             command):
    # at 1e200 nm the Talbot time's d^2 overflows, and the Mie prefactor's h nu k^2
    # underflows to 0; at 1e104 nm only the Mie prefactor leaves float range (it
    # overflows), so fig1 and fig3 still run there
    monkeypatch.chdir(tmp_path)
    for wavelength in ("1e200", "1e104") if command in ("fig2", "observables") else ("1e200",):
        Path("wide.ini").write_text(f"[grating]\nwavelength_nm = {wavelength}\n")
        assert run(["--config", "wide.ini", command, "--out", "out.csv"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "out of float range" in captured.err
        assert os.listdir(tmp_path) == ["wide.ini"]


def test_the_parser_is_built_once_and_keeps_no_parsed_state(tmp_path, monkeypatch):
    assert build_parser() is build_parser()
    monkeypatch.chdir(tmp_path)
    assert run([*FIG3_SMALL, "--T-range=4:400:3", "--out", "small.csv"]) == EXIT_OK
    assert run(["fig3", "--out", "default.csv"]) == EXIT_OK
    meta = json.loads(Path("default.csv.manifest.json").read_text())
    assert meta["command_line"] == ["fig3", "--out", "default.csv"]
    assert meta["args"]["masses_amu"] == [1e6, 1e7, 1e8]
    assert (meta["args"]["p_steps"], meta["args"]["t_steps"]) == (60, 60)
    assert meta["outputs"] == ["default_m1e+06.csv", "default_m1e+07.csv", "default_m1e+08.csv"]


EXTREME_VALUES = ["0", "-1", "1e-320", "1e-300", "1e-30", "1", "3", "1e5", "1e30", "1e120",
                  "1e250", "1e300", "nan", "inf"]


@given(st.tuples(*[st.sampled_from(EXTREME_VALUES)] * 5))
@settings(max_examples=150, deadline=None)
def test_budget_and_fig3_end_in_a_documented_exit_code(values):
    temperature, pressure, mass, t_lo, t_hi = values
    with tempfile.TemporaryDirectory() as tmp:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["budget", f"--temperature-K={temperature}",
                        f"--pressure-mbar={pressure}", f"--mass-amu={mass}"])
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_NONCONVERGENCE, EXIT_GEOMETRY)
        if code == EXIT_OK:
            _strict_json(out.getvalue())
        else:
            assert out.getvalue() == ""
        fig3 = [*FIG3_SMALL, f"--T-range={t_lo}:{t_hi}:3",
                "--out", os.path.join(tmp, "f.csv")]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(fig3)
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_NONCONVERGENCE, EXIT_GEOMETRY)
        written = sorted(os.listdir(tmp))
        assert written == ([] if code else ["f.csv.manifest.json", "f_m1e+07.csv"])


# Every config key: (value in the base file, changed value).
KEY_WALK = {
    "species": {"label": ("probe", "other"), "mass_amu": ("1e6", "2e6"),
                "density_kg_m3": ("19300", "10500"), "eps_re": ("0.9", "1.2"),
                "eps_im": ("3.2", "2.0")},
    "grating": {"wavelength_nm": ("157", "160"), "talbot_order": ("2", "3"),
                "flux_J_m2": ("1.0", "2.0")},
    "csl": {"rc_nm": ("100", "50"), "lambda0_hz": ("1e-10", "1e-9"), "m0_amu": ("1", "2")},
    "environment": {"pressure_mbar": ("1e-9", "1e-8"), "gas_temperature_K": ("300", "200"),
                    "gas_mass_amu": ("28", "40"), "gas_polarizability_A3": ("1.74", "1.64"),
                    "environment_temperature_K": ("300", "200"),
                    "cluster_temperature_K": ("300", "2000")},
}
CSL_KEYS, ENV_KEYS = set(KEY_WALK["csl"]), set(KEY_WALK["environment"])
# The keys a command does not read; every other key must move its output.
NOT_APPLICABLE = {
    # the CSL boundary alone: lambda0 is its axis, and it has no absorption,
    # decoherence or species
    "fig1": {"flux_J_m2", "lambda0_hz", *ENV_KEYS, *KEY_WALK["species"]},
    # the flux is solved for, the mass is the axis and the label is not
    # written; the flux solve reads no Talbot order; no CSL and no decoherence
    "fig2": {"flux_J_m2", "mass_amu", "label", "talbot_order", *CSL_KEYS, *ENV_KEYS},
    # pressure and radiation temperature are the axes, --masses sets the
    # masses, the label is not written, and the rates take the model's
    # conductivity, not eps at the laser wavelength; no absorption or CSL
    "fig3": {"flux_J_m2", "pressure_mbar", "environment_temperature_K", "mass_amu",
             "label", "eps_re", "eps_im", *CSL_KEYS},
    "budget": set(),
    "observables": {*CSL_KEYS, *ENV_KEYS},
}
WALK_ARGV = {"fig1": ["--lambda0-range=-12:-8:3"], "fig2": ["--mass-range=5:8:4"],
             "fig3": ["--masses", "1e6,1e8", "--p-range=-14:-6:16", "--T-range=4:400:16"],
             "budget": [], "observables": []}


def _walk_ini(changed=()):
    """KEY_WALK's base config, with the changed value of each (section, key)
    in `changed`."""
    return "".join(
        f"[{section}]\n" + "".join(f"{key} = {new if (section, key) in changed else base}\n"
                                   for key, (base, new) in keys.items())
        for section, keys in KEY_WALK.items())


def _walk_outputs(work, command, argv=(), changed=()):
    """The files `command` writes in `work` from _walk_ini(changed); a
    manifest without its timestamp and command line, and with its output
    paths cut to their names."""
    work.mkdir()
    cfg = work / "run.ini"
    cfg.write_text(_walk_ini(changed))
    assert run(["--config", str(cfg), command, *WALK_ARGV[command], *argv,
                "--out", str(work / "out")]) == EXIT_OK
    outputs = {}
    for path in work.glob("out*"):
        outputs[path.name] = path.read_bytes()
        if path.name.endswith(".manifest.json"):
            manifest = json.loads(outputs[path.name])
            del manifest["timestamp"], manifest["command_line"]
            manifest["outputs"] = [Path(name).name for name in manifest.get("outputs", [])]
            outputs[path.name] = manifest
    return outputs


def test_key_walk_covers_every_key_and_command():
    assert {section: set(keys) for section, keys in KEY_WALK.items()} == {
        section: set(keys) for section, keys in params._CONFIG_KEYS.items()}
    assert set(WALK_ARGV) == set(NOT_APPLICABLE) == {*SWEEPS, *REPORTS}


@pytest.mark.parametrize("command", sorted(WALK_ARGV))
def test_every_config_key_reaches_the_commands_that_read_it(tmp_path, command):
    def outputs(name, changed=()):
        return {file: data for file, data in _walk_outputs(tmp_path / name, command,
                                                           changed=changed).items()
                if not file.endswith(".manifest.json")}

    base = outputs("base")
    moved = {key for section, keys in KEY_WALK.items() for key in keys
             if outputs(key, {(section, key)}) != base}
    every = {key for keys in KEY_WALK.values() for key in keys}
    assert moved == every - NOT_APPLICABLE[command]


def _commands_taking(dest):
    """The commands whose parser has an option that sets `dest`."""
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    return sorted(name for name, parser in commands.items()
                  if dest in {action.dest for action in parser._actions})


@pytest.mark.parametrize("flag,command", [
    (flag, command) for flag in sorted({flag for _, _, flag in _FLAG_KEYS})
    for command in _commands_taking(flag)])
def test_a_value_flag_writes_what_its_config_keys_write(tmp_path, flag, command):
    keys = {(section, key) for section, key, dest in _FLAG_KEYS if dest == flag}
    [value] = {KEY_WALK[section][key][1] for section, key in keys}
    option = f"--{flag.replace('_', '-')}={value}"
    by_flag = _walk_outputs(tmp_path / "flag", command, [option])
    assert by_flag == _walk_outputs(tmp_path / "key", command, changed=keys)
    assert by_flag != _walk_outputs(tmp_path / "base", command)


def test_only_the_commands_that_read_the_talbot_order_take_its_flag(tmp_path, capsys):
    assert _commands_taking("talbot_order") == ["budget", "fig1", "fig3", "observables"]
    assert run(["fig2", "--talbot-order", "3", "--out", str(tmp_path / "fig2.csv")]) \
        == EXIT_USAGE
    assert "--talbot-order" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_every_value_flag_has_a_row_in_the_readme_table():
    rows = re.findall(r"^\| `(--[\w-]+)` \| `\[(\w+)\]` \| (.*) \|$",
                      README.read_text(encoding="utf-8"), flags=re.M)
    assert {(section, key, flag) for flag, section, keys in rows
            for key in re.findall(r"`(\w+)`", keys)} == {
        (section, key, f"--{dest.replace('_', '-')}") for section, key, dest in _FLAG_KEYS}


@pytest.mark.parametrize("text,message", [
    (b"lambda0_hz = 1e-10\n[csl]\nrc_nm = 50\n", "no section headers"),
    (b"[csl]\nrc_nm = 50\nrc_nm = 60\n", "option 'rc_nm' in section 'csl' already exists"),
    (b"[csl]\nrc_nm = 50\n[csl]\nlambda0_hz = 1e-10\n", "section 'csl' already exists"),
    (b"[csl]\nrc_nm\n", "parsing errors"),
    (b"[csl]\nrc_nm = 50%\n", "[csl] rc_nm must be a number, got '50%'"),
    (b"[species]\nlabel = \xff\xfe\n", "can't decode byte 0xff"),
    (b"[DEFAULT]\nlambda0_hz = 1e-10\n", "unknown config section [DEFAULT]"),
    (b"[DEFAULT]\nlambda0_hz = 1e-10\n[csl]\nrc_nm = 100\n",
     "unknown config section [DEFAULT]"),
    (b"[species]\ndensity_kg_m3 = 19300\neps_re = 0.9\n",
     "[species] missing keys: ['eps_im', 'mass_amu']"),
    (b"[grating]\ntalbot_order = 2\n", "[grating] missing keys: ['wavelength_nm']"),
], ids=["key-before-section", "duplicate-option", "duplicate-section", "key-without-value",
        "percent-in-number", "not-utf-8", "default-alone", "default-beside-csl",
        "species-missing-keys", "grating-missing-keys"])
def test_a_malformed_config_is_a_usage_error(tmp_path, capsys, text, message):
    cfg = tmp_path / "run.ini"
    cfg.write_bytes(text)
    assert run(["--config", str(cfg), "budget", "--out", str(tmp_path / "b.json")]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == [cfg]


def test_a_percent_in_a_config_value_is_literal(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG_TEXT.replace("label = probe", "label = 5%Au"), encoding="utf-8")
    assert run(["--config", str(cfg), "budget"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["species"]["label"] == "5%Au"


def test_budget_report(tmp_path):
    out = tmp_path / "budget.json"
    code = run(["budget", "--mass-amu", "1e6", "--lambda0", "1e-10",
                "--pressure-mbar", "1e-9", "--temperature-K", "300",
                "--out", str(out)])
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    env_factor = data["env_visibility_factor"]
    csl_ratio = data["csl_visibility_ratio"]
    assert env_factor >= 0.5
    assert data["combined_factor"] == pytest.approx(
        env_factor * csl_ratio, rel=1e-12)
    assert set(data["exposures"]) == {
        "collision", "bb_absorption", "bb_emission", "bb_scattering"}


def test_budget_csl_numbers_match_the_oracle(tmp_path):
    # a non-default r_c comes from the config file's [csl] section
    cfg = tmp_path / "csl.ini"
    cfg.write_text("[csl]\nrc_nm = 50\n")
    out = tmp_path / "budget.json"
    assert run(["--config", str(cfg), "budget", "--mass-amu", "5e5",
                "--lambda0", "1e-10", "--out", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    assert data["csl"]["r_c_m"] == pytest.approx(50e-9, rel=1e-15)
    oracle = csl_visibility_ratio_oracle(gold_cluster(5e5), default_grating(),
                                         CslParams(r_c=50e-9, lambda0=1e-10))
    assert data["csl_visibility_ratio"] == pytest.approx(oracle, rel=1e-6)
    assert data["csl_visibility_ratio"] == pytest.approx(
        math.exp(-data["csl_exponent"]), rel=1e-12)


def test_budget_takes_lambda0_from_the_config(tmp_path):
    ini = re.search(r"^```ini\n(.*?)^```", README.read_text(encoding="utf-8"),
                    flags=re.M | re.S).group(1)
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini)
    out = tmp_path / "budget.json"

    def budget(*argv):
        assert run([*argv, "--out", str(out)]) == EXIT_OK
        return out.read_bytes()

    def lambda0(*argv):
        return json.loads(budget(*argv))["csl"]["lambda0_Hz"]

    assert lambda0("--config", str(cfg), "budget") == 1e-10
    assert lambda0("--config", str(cfg), "budget", "--lambda0", "3e-12") == 3e-12
    # without a config the rate is the CslParams default 0.0, as it was
    # when the flag itself defaulted to 0.0
    assert budget("budget") == budget("budget", "--lambda0", "0.0")


def test_csv_uses_lf_and_17_sig_figs(tmp_path):
    out = tmp_path / "fig1.csv"
    assert run(["fig1", "--lambda0-range=-12:-10:3", "--out", str(out)]) == EXIT_OK
    raw = out.read_bytes()
    assert b"\r" not in raw
    value = read_rows(out)[1].split(",")[1]
    assert float(value) == float(f"{float(value):.17g}")


# Float values that reach the numerics from an edited manifest (a config file
# can also give nan and inf).
FUZZ_VALUES = [v for v in EXTREME_VALUES if v not in ("nan", "inf")]
FUZZ_ARGV = {"fig1": ["--lambda0-range=-12:-8:3"], "fig2": ["--mass-range=5:8:4"],
             "fig3": [*FIG3_SMALL[1:], "--T-range=4:400:5"], "observables": []}
CONFIG_FLOATS = [("grating", "wavelength_nm"), ("species", "density_kg_m3"),
                 ("species", "eps_re"), ("species", "eps_im"),
                 *[("environment", key) for key in KEY_WALK["environment"]]]
# every float arg of a sweep, optional (None) ones included
MANIFEST_FLOATS = [(command, key) for command, (_, args_from, _) in SWEEPS.items()
                   for key, value in args_from(build_parser().parse_args([command]),
                                               RunConfig()).items()
                   if value is None or isinstance(value, float)]


def _assert_documented_exit(argv, work, keep):
    """Run argv with its outputs in `work`: the exit code is documented, a
    failure leaves no file there but `keep`, no .tmp file is left, every JSON
    output is strict JSON, every fig1 critical mass is finite and positive,
    and every fig2 ok row has finite cells."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_NONCONVERGENCE, EXIT_GEOMETRY)
    assert out.getvalue() == ""
    written = sorted(set(os.listdir(work)) - {keep})
    if code != EXIT_OK:
        assert written == []
    assert not [name for name in written if name.endswith(".tmp")]
    for name in written:
        text = (Path(work) / name).read_text(encoding="utf-8")
        if name.endswith(".json"):
            _strict_json(text)
        elif text.startswith(FIG1_HEADER):
            for row in text.splitlines()[1:]:
                assert 0.0 < float(row.split(",")[1]) < math.inf
        elif text.startswith(FIG2_HEADER):
            for row in text.splitlines()[1:]:
                *cells, status = row.split(",")
                assert status != "ok" or all(math.isfinite(float(c)) for c in cells)


@given(st.sampled_from(sorted(FUZZ_ARGV)), st.sampled_from(CONFIG_FLOATS),
       st.sampled_from(EXTREME_VALUES))
@example("fig3", ("environment", "gas_mass_amu"), "nan")
@example("fig3", ("environment", "gas_polarizability_A3"), "nan")
@example("fig3", ("environment", "gas_polarizability_A3"), "inf")
@settings(max_examples=200, deadline=None)
def test_config_floats_end_in_a_documented_exit_code(command, section_key, value):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.ini"
        cfg.write_text("".join(
            f"[{section}]\n" + "".join(
                f"{key} = {value if (section, key) == section_key else base}\n"
                for key, (base, _) in keys.items())
            for section, keys in KEY_WALK.items()))
        out = os.path.join(tmp, "out.json" if command in REPORTS else "out.csv")
        _assert_documented_exit(["--config", str(cfg), command, *FUZZ_ARGV[command],
                                 "--out", out], tmp, keep=cfg.name)


@given(st.tuples(*[st.none() | st.sampled_from(EXTREME_VALUES)] * 8))
# rates whose cube root is near the edge of the float range, a subnormal
# threshold, and a localization length whose geometry factor underflows
@example(("-320", "-300", None, None, None, None, None, None))
@example(("300", "308", None, None, None, None, None, None))
@example((None, None, None, "1e-320", None, None, None, None))
@example((None, None, "1e159", None, None, None, None, None))
@settings(max_examples=150, deadline=None)
def test_fig1_fig2_and_observables_options_end_in_a_documented_exit_code(values):
    # None keeps an option at its small-run value; drawn values are non-empty strings
    lambda_lo, lambda_hi, rc_nm, threshold, mass_lo, mass_hi, target_v, flux = values

    def option(name, value):
        return [] if value is None else [f"--{name}={value}"]

    for argv, out in (
            (["fig1", f"--lambda0-range={lambda_lo or -12}:{lambda_hi or -8}:3",
              *option("rc-nm", rc_nm), *option("threshold", threshold)], "out.csv"),
            (["fig2", f"--mass-range={mass_lo or 5}:{mass_hi or 8}:3",
              *option("target-V", target_v)], "out.csv"),
            (["observables", *option("flux", flux)], "out.json")):
        with tempfile.TemporaryDirectory() as tmp:
            _assert_documented_exit([*argv, "--out", os.path.join(tmp, out)], tmp, keep=None)


@pytest.fixture(scope="module")
def sweep_manifests(tmp_path_factory):
    """The manifest of one small run of each sweep."""
    work = tmp_path_factory.mktemp("sweeps")
    manifests = {}
    for command in SWEEPS:
        assert run([command, *FUZZ_ARGV[command], "--out", str(work / "out.csv")]) == EXIT_OK
        manifests[command] = json.loads((work / "out.csv.manifest.json").read_text())
    return manifests


@given(command_key=st.sampled_from(MANIFEST_FLOATS), value=st.sampled_from(FUZZ_VALUES))
@settings(max_examples=200, deadline=None)
def test_edited_manifest_floats_end_in_a_documented_exit_code(sweep_manifests, command_key,
                                                              value):
    command, key = command_key
    meta = json.loads(json.dumps(sweep_manifests[command]))
    meta["args"][key] = float(value)
    with tempfile.TemporaryDirectory() as tmp:
        manifest = Path(tmp) / "edited.json"
        manifest.write_text(json.dumps(meta))
        _assert_documented_exit(["rerun", "--manifest", str(manifest),
                                 "--out", os.path.join(tmp, "replay.csv")],
                                tmp, keep=manifest.name)
