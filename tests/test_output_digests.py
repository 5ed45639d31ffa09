"""SHA-256 of every output the CLI writes, keyed by schema.

Each sweep schema in `cli.SWEEPS` pins the CSV bytes of a few runs, and the
scalar reports pin their default stdout, so an output that moves without a
schema bump fails here.  Three runs with README's config file pin the path
from a config file to the numerics, and a fig3 run with the cluster held at
150 K pins the emission path.  Digests, not files, are pinned: the
default outputs alone are about 22 KB.

The digests hold for the libm they were taken with (glibc 2.36, x86-64).
A math library that rounds a transcendental function differently can move
the last of the 17 significant digits in a CSV cell.
"""

import hashlib
import re
from pathlib import Path

import pytest

from cslsim.cli import EXIT_OK, REPORTS, SWEEPS, main

README = Path(__file__).resolve().parents[1] / "README.md"

# config files that a run below reads with --config=<name>
CONFIG_FILES = {"csl.ini": "[csl]\nrc_nm = 50\nm0_amu = 2\n"}

# schema -> [(options, {file name: SHA-256})]; the options follow the
# command, except a leading --config=<name>; every run writes to --out
# out.csv, and fig3 names one file per mass after it.
SWEEP_DIGESTS = {
    "fig1.v5": [
        ([], {"out.csv":
              "37495fba26b4854a52676293f3484e9c479f65993c24136b2d39fc72c9bdb76f"}),
        (["--config=csl.ini", "--threshold", "0.3"], {"out.csv":
              "aae0ef6c4f45f58d391c8e8616778f001dd4c077f7f3790922a5d4fd0c53de27"}),
    ],
    "fig2.v12": [
        ([], {"out.csv":
              "cdd1f8b7121998933010706a3dfe85134c0f21b1c7125d8143b62941c5684ef5"}),
        (["--mass-range=5:10.5:600", "--target-V=0.85"], {"out.csv":
              "cd61c1993ad625c29b3796014383a70ee2bf8e6418c1d887b00de08e11420576"}),
        (["--mass-range=5:10.5:600", "--target-V=1.2"], {"out.csv":
              "257ba83e5ac1c2883f4c5a944ced7b10f7b1af500d39fe9220c37d157d6e0fbf"}),
    ],
    "fig3.v4": [
        ([], {"out_m1e+06.csv":
              "3d5cc5871912393f2c93676c67d647f3de6ed1a332d2d17ffc3ef4b4c29d4df4",
              "out_m1e+07.csv":
              "2a3c6b3d9fd0a5d190adfc2bb9a24a4b74b2a92d5e037d44c01494dae5200941",
              "out_m1e+08.csv":
              "3fbaf1682f5c7328df27343138707612b26a60dfcd4810040d2d2238ded8887c"}),
        # the benchmark's grid, where the Bose tails take one k term at every temperature
        (["--talbot-order", "1", "--masses", "3e6,1.5e7,5e7", "--p-range=-14:-6:240",
          "--T-range=4:400:240"], {"out_m3e+06.csv":
              "5bbffe584a52c2eae8829773c04f2127bbcf2bc0de12c4dfdbb91dabfc69509e",
              "out_m1.5e+07.csv":
              "12baefa1a183c279f79899abb7fc17f67d7b71b8f5c677a668794d5bc970efa3",
              "out_m5e+07.csv":
              "ea13c1b74e8a264f24b70c7a893d8f0640768366b7baa54789af226fd4ebfe8d"}),
    ],
}

# report command -> SHA-256 of its default stdout
REPORT_DIGESTS = {
    "budget": "6688c35c9d692cca5b150cf4623f09e3150e7035e7eca4b904ccc0e404a2fd33",
    "observables": "34fe6537279939ec09971d08714cde4f57a96c8ae699447f81c6a09e07050052",
}

# With README's `ini` block as the config file: options -> SHA-256 of the
# report's stdout, or of out.csv for a sweep
README_CONFIG_DIGESTS = [
    (["budget"], "4ec124c5b3e95f9a1f9a9506b0616d2f556325089d3139a2e01b29328e0c7709"),
    (["observables"], "960ff57308a40e4ce5ad7feb904817c326925d48d9fb84dbe34f92482973308c"),
    (["fig2", "--mass-range=5:8:9"],
     "37d2c1afb4a248418d1541960801c3b1eed6e37f10fc959baf0cb72066a8342b"),
]


# fig3 from a config file that holds the cluster at 150 K: emission takes a
# second thermal-photon pass per temperature, and the contour adds the three
# rates left to right (sum() rounds differently from CPython 3.12 on)
CLUSTER_AT_150K_INI = "[environment]\ncluster_temperature_K = 150\n"
CLUSTER_AT_150K_DIGESTS = {
    "out_m1e+06.csv": "d1bf2823c6888ea3d3ed0226e93893310293b7d539a0f6b9324b00d8bacd0c72",
    "out_m1e+07.csv": "8113b0364400817baba2863552f13e3eee547588a45dc79c0446544f33d43d59",
    "out_m1e+08.csv": "d11acd2d1c4b6574ef2bd7ddea605527f7ac7bde487e9b948119f5b53e43b568",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _config_name(options):
    """The CONFIG_FILES name of a run's leading --config=<name>, or None."""
    if options and options[0].startswith("--config="):
        return options[0].removeprefix("--config=")
    return None


# the runs from a config file come last, so that adding one moves no other run's id
@pytest.mark.parametrize("schema,options,digests", sorted([
    (schema, options, digests)
    for schema, runs in SWEEP_DIGESTS.items() for options, digests in runs],
    key=lambda run: _config_name(run[1]) is not None))
def test_sweep_bytes_match_their_schema(tmp_path, schema, options, digests):
    argv = [schema.split(".")[0], *options]
    ini = _config_name(options)
    if ini is not None:  # a global option, so it goes before the command
        (tmp_path / ini).write_text(CONFIG_FILES[ini], encoding="utf-8")
        argv = [f"--config={tmp_path / ini}", argv[0], *options[1:]]
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == EXIT_OK
    written = {p.name: _sha256(p.read_bytes()) for p in tmp_path.glob("*.csv")}
    assert written.keys() == digests.keys()
    for name, digest in digests.items():
        assert written[name] == digest, (
            f"{schema} {' '.join(options) or 'defaults'}: {name} moved; "
            f"bump {schema} in cli.SWEEPS and pin the new digest")


@pytest.mark.parametrize("command", sorted(REPORT_DIGESTS))
def test_report_stdout_matches_its_digest(capsys, command):
    assert main([command]) == EXIT_OK
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == REPORT_DIGESTS[command], (
        f"the default {command} report moved; say so in CHANGES.md and pin the new digest")


def test_every_sweep_schema_has_a_pinned_digest():
    assert {schema for schema, _, _ in SWEEPS.values()} == set(SWEEP_DIGESTS)


def test_readme_names_each_sweep_schema():
    text = README.read_text(encoding="utf-8")
    named = dict(re.findall(r"^`(fig\d)` \(schema `(fig\d\.v\d+)`\)", text, flags=re.M))
    assert named == {command: schema for command, (schema, _, _) in SWEEPS.items()}


@pytest.mark.parametrize("options,digest", README_CONFIG_DIGESTS)
def test_readme_config_outputs_match_their_digests(tmp_path, capsys, options, digest):
    ini = re.search(r"^```ini\n(.*?)^```", README.read_text(encoding="utf-8"),
                    flags=re.M | re.S).group(1)
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini, encoding="utf-8")
    out = [] if options[0] in REPORTS else ["--out", str(tmp_path / "out.csv")]
    assert main(["--config", str(cfg), *options, *out]) == EXIT_OK
    data = (tmp_path / "out.csv").read_bytes() if out else capsys.readouterr().out.encode("utf-8")
    assert _sha256(data) == digest, (
        f"{' '.join(options)} with README's config moved; say so in CHANGES.md "
        f"and pin the new digest")


def test_fig3_with_a_cluster_temperature_matches_its_digests(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CLUSTER_AT_150K_INI, encoding="utf-8")
    assert main(["--config", str(cfg), "fig3", "--out", str(tmp_path / "out.csv")]) == EXIT_OK
    written = {p.name: _sha256(p.read_bytes()) for p in tmp_path.glob("*.csv")}
    assert written == CLUSTER_AT_150K_DIGESTS, (
        "fig3 with a 150 K cluster moved; bump fig3 in cli.SWEEPS and pin the new digests")
