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
    "fig2.v13": [
        ([], {"out.csv":
              "3b6a32ba7a13f92ba8610729ae0efc85169da314f5a2f55f8ed5b10873daa6d0"}),
        (["--mass-range=5:10.5:600", "--target-V=0.85"], {"out.csv":
              "411d836991837dcb77598ce588a09e197ffd4fdda326ac371d9b732578f4df85"}),
        (["--mass-range=5:10.5:600", "--target-V=1.2"], {"out.csv":
              "720c55fc38915c9c9b2a34835b2917c00dc444953c65037c6c57802f6c3e9016"}),
        # the benchmark's mass_sweep inputs at seed 1: its jittered grid and target
        (["--mass-range=4.958027753265712:10.466532999800542:600",
          "--target-V=0.8809165024575587"], {"out.csv":
              "20bc81e2a7ab289281881d9c4f20089359cdae3e011d964cfbc8c6a03e961f46"}),
    ],
    "fig3.v6": [
        ([], {"out_m1e+06.csv":
              "f7e15efa3d8bf99b8baed491e28a6abf5ab7f05d045b1824d2156db0844b2b0d",
              "out_m1e+07.csv":
              "ee240cab4210ec5be1306b6abb1b5798569bfe9b2f107d3a1491ef494dd96d20",
              "out_m1e+08.csv":
              "ec00f1d68cf08317bd51653f7d4dea74b73c76b9e13d9d200df1f899cad52c18"}),
        # the benchmark's grid, where the Bose tails take one k term at every temperature
        (["--talbot-order", "1", "--masses", "3e6,1.5e7,5e7", "--p-range=-14:-6:240",
          "--T-range=4:400:240"], {"out_m3e+06.csv":
              "beb7b32426502b2328010a4bdde5e68e0dde99b80d98d758dbc0079850ca4573",
              "out_m1.5e+07.csv":
              "83aa8a00bdc444e23c8743af7fd2913ef1c4d1e9340077afd116c86baa0d8ba9",
              "out_m5e+07.csv":
              "08998ac8ebebbf72c033185de28a8b01498835d5a43a55768377f159a677d6ca"}),
    ],
}

# report command -> SHA-256 of its default stdout
REPORT_DIGESTS = {
    "budget": "81d29d724b1cf2b088528faac2afedd6f24b7f597ca4c25b64b52f7bae0ffb1d",
    "observables": "5c52d4560a87b48a6b09d0057c4becb15fb2abadbd2dd6ed19ec2c2b5a434d1c",
}

# With README's `ini` block as the config file: options -> SHA-256 of the
# report's stdout, or of out.csv for a sweep
README_CONFIG_DIGESTS = [
    (["budget"], "a79f17f62d5b33cd4ff5d1e01b719df9763c3308342fc0c8b5b3085b586c8ec0"),
    (["observables"], "bdf41d63f66a4bc2b52453279c1e0973575d28ec9fc6177a9f9a7c17058362c5"),
    (["fig2", "--mass-range=5:8:9"],
     "2d597ab5f6248ffb6ba48c1ff862c61db978bec7b485c6307fc10dd3ba54fd9f"),
]


# fig3 from a config file that holds the cluster at 150 K: emission takes a
# second thermal-photon pass per temperature, and the contour adds the three
# rates left to right (sum() rounds differently from CPython 3.12 on)
CLUSTER_AT_150K_INI = "[environment]\ncluster_temperature_K = 150\n"
CLUSTER_AT_150K_DIGESTS = {
    "out_m1e+06.csv": "6377545cc3d14d95682777c62f5e59b5cc899262d6f683acd888df288e92ca65",
    "out_m1e+07.csv": "d22f0f441c2186137471307b1c1f9a87b529b2f80f8628f762d575d86322657b",
    "out_m1e+08.csv": "3fb4d08b4eb6ba930b8af2b7577699eee9fbb955fde6208a996f4310038099fa",
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
