"""The package runs on the standard library alone (`dependencies = []`):
every command, in a fresh interpreter that cannot import the test-only
numerics packages, nor the standard library's number types, which the
number checks in `cslsim.errors` convert with float() instead of importing."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Installed before cslsim.cli is imported, so any import of a blocked
# package, direct or through another module, raises ImportError.
SCRIPT = """
import json, sys

BLOCKED = {"numpy", "scipy", "mpmath", "numbers", "decimal", "fractions"}


class Blocker:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in BLOCKED:
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, Blocker())
from cslsim.cli import main

codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes,
                  "loaded": sorted(m for m in sys.modules if m.partition(".")[0] in BLOCKED)}))
"""

ARGVS = [
    ["fig1", "--lambda0-range=-12:-10:3", "--out", "fig1.csv"],
    ["fig2", "--mass-range=5:10.5:12", "--out", "fig2.csv"],
    ["fig3", "--masses", "1e7", "--p-range=-14:-6:3", "--T-range=4:400:3", "--out", "fig3.csv"],
    ["budget", "--out", "budget.json"],
    ["observables", "--out", "observables.json"],
    ["rerun", "--manifest", "fig2.csv.manifest.json", "--out", "replay.csv"],
]


def test_every_command_runs_without_numpy_scipy_or_mpmath(tmp_path):
    done = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(ARGVS)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"codes": [0] * len(ARGVS), "loaded": []}, done.stderr
    assert (tmp_path / "replay.csv").read_bytes() == (tmp_path / "fig2.csv").read_bytes()
