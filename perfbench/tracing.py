"""Traced runs: wrappers around the package's public functions, spans kept
in memory, and the `python -X importtime` breakdown of the import layer.

Every layer is measured from outside the program.  `Tracer.installed()`
replaces each function in `WRAPPED` by a timing wrapper in *every* module
of the package that binds it: `from .mie import absorption_profile` copies
the name into `interferometer`, `cli` and the package root, and patching
only the defining module would miss the calls made through those copies.
Leaving the block puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import subprocess
import sys
from contextlib import contextmanager
from time import perf_counter

# Layer module -> public functions timed by the traced run.
WRAPPED = {
    "specfun": ("spherical_jn_array", "spherical_hankel_array", "bessel_I_scaled"),
    "mie": ("absorption_profile", "absorption_sums"),
    "interferometer": ("solve_modulation_for_visibility", "visibility",
                       "flux_for_target_visibility"),
    "csl": ("critical_mass", "csl_visibility_ratio"),
    "decoherence": ("blackbody_rates", "collision_rate", "decoherence_budget",
                    "critical_contour"),
    "cli": ("main",),
}

_MARK = "_perfbench_span"


def package_modules() -> list:
    """Every imported module of the package, the root included."""
    importlib.import_module("cslsim.cli")  # imports every layer
    return [m for n, m in sorted(sys.modules.items())
            if n == "cslsim" or n.startswith("cslsim.")]


def wrapped_bindings() -> list[str]:
    """Names of package-module attributes that are currently wrappers."""
    return [f"{m.__name__}.{attr}" for m in package_modules()
            for attr, value in vars(m).items() if hasattr(value, _MARK)]


class Tracer:
    """Spans of one traced pass.

    A span is `(name, start, end, parent, op)`; its id is its index in
    `spans`, `parent` is the id of the enclosing span (-1 for none) and
    `op` labels the benchmark operation it belongs to.
    """

    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self._op = None
        self._patches: list = []

    def _span(self, name, fn, args, kwargs):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, self._op)

    def run_op(self, op, fn, *args, **kwargs):
        """Call `fn` as benchmark operation `op`, under a root span "op"."""
        self._op = op
        try:
            return self._span("op", fn, args, kwargs)
        finally:
            self._op = None

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._span(name, fn, args, kwargs)
        setattr(wrapper, _MARK, name)
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every binding of every function in `WRAPPED`, then restore."""
        modules = package_modules()
        if wrapped_bindings():
            raise RuntimeError("package functions are already wrapped")
        try:
            for layer, names in WRAPPED.items():
                home = importlib.import_module(f"cslsim.{layer}")
                for name in names:
                    original = getattr(home, name)
                    wrapper = self._wrap(f"{layer}.{name}", original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, wrapper)
                                self._patches.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(self._patches):
                setattr(module, attr, original)
            self._patches.clear()

    def totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds).

        Self time is the span's duration minus the durations of its direct
        children; spans nest strictly, so that is the uncovered part.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, list] = {}
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - covered[sid]
        return {name: (calls, self_s) for name, (calls, self_s) in out.items()}

    def dump(self, path) -> None:
        """Write the spans as CSV: id, name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,op\n")
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{sid},{name},{start!r},{end!r},{parent},{op}\n")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Import-layer seconds from `python -X importtime -c "import cslsim.cli"`.

    `total` is the cumulative time of the top-level `cslsim*` imports; the
    other three sum the self times of every `scipy*`, `numpy*` and
    `cslsim*` module.
    """
    out = {"total_s": 0.0, "scipy_s": 0.0, "numpy_s": 0.0, "cslsim_self_s": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cumulative_us, field = line[len("import time:"):].split("|")
        name = field.strip()
        top = name.split(".")[0]
        if top == "cslsim" and len(field) - len(field.lstrip()) == 1:
            out["total_s"] += int(cumulative_us) * 1e-6
        key = {"scipy": "scipy_s", "numpy": "numpy_s",
               "cslsim": "cslsim_self_s"}.get(top)
        if key:
            out[key] += int(self_us) * 1e-6
    return out


def import_breakdown(python: str, env: dict, cwd, samples: int) -> dict[str, float]:
    """Median over `samples` fresh interpreters of `parse_importtime`."""
    runs = []
    for _ in range(samples):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import cslsim.cli"],
                              env=env, cwd=cwd, capture_output=True, text=True,
                              timeout=120, check=True)
        runs.append(parse_importtime(proc.stderr))
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}
