"""Command-line interface: sweep drivers, reports, and provenance manifests.

Curves go to CSV (LF line endings, 17 significant digits), scalars and
manifests to JSON.  Every run writes a manifest holding all resolved
parameters; `cslsim rerun --manifest <file>` reproduces the output
byte-for-byte from the manifest alone.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .csl import (
    csl_visibility_ratio,
    exclusion_boundary,
    geometry_factor,
)
from .decoherence import DEFAULT_MODEL, critical_contour, decoherence_budget
from .errors import (
    ConfigError,
    CslSimError,
    GeometryError,
    NonConvergenceError,
    UnachievableTargetError,
    open_interval,
)
from .interferometer import (
    flux_for_target_visibility,
    observables_from_profile,
    transmissivity,
)
from .mie import absorption_profile
from .params import (
    ATOMIC_MASS_UNIT,
    CONSTANTS,
    ClusterSpecies,
    CslParams,
    EnvironmentConfig,
    GratingConfig,
    RunConfig,
    _with_keys,
    cluster_radius,
    load_config,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NONCONVERGENCE = 3
EXIT_GEOMETRY = 4

# CSV schema versions, pinned by golden-file tests.
FIG1_HEADER = "lambda0_Hz,m_c_amu,geometry_factor"
FIG2_HEADER = "mass_amu,radius_nm,flux_J_m2,n0,n1,transmissivity,status"
FIG3_HEADER = "segment,pressure_mbar,temperature_K"

# the rates (Hz) that fig1 adds to its grid: the paper's marks on the boundary
FIG1_MARKERS = (1e-10, 1e-16)


def _csv(rows: list[str]) -> str:
    return "\n".join(rows) + "\n"


def _parse_range(text: str, name: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--{name} must be lo:hi:steps, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"--{name}: {exc}") from exc


def _species_dict(species: ClusterSpecies) -> dict:
    return {
        "label": species.label,
        "mass_kg": species.mass,
        "mass_amu": species.mass_amu,
        "bulk_density_kg_m3": species.bulk_density,
        "eps_re": species.permittivity.real,
        "eps_im": species.permittivity.imag,
    }


def _grating_dict(grating: GratingConfig) -> dict:
    return {
        "laser_wavelength_m": grating.laser_wavelength,
        "period_m": grating.period,
        "talbot_order": grating.talbot_order,
        "laser_flux_J_m2": grating.laser_flux,
        "talbot_time_per_amu_s": grating.talbot_time_for_mass(ATOMIC_MASS_UNIT),
    }


def _manifest(command: str, args_dict: dict, argv: list[str]) -> dict:
    from datetime import datetime, timezone  # only a manifest needs the clock

    return {
        "tool": "cslsim",
        "version": __version__,
        "schema": SWEEPS[command][0],
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "command": command,
        "command_line": argv,
        "args": args_dict,
        "constants": CONSTANTS._asdict(),
        "decoherence_model": DEFAULT_MODEL._asdict(),
    }


def _write_files(files: dict) -> None:
    """Write every file or none: each text goes to `<path>.tmp` first, and
    all are renamed into place only once all are written.  A failure
    removes the temporary files and the files already renamed.  The path
    None or "-" is stdout."""
    paths = [path for path in files if path not in (None, "-")]
    tmps, done = [], []
    try:
        for path in paths:
            tmps.append(Path(f"{path}.tmp"))
            tmps[-1].write_bytes(files[path].encode("utf-8"))
        for path, tmp in zip(paths, tmps):
            os.replace(tmp, path)
            done.append(Path(path))
    except BaseException:
        for path in tmps + done:
            path.unlink(missing_ok=True)
        raise
    for path, text in files.items():
        if path in (None, "-"):
            sys.stdout.write(text)


# -- sweep arguments ----------------------------------------------------------
# A sweep's `args` are flat JSON values: the manifest stores them, and the
# sweep's files are computed from them alone.  The files functions check
# each value's range where they read it, so options and manifests pass the
# same checks, and an error names the args key.

def _sweep_args(config: RunConfig) -> dict:
    """The species and grating settings that fig2 and fig3 read."""
    species = config.species
    return {"label": species.label, "density_kg_m3": species.bulk_density,
            "eps_re": species.permittivity.real, "eps_im": species.permittivity.imag,
            "wavelength_m": config.grating.laser_wavelength}


def _grid(args: dict, lo_key: str, hi_key: str, steps_key: str) -> list[float]:
    """args[steps_key] evenly spaced values from args[lo_key] to args[hi_key]."""
    lo, hi, steps = args[lo_key], args[hi_key], args[steps_key]
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"{lo_key!r} and {hi_key!r} must be finite, got {lo}, {hi}")
    if steps < 1:
        raise ConfigError(f"{steps_key!r} must be >= 1, got {steps}")
    if steps == 1:
        return [lo]
    if not lo < hi:
        raise ConfigError(f"{lo_key!r} must be < {hi_key!r} for {steps_key!r} > 1, "
                          f"got {lo}, {hi}")
    step = (hi - lo) / (steps - 1)
    return [lo + i * step for i in range(steps)]


def _log_grid(args: dict, lo_key: str, hi_key: str, steps_key: str) -> list[float]:
    """10 ** each value of the grid _grid(args, lo_key, hi_key, steps_key)."""
    grid = _grid(args, lo_key, hi_key, steps_key)
    try:
        return [10.0 ** x for x in grid]
    except OverflowError:
        # the grid ascends, so its last value overflows first
        key = hi_key if len(grid) > 1 else lo_key
        raise ConfigError(f"{key!r} must be at most log10 of the largest double, "
                          f"{math.log10(sys.float_info.max):.4f}, got {args[key]}") from None


def _species_from(args: dict, mass_amu: float) -> ClusterSpecies:
    return ClusterSpecies.from_amu(mass_amu, args["density_kg_m3"],
                                   complex(args["eps_re"], args["eps_im"]), args["label"])


# -- fig1 --------------------------------------------------------------------

def _fig1_args(ns, config: RunConfig) -> dict:
    lo, hi, steps = _parse_range(ns.lambda0_range, "lambda0-range")
    return {
        "wavelength_m": config.grating.laser_wavelength,
        "talbot_order": config.grating.talbot_order,
        "rc_m": config.csl.r_c,
        "m0_amu": config.csl.m0 / ATOMIC_MASS_UNIT,
        "lo_log10": lo, "hi_log10": hi, "steps": steps,
        "threshold": ns.threshold,
    }


def _fig1_files(args: dict, out: str | None) -> dict:
    grating = GratingConfig(args["wavelength_m"], args["talbot_order"])
    csl = CslParams(r_c=args["rc_m"], m0=args["m0_amu"] * ATOMIC_MASS_UNIT)
    grid = _log_grid(args, "lo_log10", "hi_log10", "steps")
    # a grid value that rounds differently from a marker is the same point
    markers = [m for m in FIG1_MARKERS if not any(math.isclose(m, g) for g in grid)]
    g = geometry_factor(grating, csl)
    boundary = exclusion_boundary(grating, csl, sorted(grid + markers, reverse=True),
                                  args["threshold"])
    return {out: _csv([FIG1_HEADER] + ["%.17g,%.17g,%.17g" % (lam, mc / ATOMIC_MASS_UNIT, g)
                                       for lam, mc in boundary])}


# -- fig2 --------------------------------------------------------------------

def _fig2_args(ns, config: RunConfig) -> dict:
    lo, hi, steps = _parse_range(ns.mass_range, "mass-range")
    return {
        **_sweep_args(config),
        "lo_log10": lo, "hi_log10": hi, "steps": steps,
        "target_v": ns.target_V,
    }


def _fig2_files(args: dict, out: str | None) -> dict:
    grating = GratingConfig(args["wavelength_m"])  # the flux solve reads no Talbot order
    # the solve's refusal, by the args key and before any row: a sweep of
    # geometry_error rows never reaches the solve
    target_v = open_interval("'target_v'", args["target_v"], 2.0)
    masses = _log_grid(args, "lo_log10", "hi_log10", "steps")
    rows = [FIG2_HEADER]
    for mass_amu in masses:
        sp = _species_from(args, mass_amu)
        try:
            flux = flux_for_target_visibility(sp, grating, target_v)
        except GeometryError:
            cells = math.nan, math.nan, math.nan, math.nan, "geometry_error"
        except UnachievableTargetError:
            cells = math.nan, math.nan, math.nan, math.nan, "unreachable"
        else:
            unit = absorption_profile(sp, grating, 1.0)  # the flux solve's, from the cache
            n0, n1 = unit.n0 * flux, abs(unit.n1) * flux  # the amplitude: V and T are even in n1
            cells = flux, n0, n1, transmissivity(n0, n1), "ok"
        rows.append("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s"
                    % (mass_amu, cluster_radius(sp) * 1e9, *cells))
    return {out: _csv(rows)}


# -- fig3 --------------------------------------------------------------------

def _fig3_args(ns, config: RunConfig) -> dict:
    p_lo, p_hi, p_steps = _parse_range(ns.p_range, "p-range")
    t_lo, t_hi, t_steps = _parse_range(ns.T_range, "T-range")
    try:
        masses = [float(m) for m in ns.masses.split(",") if m]
    except ValueError as exc:
        raise ConfigError(f"--masses: {exc}") from exc
    env = config.environment
    return {
        **_sweep_args(config),
        "talbot_order": config.grating.talbot_order,
        "gas_temperature_K": env.gas_temperature,
        "gas_mass_amu": env.gas_mass / ATOMIC_MASS_UNIT,
        "gas_polarizability_A3": env.gas_polarizability_volume * 1e30,
        "cluster_temperature_K": env.cluster_temperature,
        "p_lo_log10": p_lo, "p_hi_log10": p_hi, "p_steps": p_steps,
        "t_lo": t_lo, "t_hi": t_hi, "t_steps": t_steps,
        "level": 0.5,
        "masses_amu": masses,
    }


def _fig3_files(args: dict, out: str | None) -> dict:
    """One CSV per mass, named <stem>_m<mass><suffix>.

    Two masses that agree in the six digits of the name would share a
    file, so they are refused before anything is computed, as is out "-".
    """
    if out == "-":
        raise ConfigError("fig3 writes one file per mass: --out must name a file, not -")
    if not args["masses_amu"]:
        raise ConfigError("'masses_amu' must list at least one mass in amu")
    for key in ("p_steps", "t_steps"):
        if args[key] < 2:
            raise ConfigError(f"{key!r} must be >= 2: a contour needs a 2 x 2 grid, "
                              f"got {args[key]}")
    stem = Path(out or "fig3_rerun.csv")  # only rerun has no default --out
    masses = {}
    for mass_amu in args["masses_amu"]:
        path = str(stem.with_name(f"{stem.stem}_m{mass_amu:g}{stem.suffix or '.csv'}"))
        if path in masses:
            raise ConfigError(f"masses {masses[path]!r} and {mass_amu!r} amu "
                              f"would both be written to {path}")
        masses[path] = mass_amu
    grating = GratingConfig(args["wavelength_m"], args["talbot_order"])
    env = EnvironmentConfig(
        gas_pressure=0.0,
        gas_temperature=args["gas_temperature_K"],
        gas_mass=args["gas_mass_amu"] * ATOMIC_MASS_UNIT,
        gas_polarizability_volume=args["gas_polarizability_A3"] * 1e-30,
        cluster_temperature=args["cluster_temperature_K"],
    )
    grid_mbar = _log_grid(args, "p_lo_log10", "p_hi_log10", "p_steps")
    pressures = [p * 100.0 for p in grid_mbar]
    mbar = dict(zip(pressures, grid_mbar))  # a vertex on a pressure line prints its grid value
    temperatures = _grid(args, "t_lo", "t_hi", "t_steps")
    files = {}
    for path, mass_amu in masses.items():
        contours = critical_contour(_species_from(args, mass_amu), grating, pressures,
                                    temperatures, env_template=env, level=args["level"])
        files[path] = _csv([FIG3_HEADER] + [
            "%d,%.17g,%.17g" % (seg_idx, mbar.get(p_pa, p_pa / 100.0), t_k)
            for seg_idx, line in enumerate(contours) for p_pa, t_k in line])
    return files


# command -> (schema, args from the parsed options and config, files from args)
SWEEPS = {
    "fig1": ("fig1.v5", _fig1_args, _fig1_files),
    "fig2": ("fig2.v12", _fig2_args, _fig2_files),
    "fig3": ("fig3.v4", _fig3_args, _fig3_files),
}


# -- scalar reports ----------------------------------------------------------

def _budget(ns, config: RunConfig) -> dict:
    species, grating, csl, env = config.species, config.grating, config.csl, config.environment
    reduction = csl_visibility_ratio(species, grating, csl)
    budget = decoherence_budget(species, grating, env)
    return {
        "species": _species_dict(species),
        "grating": _grating_dict(grating),
        "csl": {"r_c_m": csl.r_c, "lambda0_Hz": csl.lambda0,
                "m0_kg": csl.m0},
        "environment": {
            "pressure_mbar": env.gas_pressure / 100.0,
            "gas_temperature_K": env.gas_temperature,
            "radiation_temperature_K": env.radiation_temperature,
        },
        "csl_visibility_ratio": reduction.ratio,
        "csl_exponent": reduction.exponent,
        "geometry_factor": reduction.geometry_factor,
        "env_visibility_factor": budget.visibility_factor,
        "combined_factor": reduction.ratio * budget.visibility_factor,
        "exposures": {
            "collision": budget.rate_collision * budget.exposure_time,
            "bb_absorption": budget.rate_bb_absorption * budget.exposure_time,
            "bb_emission": budget.rate_bb_emission * budget.exposure_time,
            "bb_scattering": budget.rate_bb_scattering * budget.exposure_time,
        },
        "interference_time_s": budget.exposure_time,
    }


def _observables(ns, config: RunConfig) -> dict:
    # absorption_profile raises unless the multipole sums converged
    profile = absorption_profile(config.species, config.grating)
    obs = observables_from_profile(profile)
    return {
        "species": _species_dict(config.species),
        "grating": _grating_dict(config.grating),
        "n0": obs.n0, "n1": obs.n1,
        "V": obs.visibility, "T": obs.transmissivity,
        "l_max": profile.truncation_order,
    }


REPORTS = {"budget": _budget, "observables": _observables}


# -- rerun and dispatch ------------------------------------------------------

def _same_type(value, like) -> bool:
    """Whether a manifest value has the JSON type of this build's value;
    where that is an unset optional value (None), a float also fits."""
    if isinstance(like, list):
        return isinstance(value, list) and all(_same_type(v, like[0]) for v in value)
    return type(value) in ((type(None), float) if like is None else (type(like),))


def _manifest_args(path: str, argv: list[str]) -> tuple[str, dict]:
    """The command and `args` of a manifest this build can reproduce."""
    try:
        manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too deep, too many digits
        raise ConfigError(f"malformed manifest {path}: {exc}") from None
    command = manifest.get("command") if isinstance(manifest, dict) else None
    args = manifest.get("args") if command in SWEEPS else None
    if not isinstance(args, dict):
        raise ConfigError(f"manifest does not describe a re-runnable sweep: {path}")
    # another version, schema, constants or decoherence model mean this
    # build would not write the same bytes
    build = _manifest(command, args, argv)
    for key in ("version", "schema", "constants", "decoherence_model"):
        if manifest.get(key) != build[key]:
            raise ConfigError(f"{path}: {key!r} {manifest.get(key)!r} cannot be "
                              f"reproduced; this build has {build[key]!r}")
    # the command's default args fix the key set and each value's type; the
    # files function checks the ranges
    defaults = SWEEPS[command][1](build_parser().parse_args([command]), RunConfig())
    for key in sorted(args.keys() - defaults.keys()):  # as load_config refuses an unknown key
        raise ConfigError(f"{path}: unknown args key {key!r}")
    for key, like in defaults.items():
        if key not in args:
            raise ConfigError(f"manifest args lack {key!r}")
        if not _same_type(args[key], like):
            raise ConfigError(f"{path}: args {key!r} has the wrong type: {args[key]!r}")
    return command, args


def _run(ns, config: RunConfig, argv: list[str]) -> None:
    if ns.command in REPORTS:
        report = REPORTS[ns.command](ns, config)
        _write_files({ns.out: json.dumps(report, indent=2, sort_keys=True) + "\n"})
        return
    if ns.command == "rerun":
        command, args = _manifest_args(ns.manifest, argv)
    else:
        command, args = ns.command, SWEEPS[ns.command][1](ns, config)
    # every file is computed before any is written
    files = SWEEPS[command][2](args, ns.out)
    manifest = ""
    if ns.command != "rerun":
        fields = _manifest(command, args, argv)
        if list(files) != [ns.out]:  # fig3 names its files after --out
            fields["outputs"] = list(files)
        manifest = json.dumps(fields, indent=2, sort_keys=True) + "\n"
        if ns.out not in (None, "-"):
            files[f"{ns.out}.manifest.json"] = manifest
            manifest = ""
    _write_files(files)
    sys.stderr.write(manifest)  # the manifest of a sweep written to stdout


# -- parser ------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Every caller shares the one parser: parse with it, never change it.
    """
    parser = argparse.ArgumentParser(
        prog="cslsim",
        description="Collapse-model feasibility numerics for a pulsed "
                    "optical Talbot-Lau interferometer.")
    parser.add_argument("--config", help="sectioned key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig1", help="critical-mass exclusion boundary sweep")
    p.add_argument("--lambda0-range", default="-18:-6:25",
                   help="lo:hi:steps in log10(Hz)")
    p.add_argument("--rc-nm", type=float, default=None)
    p.add_argument("--threshold", type=float, default=0.5)

    p = sub.add_parser("fig2", help="fixed-visibility transmissivity vs mass")
    p.add_argument("--mass-range", default="5:8.5:60",
                   help="lo:hi:steps in log10(amu)")
    p.add_argument("--target-V", type=float, default=0.85)

    p = sub.add_parser("fig3", help="critical pressure/temperature contours")
    p.add_argument("--masses", default="1e6,1e7,1e8", help="comma list, amu")
    p.add_argument("--p-range", default="-14:-6:60", help="lo:hi:steps in log10(mbar)")
    p.add_argument("--T-range", default="4:400:60", help="lo:hi:steps in K")

    p = sub.add_parser("budget", help="combined CSL vs environment report")
    p.add_argument("--mass-amu", type=float, default=None)
    p.add_argument("--lambda0", type=float, default=None,
                   help="Hz; default: the config's [csl] lambda0_hz")
    p.add_argument("--pressure-mbar", type=float, default=None)
    p.add_argument("--temperature-K", type=float, default=None)

    p = sub.add_parser("observables", help="n0, n1, visibility, transmissivity")
    p.add_argument("--flux", type=float, default=None, help="J/m^2")

    p = sub.add_parser("rerun", help="re-execute a sweep from its manifest")
    p.add_argument("--manifest", required=True)

    for name, p in sub.choices.items():
        p.add_argument("--out", default="fig3.csv" if name == "fig3" else None)
        if name not in ("fig2", "rerun"):  # fig2's flux solve reads no Talbot order
            p.add_argument("--talbot-order", type=int, default=None)
    return parser


# (section, key, flag): each value flag sets its config keys over the file's
# or the default values; --temperature-K sets the gas and radiation temperature.
_FLAG_KEYS = (("species", "mass_amu", "mass_amu"), ("grating", "talbot_order", "talbot_order"),
              ("grating", "flux_J_m2", "flux"), ("csl", "rc_nm", "rc_nm"),
              ("csl", "lambda0_hz", "lambda0"), ("environment", "pressure_mbar", "pressure_mbar"),
              ("environment", "gas_temperature_K", "temperature_K"),
              ("environment", "environment_temperature_K", "temperature_K"))


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        config = load_config(ns.config) if ns.config else RunConfig()
        config = _with_keys(config, [(section, key, getattr(ns, flag))
                                     for section, key, flag in _FLAG_KEYS
                                     if getattr(ns, flag, None) is not None])
        _run(ns, config, argv)
    except (CslSimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, GeometryError):
            return EXIT_GEOMETRY
        if isinstance(exc, NonConvergenceError):
            return EXIT_NONCONVERGENCE
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
