"""Output checks, run outside the timed region.

Each check tests the physics a result must satisfy, not the algorithm that
produced it, so a faster method that gives the same numbers passes too.
A check returns a list of error strings; an empty list means the output
is correct.  Nothing here calls the package: the constants and model
values are written out below, the modified Bessel functions come from the
trapezoid rule on their integral representation, the thermal photon rates
from Gauss-Legendre quadrature over the whole Planck spectrum, and the
collision rate from the closed-form Maxwell-Boltzmann mean of sigma(v) v.
"""

from __future__ import annotations

import math

import numpy as np

FIG2_HEADER = "mass_amu,radius_nm,flux_J_m2,n0,n1,transmissivity,status"
FIG3_HEADER = "segment,pressure_mbar,temperature_K"
FIG2_STATUSES = ("ok", "unreachable", "geometry_error")

V_TOL = 1e-8          # visibility of an inverted row vs its target
REL_TOL = 1e-9        # quantities printed with 17 significant digits
RATE_TOL = 1e-4       # decoherence rates vs the reference model below
EDGE_BOX = 2e-3       # contour check box, in grid steps (crossings: 1e-3)
CONTOUR_SAMPLES = 8   # contour points checked per fig3 file
EXP_UNDERFLOW = 700.0  # exp(-x) is a positive double below this exponent

# SI defining constants and CODATA-2018 values.
PLANCK_H = 6.62607015e-34
HBAR = PLANCK_H / (2.0 * math.pi)
BOLTZMANN_KB = 1.380649e-23
SPEED_OF_LIGHT = 299792458.0
AMU = 1.66053906660e-27
VACUUM_PERMITTIVITY = 8.8541878128e-12
BOHR_RADIUS = 5.29177210903e-11
HARTREE_ENERGY = 4.3597447222071e-18

# Reference decoherence model: the literature values the package documents.
C6_PREFACTOR = 7.57                  # sigma(v) = 7.57 (C6 / hbar v)^(2/5)
GAS_ELECTRONS = 10.0                 # Slater-Kirkwood electron number of N2
CLUSTER_ELECTRONS_PER_AMU = 11.0 / 196.96657  # gold valence electrons
DC_CONDUCTIVITY = 4.1e7              # S/m, bulk gold (Drude absorption)
N2_MASS_AMU = 28.0
N2_POLARIZABILITY_M3 = 1.74e-30
PLANCK_X_MAX = 60.0                  # x = hbar omega / kB T; exp(-60) ~ 1e-26
_GAUSS_LEGENDRE = np.polynomial.legendre.leggauss(160)


def bessel_i_scaled(order: int, x):
    """exp(-x) I_order(x) = (1/pi) int_0^pi exp(x (cos t - 1)) cos(order t) dt.

    The integrand is smooth and periodic, so the trapezoid rule converges
    geometrically; 128 nodes reach double precision for x <= 40.
    """
    t = np.linspace(0.0, math.pi, 129)
    w = np.full(t.size, 1.0)
    w[0] = w[-1] = 0.5
    x = np.asarray(x, dtype=float)[..., None]
    values = np.exp(x * (np.cos(t) - 1.0)) * np.cos(order * t)
    return (values * w).sum(axis=-1) / (t.size - 1)


def visibility(n1):
    i0, i1, i2 = (bessel_i_scaled(k, n1) for k in (0, 1, 2))
    return 2.0 * i1 * i1 * i2 / (i0 ** 3)


def log_transmissivity(n0, n1):
    """ln[exp(-3 n0) I0^3(n1)]."""
    return -3.0 * np.asarray(n0) + 3.0 * (np.asarray(n1) + np.log(bessel_i_scaled(0, n1)))


def transmissivity_ok(trans, n0, n1):
    """T = exp(-3 n0) I0^3(n1), to rounding; below ~1e-300 T may underflow."""
    expected = np.exp(log_transmissivity(n0, n1))
    return np.abs(np.asarray(trans) - expected) <= 10 * REL_TOL * expected + 1e-300


def geometry_factor(nd: float, r_c: float) -> float:
    """1 - sqrt(pi) r_c / (N d) erf(N d / 2 r_c): the share of the saturated
    CSL rate effective at path separation N d."""
    return 1.0 - math.sqrt(math.pi) * r_c / nd * math.erf(nd / (2.0 * r_c))


def csl_exponent(mass_kg: float, lambda0: float, r_c: float, m0_kg: float,
                 wavelength: float, order: int) -> float:
    """2 lambda0 T0 N (m/m0)^3 g, with T0 = m0 d^2 / h and d = wavelength / 2."""
    period = wavelength / 2.0
    t0 = m0_kg * period ** 2 / PLANCK_H
    g = geometry_factor(order * period, r_c)
    return 2.0 * lambda0 * t0 * order * (mass_kg / m0_kg) ** 3 * g


def _gauss_legendre(f, lo: float, hi: float) -> float:
    if hi <= lo:
        return 0.0
    nodes, weights = _GAUSS_LEGENDRE
    x = lo + 0.5 * (hi - lo) * (nodes + 1.0)
    return 0.5 * (hi - lo) * float(np.dot(weights, f(x)))


def _planck(power: int, nd: float, temperature: float) -> float:
    """int omega^power min((N d omega / c)^2, 1) / (exp(hbar omega / kB T) - 1) d omega.

    The min() is the fringe-resolving effectiveness of one photon; the
    integral is split where it saturates, so both pieces are smooth.
    """
    w = BOLTZMANN_KB * temperature / HBAR
    a = nd * w / SPEED_OF_LIGHT
    kink = min(1.0 / a, PLANCK_X_MAX)
    below = _gauss_legendre(lambda x: (a * x) ** 2 * x ** power / np.expm1(x), 0.0, kink)
    above = _gauss_legendre(lambda x: x ** power / np.expm1(x), kink, PLANCK_X_MAX)
    return w ** (power + 1) * (below + above)


def env_exposures(mass_kg: float, density: float, wavelength: float, order: int,
                  pressure_pa: float, gas_temperature: float,
                  radiation_temperature: float, cluster_temperature: float | None = None,
                  gas_mass_kg: float = N2_MASS_AMU * AMU,
                  gas_polarizability_m3: float = N2_POLARIZABILITY_M3) -> dict:
    """Each decoherence channel's rate times the interference time 2 N m d^2 / h.

    Collisions: n_gas <sigma v> with the London-van der Waals cross section
    sigma(v) = 7.57 (C6 / hbar v)^(2/5) and a Slater-Kirkwood C6, so the
    Maxwell-Boltzmann mean is v_p^(3/5) (2 / sqrt(pi)) Gamma(9/5).  Thermal
    photons: Drude absorption and emission (the latter at the cluster
    temperature) and Rayleigh scattering of a conducting sphere, each
    weighted by the capped fringe-resolving effectiveness.
    """
    radius = (3.0 * mass_kg / (4.0 * math.pi * density)) ** (1.0 / 3.0)
    nd = order * wavelength / 2.0
    time = 2.0 * order * mass_kg * (wavelength / 2.0) ** 2 / PLANCK_H

    a0_cubed = BOHR_RADIUS ** 3
    alpha_cluster = radius ** 3 / a0_cubed
    alpha_gas = gas_polarizability_m3 / a0_cubed
    electrons = mass_kg / AMU * CLUSTER_ELECTRONS_PER_AMU
    c6 = 1.5 * alpha_cluster * alpha_gas / (math.sqrt(alpha_cluster / electrons)
                                            + math.sqrt(alpha_gas / GAS_ELECTRONS))
    c6 *= HARTREE_ENERGY * BOHR_RADIUS ** 6
    v_p = math.sqrt(2.0 * BOLTZMANN_KB * gas_temperature / gas_mass_kg)
    mean_sigma_v = (C6_PREFACTOR * (c6 / HBAR) ** 0.4 * v_p ** 0.6
                    * 2.0 / math.sqrt(math.pi) * math.gamma(1.8))
    collision = pressure_pa / (BOLTZMANN_KB * gas_temperature) * mean_sigma_v

    c = SPEED_OF_LIGHT
    k_abs = 12.0 * VACUUM_PERMITTIVITY * radius ** 3 / (math.pi * DC_CONDUCTIVITY * c ** 3)
    k_sca = 8.0 * radius ** 6 / (3.0 * math.pi * c ** 6)
    t_cluster = cluster_temperature or radiation_temperature
    return {"collision": collision * time,
            "bb_absorption": k_abs * _planck(4, nd, radiation_temperature) * time,
            "bb_emission": k_abs * _planck(4, nd, t_cluster) * time,
            "bb_scattering": k_sca * _planck(6, nd, radiation_temperature) * time}


def check_exposures(got: dict, expected: dict) -> list[str]:
    """Each channel's exposure within RATE_TOL of the reference model."""
    return [f"{k} exposure {got[k]!r} != reference {v!r}"
            for k, v in expected.items() if not _close(got[k], v, RATE_TOL)]


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _rows(text: str, header: str) -> tuple[list[list[str]], list[str]]:
    if not text.endswith("\n") or "\r" in text:
        return [], ["CSV must end in a newline and use LF line endings"]
    lines = text[:-1].split("\n")
    if lines[0] != header:
        return [], [f"header {lines[0]!r} != {header!r}"]
    return [line.split(",") for line in lines[1:]], []


def _log_grid(lo: float, hi: float, steps: int) -> list[float]:
    if steps == 1:
        return [10.0 ** lo]
    step = (hi - lo) / (steps - 1)
    return [10.0 ** (lo + i * step) for i in range(steps)]


def check_fig2(text: str, manifest: dict) -> list[str]:
    """Mass grid, geometry guard, and the inversion of every `ok` row.

    `geometry_error` must appear exactly where the sphere radius reaches
    the grating period; each `ok` row must give V(n1) = target and
    T = exp(-3 n0) I0^3(n1).
    """
    args = manifest["args"]
    rows, errors = _rows(text, FIG2_HEADER)
    if errors:
        return errors
    grid = _log_grid(args["lo_log10"], args["hi_log10"], args["steps"])
    if len(rows) != len(grid):
        return [f"fig2 has {len(rows)} rows, expected {len(grid)}"]
    period_nm = args["wavelength_m"] / 2.0 * 1e9
    ok = []
    for row, mass in zip(rows, grid):
        status = row[-1]
        if status not in FIG2_STATUSES:
            errors.append(f"fig2 unknown status {status!r}")
            continue
        if not _close(float(row[0]), mass, 1e-12):
            errors.append(f"fig2 mass {row[0]} is not on the grid ({mass!r})")
        radius_nm = (3.0 * mass * AMU / (4.0 * math.pi * args["density_kg_m3"])) ** (1 / 3) * 1e9
        if (status == "geometry_error") != (radius_nm >= period_nm):
            errors.append(f"fig2 mass {row[0]}: status {status} with radius "
                          f"{radius_nm:.6g} nm, period {period_nm:.6g} nm")
        if status == "ok":
            ok.append([float(v) for v in row[2:6]])
    if ok:
        flux, n0, n1, trans = np.array(ok).T
        bad = ~((flux > 0) & (n1 > 0) & (n1 <= n0 * (1 + 1e-12)))
        v = visibility(n1)
        bad |= np.abs(v - args["target_v"]) > V_TOL
        bad |= ~transmissivity_ok(trans, n0, n1)
        for i in np.flatnonzero(bad)[:5]:
            errors.append(f"fig2 ok row n0={n0[i]!r} n1={n1[i]!r}: V={v[i]!r}, T={trans[i]!r}")
        if bad.sum() > 5:
            errors.append(f"fig2: {int(bad.sum())} ok rows fail in total")
    return errors


def check_factor(name: str, factor: float, exponent: float) -> list[str]:
    """A visibility factor exp(-exponent) lies in (0, 1].

    Beyond `EXP_UNDERFLOW` the factor rounds to 0.0, which is accepted when
    the exponent itself is finite and positive.
    """
    if not (math.isfinite(exponent) and exponent >= 0.0):
        return [f"{name}: exponent {exponent!r} is not finite and >= 0"]
    if not 0.0 <= factor <= 1.0:
        return [f"{name}: factor {factor!r} outside [0, 1]"]
    if exponent < EXP_UNDERFLOW and not (
            factor > 0.0 and _close(factor, math.exp(-exponent), 1e-12)):
        return [f"{name}: factor {factor!r} != exp(-{exponent!r})"]
    return []


def check_contour(text: str, manifest: dict, mass_amu: float) -> list[str]:
    """A fig3 contour is non-empty and lies on V_env = level.

    V_env comes from the reference model.  ln V_env decreases in pressure
    and in temperature, so a point is on the level set when V_env - level
    changes sign across a box of +-EDGE_BOX grid steps around it, give or
    take RATE_TOL of the exposure.
    """
    args = manifest["args"]
    rows, errors = _rows(text, FIG3_HEADER)
    if errors:
        return errors
    if not rows:
        return [f"fig3 m={mass_amu:g}: empty contour"]
    points = [(float(p), float(t)) for _, p, t in rows]
    dp = EDGE_BOX * (args["p_hi_log10"] - args["p_lo_log10"]) / (args["p_steps"] - 1)
    dt = EDGE_BOX * (args["t_hi"] - args["t_lo"]) / (args["t_steps"] - 1)
    log_level = math.log(args["level"])
    slack = RATE_TOL * abs(log_level)

    def excess(p_mbar: float, temperature: float) -> float:
        exposures = env_exposures(
            mass_amu * AMU, args["density_kg_m3"], args["wavelength_m"],
            args["talbot_order"], p_mbar * 100.0, args["gas_temperature_K"], temperature,
            gas_mass_kg=args["gas_mass_amu"] * AMU,
            gas_polarizability_m3=args["gas_polarizability_A3"] * 1e-30)
        return -sum(exposures.values()) - log_level

    picks = sorted({round(i * (len(points) - 1) / (CONTOUR_SAMPLES - 1))
                    for i in range(CONTOUR_SAMPLES)})
    for p, t in (points[i] for i in picks):
        if not (10 ** args["p_lo_log10"] * (1 - 1e-9) <= p <= 10 ** args["p_hi_log10"] * (1 + 1e-9)
                and args["t_lo"] - 1e-9 <= t <= args["t_hi"] + 1e-9):
            errors.append(f"fig3 m={mass_amu:g}: point ({p!r}, {t!r}) outside the grid")
            continue
        high = excess(p * 10 ** -dp, t - dt) + slack
        low = excess(p * 10 ** dp, t + dt) - slack
        if not high >= 0.0 >= low:
            errors.append(f"fig3 m={mass_amu:g}: V_env at ({p!r} mbar, {t!r} K) is not "
                          f"at the level (ln excess {high!r} .. {low!r})")
    return errors


def check_point(point: dict, result: dict) -> list[str]:
    """One `point_reports` point: the flux realizes the target visibility,
    the observables obey V(n1) and T(n0, n1), the CSL exponent and the
    decoherence rates match the reference model, and both factors are valid."""
    species, grating, csl, env = (result[k] for k in ("species", "grating", "csl", "env"))
    flux, obs, reduction, budget = (result[k] for k in ("flux", "obs", "reduction", "budget"))
    errors = []
    if not (flux > 0.0 and math.isfinite(flux)):
        errors.append(f"flux {flux!r} is not positive")
    v = float(visibility(obs.n1))
    if abs(obs.visibility - point["target_v"]) > V_TOL or abs(v - point["target_v"]) > V_TOL:
        errors.append(f"V={obs.visibility!r} (oracle {v!r}) != target {point['target_v']!r}")
    if not transmissivity_ok(obs.transmissivity, obs.n0, obs.n1):
        errors.append(f"T={obs.transmissivity!r} != exp(-3 n0) I0^3(n1)")
    wavelength, order = grating.laser_wavelength, grating.talbot_order
    expected = csl_exponent(species.mass, csl.lambda0, csl.r_c, csl.m0, wavelength, order)
    if not _close(reduction.exponent, expected):
        errors.append(f"csl exponent {reduction.exponent!r} != {expected!r}")
    time = budget.exposure_time
    errors += check_exposures(
        {"collision": budget.rate_collision * time,
         "bb_absorption": budget.rate_bb_absorption * time,
         "bb_emission": budget.rate_bb_emission * time,
         "bb_scattering": budget.rate_bb_scattering * time},
        env_exposures(species.mass, species.bulk_density, wavelength, order,
                      env.gas_pressure, env.gas_temperature, env.radiation_temperature,
                      env.internal_temperature, env.gas_mass, env.gas_polarizability_volume))
    errors += check_factor("csl ratio", reduction.ratio, reduction.exponent)
    errors += check_factor("env factor", budget.visibility_factor,
                           budget.total_rate * budget.exposure_time)
    return [f"point {point}: {e}" for e in errors]
