"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line so the whole gate can be read off a
plain pytest -s run.  Tolerances are the published targets, not the much
tighter ones used in the per-module suites.
"""

import json
import math
import random
from math import erf

import numpy as np
import pytest

from cslsim.csl import (
    critical_mass,
    csl_visibility_ratio,
    exclusion_boundary,
)
from cslsim.decoherence import critical_contour, decoherence_budget
from cslsim.cli import main as cli_main
from cslsim.errors import DomainError
from cslsim.interferometer import (
    flux_for_target_visibility,
    observables_from_profile,
    solve_modulation_for_visibility,
    visibility,
)
from cslsim.mie import absorption_profile
from cslsim.params import (
    ATOMIC_MASS_UNIT,
    PLANCK_H,
    CslParams,
    EnvironmentConfig,
    GratingConfig,
    default_grating,
    gold_cluster,
    total_interference_time,
)
from oracles import (
    bessel_I,
    csl_exponent_oracle,
    dipole_absorption_cross_section,
    spherical_bessel_j,
    spherical_hankel_h1,
    spherical_yn_array,
)

AMU = ATOMIC_MASS_UNIT
MBAR = 100.0


def report(num, label, ok):
    print(f"\nacceptance {num:>2} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"acceptance criterion {num}: {label}"


def test_01_critical_mass_windows():
    grating = default_grating()
    mc_hi = critical_mass(CslParams(lambda0=1e-10), grating) / AMU
    mc_lo = critical_mass(CslParams(lambda0=1e-16), grating) / AMU
    ok = (10 ** 5.8 <= mc_hi <= 10 ** 6.1) and (8e7 <= mc_lo <= 10e7)
    report(1, f"critical mass windows (m_c = {mc_hi:.3e} / {mc_lo:.3e} amu)", ok)


def test_02_closed_form_vs_path_oracle():
    rng = random.Random(1157)
    worst = 0.0
    for _ in range(100):
        mass_amu = 10.0 ** rng.uniform(4.0, 9.0)
        lam = 10.0 ** rng.uniform(-18.0, -6.0)
        order = rng.randint(1, 4)
        grating = GratingConfig(laser_wavelength=157e-9, talbot_order=order)
        csl = CslParams(lambda0=lam)
        species = gold_cluster(mass_amu)
        closed = csl_visibility_ratio(species, grating, csl).exponent
        oracle = csl_exponent_oracle(species, grating, csl)
        worst = max(worst, abs(closed - oracle) / oracle)
    report(2, f"decay-exponent oracle, 100 draws (worst rel err {worst:.2e})",
           worst < 1e-6)


def test_03_exclusion_boundary_slope():
    pts = exclusion_boundary(default_grating(), CslParams(lambda0=1e-10),
                             np.logspace(-18, -6, 40))
    logl = np.log10([p[0] for p in pts])
    logm = np.log10([p[1] for p in pts])
    slopes = np.diff(logm) / np.diff(logl)
    dev = float(np.max(np.abs(slopes + 1.0 / 3.0)))
    report(3, f"log-log boundary slope -1/3 (max dev {dev:.2e})", dev < 1e-6)


def test_04_interference_time():
    t = total_interference_time(gold_cluster(1e6), default_grating())
    report(4, f"total interference time {t * 1e3:.2f} ms vs 60 ms",
           abs(t - 60e-3) <= 0.1 * 60e-3)


def test_05_transmissivity_endpoints_at_fixed_visibility():
    grating = default_grating()
    light = gold_cluster(1.9697e5)   # Au_1000
    heavy = gold_cluster(1.9697e8)   # 1000x the mass
    f_light = flux_for_target_visibility(light, grating, 0.85)
    f_heavy = flux_for_target_visibility(heavy, grating, 0.85)
    t_light = observables_from_profile(
        absorption_profile(light, grating, f_light)).transmissivity
    t_heavy = observables_from_profile(
        absorption_profile(heavy, grating, f_heavy)).transmissivity
    ratio = f_heavy / f_light
    ok = (0.5e-2 <= t_light <= 2e-2
          and 2e-4 <= t_heavy <= 8e-4
          and abs(ratio - 1e-3) <= 0.3e-3)
    report(5, f"fixed-V endpoints (T = {t_light:.3e}, {t_heavy:.3e}; "
              f"flux ratio {ratio:.3e})", ok)


def test_06_dipole_limit_and_point_particle_ratio():
    grating = default_grating()
    rho_target = 0.01
    radius = rho_target / grating.wavenumber
    mass_amu = 4.0 * math.pi / 3.0 * radius ** 3 * 19300.0 / AMU
    tiny = gold_cluster(mass_amu)
    profile = absorption_profile(tiny, grating, flux=1.0)
    n0_dipole = (2.0 * dipole_absorption_cross_section(tiny, grating)
                 / (PLANCK_H * grating.laser_frequency))
    rel = abs(profile.n0 - n0_dipole) / n0_dipole
    au1000 = absorption_profile(gold_cluster(1.9697e5), grating, flux=1.0)
    ratio = au1000.n1 / au1000.n0
    ok = rel < 0.01 and abs(ratio - 1.0) < 0.02
    report(6, f"dipole limit (rel {rel:.2e}) and n1/n0 = {ratio:.4f}", ok)


def test_07_special_function_identities():
    checks = []
    # Wronskian j_l y_{l-1} - j_{l-1} y_l = 1/x^2
    for x in (0.5, 2.0, 10.0):
        y = spherical_yn_array(20, x)
        for ell in range(1, 21):
            jl = spherical_bessel_j(ell, complex(x)).real
            jm = spherical_bessel_j(ell - 1, complex(x)).real
            w = jl * y[ell - 1] - jm * y[ell]
            checks.append(abs(w * x * x - 1.0))
    # three-term recurrence for complex argument
    z = 1.3 + 0.8j
    for ell in range(1, 15):
        lhs = spherical_bessel_j(ell - 1, z) + spherical_bessel_j(ell + 1, z)
        rhs = (2 * ell + 1) / z * spherical_bessel_j(ell, z)
        checks.append(abs(lhs - rhs) / abs(rhs))
    # closed forms
    checks.append(abs(spherical_bessel_j(0, complex(1.0)).real
                      - math.sin(1.0) / 1.0))
    checks.append(abs(spherical_hankel_h1(0, 2.0)
                      - (math.sin(2.0) - 1j * math.cos(2.0)) / 2.0))
    # modified Bessel recurrence I0 - I2 = 2 I1 / x
    for x in (0.5, 4.0, 25.0, 80.0):
        checks.append(abs(bessel_I(0, x) - bessel_I(2, x)
                          - 2.0 * bessel_I(1, x) / x)
                      / bessel_I(0, x))
    checks.append(abs(erf(1.0) - 0.8427007929497149))
    worst = max(checks)
    report(7, f"special-function identity suite (worst {worst:.2e})",
           worst < 1e-10)


def test_08_visibility_operating_point():
    n1 = solve_modulation_for_visibility(0.85)
    grid = np.linspace(0.0, 20.0, 2001)
    values = [visibility(x) for x in grid]
    monotone = all(a < b for a, b in zip(values, values[1:]))
    ok = abs(n1 - 4.0) <= 0.1 and monotone
    report(8, f"operating point n1 = {n1:.4f}, V monotone on [0, 20]", ok)


def test_09_decoherence_anchors_and_contours():
    grating = default_grating()
    f_b = decoherence_budget(
        gold_cluster(1e6), grating,
        EnvironmentConfig(gas_pressure=1e-9 * MBAR, gas_temperature=300.0,
                          environment_temperature=300.0)).visibility_factor
    f_c = decoherence_budget(
        gold_cluster(1e8), grating,
        EnvironmentConfig(gas_pressure=1e-12 * MBAR, gas_temperature=200.0,
                          environment_temperature=200.0)).visibility_factor
    pressures = np.logspace(-13, -5, 33) * MBAR
    temperatures = np.linspace(80.0, 320.0, 25)
    contours = {m: critical_contour(gold_cluster(m), grating,
                                    pressures, temperatures)
                for m in (1e6, 1e7, 1e8)}

    def p_at(lines, t):
        best = None
        for line in lines:
            for (p0, t0), (p1, t1) in zip(line, line[1:]):
                if (t0 - t) * (t1 - t) <= 0.0 and t0 != t1:
                    f = (t - t0) / (t1 - t0)
                    best = 10.0 ** (math.log10(p0)
                                    + f * (math.log10(p1) - math.log10(p0)))
        return best

    nested = True
    monotone = True
    for t in (120.0, 160.0):
        ps = [p_at(contours[m], t) for m in (1e6, 1e7, 1e8)]
        nested &= all(p is not None for p in ps) and ps[0] > ps[1] > ps[2]
    for m in (1e6, 1e7, 1e8):
        samples = [p_at(contours[m], t) for t in (100.0, 130.0, 160.0)]
        monotone &= all(s is not None for s in samples)
        monotone &= all(a >= b * (1.0 - 1e-9)
                        for a, b in zip(samples, samples[1:]))
    ok = nested and monotone and f_b >= 0.5 and 0.2 <= f_c <= 0.8
    report(9, f"decoherence anchors (f = {f_b:.3f}, {f_c:.3f}), "
              f"contours nested/monotone", ok)


def test_10_manifest_rerun_determinism(tmp_path):
    ok = True
    for cmd, args in (("fig1", ["--lambda0-range=-16:-8:9"]),
                      ("fig2", ["--mass-range=5:8:7"])):
        out = tmp_path / f"{cmd}.csv"
        replay = tmp_path / f"{cmd}_replay.csv"
        ok &= cli_main([cmd, *args, "--out", str(out)]) == 0
        ok &= cli_main(["rerun", "--manifest", str(out) + ".manifest.json",
                        "--out", str(replay)]) == 0
        ok &= replay.read_bytes() == out.read_bytes()
    report(10, "manifest rerun is byte-identical (fig1, fig2)", ok)
