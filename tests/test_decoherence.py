import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

import cslsim.decoherence as decoherence
from cslsim.decoherence import (
    DEFAULT_MODEL,
    blackbody_rates,
    collision_cross_section,
    collision_rate,
    critical_contour,
    decoherence_budget,
    dispersion_coefficient,
)
from cslsim.errors import DomainError
from cslsim.params import (
    ATOMIC_MASS_UNIT,
    BOLTZMANN_KB,
    HBAR,
    SPEED_OF_LIGHT,
    VACUUM_PERMITTIVITY,
    EnvironmentConfig,
    cluster_radius,
    default_grating,
    gold_cluster,
    total_interference_time,
)

MBAR = 100.0  # Pa per mbar


def env(pressure_mbar=0.0, gas_T=300.0, rad_T=300.0):
    return EnvironmentConfig(gas_pressure=pressure_mbar * MBAR,
                             gas_temperature=gas_T,
                             environment_temperature=rad_T)


def blackbody_oracle(species, grating, temperature, cluster_temperature=None):
    """The three thermal photon rates by adaptive quadrature of cross
    section x photon flux x capped effectiveness over the Planck spectrum."""
    nd = grating.talbot_order * grating.period
    r3 = cluster_radius(species) ** 3
    c = SPEED_OF_LIGHT

    def effectiveness(omega):
        return min((nd * omega / c) ** 2, DEFAULT_MODEL.photon_effectiveness_cap)

    def absorption(omega):
        sigma_abs = (4.0 * math.pi * (omega / c) * r3
                     * 3.0 * VACUUM_PERMITTIVITY * omega / DEFAULT_MODEL.dc_conductivity)
        return sigma_abs * omega * omega / (math.pi ** 2 * c * c) * effectiveness(omega)

    def scattering(omega):
        sigma_sca = (8.0 * math.pi / 3.0) * (omega / c) ** 4 * r3 * r3
        return sigma_sca * omega * omega / (math.pi ** 2 * c * c) * effectiveness(omega)

    def planck(integrand, temperature):
        w = BOLTZMANN_KB * temperature / HBAR
        value, abserr = quad(lambda x: integrand(x * w) / math.expm1(x), 1e-3, 50.0,
                             epsabs=0.0, epsrel=1e-10, limit=500)
        assert abserr <= 1e-10 * value
        return value * w

    if cluster_temperature is None:
        cluster_temperature = temperature
    return (planck(absorption, temperature), planck(absorption, cluster_temperature),
            planck(scattering, temperature))


def collision_oracle(species, environment):
    """n_gas <sigma v> by adaptive quadrature over the Maxwell-Boltzmann speeds."""
    c6 = dispersion_coefficient(species, environment)
    v_p = math.sqrt(2.0 * BOLTZMANN_KB * environment.gas_temperature / environment.gas_mass)
    value, _ = quad(lambda u: u ** 3 * math.exp(-u * u)
                    * collision_cross_section(v_p * u, c6),
                    1e-12, math.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    n_gas = environment.gas_pressure / (BOLTZMANN_KB * environment.gas_temperature)
    return n_gas * 4.0 / math.sqrt(math.pi) * v_p * value * DEFAULT_MODEL.collision_effectiveness


@pytest.mark.parametrize("mass", [1e5, 1e6, 1e7, 1e8])
def test_blackbody_rates_match_quadrature_oracle(mass):
    # above about 1000 K the effectiveness cap cuts into the spectrum
    grating = default_grating()
    for temperature in (4.0, 77.0, 300.0, 400.0, 1000.0, 3000.0, 10000.0):
        got = blackbody_rates(gold_cluster(mass), grating, temperature)
        expected = blackbody_oracle(gold_cluster(mass), grating, temperature)
        assert got == pytest.approx(expected, rel=1e-9)
    assert blackbody_rates(gold_cluster(mass), grating, 77.0, 3000.0) == pytest.approx(
        blackbody_oracle(gold_cluster(mass), grating, 77.0, 3000.0), rel=1e-9)


def test_bose_integral_literals_are_the_tail_sums_at_zero():
    # The literals must stay the floats _bose_tails(0) produces: the
    # correctly rounded m! zeta(m+1) would move fig3 and budget bytes.
    _, tail6, tail8 = decoherence._bose_tails(0.0)
    assert decoherence._BOSE_INTEGRAL == {6: tail6, 8: tail8}
    for m, value in decoherence._BOSE_INTEGRAL.items():
        exact = mp.factorial(m) * mp.zeta(m + 1)
        assert abs(value - exact) / exact < 3e-15


def bose_tail_oracle(m, x):
    """int_x^inf t^m / (e^t - 1) dt by mpmath quad, with e^(-x) taken out so
    that the integrand is O(x^m) and quad's error estimate stays relative."""
    x = mp.mpf(x)
    return mp.exp(-x) * mp.quad(lambda u: (x + u) ** m * mp.exp(-u) / -mp.expm1(-x - u),
                                [0, mp.inf])


def test_bose_tails_match_quadrature_oracle():
    # up to 708 e^(-x) is a normal double; from there to about 745.13 it is
    # subnormal, and its absolute rounding, at most 2^-1075, carries into
    # every Poisson weight; past that it is 0 and so is every tail
    xs = [0.0, 1e-3, 0.049, 0.05, 0.3, 1.0, 2.5, 7.0, 15.0, 36.0, 49.9, 50.0, 100.0,
          300.0, 708.0, 720.0, 740.0, 745.0, 745.2, 760.0, 800.0]
    with mp.workdps(20):
        for x in xs:
            tails = decoherence._bose_tails(x)
            if math.exp(-x) == 0.0:
                assert tails == (0.0, 0.0, 0.0)
                continue
            tol = 1e-12 + 2.0 ** -1074 / math.exp(-x)
            for m, got in zip((4, 6, 8), tails):
                expected = float(bose_tail_oracle(m, x))
                assert abs(got - expected) <= tol * expected, (m, x)


# float.hex of the three tails: reordering any float operation of the kernel
# moves at least one of these bits (9.4 is there for two reorderings that the
# other x miss).  At 36.5 the pass takes two k terms and at 72.7 one; from 708
# on e^(-x) is subnormal, and from about 745.13 it underflows to 0.
BOSE_TAIL_BITS = {
    0.0: ("0x1.8e2e2562fb4abp+4", "0x1.6b01782ad435ap+9", "0x1.3ba1f4f0ae3eep+15"),
    1e-3: ("0x1.8e2e2562fb486p+4", "0x1.6b01782ad435ap+9", "0x1.3ba1f4f0ae3eep+15"),
    0.049: ("0x1.8e2e23e7a51e2p+4", "0x1.6b01782acf5c6p+9", "0x1.3ba1f4f0ae3eep+15"),
    0.05: ("0x1.8e2e23c7e216dp+4", "0x1.6b01782acebccp+9", "0x1.3ba1f4f0ae3eep+15"),
    2.5: ("0x1.5bb7f8db6c50dp+4", "0x1.6519faf78eac3p+9", "0x1.3b39a529308cep+15"),
    9.4: ("0x1.0773149bfc405p+0", "0x1.f17c02326184ep+6", "0x1.fd58edb79332cp+13"),
    36.5: ("0x1.33402fd27e14ep-32", "0x1.a8ea9ba85c63fp-22", "0x1.26e8adef2132ep-11"),
    49.9: ("0x1.9d60da4159504p-50", "0x1.0672075060e6fp-38", "0x1.4dde17fd580edp-27"),
    50.0: ("0x1.78fc1662e742dp-50", "0x1.e08e21cd54964p-39", "0x1.32dcb2a253088p-27"),
    72.7: ("0x1.e872e14190daap-81", "0x1.446da632797b0p-68", "0x1.af55af08507e0p-56"),
    708.0: ("0x1.5dd3925b45ec9p-984", "0x1.4f6a585f6a587p-965", "0x1.4199c29b86147p-946"),
    740.0: ("0x0.0174ebbcf70c8p-1022", "0x1.868ff2db245c1p-1011", "0x1.990a93ad2a3b7p-992"),
    745.0: ("0x0.000481c52fa00p-1022", "0x1.322d98d391da3p-1017", "0x1.4501ac9c02964p-998"),
    745.2: ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    760.0: ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
}


@pytest.mark.parametrize("x", sorted(BOSE_TAIL_BITS))
def test_bose_tails_keep_their_bits(x):
    assert tuple(t.hex() for t in decoherence._bose_tails(x)) == BOSE_TAIL_BITS[x]


# float.hex of (absorption, scattering, emission of a 150 K cluster) for a
# 1e7 amu gold cluster, pinned like BOSE_TAIL_BITS; order 1 at 400 K puts
# the effectiveness kink at x = 73, past _TAIL_FREE_X (no tail pass), and
# order 2 at 400 K at 36.5 (two k terms)
BLACKBODY_BITS = {
    (1, 4.0): ("0x1.e741d729140a7p-49", "0x1.e95259c3d3e77p-72", "0x1.71b7167863de7p-12"),
    (1, 77.0): ("0x1.bc8075e164db4p-19", "0x1.4312cbe2349b3p-33", "0x1.71b7167863de7p-12"),
    (1, 300.0): ("0x1.71b7167863de7p-5", "0x1.fde0b534afc5ep-16", "0x1.71b7167863de7p-12"),
    (1, 400.0): ("0x1.5a379100f35aap-2", "0x1.a86b3d56d7609p-12", "0x1.71b7167863de7p-12"),
    (2, 4.0): ("0x1.e741d729140a7p-47", "0x1.e95259c3d3e77p-70", "0x1.71b7167863de7p-10"),
    (2, 77.0): ("0x1.bc8075e164db4p-17", "0x1.4312cbe2349b3p-31", "0x1.71b7167863de7p-10"),
    (2, 300.0): ("0x1.71b7167863de3p-3", "0x1.fde0b534afb3cp-14", "0x1.71b7167863de7p-10"),
    (2, 400.0): ("0x1.5a379100c1c44p+0", "0x1.a86b3d506ee93p-10", "0x1.71b7167863de7p-10"),
}


@pytest.mark.parametrize("order,temperature", sorted(BLACKBODY_BITS))
def test_blackbody_rates_keep_their_bits(order, temperature):
    absorption, scattering, hot_emission = BLACKBODY_BITS[order, temperature]
    species, grating = gold_cluster(1e7), default_grating()._replace(talbot_order=order)
    for cluster_temperature, emission in ((None, absorption), (temperature, absorption),
                                          (150.0, hot_emission)):
        rates = blackbody_rates(species, grating, temperature, cluster_temperature)
        assert tuple(r.hex() for r in rates) == (absorption, emission, scattering)


def test_blackbody_rates_take_one_bose_pass_per_temperature(monkeypatch):
    calls = []
    kernel = decoherence._bose_tails

    def counted(x):
        calls.append(x)
        return kernel(x)

    monkeypatch.setattr(decoherence, "_bose_tails", counted)
    # at most one pass per temperature, and none where the kink x is past
    # _TAIL_FREE_X: at order 2, x is 48.6 at 300 K, 189 at 77 K and 4.9 at 3000 K
    species, grating = gold_cluster(1e7), default_grating()
    for temperatures, kinks in (((300.0,), [48.6]), ((77.0,), []), ((77.0, None), []),
                                ((77.0, 77.0), []), ((77.0, 3000.0), [4.86]),
                                ((300.0, 3000.0), [48.6, 4.86])):
        calls.clear()
        blackbody_rates(species, grating, *temperatures)
        assert calls == pytest.approx(kinks, rel=1e-3)


def full_photon_rates(temperature, nd, k_abs, k_sca):
    """_photon_rates with the Bose-tail pass at every kink x."""
    w = BOLTZMANN_KB * temperature / HBAR
    a = nd * w / SPEED_OF_LIGHT
    t4, t6, t8 = decoherence._bose_tails(decoherence._SQRT_CAP / a)
    i4 = a * a * (decoherence._BOSE_6 - t6) + decoherence._CAP * t4
    i6 = a * a * (decoherence._BOSE_8 - t8) + decoherence._CAP * t6
    return k_abs * (w ** 5 * i4), k_sca * (w ** 7 * i6)


def test_rates_without_the_tail_pass_are_the_full_formula_bit_for_bit():
    # Past about 745.2 every tail underflows to 0, so (_TAIL_FREE_X, 746] is
    # every kink x at which leaving the tails out could move a bit.  The
    # largest x at which they still do is about 59.
    species, grating = gold_cluster(1e7), default_grating()
    nd = grating.talbot_order * grating.period
    r3 = cluster_radius(species) ** 3
    k_abs = decoherence._ABS_FACTOR * r3 / decoherence._ABS_DIVISOR
    k_sca = 8.0 * r3 * r3 / decoherence._SCA_DIVISOR
    kink_temperature = decoherence._SQRT_CAP * SPEED_OF_LIGHT * HBAR / (nd * BOLTZMANN_KB)
    scanned = 0
    for x in np.linspace(decoherence._TAIL_FREE_X, 746.0, 5001)[1:]:
        temperature = kink_temperature / x
        for t in (math.nextafter(temperature, 0.0), temperature,
                  math.nextafter(temperature, math.inf)):
            if SPEED_OF_LIGHT / (nd * (BOLTZMANN_KB * t / HBAR)) > decoherence._TAIL_FREE_X:
                scanned += 1
                assert decoherence._photon_rates(t, nd, k_abs, k_sca) == full_photon_rates(
                    t, nd, k_abs, k_sca), t
    assert scanned > 14000


@pytest.mark.parametrize("temperature", [1e-320, 1e250])
def test_blackbody_rates_past_float_range_are_domain_errors(temperature):
    grating = default_grating()
    for temperatures in ((temperature,), (300.0, temperature)):
        with pytest.raises(DomainError, match=re.escape(f"at {temperature} K")):
            blackbody_rates(gold_cluster(1e7), grating, *temperatures)


def test_collision_rate_at_an_underflowing_temperature_is_a_domain_error():
    with pytest.raises(DomainError, match="1e-320 K"):
        collision_rate(gold_cluster(1e6), env(1.0, gas_T=1e-320))


def test_collision_rate_matches_quadrature_oracle():
    for mass in (1e5, 1e6, 1e7, 1e8):
        for gas_T in (4.0, 77.0, 300.0, 1000.0):
            e = env(1e-9, gas_T=gas_T)
            assert collision_rate(gold_cluster(mass), e) == pytest.approx(
                collision_oracle(gold_cluster(mass), e), rel=1e-9)


def test_collision_rate_vanishes_in_perfect_vacuum():
    assert collision_rate(gold_cluster(1e6), env(0.0)) == 0.0


def test_collision_rate_linear_in_pressure():
    species = gold_cluster(1e6)
    r1 = collision_rate(species, env(1e-9))
    r2 = collision_rate(species, env(2e-9))
    assert r2 == pytest.approx(2.0 * r1, rel=1e-12)
    assert r1 > 0.0


def test_cross_section_speed_power_law():
    c6 = dispersion_coefficient(gold_cluster(1e6), env(1e-9))
    s1 = collision_cross_section(100.0, c6)
    s2 = collision_cross_section(200.0, c6)
    assert s1 / s2 == pytest.approx(2.0 ** 0.4, rel=1e-12)
    with pytest.raises(DomainError):
        collision_cross_section(0.0, c6)


def test_dispersion_coefficient_grows_with_cluster_size():
    e = env(1e-9)
    c6_small = dispersion_coefficient(gold_cluster(1e5), e)
    c6_large = dispersion_coefficient(gold_cluster(1e8), e)
    assert c6_large > c6_small > 0.0


def test_blackbody_radius_scaling():
    # doubling the radius (8x the mass): absorption and emission scale as
    # R^3, Rayleigh scattering as R^6
    grating = default_grating()
    s1 = gold_cluster(1e6)
    s2 = gold_cluster(8e6)
    a1, m1, c1 = blackbody_rates(s1, grating, 300.0)
    a2, m2, c2 = blackbody_rates(s2, grating, 300.0)
    assert a2 / a1 == pytest.approx(8.0, rel=1e-6)
    assert m2 / m1 == pytest.approx(8.0, rel=1e-6)
    assert c2 / c1 == pytest.approx(64.0, rel=1e-6)


def test_blackbody_rates_increase_with_temperature():
    grating = default_grating()
    species = gold_cluster(1e7)
    a1, _, c1 = blackbody_rates(species, grating, 200.0)
    a2, _, c2 = blackbody_rates(species, grating, 300.0)
    assert a2 > a1 and c2 > c1


def test_emission_follows_cluster_temperature():
    a, m, _ = blackbody_rates(gold_cluster(1e7), default_grating(), 100.0, 300.0)
    assert m > a  # hot cluster in a cold chamber emits more than it absorbs


@pytest.mark.parametrize("rad_T", [4.0, 77.0, 300.0, 1000.0])
def test_emission_equals_absorption_without_cluster_override(rad_T):
    absorption, emission, _ = blackbody_rates(gold_cluster(1e7), default_grating(), rad_T)
    assert emission == absorption


def test_budget_channel_separation():
    grating = default_grating()
    species = gold_cluster(1e6)
    full = decoherence_budget(species, grating, env(1e-9))
    vacuum = decoherence_budget(species, grating, env(0.0))
    assert full.rate_bb_absorption == pytest.approx(vacuum.rate_bb_absorption, rel=1e-12)
    assert full.visibility_factor == pytest.approx(
        vacuum.visibility_factor * math.exp(-full.rate_collision * full.exposure_time),
        rel=1e-12)
    assert full.total_rate == pytest.approx(
        full.rate_collision + full.rate_bb_absorption
        + full.rate_bb_emission + full.rate_bb_scattering)


def test_benign_conditions_keep_most_visibility():
    # 1e6 amu at 1e-9 mbar and 300 K
    factor = decoherence_budget(gold_cluster(1e6), default_grating(),
                                env(1e-9)).visibility_factor
    assert factor >= 0.5


def test_demanding_conditions_partially_decohere():
    # 1e8 amu at 1e-12 mbar and 200 K sits strictly between 0.2 and 0.8
    factor = decoherence_budget(gold_cluster(1e8), default_grating(),
                                env(1e-12, gas_T=200.0, rad_T=200.0)).visibility_factor
    assert 0.2 < factor < 0.8


def test_visibility_factor_decreases_with_mass():
    grating = default_grating()
    e = env(1e-11, rad_T=250.0)
    factors = [decoherence_budget(gold_cluster(m), grating, e).visibility_factor
               for m in (1e6, 1e7, 1e8)]
    assert all(a > b for a, b in zip(factors, factors[1:]))
    assert all(0.0 < f <= 1.0 for f in factors)


def test_rates_finite_over_parameter_grid():
    grating = default_grating()
    for mass in (1e5, 1e7, 2e8):
        for p in (1e-13, 1e-9):
            for t in (100.0, 300.0):
                b = decoherence_budget(gold_cluster(mass), grating,
                                       env(p, gas_T=t, rad_T=t))
                assert math.isfinite(b.total_rate) and b.total_rate >= 0.0
                assert 0.0 < b.visibility_factor <= 1.0


def contour_pressure_at(lines, temperature):
    """Interpolate the contour pressure at a given temperature."""
    best = None
    for line in lines:
        for (p0, t0), (p1, t1) in zip(line, line[1:]):
            if (t0 - temperature) * (t1 - temperature) <= 0.0 and t0 != t1:
                f = (temperature - t0) / (t1 - t0)
                best = 10.0 ** (math.log10(p0) + f * (math.log10(p1) - math.log10(p0)))
    return best


def test_contour_monotone_and_nested():
    grating = default_grating()
    pressures = np.logspace(-13, -5, 33) * MBAR
    temperatures = np.linspace(80.0, 320.0, 25)
    lines_light = critical_contour(gold_cluster(1e6), grating, pressures, temperatures)
    lines_heavy = critical_contour(gold_cluster(1e7), grating, pressures, temperatures)
    assert lines_light and lines_heavy
    for t in (150.0, 200.0, 250.0, 300.0):
        p_light = contour_pressure_at(lines_light, t)
        p_heavy = contour_pressure_at(lines_heavy, t)
        assert p_light is not None and p_heavy is not None
        # heavier species needs better vacuum: nested strictly inside
        assert p_heavy < p_light
    # admissible pressure never rises with radiation temperature; for the
    # light species blackbody is negligible so the bound is only weak
    samples = [contour_pressure_at(lines_light, t) for t in (120.0, 180.0, 240.0, 300.0)]
    assert all(a >= b * (1.0 - 1e-9) for a, b in zip(samples, samples[1:]))
    # at 1e8 amu the thermal channels dominate and the decrease is strict
    lines_hot = critical_contour(gold_cluster(1e8), grating, pressures, temperatures)
    hot = [contour_pressure_at(lines_hot, t) for t in (100.0, 130.0, 160.0, 180.0)]
    assert all(h is not None for h in hot)
    assert all(a > b for a, b in zip(hot, hot[1:]))


@pytest.mark.parametrize("mass", [1e6, 1e7, 1e8])
def test_contour_vertices_are_the_oracle_grid_crossings(mass):
    # the fig3 default grid
    grating = default_grating()
    species = gold_cluster(mass)
    pressures = np.logspace(-14, -6, 60) * MBAR
    temperatures = np.linspace(4.0, 400.0, 60)
    lines = critical_contour(species, grating, pressures, temperatures)
    assert len(lines) == 1
    vertices = lines[0]
    assert [t for _, t in vertices] == sorted(t for _, t in vertices)

    level_exposure = math.log(2.0)
    t_total = total_interference_time(species, grating)
    per_pa = collision_oracle(species, env(1.0 / MBAR))

    def bb(temperature):
        return sum(blackbody_oracle(species, grating, temperature))

    for p, t in vertices:
        assert p in pressures or t in temperatures
        assert (per_pa * p + bb(t)) * t_total == pytest.approx(level_exposure, rel=1e-8)

    bb_grid = np.array([bb(t) for t in temperatures])
    above = (per_pa * pressures[:, None] + bb_grid[None, :]) * t_total > level_exposure
    sign_changes = (np.count_nonzero(above[1:, :] != above[:-1, :])
                    + np.count_nonzero(above[:, 1:] != above[:, :-1]))
    assert len(vertices) == sign_changes


@given(st.floats(5.0, 8.5), st.floats(5.0, 8.5))
@settings(max_examples=30, deadline=None)
def test_contours_nest_on_a_shared_grid(log10_m1, log10_m2):
    assume(abs(log10_m1 - log10_m2) >= 0.01)
    light, heavy = sorted([log10_m1, log10_m2])
    grating = default_grating()
    pressures = [10.0 ** (-14.0 + 8.0 * i / 39) * MBAR for i in range(40)]
    temperatures = [4.0 + 396.0 * i / 39 for i in range(40)]
    on_grid_t = {}
    for log10_mass in (light, heavy):
        lines = critical_contour(gold_cluster(10.0 ** log10_mass), grating,
                                 pressures, temperatures)
        vertices = lines[0] if lines else []
        on_grid_t[log10_mass] = {t: p for p, t in vertices if t in temperatures}
    # the heavier cluster needs the better vacuum at every shared temperature
    for t in on_grid_t[light].keys() & on_grid_t[heavy].keys():
        assert on_grid_t[heavy][t] < on_grid_t[light][t]


@st.composite
def shuffled_grid(draw, lo, hi):
    """2-30 values in [lo, hi], some of them repeated, in random order."""
    values = draw(st.lists(st.floats(lo, hi), min_size=2, max_size=20))
    repeats = draw(st.lists(st.sampled_from(values), max_size=10))
    return draw(st.permutations(values + repeats))


@given(st.floats(6.0, 8.0), shuffled_grid(-12.0, -4.0), shuffled_grid(4.0, 400.0))
@settings(max_examples=100, deadline=None)
def test_contour_on_random_grids(log10_mass, log10_pressures, temperatures):
    grating = default_grating()
    species = gold_cluster(10.0 ** log10_mass)
    pressures = [10.0 ** x for x in log10_pressures]
    if len(set(pressures)) < 2 or len(set(temperatures)) < 2:  # repeats of one grid line
        with pytest.raises(DomainError, match="2 x 2 grid"):
            critical_contour(species, grating, pressures, temperatures)
        return
    lines = critical_contour(species, grating, pressures, temperatures)
    assert len(lines) <= 1
    vertices = lines[0] if lines else []
    assert [t for _, t in vertices] == sorted(t for _, t in vertices)
    for p, t in vertices:
        assert min(pressures) <= p <= max(pressures)
        assert min(temperatures) <= t <= max(temperatures)
        budget = decoherence_budget(species, grating, EnvironmentConfig(
            gas_pressure=p, environment_temperature=t))
        assert math.log(budget.visibility_factor) == pytest.approx(math.log(0.5), abs=1e-9)

    # one vertex per grid edge whose ends lie on either side of the level set
    level_exposure = math.log(2.0)
    t_total = total_interference_time(species, grating)
    ps, ts = sorted(set(pressures)), sorted(set(temperatures))
    coll = [collision_rate(species, EnvironmentConfig(gas_pressure=p)) for p in ps]
    bb = [sum(blackbody_rates(species, grating, t)) for t in ts]
    above = [[(c + b) * t_total > level_exposure for b in bb] for c in coll]
    sign_changes = (sum(row[j] != row[j + 1] for row in above for j in range(len(ts) - 1))
                    + sum(a != b for row, nxt in zip(above, above[1:]) for a, b in zip(row, nxt)))
    assert len(vertices) == sign_changes


def split_walk(seen, temperatures):
    """(walked, solved) from the temperatures a contour evaluated, in order.

    They must be the grid's first `walked` temperatures, then the top one if
    the walk stopped below it, then the temperature solves (`solved`).
    """
    walked = 0
    while walked < min(len(seen), len(temperatures)) and seen[walked] == temperatures[walked]:
        walked += 1
    rest = seen[walked:]
    if walked < len(temperatures):
        assert rest[:1] == [temperatures[-1]]
        rest = rest[1:]
    return walked, rest


def test_contour_rates_see_the_template_at_each_temperature(monkeypatch):
    # every field away from its default, so a field the contour drops shows
    template = EnvironmentConfig(gas_pressure=3e-7, gas_temperature=250.0,
                                 gas_mass=40.0 * ATOMIC_MASS_UNIT,
                                 gas_polarizability_volume=1.64e-30,
                                 environment_temperature=123.0, cluster_temperature=150.0)
    default = EnvironmentConfig()
    assert all(getattr(template, name) != getattr(default, name)
               for name in EnvironmentConfig._fields)
    rates, seen = decoherence.blackbody_rates, []

    def spy(species, grating, temperature, cluster_temperature=None):
        seen.append((temperature, cluster_temperature))
        return rates(species, grating, temperature, cluster_temperature)

    monkeypatch.setattr(decoherence, "blackbody_rates", spy)
    species, grating = gold_cluster(3e7), default_grating()
    pressures, temperatures = np.logspace(-14, -6, 25) * MBAR, list(np.linspace(4.0, 400.0, 25))
    lines = critical_contour(species, grating, pressures, temperatures, env_template=template)
    assert lines
    walked, solved = split_walk([t for t, _ in seen], temperatures)
    assert solved  # the temperature solves call it too
    assert walked < len(temperatures)  # the contour leaves the grid below 400 K
    assert {c for _, c in seen} == {template.cluster_temperature}
    # each vertex is on the level set of the template at its pressure and temperature
    monkeypatch.undo()
    for p, t in lines[0]:
        budget = decoherence_budget(species, grating, template._replace(
            gas_pressure=p, environment_temperature=t))
        assert math.log(budget.visibility_factor) == pytest.approx(math.log(0.5), abs=1e-9)


def test_contour_builds_no_environment_per_temperature(monkeypatch):
    # the template at 1 Pa, for the collision rate, is the only environment built,
    # and each temperature the contour evaluates is one blackbody_rates call
    built, seen, solved = [], [], []
    new, rates, solve = (EnvironmentConfig.__new__, decoherence.blackbody_rates,
                         decoherence._solve_temperature)

    def counted_new(cls, *args, **kwargs):
        built.append(new(cls, *args, **kwargs))
        return built[-1]

    def spy(species, grating, temperature, cluster_temperature=None):
        seen.append(temperature)
        return rates(species, grating, temperature, cluster_temperature)

    def counted_solve(bb_rate, *args):
        def rate(temperature):
            solved.append(temperature)
            return bb_rate(temperature)
        return solve(rate, *args)

    template = EnvironmentConfig(gas_temperature=250.0, cluster_temperature=150.0)
    at_one_pa = template._replace(gas_pressure=1.0)
    monkeypatch.setattr(EnvironmentConfig, "__new__", staticmethod(counted_new))
    monkeypatch.setattr(decoherence, "blackbody_rates", spy)
    monkeypatch.setattr(decoherence, "_solve_temperature", counted_solve)
    temperatures = [4.0 + 396.0 * i / 59 for i in range(60)]
    assert critical_contour(gold_cluster(3e7), default_grating(),
                            np.logspace(-14, -6, 60) * MBAR, temperatures,
                            env_template=template)
    assert built == [at_one_pa]
    walked, rest = split_walk(seen, temperatures)
    assert solved and rest == solved
    assert walked < len(temperatures)


def test_a_heavy_contour_walks_no_grid_temperature_past_its_stop(monkeypatch):
    # At 1e8 amu the contour drops below the lowest grid pressure near 180 K.
    # The walk stops at the first grid temperature where b(T) is past every
    # pressure line's target and the T line is below the lowest pressure.
    seen, rates = [], decoherence.blackbody_rates

    def spy(species, grating, temperature, cluster_temperature=None):
        seen.append(temperature)
        return rates(species, grating, temperature, cluster_temperature)

    species, grating = gold_cluster(1e8), default_grating()
    pressures = list(np.logspace(-14, -6, 60) * MBAR)
    temperatures = list(np.linspace(4.0, 400.0, 60))
    monkeypatch.setattr(decoherence, "blackbody_rates", spy)
    lines = critical_contour(species, grating, pressures, temperatures)
    monkeypatch.undo()
    walked, solved = split_walk(seen, temperatures)
    assert 2 < walked < len(temperatures) // 2
    assert all(t < temperatures[walked - 1] for t in solved)
    assert all(t < temperatures[walked - 1] for _, t in lines[0])

    budget = -math.log(0.5) / total_interference_time(species, grating)
    per_pa = collision_rate(species, EnvironmentConfig(gas_pressure=1.0))
    top = budget - per_pa * pressures[0]

    def left_the_grid(temperature):
        absorption, emission, scattering = rates(species, grating, temperature)
        b = absorption + emission + scattering
        return b > top and (budget - b) / per_pa < pressures[0]

    # it stops at the first such temperature, and every one it skips is one
    assert [left_the_grid(t) for t in temperatures[:walked]] == [False] * (walked - 1) + [True]
    assert all(left_the_grid(t) for t in temperatures[walked:])


@pytest.mark.parametrize("per_pa, pressures, temperatures, crossings", [
    # 1 - 7 * 0.11 rounds to just below 0.23, yet at b = 0.23 and the next
    # float up (1 - b) / 7 still rounds to the lowest pressure 0.11: b past
    # every pressure line's target alone must not stop the walk at 0.23
    (7.0, [0.11, 0.5], [0.1, 0.23, 0.23000000000000004], 4),
    # 1 - 2.5 * 0.235 rounds to just above 0.41250000000000003, yet there
    # (1 - b) / 2.5 rounds below the lowest pressure 0.235: its T line alone
    # must not stop the walk, or the 0.235 line loses its crossing below 0.5
    (2.5, [0.235, 0.3], [0.1, 0.41250000000000003, 0.5], 2),
])
def test_contour_walk_stops_only_where_both_of_its_tests_hold(monkeypatch, per_pa, pressures,
                                                              temperatures, crossings):
    # Stub rates: a per Pa, b(T) = T and an exposure budget of exactly 1,
    # so the level set is a p + T = 1
    monkeypatch.setattr(decoherence, "total_interference_time",
                        lambda species, grating: math.log(2.0))
    monkeypatch.setattr(decoherence, "collision_rate",
                        lambda species, environment: per_pa * environment.gas_pressure)
    monkeypatch.setattr(decoherence, "blackbody_rates",
                        lambda species, grating, temperature, cluster_temperature:
                        (temperature, 0.0, 0.0))
    assert -math.log(0.5) / math.log(2.0) == 1.0
    lines = critical_contour(gold_cluster(1e6), default_grating(), pressures, temperatures)
    assert len(lines[0]) == crossings
    for p, t in lines[0]:
        assert per_pa * p + t == pytest.approx(1.0, rel=1e-12)


def test_contour_names_the_top_temperature_when_it_leaves_float_range():
    # the walk stops near 180 K, so 1e249 K, where the rates first overflow,
    # is never evaluated; the top grid temperature is, and the error names it
    with pytest.raises(DomainError, match=re.escape("at 1e+250 K")):
        critical_contour(gold_cluster(1e8), default_grating(), [1e-12, 1e-4],
                         [4.0, 100.0, 400.0, 1e249, 1e250])


def test_contour_through_a_grid_node_has_one_vertex(monkeypatch):
    # Stub rates: a = 1 per Pa and b(T) = T, so the level set is p + T = B.
    # With T within a factor of two of B every subtraction below is exact,
    # and the grid pressure B - T[1] puts the contour on a grid node.
    monkeypatch.setattr(decoherence, "collision_rate",
                        lambda species, environment: environment.gas_pressure)
    monkeypatch.setattr(decoherence, "blackbody_rates",
                        lambda species, grating, temperature, cluster_temperature:
                        (temperature, 0.0, 0.0))
    species, grating = gold_cluster(1e6), default_grating()
    budget = math.log(2.0) / total_interference_time(species, grating)
    temperatures = [0.55 * budget, 0.7 * budget, 0.85 * budget]
    pressures = [0.01 * budget, budget - temperatures[1], 0.4 * budget, 0.6 * budget]
    lines = critical_contour(species, grating, pressures, temperatures)
    assert lines == [[(budget - temperatures[0], temperatures[0]),
                      (0.4 * budget, pytest.approx(0.6 * budget, rel=1e-12)),
                      (budget - temperatures[1], temperatures[1]),
                      (budget - temperatures[2], temperatures[2])]]


def test_contour_adds_the_three_rates_left_to_right(monkeypatch):
    # Stub rates (b, b 2^-53, b 2^-53) with b = T a power of two: added left to
    # right, each addition is a tie that rounds back to b, while a compensated
    # sum (sum() from CPython 3.12 on) gives b (1 + 2^-52).  With a = 1 per Pa
    # the level set is p + b(T) = B, and B - T[0] is exact, so the grid
    # pressure B - T[0] meets T[0] on a grid node only for the left-to-right sum.
    monkeypatch.setattr(decoherence, "collision_rate",
                        lambda species, environment: environment.gas_pressure)
    monkeypatch.setattr(decoherence, "blackbody_rates",
                        lambda species, grating, temperature, cluster_temperature:
                        (temperature, temperature * 2.0 ** -53, temperature * 2.0 ** -53))
    species, grating = gold_cluster(1e6), default_grating()
    budget = math.log(2.0) / total_interference_time(species, grating)
    t0 = 2.0 ** math.floor(math.log2(budget))
    assert budget / 2.0 < t0 < budget
    lines = critical_contour(species, grating, [budget - t0, budget], [t0, 2.0 * t0])
    assert lines == [[(budget - t0, t0)]]


def test_contour_accepts_unsorted_grids():
    grating = default_grating()
    pressures = np.logspace(-13, -5, 33) * MBAR
    temperatures = np.linspace(80.0, 320.0, 25)
    reference = critical_contour(gold_cluster(1e8), grating, pressures, temperatures)
    shuffled = critical_contour(gold_cluster(1e8), grating, pressures[::-1],
                                np.random.default_rng(3).permutation(temperatures))
    assert shuffled == reference


def test_contour_empty_when_no_crossing():
    grating = default_grating()
    pressures = np.logspace(-16, -15, 4) * MBAR  # far below any threshold
    temperatures = np.linspace(90.0, 110.0, 4)
    lines = critical_contour(gold_cluster(1e5), grating, pressures, temperatures)
    assert lines == []


def test_contour_grid_validation():
    grating = default_grating()
    with pytest.raises(DomainError):
        critical_contour(gold_cluster(1e6), grating, [1e-9], [100.0, 200.0])
    with pytest.raises(DomainError):
        critical_contour(gold_cluster(1e6), grating, [1e-9, -1e-8], [100.0, 200.0])
    with pytest.raises(DomainError):
        critical_contour(gold_cluster(1e6), grating, [1e-9, math.nan], [100.0, 200.0])
    # a repeated value is one grid line, so [300.0, 300.0] is a one-line axis
    with pytest.raises(DomainError, match="2 x 2 grid"):
        critical_contour(gold_cluster(1e7), grating, [1e-8, 1e-3], [300.0, 300.0])
    with pytest.raises(DomainError, match="2 x 2 grid"):
        critical_contour(gold_cluster(1e7), grating, [1e-8, 1e-8], [100.0, 300.0])


def test_temperature_solve_halves_the_weight_of_a_stale_low_end():
    # ln b = -100 K / T, a Wien tail, is concave in ln T: every secant lands
    # on the high side, so the low end stays and only halving its weight
    # converges in a few steps (8 here, 37 without the halving)
    calls = []

    def wien(temperature):
        calls.append(temperature)
        return math.exp(-100.0 / temperature)

    target = math.exp(-100.0 / 30.0)
    b_lo, b_hi = wien(10.0), wien(100.0)
    calls.clear()
    t = decoherence._solve_temperature(wien, target, 10.0, 100.0, b_lo, b_hi)
    assert len(calls) <= 10
    assert abs(math.log(wien(t) / target)) <= 1e-12


@pytest.mark.parametrize("level", [0.0, -1.0, 1.0, 2.0, math.nan, None, "0.5"])
def test_contour_refuses_a_level_outside_0_1(level):
    # -ln(level) is the exposure traced: 0 and below have no log, and at 1
    # and above (or NaN) no grid point could reach it; None and a str are not
    # real numbers
    with pytest.raises(DomainError, match=re.escape(f"'level' must lie in (0, 1), got {level!r}")):
        critical_contour(gold_cluster(1e7), default_grating(), [1e-8, 1e-3], [100.0, 300.0],
                         level=level)
