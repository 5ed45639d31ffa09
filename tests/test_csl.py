import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad, simpson

from cslsim.csl import (
    critical_mass,
    csl_visibility_ratio,
    exclusion_boundary,
    geometry_factor,
)
from cslsim.errors import DomainError
from cslsim.params import (
    ATOMIC_MASS_UNIT,
    ClusterSpecies,
    CslParams,
    GratingConfig,
    default_grating,
    gold_cluster,
)
from oracles import (
    _simpson,
    csl_decay_rate_oracle,
    csl_exponent_oracle,
    csl_visibility_ratio_oracle,
)

AMU = ATOMIC_MASS_UNIT


def make_csl(lambda0, r_c=100e-9):
    return CslParams(r_c=r_c, lambda0=lambda0)


def critical_mass_bisect(csl, grating, threshold=0.5):
    """Oracle for the critical mass: geometric bisection on the exponent."""
    target = math.log(1.0 / threshold)

    def exponent_at(mass_kg):
        probe = ClusterSpecies(mass_kg, 1.0, 1.0 + 0.0j, "probe")
        return csl_visibility_ratio(probe, grating, csl).exponent

    lo, hi = 1e-30, 1e-30
    while exponent_at(hi) < target:
        hi *= 2.0
    while hi / lo >= 1.0 + 1e-14:
        mid = math.sqrt(lo * hi)  # geometric bisection over many decades
        if exponent_at(mid) < target:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


# the rate the exponent oracle integrates, checked in its limits
def test_decay_rate_limits():
    csl = make_csl(1e-10)
    mass = 1e6 * AMU
    assert csl_decay_rate_oracle(0.0, csl, mass) == 0.0
    saturated = csl_decay_rate_oracle(1.0, csl, mass)  # 1 m >> r_c
    assert saturated == pytest.approx(1e-10 * 1e12, rel=1e-12)  # lambda0 (m/m0)^2
    # quadratic in separation for Dx << r_c
    small = csl_decay_rate_oracle(1e-12, csl, mass)
    smaller = csl_decay_rate_oracle(0.5e-12, csl, mass)
    assert small / smaller == pytest.approx(4.0, rel=1e-6)


def test_decay_rate_quadratic_in_mass():
    csl = make_csl(1e-10)
    r1 = csl_decay_rate_oracle(1.0, csl, 1e6 * AMU)
    r2 = csl_decay_rate_oracle(1.0, csl, 3e6 * AMU)
    assert r2 / r1 == pytest.approx(9.0, rel=1e-12)


def test_geometry_factor_against_quadrature_oracle():
    # G = 1 - sqrt(pi) r_c/(N d) erf(N d / 2 r_c) can be re-derived as the
    # time average of [1 - exp(-(s/2 r_c)^2)] over a linear ramp s: 0 -> N d.
    grating = default_grating()
    csl = make_csl(1e-10)
    nd = grating.talbot_order * grating.period
    oracle, err = quad(lambda u: -math.expm1(-(u * nd / (2 * csl.r_c)) ** 2),
                       0.0, 1.0, epsabs=0.0, epsrel=1e-12)
    g = geometry_factor(grating, csl)
    assert g == pytest.approx(oracle, rel=1e-10)
    assert g == pytest.approx(0.17240, abs=5e-5)


def test_geometry_factor_limits():
    grating = default_grating()
    assert geometry_factor(grating, make_csl(1e-10, r_c=1.0)) == pytest.approx(
        (grating.talbot_order * grating.period / 2.0) ** 2 / 3.0, rel=1e-6)
    assert geometry_factor(grating, make_csl(1e-10, r_c=1e-12)) == pytest.approx(
        1.0, abs=1e-4)


def test_exponent_cubic_in_mass():
    grating = default_grating()
    csl = make_csl(1e-10)
    e1 = csl_visibility_ratio(gold_cluster(1e6), grating, csl).exponent
    e2 = csl_visibility_ratio(gold_cluster(2e6), grating, csl).exponent
    assert e2 / e1 == pytest.approx(8.0, rel=1e-12)


def test_closed_form_matches_path_history_oracle():
    rng = random.Random(20260826)
    for _ in range(100):
        mass_amu = 10.0 ** rng.uniform(4.0, 9.0)
        lam = 10.0 ** rng.uniform(-18.0, -6.0)
        order = rng.randint(1, 4)
        grating = GratingConfig(laser_wavelength=157e-9, talbot_order=order)
        csl = make_csl(lam)
        species = gold_cluster(mass_amu)
        closed = csl_visibility_ratio(species, grating, csl).exponent
        oracle = csl_exponent_oracle(species, grating, csl, time_steps=100_000)
        assert closed == pytest.approx(oracle, rel=1e-6)


@pytest.mark.parametrize("intervals", [1000, 1001, 1002, 1003])
def test_simpson_matches_scipy(intervals):
    # odd interval counts take Cartwright's last-interval correction, as
    # scipy.integrate.simpson does
    x = np.linspace(0.0, 2.5, intervals + 1)
    y = np.sin(3.0 * x) + np.random.default_rng(intervals).normal(0.0, 0.1, x.size)
    assert _simpson(y, 2.5 / intervals) == pytest.approx(simpson(y, x=x), rel=1e-12)


def test_ratio_oracle_agrees_when_representable():
    grating = default_grating()
    csl = make_csl(1e-10)
    species = gold_cluster(5e5)
    red = csl_visibility_ratio(species, grating, csl)
    assert red.ratio == pytest.approx(
        csl_visibility_ratio_oracle(species, grating, csl), rel=1e-6)
    assert red.ratio == math.exp(-red.exponent)


def test_zero_rate_means_no_reduction():
    grating = default_grating()
    red = csl_visibility_ratio(gold_cluster(1e7), grating, make_csl(0.0))
    assert red.ratio == 1.0 and red.exponent == 0.0


def test_critical_mass_at_suggested_rate():
    grating = default_grating()
    m_c = critical_mass(make_csl(1e-10), grating)
    assert m_c / AMU == pytest.approx(8.666e5, rel=2e-3)
    assert 1e5 <= m_c / AMU <= 1e6


def test_critical_mass_at_lower_bound_rate():
    grating = default_grating()
    m_c = critical_mass(make_csl(1e-16), grating)
    assert m_c / AMU == pytest.approx(8.67e7, rel=2e-3)
    assert 1e7 <= m_c / AMU <= 1e8


def test_half_visibility_at_critical_mass():
    grating = default_grating()
    csl = make_csl(1e-10)
    m_c = critical_mass(csl, grating)
    red = csl_visibility_ratio(gold_cluster(m_c / AMU), grating, csl)
    assert red.ratio == pytest.approx(0.5, rel=1e-12)


def test_bisection_agrees_with_closed_form():
    grating = default_grating()
    for lam in (1e-10, 1e-13, 1e-16):
        csl = make_csl(lam)
        assert critical_mass_bisect(csl, grating) == pytest.approx(
            critical_mass(csl, grating), rel=1e-10)


def test_threshold_validation():
    grating = default_grating()
    for bad in (0.0, 1.0, -0.5, 2.0, None, "0.5"):  # None and a str are not real numbers
        message = f"threshold must lie in (0, 1), got {bad!r}"
        with pytest.raises(DomainError, match=re.escape(message)):
            critical_mass(make_csl(1e-10), grating, threshold=bad)
    with pytest.raises(DomainError):
        critical_mass(make_csl(0.0), grating)


def test_exclusion_boundary_loglog_slope():
    grating = default_grating()
    lams = np.logspace(-18.0, -6.0, 25)
    pts = exclusion_boundary(grating, make_csl(1e-10), lams)
    logl = np.log10([p[0] for p in pts])
    logm = np.log10([p[1] / AMU for p in pts])
    slopes = np.diff(logm) / np.diff(logl)
    assert np.all(np.abs(slopes + 1.0 / 3.0) < 1e-6)


@given(st.floats(-18.0, -8.0), st.floats(0.1, 2.0), st.integers(2, 12),
       st.floats(0.01, 0.99), st.floats(-8.0, -5.0))
@settings(max_examples=100, deadline=None)
def test_exclusion_boundary_slope_on_random_grids(lo, step, count, threshold, log10_rc):
    # the slope -1/3 holds for any grid, threshold and localization length
    lams = [10.0 ** (lo + i * step) for i in range(count)]
    pts = exclusion_boundary(default_grating(), make_csl(1e-10, r_c=10.0 ** log10_rc),
                             lams, threshold)
    for (l0, m0), (l1, m1) in zip(pts, pts[1:]):
        slope = math.log(m1 / m0) / math.log(l1 / l0)
        assert abs(slope + 1.0 / 3.0) < 1e-12


def test_exclusion_boundary_rejects_bad_grid():
    grating = default_grating()
    with pytest.raises(DomainError):
        exclusion_boundary(grating, make_csl(1e-10), [1e-10, 0.0])


def closed_form_mass(csl, grating, lam, threshold):
    """m0 (-ln threshold / (2 lambda0 T0 N g))^(1/3), with lambda0 inside the root."""
    t0 = grating.talbot_time_for_mass(csl.m0)
    g = geometry_factor(grating, csl)
    return csl.m0 * (-math.log(threshold) / (2.0 * lam * t0 * grating.talbot_order * g)) \
        ** (1.0 / 3.0)


@pytest.mark.parametrize("csl, threshold", [(CslParams(), 0.5),
                                            (CslParams(r_c=50e-9, m0=2.0 * AMU), 0.3)])
def test_exclusion_boundary_is_the_closed_form(csl, threshold):
    # the grid of the default fig1 run, and its markers
    grating = default_grating()
    lams = [10.0 ** (-18.0 + 0.5 * i) for i in range(25)] + [1e-10, 1e-16]
    for lam, m_c in exclusion_boundary(grating, csl, lams, threshold):
        assert m_c == pytest.approx(closed_form_mass(csl, grating, lam, threshold), rel=1e-15)
        assert critical_mass(csl._replace(lambda0=lam), grating, threshold) == m_c


@pytest.mark.parametrize("csl, threshold", [(CslParams(), 0.5),
                                            (CslParams(r_c=50e-9, m0=2.0 * AMU), 0.3)])
def test_exclusion_boundary_takes_each_cube_root_to_rounding(csl, threshold):
    # m0 (-ln threshold / (denom lambda0))^(1/3) at 40 digits from the double
    # denom = 2 T0 N g: measured within 3.2e-16 on the default fig1 grid, its
    # markers and the float-edge rates (x ** (1/3) alone was 1.4e-14 off)
    import mpmath as mp

    grating = default_grating()
    denom = (2.0 * grating.talbot_time_for_mass(csl.m0) * grating.talbot_order
             * geometry_factor(grating, csl))
    lams = [10.0 ** (-18.0 + 0.5 * i) for i in range(25)] + [1e-10, 1e-16, 5e-324, 1e-320,
                                                              1e300, 1.7e308]
    with mp.workdps(40):
        for lam, m_c in exclusion_boundary(grating, csl, lams, threshold):
            exact = csl.m0 * mp.cbrt(-mp.log(threshold) / (mp.mpf(denom) * lam))
            assert abs(m_c - exact) <= 4.5e-16 * exact, lam


@pytest.mark.parametrize("lam", [5e-324, 1e-320, 1e-300, 1e300, 1.7e308])
def test_exclusion_boundary_is_finite_for_every_finite_rate(lam):
    [(_, m_c)] = exclusion_boundary(default_grating(), CslParams(), [lam])
    assert 0.0 < m_c < math.inf


def test_exclusion_boundary_at_a_subnormal_threshold():
    # -ln(1e-320) = 736.8, where ln(1 / 1e-320) is inf
    [(_, m_c)] = exclusion_boundary(default_grating(), CslParams(), [1e-10], 1e-320)
    assert m_c / AMU == pytest.approx(8.84e6, rel=1e-3)
    assert m_c == pytest.approx(closed_form_mass(CslParams(), default_grating(), 1e-10,
                                                 1e-320), rel=1e-15)


@pytest.mark.parametrize("grating, csl, lams, message", [
    # 2 T0 N g underflows to 0 at r_c = 1e150 m, where g = a^2 / 3 is 2e-315
    (default_grating(), CslParams(r_c=1e150), [1e-10],
     "coefficient is out of float range at r_c = 1e+150 m and m0 = 1.6605390666e-27 kg"),
    # C is about 1e-240 kg at order 1e100 and m0 = 1e-300 kg, so m_c underflows
    # at the top rate; and about 1e222 kg at d = 5e-151 m and m0 = 1e200 kg, so
    # it overflows at a subnormal rate
    (GratingConfig(157e-9, 10 ** 100), CslParams(m0=1e-300), [1.0, 1.7e308],
     "critical mass is out of float range at lambda0 grid value 1.7e+308"),
    (GratingConfig(1e-150), CslParams(r_c=1e-160, m0=1e200), [1.0, 1e-320],
     "critical mass is out of float range at lambda0 grid value 1e-320"),
    # 2 T0 N g overflows at order 1e308 and m0 = 1e-10 kg, so the cube root is of 0
    (GratingConfig(157e-9, 10 ** 308), CslParams(m0=1e-10), [1e-10],
     "coefficient is out of float range at r_c = 1e-07 m and m0 = 1e-10 kg"),
])
def test_exclusion_boundary_refuses_a_mass_past_the_float_range(grating, csl, lams, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        exclusion_boundary(grating, csl, lams)


@pytest.mark.parametrize("size", [1, 5, 50])
def test_exclusion_boundary_computes_its_coefficient_once(monkeypatch, size):
    import cslsim.csl as csl_module

    calls = {"geometry_factor": 0, "talbot_time_for_mass": 0, "CslParams": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(csl_module, "geometry_factor",
                        counted("geometry_factor", geometry_factor))
    monkeypatch.setattr(GratingConfig, "talbot_time_for_mass",
                        counted("talbot_time_for_mass", GratingConfig.talbot_time_for_mass))
    monkeypatch.setattr(CslParams, "__new__", counted("CslParams", CslParams.__new__))
    csl, grating = make_csl(1e-10), default_grating()
    assert calls["CslParams"] == 1  # the counter sees a construction
    calls["CslParams"] = 0
    boundary = exclusion_boundary(grating, csl, [10.0 ** -(i % 12) for i in range(size)])
    assert len(boundary) == size
    assert calls == {"geometry_factor": 1, "talbot_time_for_mass": 1, "CslParams": 0}


def test_oracle_rejects_coarse_grid():
    with pytest.raises(DomainError):
        csl_exponent_oracle(gold_cluster(1e6), default_grating(),
                            make_csl(1e-10), time_steps=10)
