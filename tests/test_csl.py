import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad, simpson

from cslsim.csl import (
    critical_mass,
    csl_exponent,
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
        return csl_exponent(ClusterSpecies(mass_kg, 1.0, 1.0 + 0.0j, "probe"), grating, csl)

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
    e1 = csl_exponent(gold_cluster(1e6), grating, csl)
    e2 = csl_exponent(gold_cluster(2e6), grating, csl)
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
        closed = csl_exponent(species, grating, csl)
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
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(DomainError):
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


def test_oracle_rejects_coarse_grid():
    with pytest.raises(DomainError):
        csl_exponent_oracle(gold_cluster(1e6), default_grating(),
                            make_csl(1e-10), time_steps=10)
