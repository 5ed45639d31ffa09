import cmath
import math

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

import cslsim.mie as mie
from cslsim.cli import EXIT_NONCONVERGENCE, main
from cslsim.errors import DomainError, GeometryError, NonConvergenceError, ResonanceError
from cslsim.interferometer import flux_for_target_visibility, observables
from cslsim.mie import AbsorptionProfile, absorption_profile, absorption_sums
from cslsim.params import (
    GOLD_DENSITY,
    PLANCK_H,
    ClusterSpecies,
    GratingConfig,
    cluster_radius,
    default_grating,
    gold_cluster,
)
from oracles import dipole_absorption_cross_section, standing_wave_sums_oracle

GOLD_EPS = 0.9 + 3.2j


def species_for_rho(rho, grating=None, density=19300.0, eps=GOLD_EPS):
    """Gold-like sphere whose scaled radius k_L R equals rho."""
    grating = grating or default_grating()
    radius = rho / grating.wavenumber
    mass = 4.0 * math.pi / 3.0 * radius ** 3 * density
    return ClusterSpecies(mass, density, eps, "probe")


# -- independent traveling-wave Mie oracle (arbitrary precision) --------------

def mie_absorption_cross_section_oracle(x, eps, nmax=40):
    """C_abs = C_ext - C_sca from the standard plane-wave Mie coefficients,
    evaluated with mpmath Bessel functions (independent of cslsim.specfun)."""
    mp.mp.dps = 30
    m = mp.sqrt(mp.mpc(eps))

    def sph_j(n, z):
        return mp.sqrt(mp.pi / (2 * z)) * mp.besselj(n + mp.mpf(1) / 2, z)

    def sph_h(n, z):
        return mp.sqrt(mp.pi / (2 * z)) * (
            mp.besselj(n + mp.mpf(1) / 2, z) + 1j * mp.bessely(n + mp.mpf(1) / 2, z))

    ext = mp.mpf(0)
    sca = mp.mpf(0)
    for n in range(1, nmax + 1):
        mx = m * x
        psi_x, dpsi_x = x * sph_j(n, x), x * sph_j(n - 1, x) - n * sph_j(n, x)
        psi_mx, dpsi_mx = mx * sph_j(n, mx), mx * sph_j(n - 1, mx) - n * sph_j(n, mx)
        xi_x, dxi_x = x * sph_h(n, x), x * sph_h(n - 1, x) - n * sph_h(n, x)
        a = (m * psi_mx * dpsi_x - psi_x * dpsi_mx) / (m * psi_mx * dxi_x - xi_x * dpsi_mx)
        b = (psi_mx * dpsi_x - m * psi_x * dpsi_mx) / (psi_mx * dxi_x - m * xi_x * dpsi_mx)
        ext += (2 * n + 1) * mp.re(a + b)
        sca += (2 * n + 1) * (abs(a) ** 2 + abs(b) ** 2)
    # cross sections carry 2 pi / k^2; return the dimensionless k^2 C / (2 pi)
    return float(ext - sca)


# -- multipole components -----------------------------------------------------

def partial_sums(monkeypatch, rho, eps, orders):
    """(S0, S1) through exactly `orders` multipole orders: an infinite tail
    bound passes every term, so the sums stop after _TAIL_RUN of them."""
    monkeypatch.setattr(mie, "_TAIL_TOL", math.inf)
    monkeypatch.setattr(mie, "_TAIL_RUN", orders)
    s0, s1, used = absorption_sums(rho, eps)
    assert used == orders
    return s0, s1


def test_lossless_sphere_absorbs_nothing():
    s0, s1, _ = absorption_sums(0.5, 2.25 + 0.0j)
    assert s0 == 0.0
    assert s1 == 0.0


def test_dipole_limit_small_sphere():
    grating = default_grating()
    species = species_for_rho(0.01, grating)
    profile = absorption_profile(species, grating, flux=1.0)
    sigma_abs = dipole_absorption_cross_section(species, grating)
    n0_dipole = 2.0 * 1.0 * sigma_abs / (PLANCK_H * grating.laser_frequency)
    assert profile.n0 == pytest.approx(n0_dipole, rel=0.01)


def test_quadrupole_suppression_at_small_rho(monkeypatch):
    # order l adds (2l+1) pi / rho (sigma_E - sigma_H) to S0 and
    # (-1)^(l-1) (2l+1) pi / rho (sigma_E + sigma_H) to S1
    rho = 0.05
    s0_1, s1_1 = partial_sums(monkeypatch, rho, GOLD_EPS, 1)
    s0_2, s1_2 = partial_sums(monkeypatch, rho, GOLD_EPS, 2)
    se1 = rho / (6.0 * math.pi) * (s0_1 + s1_1)
    se2 = rho / (10.0 * math.pi) * ((s0_2 - s0_1) - (s1_2 - s1_1))
    assert abs(se2 / se1) < 50.0 * rho ** 2


def test_point_particle_modulation_ratio():
    # Au1000: rho ~ 0.064, n1/n0 within 2% of 1
    grating = default_grating()
    species = gold_cluster(1.9697e5)
    profile = absorption_profile(species, grating, flux=1.0)
    assert profile.n1 / profile.n0 == pytest.approx(1.0, abs=0.02)


def test_flux_linearity():
    grating = default_grating()
    species = gold_cluster(1e7)
    p1 = absorption_profile(species, grating, flux=1.0)
    p2 = absorption_profile(species, grating, flux=2.0)
    assert p2.n0 == pytest.approx(2.0 * p1.n0, rel=1e-14)
    assert p2.n1 == pytest.approx(2.0 * p1.n1, rel=1e-14)
    assert 2.0 * p1.n0 == p2.n0 and 2.0 * p1.n1 == p2.n1


def test_geometry_depends_only_on_rho():
    # same rho from two (wavelength, radius) pairs; fluxes chosen so the
    # prefactor F / (h nu k^2) matches
    g1 = default_grating()
    g2 = GratingConfig(laser_wavelength=2.0 * g1.laser_wavelength)
    sp1 = species_for_rho(0.3, g1)
    sp2 = species_for_rho(0.3, g2)
    f1 = 1.0
    f2 = f1 * (g2.laser_frequency * g2.wavenumber ** 2) / (
        g1.laser_frequency * g1.wavenumber ** 2)
    p1 = absorption_profile(sp1, g1, flux=f1)
    p2 = absorption_profile(sp2, g2, flux=f2)
    assert p2.n0 == pytest.approx(p1.n0, rel=1e-12)
    assert p2.n1 == pytest.approx(p1.n1, rel=1e-12)


def test_n0_series_sign_structure(monkeypatch):
    # every assembled n0 term is >= 0 for an absorbing sphere, so the
    # partial sums of S0 never decrease
    for rho in (0.05, 0.3, 0.64, 1.5):
        with monkeypatch.context() as patch:
            partial = [partial_sums(patch, rho, GOLD_EPS, orders)[0]
                       for orders in range(1, 31)]
        assert all(a <= b for a, b in zip(partial, partial[1:]))
        s0, _, _ = absorption_sums(rho, GOLD_EPS)
        assert s0 > 0.0


def test_partial_sum_tail_convergence():
    grating = default_grating()
    species = gold_cluster(1e8)
    profile = absorption_profile(species, grating, flux=1.0)
    assert profile.truncation_order <= 50
    assert profile.n0 >= abs(profile.n1)


def test_modulation_ratio_decreases_with_rho():
    ratios = []
    for rho in (0.01, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0):
        s0, s1, _ = absorption_sums(rho, GOLD_EPS)
        ratios.append(s1 / s0)
    assert ratios[0] == pytest.approx(1.0, abs=0.01)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


@pytest.mark.parametrize("rho", [0.1, 0.3, 0.6377])
def test_position_average_matches_traveling_wave_mie(rho):
    # n0 of the standing wave equals the running-wave Mie absorption:
    # S0 = sum (2l+1) pi / rho (sigma_E - sigma_H) = k^2 C_abs / 2 ... both
    # expressed here as the dimensionless (pi/rho-weighted) sums.
    s0, _, _ = absorption_sums(rho, GOLD_EPS)
    oracle = mie_absorption_cross_section_oracle(rho, GOLD_EPS)
    # oracle is k^2 C_abs / 2pi * ... : (2 pi / k^2) * oracle = C_abs, and
    # S0 should equal k^2 C_abs / 2 = pi * oracle
    assert s0 == pytest.approx(math.pi * oracle, rel=1e-8)


def test_a_rayleigh_sphere_of_large_permittivity_has_a_profile():
    # rho ~ 3e-54: an error of 5e-12 in S1 puts n1 above n0 (1 + 1e-12)
    species = ClusterSpecies.from_amu(5.489919081653643e-141, GOLD_DENSITY, 1e5 + 1j)
    profile = absorption_profile(species, GratingConfig(1e-3))
    assert 0.0 < profile.n1 <= profile.n0


@pytest.mark.parametrize("eps", [1e5 + 1j, 1e4 + 1j, 1e3 + 1j, GOLD_EPS, 1.5 + 0.01j])
def test_no_sub_period_sphere_has_n1_above_n0(eps):
    # 600 masses from 1e-290 to 1e12 amu at 1 mm and 157 nm: rho from 4e-104 to pi
    refused = []
    for wavelength in (1e-3, 157e-9):
        grating = GratingConfig(wavelength)
        for k in range(600):
            species = ClusterSpecies.from_amu(10.0 ** (-290.0 + 302.0 * k / 599),
                                              GOLD_DENSITY, eps)
            if cluster_radius(species) >= grating.period:
                continue
            try:
                absorption_profile(species, grating)
            except DomainError as err:
                if "sqrt(eps)" not in str(err):  # past the Bessel bound is refused
                    refused.append((wavelength, species.mass_amu))
    assert refused == []


def test_geometry_guard_rejects_large_sphere():
    grating = default_grating()
    huge = gold_cluster(1e11)  # R > 78.5 nm
    with pytest.raises(GeometryError):
        absorption_profile(huge, grating)
    # a flux solve reads the profile before the target, so the guard holds at any target
    for target in (0.85, 1.9, 0.0, math.nan):
        with pytest.raises(GeometryError):
            flux_for_target_visibility(huge, grating, target)


def test_multipole_components_domain_errors():
    with pytest.raises(DomainError):
        absorption_sums(-0.5, GOLD_EPS)
    with pytest.raises(DomainError):
        absorption_sums(0.5, 1.0 - 0.1j)
    with pytest.raises(DomainError, match="sqrt"):
        absorption_sums(3.0, 2e4 + 1j)


@pytest.mark.parametrize("rho, eps", [
    *[(rho, eps) for eps in (GOLD_EPS, 1.5 + 0.01j)
      for rho in (0.001, 0.05, 0.3, 1.0, 2.0, 3.1)],
    # a large permittivity at small rho, where u j_(l-1)(u rho) / j_l(u rho),
    # u = sqrt(eps), is nearly real: the magnetic term is its imaginary part
    *[(rho, eps) for eps in (1e3 + 1j, 1e5 + 1j) for rho in (1e-4, 1e-10)],
    (0.5, 1e5 + 1j),
])
def test_both_sums_match_the_mpmath_standing_wave_oracle(rho, eps):
    s0, s1, _ = absorption_sums(rho, eps)
    o0, o1 = standing_wave_sums_oracle(rho, eps)
    assert s0 == pytest.approx(o0, rel=1e-12, abs=0.0)
    assert s1 == pytest.approx(o1, rel=1e-12, abs=0.0)


def _log_uniform(lo, hi):
    return st.floats(min_value=math.log10(lo), max_value=math.log10(hi)).map(lambda e: 10.0 ** e)


# the order loop's squares and tail bound, over the sub-period range of gold
# and over the large permittivity whose magnetic term is a small imaginary part
@given(st.one_of(st.tuples(_log_uniform(1e-6, math.pi), st.just(GOLD_EPS)),
                 st.tuples(_log_uniform(1e-6, 1e-3), st.just(1e5 + 1j))))
@settings(max_examples=12, deadline=None)
def test_the_sums_match_the_oracle_at_any_sub_period_rho(case):
    rho, eps = case
    s0, s1, _ = absorption_sums(rho, eps)
    o0, o1 = standing_wave_sums_oracle(rho, eps)
    assert s0 == pytest.approx(o0, rel=1e-12, abs=0.0)
    assert s1 == pytest.approx(o1, rel=1e-12, abs=0.0)


def test_the_sums_resolve_n0_minus_n1_of_a_rayleigh_sphere():
    # S0 - S1 is 2e-17 of S0 here, so the magnetic term must come without cancellation
    s0, s1, _ = absorption_sums(1e-10, 1e3 + 1j)
    o0, o1 = standing_wave_sums_oracle(1e-10, 1e3 + 1j)
    assert s0 - s1 == pytest.approx(o0 - o1, rel=1e-9, abs=0.0)


def _record_budgets(monkeypatch):
    # each budget builds the Bessel ratios D_l one order past it
    budgets = []
    ratios = mie._jn_ratio_pass

    def spy(lmax, w):
        budgets.append(lmax - 1)
        return ratios(lmax, w)

    monkeypatch.setattr(mie, "_jn_ratio_pass", spy)
    return budgets


@pytest.mark.parametrize("rho", [0.01, 0.5, 3.1])
def test_a_short_first_budget_doubles_to_the_same_sums(monkeypatch, rho):
    budgets = _record_budgets(monkeypatch)
    expected = absorption_sums(rho, GOLD_EPS)
    assert budgets == [16]  # the first budget suffices for gold below the guard
    budgets.clear()
    monkeypatch.setattr(mie, "_FIRST_BUDGET", 2)
    assert absorption_sums(rho, GOLD_EPS) == expected
    assert budgets == [2 ** k for k in range(1, len(budgets) + 1)]
    assert budgets[-2] < expected[2] <= budgets[-1]


def test_a_low_loss_sphere_near_the_guard_takes_the_second_budget(monkeypatch):
    # Re(eps) near -1, where the surface modes of high order resonate
    budgets = _record_budgets(monkeypatch)
    rho, eps = 3.1415926532702474, -0.9865248639787698 + 2.3468932193529946e-06j
    s0, s1, used = absorption_sums(rho, eps)
    assert budgets == [16, 32] and used == 17
    o0, o1 = standing_wave_sums_oracle(rho, eps)
    assert s0 == pytest.approx(o0, rel=1e-12, abs=0.0)
    assert s1 == pytest.approx(o1, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("rho, eps", [(1e100, 1e-300), (1e200, 0.0), (256.5, 0.0)])
def test_a_sphere_past_the_order_cap_is_refused_before_any_power(rho, eps):
    # the order cap cannot reach l > rho, where the terms fall off
    with pytest.raises(DomainError) as refused:
        absorption_sums(rho, eps)
    assert str(refused.value) == f"rho must be at most 256, got {rho}"


def test_a_sum_that_never_meets_its_tail_test_stops_at_the_cap(monkeypatch, tmp_path):
    monkeypatch.setattr(mie, "_TAIL_TOL", 0.0)
    budgets = _record_budgets(monkeypatch)
    with pytest.raises(NonConvergenceError, match="l=255 "):
        absorption_sums(0.5, GOLD_EPS)
    assert budgets == [16, 32, 64, 128, mie._LMAX]
    with pytest.raises(NonConvergenceError):
        absorption_profile(gold_cluster(1e6), default_grating())
    out = tmp_path / "observables.json"
    assert main(["observables", "--out", str(out)]) == EXIT_NONCONVERGENCE
    assert not out.exists()


def test_a_degenerate_denominator_is_a_resonance(monkeypatch, tmp_path):
    monkeypatch.setattr(mie, "_DEGENERATE_DEN", 1e300)
    with pytest.raises(ResonanceError):
        absorption_sums(0.5, GOLD_EPS)
    out = tmp_path / "observables.json"
    assert main(["observables", "--out", str(out)]) == EXIT_NONCONVERGENCE
    assert not out.exists()


def test_a_flux_solve_and_its_observables_evaluate_the_sums_once(monkeypatch):
    calls = []
    sums = mie.absorption_sums

    def spy(rho, eps):
        calls.append(rho)
        return sums(rho, eps)

    monkeypatch.setattr(mie, "absorption_sums", spy)
    species, grating = gold_cluster(1e7), default_grating()
    flux = flux_for_target_visibility(species, grating, 0.85)
    observables(species, grating, flux)
    assert len(calls) == 1


def test_the_sums_cache_changes_no_profile_or_observable():
    species, grating = gold_cluster(1e7), default_grating()
    flux = flux_for_target_visibility(species, grating, 0.85)
    outputs = (lambda: absorption_profile(species, grating, 1.0),
               lambda: absorption_profile(species, grating, 3.7),
               lambda: observables(species, grating, flux))
    warm = [output() for output in outputs]
    assert mie._unit_sums.cache_info().hits == 3
    for output, expected in zip(outputs, warm):
        mie._unit_sums.cache_clear()
        assert output() == expected


@pytest.mark.parametrize("n1", [2.0, -2.0])
def test_a_profile_modulated_past_its_mean_is_refused(n1):
    # n(x) = n0 + n1 cos(2 pi x / d) would go negative where |n1| > n0
    with pytest.raises(DomainError, match=r"n\(x\) would go negative"):
        AbsorptionProfile(1.0, n1, 3)
