import math

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

import cslsim.interferometer as interferometer
from cslsim.errors import DomainError, UnachievableTargetError
from cslsim.interferometer import (
    FringeObservables,
    flux_for_target_visibility,
    observables,
    solve_modulation_for_visibility,
    transmissivity,
    visibility,
)
from cslsim.params import default_grating, gold_cluster
from oracles import iv_oracle, solve_oracle, visibility_oracle


def test_zero_modulation_gives_zero_visibility():
    assert visibility(0.0) == 0.0


def test_visibility_matches_series_oracle():
    for n1 in (0.5, 1.0, 4.0, 12.0):
        assert visibility(n1) == pytest.approx(visibility_oracle(n1), rel=1e-12)


def test_target_visibility_085_needs_n1_near_4():
    n1 = solve_modulation_for_visibility(0.85)
    assert n1 == pytest.approx(4.0, abs=0.1)
    assert n1 == pytest.approx(solve_oracle(0.85), rel=1e-8)
    assert visibility(n1) == pytest.approx(0.85, abs=1e-9)


@pytest.mark.parametrize("target", [1e-12, 1e-4, 0.5, 0.85, 1.7])
def test_solve_matches_bisection_oracle(target):
    assert solve_modulation_for_visibility(target) == pytest.approx(
        solve_oracle(target), rel=1e-8)


def test_solve_needs_few_visibility_calls():
    # the solve calls no `visibility`: it stops at |ln V - ln V_target| <=
    # 1e-13 on its own fused series, so the public visibility at its root
    # must meet that stop, give or take rounding between the two formulas
    for k in range(25):
        target = 0.5 + 1.2 * k / 24
        n1 = solve_modulation_for_visibility(target)
        assert abs(math.log(visibility(n1)) - math.log(target)) <= 2e-13


# log-spaced over [1e-12, 1], linear over [1, V(20)), and the last double
# below the bracket top
_TOP = interferometer._V_BRACKET_MAX
_BELOW_TOP = math.nextafter(_TOP, 0.0)
SOLVE_TARGETS = ([10.0 ** (-12 + 12 * k / 1001) for k in range(1002)]
                 + [1.0 + (_TOP - 1.0) * k / 1001 for k in range(1001)]
                 + [_BELOW_TOP])
# the band of visibilities that perfbench's point_reports draws from
BAND_TARGETS = [0.80 + 0.10 * k / 500 for k in range(501)]


@pytest.fixture
def triple_calls(monkeypatch):
    calls = []
    triple = interferometer._iv012_scaled

    def counted(x):
        calls.append(x)
        return triple(x)

    monkeypatch.setattr(interferometer, "_iv012_scaled", counted)
    return calls


def test_solve_needs_few_fused_bessel_passes(triple_calls):
    for target in SOLVE_TARGETS:
        # SOLVE_TARGETS holds 1.0 twice, and a memo hit makes no pass
        interferometer._solve_n1.cache_clear()
        triple_calls.clear()
        solve_modulation_for_visibility(target)
        assert 1 <= len(triple_calls) <= 8


@pytest.mark.parametrize("targets,most", [(SOLVE_TARGETS, 4), (BAND_TARGETS, 3)],
                         ids=["grid", "band"])
def test_halley_steps_bound_the_fused_passes(triple_calls, targets, most):
    for target in targets:
        interferometer._solve_n1.cache_clear()
        triple_calls.clear()
        solve_modulation_for_visibility(target)
        assert 1 <= len(triple_calls) <= most, target


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.floats(math.log(5e-324), math.log(_BELOW_TOP)).map(
        lambda s: min(max(math.exp(s), 5e-324), _BELOW_TOP)),
    st.sampled_from([5e-324, math.nextafter(0.3, 0.0), 0.3, math.nextafter(0.3, 1.0),
                     _BELOW_TOP])))
def test_solve_over_extreme_targets_matches_the_oracle(target):
    n1 = solve_modulation_for_visibility(target)
    assert 0.0 <= n1 <= 20.0
    assert n1 == pytest.approx(solve_oracle(target), rel=1e-10)


def test_solve_matches_bisection_oracle_on_a_dense_grid():
    for k in range(241):
        target = 10.0 ** (-12 + 12 * k / 200) if k <= 200 else (
            1.0 + (interferometer._V_BRACKET_MAX - 1.0) * (k - 200) / 41)
        assert solve_modulation_for_visibility(target) == pytest.approx(
            solve_oracle(target), rel=1e-10)


def test_bracket_top_visibility_is_the_visibility_at_the_bracket_top():
    assert interferometer._N1_BRACKET_MAX == 20.0
    assert interferometer._V_BRACKET_MAX == visibility(20.0)
    # just below the top is solvable, the top itself is refused
    below = math.nextafter(interferometer._V_BRACKET_MAX, 0.0)
    assert solve_modulation_for_visibility(below) == pytest.approx(20.0, rel=1e-6)
    with pytest.raises(UnachievableTargetError):
        solve_modulation_for_visibility(interferometer._V_BRACKET_MAX)


def test_visibility_saturates_at_two():
    assert visibility(1e3) == pytest.approx(2.0, rel=0.01)


def test_visibility_monotone_on_bracket():
    grid = [0.02 * i for i in range(1, 1001)]
    values = [visibility(x) for x in grid]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_transmissivity_limits():
    assert transmissivity(0.0, 0.0) == 1.0
    assert transmissivity(1.0, 0.0) == pytest.approx(math.exp(-3.0), rel=1e-14)
    # T(n0, n1) = exp(-3 n0) I0(n1)^3
    assert transmissivity(4.0, 4.0) == pytest.approx(
        math.exp(-12.0) * iv_oracle(0, 4.0) ** 3, rel=1e-12)
    assert transmissivity(4.0, 4.0) == pytest.approx(8.9e-3, rel=0.01)


def test_transmissivity_rejects_unphysical_modulation():
    with pytest.raises(DomainError):
        transmissivity(1.0, 2.0)


def test_transmissivity_monotone_in_n0():
    for n1 in (0.0, 1.0, 3.0):
        values = [transmissivity(n0, n1) for n0 in (n1, n1 + 1, n1 + 2, n1 + 5)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_transmissivity_finite_at_high_mean_absorption():
    t = transmissivity(300.0, 300.0)
    assert 0.0 < t < 1.0 and math.isfinite(t)


@pytest.mark.parametrize("n0, n1", [(2.9e307, 2.9e307), (1e308, 1e308),
                                     (1.7e308, 1e308), (1.7976931348623157e308, 6e307)])
def test_observables_stay_defined_at_a_modulation_near_the_float_range(n0, n1):
    # above x = 2.87e307, 2 pi x overflows, and above n0 = 6e307 so does 3 n0
    assert visibility(n1) == 2.0
    assert 0.0 <= transmissivity(n0, n1) <= 1.0


@pytest.mark.parametrize("x", [1e15, 1e20, 1e300, 2.9e307])
def test_transmissivity_at_a_large_equal_n0_and_n1_is_the_asymptote(x):
    # T(x, x) = (exp(-x) I0(x))^3 ~ (2 pi x)^(-3/2) (1 + 1 / (8 x))^3, with
    # no cancellation between -3 n0 and 3 x; 0 where the asymptote underflows
    expected = float(mp.power(2 * mp.pi * mp.mpf(x), -1.5) * (1 + 1 / (8 * mp.mpf(x))) ** 3)
    assert transmissivity(x, x) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_observables_read_the_amplitude_of_an_antiphase_modulation():
    # for gold at 157 nm, n1 < 0 between about 2.16e9 and 9.3e9 amu
    obs = observables(gold_cluster(3e9), default_grating(), 1.0)
    assert obs.n1 < 0.0
    assert obs.visibility == visibility(abs(obs.n1)) > 1.99
    assert obs.transmissivity == transmissivity(obs.n0, abs(obs.n1))


def test_observables_struct():
    grating = default_grating()
    species = gold_cluster(1.9697e5)
    obs = observables(species, grating, flux=2.4204)
    assert isinstance(obs, FringeObservables)
    assert obs.visibility == visibility(obs.n1)
    assert obs.transmissivity == transmissivity(obs.n0, obs.n1)


@pytest.mark.parametrize("mass_amu", [1e5, 1.9697e5, 1e6, 1e7, 1.9697e8])
def test_flux_round_trip_restores_target_visibility(mass_amu):
    grating = default_grating()
    species = gold_cluster(mass_amu)
    flux = flux_for_target_visibility(species, grating, 0.85)
    obs = observables(species, grating, flux)
    assert obs.visibility == pytest.approx(0.85, abs=1e-6)


def test_unachievable_target_raises():
    # outside (0, 2) is no visibility at all; [V(20), 2) is past the branch
    with pytest.raises(DomainError):
        solve_modulation_for_visibility(2.5)
    with pytest.raises(DomainError):
        solve_modulation_for_visibility(-0.1)
    with pytest.raises(UnachievableTargetError):
        solve_modulation_for_visibility(1.9)


@pytest.mark.parametrize("target", [None, "0.5", [0.5], math.nan, 0.0, -1.0, 2.0, 2.5])
def test_solve_refuses_a_target_outside_0_2_before_its_cache(target):
    with pytest.raises(DomainError, match=r"target visibility must lie in \(0, 2\)"):
        solve_modulation_for_visibility(target)
    info = interferometer._solve_n1.cache_info()
    assert info.hits + info.misses == 0


def test_a_halley_step_out_of_the_bracket_falls_back_to_bisection():
    # at this target one Halley step leaves [lo, hi]: the bisection that
    # replaces it must still meet the solve's tolerance
    target = 1.2841663251903503e-278
    n1 = solve_modulation_for_visibility(target)
    assert abs(math.log(visibility(n1)) - math.log(target)) <= 1e-13


@pytest.mark.parametrize("target", [None, "0.5", [0.5]])
def test_flux_refuses_a_target_that_is_not_a_number(target):
    # before the cached solve, whose cache cannot key a list
    with pytest.raises(DomainError, match=r"target visibility must lie in \(0, 2\)"):
        flux_for_target_visibility(gold_cluster(1e6), default_grating(), target)
    info = interferometer._solve_n1.cache_info()
    assert info.hits + info.misses == 0

