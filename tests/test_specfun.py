import cmath
import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cslsim.errors import DomainError
from cslsim.interferometer import transmissivity
from cslsim.specfun import (
    _jn_ratio_pass,
    bessel_I_scaled,
    spherical_hankel_array,
    spherical_jn_array,
)
from oracles import bessel_I, spherical_bessel_j, spherical_hankel_h1, spherical_yn_array


# -- independent oracles ------------------------------------------------------

def jl_series_oracle(ell, z, terms=60):
    """Truncated ascending series sum_m (-1)^m z^(2m+l) / (2^m m! (2l+2m+1)!!)."""
    z = complex(z)
    lead = 1.0 + 0.0j
    for k in range(1, ell + 1):
        lead *= z / (2 * k + 1)
    total = 0.0 + 0.0j
    term = lead
    for m in range(terms):
        total += term
        term *= -0.5 * z * z / ((m + 1) * (2 * ell + 2 * m + 3))
    return total


def iv_series_oracle(order, x, terms=80):
    total = 0.0
    for m in range(terms):
        total += (x / 2.0) ** (2 * m + order) / (
            math.factorial(m) * math.factorial(m + order))
    return total


# -- spherical Bessel j -------------------------------------------------------

def test_j0_complex_closed_form():
    z = 1.0 + 1.0j
    expected = cmath.sin(z) / z
    assert spherical_bessel_j(0, z) == pytest.approx(expected, rel=1e-14)
    assert expected.real == pytest.approx(0.96671, abs=5e-5)
    assert expected.imag == pytest.approx(-0.33175, abs=5e-5)


def test_j_limiting_values_at_zero():
    assert spherical_bessel_j(0, 0.0) == 1.0
    assert spherical_bessel_j(1, 0.0) == 0.0
    assert spherical_bessel_j(7, 0.0) == 0.0


def test_j2_real_against_series_oracle():
    value = spherical_bessel_j(2, 5.0)
    expected = jl_series_oracle(2, 5.0)
    assert value.real == pytest.approx(expected.real, rel=1e-10)
    assert abs(value.imag) < 1e-15


@pytest.mark.parametrize("z", [0.01, 0.5 + 0.2j, 3.0, 2.0 - 1.5j, 10.0 + 4.0j, 50.0])
@pytest.mark.parametrize("ell", [1, 2, 5, 12])
def test_j_three_term_recurrence(ell, z):
    js = spherical_jn_array(ell + 1, z)
    lhs = js[ell - 1] + js[ell + 1]
    rhs = (2 * ell + 1) / complex(z) * js[ell]
    scale = max(abs(lhs), abs(rhs), 1e-280)
    assert abs(lhs - rhs) / scale < 1e-10


def test_j_small_argument_no_underflow_surprises():
    # z^l / (2l+1)!! limit honored for tiny arguments
    value = spherical_bessel_j(3, 1e-8)
    expected = (1e-8) ** 3 / (3 * 5 * 7)
    assert value.real == pytest.approx(expected, rel=1e-10)


def test_j_series_oracle_complex():
    for ell in (0, 1, 4):
        z = 0.8 + 0.6j
        assert spherical_bessel_j(ell, z) == pytest.approx(
            jl_series_oracle(ell, z), rel=1e-12)


def test_j_rejects_nonfinite():
    with pytest.raises(DomainError):
        spherical_bessel_j(0, complex(float("nan"), 0.0))
    with pytest.raises(DomainError):
        spherical_bessel_j(0, complex(1.0, float("inf")))


def test_j_real_argument_is_real():
    value = spherical_bessel_j(6, 2.5)
    assert value.imag == 0.0


# -- spherical Hankel h1 ------------------------------------------------------

def test_h0_closed_form():
    x = 1.0
    expected = -1.0j * cmath.exp(1.0j * x) / x
    assert spherical_hankel_h1(0, x) == pytest.approx(expected, rel=1e-13)


def test_y0_leading_behavior_near_zero():
    x = 1e-4
    y0 = spherical_hankel_h1(0, x).imag
    assert y0 == pytest.approx(-math.cos(x) / x, rel=1e-12)
    assert y0 < -1e3


@pytest.mark.parametrize("x", [0.5, 2.0, 10.0])
def test_wronskian_identity(x):
    # j_l(x) y_{l-1}(x) - j_{l-1}(x) y_l(x) = 1/x^2
    js = spherical_jn_array(20, x)
    ys = spherical_yn_array(20, x)
    for ell in range(1, 21):
        w = js[ell].real * ys[ell - 1] - js[ell - 1].real * ys[ell]
        assert w == pytest.approx(1.0 / (x * x), rel=1e-10)


def _jl_part(x):
    return [h.real for h in spherical_hankel_array(40, x)]


@pytest.mark.parametrize("x", [1e-5, 3e-3, 0.2, 1.0, 2.5, math.pi])
def test_real_pass_of_hankel_matches_mpmath(x):
    with mp.workdps(30):
        for ell, jl in enumerate(_jl_part(x)):
            ref = float(mp.sqrt(mp.pi / (2 * mp.mpf(x)))
                        * mp.besselj(ell + mp.mpf(1) / 2, x))
            if abs(ref) > 1e-250:
                assert abs(jl - ref) <= 1e-13 * abs(ref), ell


@pytest.mark.parametrize("z", [15.023651178626412, 20.0, 15.0 + 1.0j, 100.0])
@pytest.mark.parametrize("lmax", [5, 17, 60])
def test_j_array_matches_mpmath_where_the_argument_is_large(z, lmax):
    # |z| beyond the Mie domain, where a start order fixed above lmax
    # leaves the trial's error well above rounding
    with mp.workdps(40):
        for ell, jl in enumerate(spherical_jn_array(lmax, z)):
            ref = complex(mp.sqrt(mp.pi / (2 * mp.mpmathify(z)))
                          * mp.besselj(ell + mp.mpf(1) / 2, z))
            assert abs(jl - ref) <= 1e-12 * abs(ref), ell


@pytest.mark.parametrize("z", [math.pi, 4.493409457909064, 4.493409457909064 + 1e-9j,
                               5.76345919689455])
def test_j_array_matches_mpmath_at_a_zero_of_j0_j1_or_j2(z):
    # the anchor: j_0 is zero at pi and j_1 at 4.4934..; the ratio r_3 =
    # j_2 / j_3 rounds to exactly 0 at the double nearest the zero of j_2
    with mp.workdps(40):
        ref = [complex(mp.sqrt(mp.pi / (2 * mp.mpmathify(z)))
                       * mp.besselj(ell + mp.mpf(1) / 2, z)) for ell in range(22)]
    for ell, jl in enumerate(spherical_jn_array(20, z)):
        scale = max(abs(v) for v in ref[max(ell - 1, 0):ell + 2])
        assert abs(jl - ref[ell]) <= 1e-13 * scale, ell


@pytest.mark.parametrize("z", [0.3 + 0.2j, 2.0, 5.0 + 3.0j])
def test_ratios_match_mpmath(z):
    # the Mie pass returns D_l = z j_(l-1)(z) / j_l(z) from w = z^2
    with mp.workdps(40):
        ref = [complex(mp.besselj(ell + mp.mpf(1) / 2, z)) for ell in range(18)]
    for ell, d in enumerate(_jn_ratio_pass(17, complex(z) ** 2), 1):
        r = d / z
        assert abs(r - ref[ell - 1] / ref[ell]) <= 1e-13 * abs(r), ell


def test_the_ratio_pass_at_a_w_that_rounds_to_zero_is_the_small_z_limit():
    # below |z| ~ 1e-154, z^2 underflows to 0: D_l = 2l + 1, no division by 0
    assert (1e-200 + 0j) ** 2 == 0
    assert _jn_ratio_pass(17, 0j) == [2 * ell + 1 for ell in range(1, 18)]


@pytest.mark.parametrize("z", [1e6, 1e12, 1000j, -300.0])
def test_j_rejects_an_argument_beyond_the_order_cap(z):
    # the downward pass takes O(|z|) steps; 1e12 would never return
    for f in (spherical_jn_array, spherical_bessel_j):
        with pytest.raises(DomainError):
            f(2, z)
    with pytest.raises(DomainError):
        spherical_hankel_h1(2, z)


def test_h1_rejects_nonpositive():
    with pytest.raises(DomainError):
        spherical_hankel_h1(0, 0.0)
    with pytest.raises(DomainError):
        spherical_hankel_h1(2, -1.0)


@pytest.mark.parametrize("lmax,x", [(1, 5.6e-252), (1, 1e-160), (3, 1e-100), (0, 5e-324)])
def test_hankel_refuses_a_y_past_the_float_range(lmax, x):
    # x * x underflows to 0 at 5.6e-252; y_1 overflows at 1e-160 and y_3 at 1e-100
    with pytest.raises(DomainError, match=re.escape(f"x = {x} for lmax = {lmax}")):
        spherical_hankel_array(lmax, x)


# -- modified Bessel I --------------------------------------------------------

def test_bessel_I_at_zero():
    assert bessel_I(0, 0.0) == 1.0
    assert bessel_I(1, 0.0) == 0.0
    assert bessel_I(2, 0.0) == 0.0


def test_bessel_I1_series_value():
    assert bessel_I(1, 2.0) == pytest.approx(1.5906368546, rel=1e-10)
    assert bessel_I(1, 2.0) == pytest.approx(iv_series_oracle(1, 2.0), rel=1e-12)


@pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
def test_bessel_I_recurrence_identity(x):
    # I0(x) - I2(x) = 2 I1(x) / x
    lhs = bessel_I(0, x) - bessel_I(2, x)
    rhs = 2.0 * bessel_I(1, x) / x
    assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_bessel_I_series_oracle_grid(order):
    for x in np.linspace(0.05, 25.0, 40):
        assert bessel_I(order, float(x)) == pytest.approx(
            iv_series_oracle(order, float(x)), rel=1e-12)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_bessel_I_scaled_branch_agreement(order):
    # series and asymptotic branches must agree on an overlap region
    from cslsim.specfun import _iv012_scaled, _iv_asymptotic_scaled
    for x in (30.0, 40.0, 60.0):
        assert _iv012_scaled(x)[order] == pytest.approx(
            _iv_asymptotic_scaled(order, x), rel=1e-13)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_fused_triple_matches_series_oracle(order):
    from cslsim.specfun import _iv012_scaled
    assert _iv012_scaled(0.0) == (1.0, 0.0, 0.0)
    for x in np.linspace(0.0, 30.0, 241)[1:-1]:
        x = float(x)
        assert _iv012_scaled(x)[order] == pytest.approx(
            iv_series_oracle(order, x) * math.exp(-x), rel=1e-13)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_bessel_I_scaled_reads_the_fused_triple_below_the_crossover(order):
    # one ascending series serves every order below x = 30
    from cslsim.specfun import _iv012_scaled
    for x in (0.0, 1e-300, 0.5, 3.0, 20.0, 25.0, 29.99, math.nextafter(30.0, 0.0)):
        assert bessel_I_scaled(order, x) == _iv012_scaled(x)[order]


def test_bessel_I_scaled_large_argument_finite():
    for x in (100.0, 500.0, 5000.0):
        v = bessel_I_scaled(0, x)
        assert 0.0 < v < 1.0
    # ln I_0 = x + ln(exp(-x) I_0) keeps the transmissivity finite on the asymptotic branch
    assert 0.0 < transmissivity(500.0, 500.0) < math.inf


@given(st.tuples(st.floats(min_value=0.0, max_value=60.0),
                 st.floats(min_value=1e-6, max_value=5.0)),
       st.sampled_from([0, 1, 2]))
@settings(max_examples=60, deadline=None)
def test_bessel_I_monotone_increasing(pair, order):
    x, dx = pair
    assert bessel_I_scaled(order, x + dx) * math.exp(dx) > bessel_I_scaled(order, x) * (1.0 - 1e-12)
    assert bessel_I(order, min(x, 600.0) + dx) >= bessel_I(order, min(x, 600.0))


def test_bessel_I_rejects_negative():
    with pytest.raises(DomainError):
        bessel_I(0, -0.5)
    with pytest.raises(DomainError):
        bessel_I(3, 1.0)


def test_a_visibility_and_its_transmissivity_sum_the_series_once():
    from cslsim.interferometer import transmissivity, visibility
    from cslsim.specfun import _iv012_scaled
    _iv012_scaled.cache_clear()
    visibility(1.7)
    assert _iv012_scaled.cache_info().misses == 1
    transmissivity(5.0, 1.7)
    assert _iv012_scaled.cache_info().misses == 1


@pytest.mark.parametrize("first", [0.0, -0.0])
def test_the_sign_of_a_zero_argument_does_not_reach_the_cached_series(first):
    # -0.0 and 0.0 are one cache key; whichever comes first, I_1(0) is +0.0
    for x in (first, -first):
        assert math.copysign(1.0, bessel_I_scaled(1, x)) == 1.0


@pytest.mark.parametrize("layer", ["specfun", "mie", "interferometer", "params", "errors",
                                   "csl", "decoherence"])
def test_every_public_function_is_called_by_the_package_or_timed(layer):
    # a helper that only tests call belongs in tests/oracles.py; the package
    # root's re-export is no call, a call in the benchmark's workloads is
    import ast
    import importlib
    import inspect
    from pathlib import Path

    import perfbench
    from perfbench.tracing import WRAPPED, package_modules

    module = importlib.import_module(f"cslsim.{layer}")
    bound = {id(value) for other in package_modules()
             if other is not module and other.__name__ != "cslsim"
             for value in vars(other).values()}
    # the module's own calls, leaving out a function's calls to itself
    called = {node.func.id for top in ast.parse(inspect.getsource(module)).body
              for node in ast.walk(top)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id != getattr(top, "name", None)}
    workloads = Path(perfbench.__file__).with_name("workloads.py").read_text()
    timed = set(re.findall(r"\bcslsim\.(\w+)\(", workloads)) | set(WRAPPED.get(layer, ()))
    unused = [name for name, f in inspect.getmembers(module, inspect.isfunction)
              if f.__module__ == module.__name__ and not name.startswith("_")
              and id(f) not in bound and name not in called | timed]
    assert unused == []
