"""Fringe observables of the three-pulse interferometer.

Sinusoidal visibility and three-grating transmissivity from the absorbed
photon parameters (n0, n1), plus the inverse problem of picking the pulse
flux that realizes a target visibility.
"""

from __future__ import annotations

import functools
import math

from .errors import DomainError, UnachievableTargetError, finite, open_interval
from .mie import absorption_profile
from .params import ClusterSpecies, GratingConfig, _value_type
from .specfun import _iv012_scaled, bessel_I_scaled

# The visibility is inverted only on its first monotone branch; the
# experiment operates far below the upper end of this bracket.
_N1_BRACKET_MAX = 20.0
_V_BRACKET_MAX = 1.714781193459301  # visibility(_N1_BRACKET_MAX)


class FringeObservables(_value_type("FringeObservables", "visibility transmissivity n0 n1")):
    """Visibility, transmissivity, and the absorption parameters behind them."""

    __slots__ = ()


def visibility(n1: float) -> float:
    """Sinusoidal fringe visibility 2 I_1^2(n1) I_2(n1) / I_0^3(n1).

    Independent of the Talbot order.  Evaluated as 2 (I_1/I_0)^2 (I_2/I_0)
    from exponentially scaled Bessels, so it stays finite for every n1 and
    tends to 2.
    """
    n1 = finite("n1", n1, True)
    i0 = bessel_I_scaled(0, n1)
    i1 = bessel_I_scaled(1, n1)
    i2 = bessel_I_scaled(2, n1)
    return 2.0 * (i1 / i0) ** 2 * (i2 / i0)


def transmissivity(n0: float, n1: float) -> float:
    """Neutral-cluster fraction exp(-3 n0) I_0^3(n1) after three pulses."""
    n0, n1 = finite("n0", n0, True), finite("n1", n1, True)
    if n1 > n0 * (1.0 + 1e-12):
        raise DomainError(f"n1={n1} > n0={n0} violates n(x) >= 0")
    # log-space: ln T = 3 ((x - n0) + ln(e^-x I0(x))), where x - n0 <= 0 neither
    # cancels nor overflows at a large n0 ~ n1
    x = min(n1, n0)
    return math.exp(3.0 * ((x - n0) + math.log(bessel_I_scaled(0, x))))


def observables(species: ClusterSpecies, grating: GratingConfig,
                flux: float | None = None) -> FringeObservables:
    """Fringe observables for a species in a given grating at a given flux."""
    profile = absorption_profile(species, grating, flux)
    # V and T are even in n1: they read the amplitude, and n1 keeps its sign
    return FringeObservables(
        visibility=visibility(abs(profile.n1)),
        transmissivity=transmissivity(profile.n0, abs(profile.n1)),
        n0=profile.n0,
        n1=profile.n1,
    )


def solve_modulation_for_visibility(v_target: float) -> float:
    """Invert the visibility for n1 on its first monotone branch.

    A target that is not a visibility in (0, 2) is a DomainError before the
    cache, which is keyed by the checked float.
    """
    return _solve_n1(open_interval("target visibility", v_target, 2.0))


# n1 depends on the target alone, and a sweep asks for one target for every mass
@functools.lru_cache(maxsize=1)
def _solve_n1(v_target: float) -> float:
    """n1 with V(n1) = v_target, for 0 < v_target < 2.

    Halley steps on g(s) = ln V - ln V_target against s = ln n1,
    ds = -2 g g' / (2 g'^2 - g g''), all read from one fused (I_0, I_1, I_2)
    series per step: with x = n1 and r_k = I_k / I_0, ln V = ln(2 r_2) +
    2 ln r_1, g' = x f - 4 with f = 2 / r_1 + r_1 / r_2 - 3 r_1, and
    g'' = x (f + x f'), where f' follows from r_1' = 1 - r_1 / x - r_1^2
    and r_2' = r_1 - 2 r_2 / x - r_1 r_2.  It starts from the small-n1 limit
    (16 V)^(1/4) below V = 0.3 and from the large-n1 limit
    6 / (2 - V) - 1 (V ~ 2 - 6 / n1) above, keeps the root bracketed in
    [0, _N1_BRACKET_MAX] and bisects whenever the Halley denominator is
    not positive or a step would leave the bracket; a step past the top
    tries the top first.  Stops once |ln V - ln V_target| <= 1e-13, so a
    small target is met to the same relative accuracy as a large one;
    bounded at 100 steps in case rounding stalls the residual above that,
    when it returns the last iterate.
    """
    if v_target >= _V_BRACKET_MAX:
        raise UnachievableTargetError(
            f"target visibility {v_target} is beyond the monotone branch "
            f"maximum V({_N1_BRACKET_MAX}) = {_V_BRACKET_MAX:.6f}")
    ln_target = math.log(v_target)
    x = (16.0 * v_target) ** 0.25 if v_target < 0.3 else 6.0 / (2.0 - v_target) - 1.0
    # hi starts one ulp above the top, so that the top itself can be tried:
    # for a target within rounding of V(20) every step overshoots it
    lo, hi = 0.0, math.nextafter(_N1_BRACKET_MAX, math.inf)
    for _ in range(100):
        i0, i1, i2 = _iv012_scaled(x)
        r1, r2 = i1 / i0, i2 / i0
        g = math.log(2.0 * r2) + 2.0 * math.log(r1) - ln_target
        if abs(g) <= 1e-13:
            break
        if g < 0.0:
            lo = x
        else:
            hi = x
        a, p = r1 / r2, 1.0 / r1 - 1.0 / x - r1  # r1/r2 and r1'/r1
        f = 2.0 / r1 + a - 3.0 * r1
        g1 = x * f - 4.0
        g2 = x * (f + x * (a * (1.0 / r1 + 1.0 / x - a) - p * (2.0 / r1 + 3.0 * r1)))
        den = 2.0 * g1 * g1 - g * g2  # a non-positive one sends x to lo: bisect
        x = min(x * math.exp(-2.0 * g * g1 / den), _N1_BRACKET_MAX) if den > 0.0 else lo
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
    return x


def flux_for_target_visibility(species: ClusterSpecies, grating: GratingConfig,
                               v_target: float) -> float:
    """Pulse flux that realizes the target visibility for this species.

    n1 is exactly linear in the flux and V is even in it, so one profile at
    unit flux and the solve for n1 fix it by a division by |n1|.  The
    profile comes first, so a sphere past the geometry guard is refused
    whatever the target.  A species whose profile has no modulation reaches
    no visibility at any flux.
    """
    unit = absorption_profile(species, grating, 1.0)
    n1_target = solve_modulation_for_visibility(v_target)
    if unit.n1 == 0.0:
        raise UnachievableTargetError(
            f"species {species.label!r} has no absorption modulation; "
            "cannot reach a nonzero visibility")
    return n1_target / abs(unit.n1)
