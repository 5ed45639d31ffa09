"""Reference computations the tests compare the package against.

Each one re-derives a package result by a different method, and none of
them is called by the package itself.  The single-order accessors at the
end only index the package's array functions, for the identity tests.
"""

import math

import mpmath as mp
import numpy as np

from cslsim.errors import DomainError
from cslsim.params import ClusterSpecies, CslParams, GratingConfig, cluster_radius
from cslsim.specfun import bessel_I_scaled, spherical_hankel_array, spherical_jn_array


def csl_decay_rate_oracle(separation, csl: CslParams, mass: float):
    """Off-diagonal decay rate lambda0 (m/m0)^2 [1 - exp(-Dx^2 / 4 r_c^2)]
    at path separation Dx, a number or an array."""
    return csl.lambda0 * (mass / csl.m0) ** 2 * (-np.expm1(-(separation / (2.0 * csl.r_c)) ** 2))


def csl_exponent_oracle(species: ClusterSpecies, grating: GratingConfig,
                        csl: CslParams, time_steps: int = 100_000) -> float:
    """Quadrature re-derivation of the visibility-reduction exponent.

    The two interferometer paths separate linearly from 0 to N d over the
    first N Talbot times and close again over the second; the exponent is
    the integral of the decay rate along that history.  Agreement with the
    closed form validates the reconstructed path history.
    """
    if time_steps < 1000:
        raise DomainError(f"time_steps must be >= 1000, got {time_steps}")
    n = grating.talbot_order
    t_half = n * grating.talbot_time_for_mass(species.mass)
    nd = n * grating.period
    # Simpson on the opening half; the closing half is its mirror image.
    sep = np.linspace(0.0, nd, time_steps + 1)
    rate = csl_decay_rate_oracle(sep, csl, species.mass)
    return 2.0 * _simpson(rate, t_half / time_steps)


def _simpson(y: np.ndarray, h: float) -> float:
    """Composite Simpson's rule over samples y at spacing h.

    An odd number of intervals takes Cartwright's three-point correction
    for the last one, h (5 y[-1] + 8 y[-2] - y[-3]) / 12.
    """
    n = y.size - 1
    m = n - n % 2
    total = h / 3.0 * (y[0] + 4.0 * y[1:m:2].sum() + 2.0 * y[2:m:2].sum() + y[m])
    if n % 2:
        total += h / 12.0 * (5.0 * y[-1] + 8.0 * y[-2] - y[-3])
    return float(total)


def csl_visibility_ratio_oracle(species: ClusterSpecies, grating: GratingConfig,
                                csl: CslParams, time_steps: int = 100_000) -> float:
    """exp(-exponent) with the exponent from the quadrature oracle."""
    return math.exp(-csl_exponent_oracle(species, grating, csl, time_steps))


def dipole_absorption_cross_section(species: ClusterSpecies,
                                    grating: GratingConfig) -> float:
    """Point-particle absorption cross section 4 pi k R^3 Im[(eps-1)/(eps+2)]."""
    radius = cluster_radius(species)
    eps = complex(species.permittivity)
    return (4.0 * math.pi * grating.wavenumber * radius ** 3
            * ((eps - 1.0) / (eps + 2.0)).imag)


def standing_wave_sums_oracle(rho: float, eps: complex,
                              lmax: int = 40) -> tuple[float, float]:
    """The standing-wave multipole sums (S0, S1) at 40 digits.

    The same series as `mie.absorption_sums`, to a fixed order and without
    a tail test, with j_l and h_l^(1) taken from mpmath's cylinder
    functions, j_l(z) = sqrt(pi / 2z) J_(l+1/2)(z), instead of the
    package's recurrences.
    """
    with mp.workdps(40):
        rho = mp.mpf(rho)
        eps = mp.mpc(eps)
        u = mp.sqrt(eps)
        if mp.im(u) < 0:
            u = -u

        def sph(bessel, n, z):
            return mp.sqrt(mp.pi / (2 * z)) * bessel(n + mp.mpf(1) / 2, z)

        js = [sph(mp.besselj, n, u * rho) for n in range(lmax + 2)]
        hs = [sph(mp.besselj, n, rho) + 1j * sph(mp.bessely, n, rho)
              for n in range(lmax + 2)]
        s0 = s1 = mp.mpf(0)
        for l in range(1, lmax + 1):
            sigma_e = (mp.im(eps * js[l] * mp.conj(u * rho * js[l - 1] - l * js[l]))
                       / abs(l * (eps - 1) * js[l] * hs[l]
                             + u * rho * (js[l - 1] * hs[l] - u * js[l] * hs[l - 1])) ** 2)
            sigma_h = (mp.im(u * mp.conj(js[l]) * js[l - 1])
                       / (rho * abs(js[l] * hs[l + 1] - u * js[l + 1] * hs[l]) ** 2))
            weight = (2 * l + 1) * mp.pi / rho
            s0 += weight * (sigma_e - sigma_h)
            s1 += weight * (-1) ** (l - 1) * (sigma_e + sigma_h)
        return float(s0), float(s1)


def iv_oracle(order: int, x: float, terms: int = 80) -> float:
    """I_order(x) from its ascending series, each order summed on its own."""
    total = 0.0
    term = (x / 2.0) ** order / math.factorial(order)
    for k in range(terms):
        total += term
        term *= (x / 2.0) ** 2 / ((k + 1) * (k + 1 + order))
        if term < total * 1e-17:
            break
    return total


def visibility_oracle(n1: float) -> float:
    """2 I_1^2 I_2 / I_0^3 from `iv_oracle`."""
    return 2.0 * iv_oracle(1, n1) ** 2 * iv_oracle(2, n1) / iv_oracle(0, n1) ** 3


def solve_oracle(target: float) -> float:
    """The n1 in [1e-150, 20] with V(n1) = target, by bisection on ln n1.

    V is compared as ln 2 + 2 ln(I_1/I_0) + ln(I_2/I_0), so a target down
    to the smallest subnormal, whose root is about 3e-81, is bisected as
    finely as one near 1; no Bessel ratio underflows above n1 = 1e-150.
    """
    ln_target = math.log(target)
    lo, hi = math.log(1e-150), math.log(20.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        n1 = math.exp(mid)
        i0 = iv_oracle(0, n1)
        ln_v = (math.log(2.0 * iv_oracle(2, n1) / i0)
                + 2.0 * math.log(iv_oracle(1, n1) / i0))
        if ln_v < ln_target:
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))


# -- single-order accessors ---------------------------------------------------

def spherical_bessel_j(ell: int, z) -> complex:
    return spherical_jn_array(ell, z)[ell]


def spherical_yn_array(lmax: int, x: float) -> list[float]:
    return [h.imag for h in spherical_hankel_array(lmax, x)]


def spherical_hankel_h1(ell: int, x: float) -> complex:
    return spherical_hankel_array(ell, x)[ell]


def bessel_I(order: int, x: float) -> float:
    return bessel_I_scaled(order, x) * math.exp(x)
