"""Standing-wave photon absorption of a dielectric sphere.

Supplies the mean absorbed-photon number n0 and its cosine modulation n1
per grating pulse from the electric/magnetic multipole sums, valid in the
sub-period regime R < d.
"""

from __future__ import annotations

import functools
import math

from .errors import (DomainError, GeometryError, NonConvergenceError, ResonanceError, finite,
                     finite_complex)
from .params import (PLANCK_H, SPEED_OF_LIGHT, ClusterSpecies, GratingConfig, _value_type,
                     cluster_radius)
from .specfun import MAX_ORDER, _jn_ratio_pass

_TAIL_TOL = 1e-10        # relative tail bound for the multipole sums
_TAIL_RUN = 5            # consecutive terms that must satisfy the bound
_LMAX = MAX_ORDER - 1    # sigma_H at order l reads D at l + 1
_DEGENERATE_DEN = 1e-30  # a smaller ratio-form |denominator|^2 is a resonance
# First order budget of the multipole sums: absorption_profile admits only
# rho = k R < pi, where the size estimate rho + 4 rho^(1/3) + 6 stays below
# 15 and gold's tail test stops by l = 15.  A low-loss sphere with Re(eps)
# near -1, where the high-order surface modes resonate, can need up to l = 19
# from rho ~ 2 on; a sum that needs more than the budget doubles it.
_FIRST_BUDGET = 16
# (l, 2l + 1) as floats, so that the order loop's arithmetic is float with float,
# which the interpreter runs faster than int with float, to the same bits
_ORDERS = [(1.0 * l, 2.0 * l + 1.0) for l in range(1, _LMAX + 1)]


class AbsorptionProfile(_value_type("AbsorptionProfile", "n0 n1 truncation_order")):
    """n(x) = n0 + n1 cos(2 pi x / d) for one species, grating, and flux,
    from multipole sums that converged at `truncation_order`.  n1 < 0 is a
    modulation in antiphase with the grating."""

    __slots__ = ()

    def __new__(cls, n0: float, n1: float, truncation_order: int):
        if n0 < abs(n1) * (1.0 - 1e-12):
            raise DomainError(f"n(x) would go negative: n0={n0}, n1={n1}")
        return tuple.__new__(cls, (n0, n1, truncation_order))


def absorption_sums(rho: float, eps: complex) -> tuple[float, float, int]:
    """Dimensionless multipole sums (S0, S1) and the order l they stopped at.

    S0 is the position-average series (all contributions of one sign for an
    absorbing sphere), S1 the alternating modulation series:

        S0 = sum_l (2l+1) pi / rho * (sigma_E - sigma_H)
        S1 = sum_l (2l+1) pi / rho * (-1)^(l-1) * (sigma_E + sigma_H)

    Both carry the common prefactor 4 F_L / (h nu_L k_L^2) in n0, n1.  With
    u = sqrt(eps), each order reads D_l = u rho j_(l-1)(u rho) / j_l(u rho),
    a function of w = eps rho^2 alone, so no square root is taken: one
    O(sqrt|w|) pass per budget (so |w| <= MAX_ORDER^2).  It reads h_l(rho)
    through moduli, carried upward as q_l = h_(l-1) / h_l and |1 / h_l|^2
    (relative error O(l eps_mach); |1 / h_l|^2 underflows to 0, never
    overflows).

    The sums stop once _TAIL_RUN consecutive terms fall below _TAIL_TOL of
    the partial sum.  A budget that runs out first is doubled, up to _LMAX,
    and the sums start again; sums that still fail the test at _LMAX raise
    NonConvergenceError, so only converged sums are returned.
    """
    # past rho = MAX_ORDER the order cap cannot reach l > rho, where the terms
    # fall off, and rho^4 below may overflow
    rho, eps = finite("rho", rho), finite_complex("eps", eps)
    if rho > MAX_ORDER:
        raise DomainError(f"rho must be at most {MAX_ORDER}, got {rho}")
    if eps.imag < 0.0:
        raise DomainError("Im(eps) must be >= 0")
    erho = eps * rho
    w = erho * rho
    if not abs(w) <= MAX_ORDER * MAX_ORDER:
        raise DomainError(f"|sqrt(eps)| rho must be at most {MAX_ORDER}, "
                          f"got {math.sqrt(abs(eps)) * rho:.4g}")
    # With D = D_l, q = q_l and a = |1/h_l|^2 (primed at l + 1):
    #   sigma_E = Im(eps conj(D - l)) a / |l (eps-1) + D - eps rho q|^2
    #   sigma_H = Im(D) / rho * a' / (rho |1 - eps rho q' / D'|^2)
    # sigma_H divides by rho twice, since rho^2 may underflow.
    em1 = eps - 1.0
    er, ei = eps.real, eps.imag
    budget = _FIRST_BUDGET
    while True:
        ds = _jn_ratio_pass(budget + 1, w)
        q = 1j * rho / (rho + 1j)             # h_0 / h_1
        eq = erho * q                         # eps rho q_l, carried from sigma_H's q'
        a = rho ** 4 / (rho * rho + 1.0)      # |1 / h_1|^2
        s0 = s1 = 0.0
        sign = 1.0  # (-1)^(l-1)
        run = 0
        for (l, n), d, dp in zip(_ORDERS, ds, ds[1:]):  # l = 1 .. budget
            # each square as h * h, correctly rounded, where ** 2 goes through libm pow
            qp = 1.0 / (n / rho - q)
            h = abs(qp)
            ap = a * (h * h)
            eqp = erho * qp
            h = abs(l * em1 + d - eq)
            den_e = h * h
            h = abs(1.0 - eqp / dp)
            den_h = h * h
            if den_e < _DEGENERATE_DEN or den_h < _DEGENERATE_DEN:
                raise ResonanceError(f"degenerate sigma_{'E' if den_e < _DEGENERATE_DEN else 'H'}"
                                     f" denominator at l={l:.0f}, rho={rho}")
            # Im(eps conj(D - l)), to the bit
            di = d.imag
            se = (ei * (d.real - l) - er * di) * a / den_e
            sh = di / rho * ap / (rho * den_h)
            q, a, eq = qp, ap, eqp
            weight = n * math.pi / rho
            d0 = weight * (se - sh)
            d1 = weight * sign * (se + sh)
            sign = -sign
            s0 += d0
            s1 += d1
            # the bound max(abs(s0), 1e-300) without the call, which costs a tenth of the
            # loop; a passive sphere's orders add sigma_E >= 0 and -sigma_H >= 0, so |S1| <= S0
            bound = abs(s0)
            if bound < 1e-300:
                bound = 1e-300
            bound *= _TAIL_TOL
            if abs(d0) < bound and abs(d1) < bound:
                run += 1
                if run >= _TAIL_RUN:
                    return s0, s1, int(l)
            else:
                run = 0
        if budget == _LMAX:
            raise NonConvergenceError(
                f"multipole sums did not meet tail bound {_TAIL_TOL} by l={budget} "
                f"(rho={rho:.4f})")
        budget = min(2 * budget, _LMAX)


@functools.lru_cache(maxsize=16)
def _unit_sums(rho: float, eps: complex) -> tuple[float, float, int]:
    """n0 and n1 are linear in the flux: a sphere's flux solve and observables share sums."""
    return absorption_sums(rho, eps)


def absorption_profile(species: ClusterSpecies, grating: GratingConfig,
                       flux: float | None = None) -> AbsorptionProfile:
    """Absorbed-photon parameters (n0, n1) of a sphere in the pulsed grating."""
    radius = cluster_radius(species)
    # the period, k and nu from one read of the wavelength
    wavelength = grating.laser_wavelength
    if radius >= wavelength / 2.0:
        raise GeometryError(
            f"cluster radius {radius:.3e} m >= grating period "
            f"{wavelength / 2.0:.3e} m: sub-period sphere model does not apply")
    flux = grating.laser_flux if flux is None else finite("flux", flux, True)

    k = 2.0 * math.pi / wavelength
    rho = k * radius
    s0, s1, used = _unit_sums(rho, species.permittivity)
    try:  # the unit-flux prefactor 4 / (h nu k^2); n0 and n1 are linear in the flux
        unit = 4.0 / (PLANCK_H * (SPEED_OF_LIGHT / wavelength) * k * k)
    except ZeroDivisionError:  # h nu k^2 underflows
        unit = math.inf
    n0 = unit * s0 * flux
    if not n0 < math.inf:  # inf, or nan from an infinite prefactor times 0
        raise DomainError(f"n0 is out of float range at laser wavelength {wavelength} m "
                          f"and flux {flux} J/m^2")
    return AbsorptionProfile(n0, unit * s1 * flux, used)

