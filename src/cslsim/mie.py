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
from .params import PLANCK_H, ClusterSpecies, GratingConfig, _value_type, cluster_radius
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
    budget = _FIRST_BUDGET
    while True:
        ds = _jn_ratio_pass(budget + 1, w)
        q = 1j * rho / (rho + 1j)             # h_0 / h_1
        a = rho ** 4 / (rho * rho + 1.0)      # |1 / h_1|^2
        s0 = s1 = 0.0
        sign = 1.0  # (-1)^(l-1)
        run = 0
        for l, d, dp in zip(range(1, budget + 1), ds, ds[1:]):
            n = 2 * l + 1
            # each square as h * h, correctly rounded, where ** 2 goes through libm pow
            qp = 1.0 / (n / rho - q)
            h = abs(qp)
            ap = a * (h * h)
            h = abs(l * em1 + d - erho * q)
            den_e = h * h
            if den_e < _DEGENERATE_DEN:
                raise ResonanceError(f"degenerate sigma_E denominator at l={l}, rho={rho}")
            h = abs(1.0 - erho * qp / dp)
            den_h = h * h
            if den_h < _DEGENERATE_DEN:
                raise ResonanceError(f"degenerate sigma_H denominator at l={l}, rho={rho}")
            se = (eps * (d - l).conjugate()).imag * a / den_e
            sh = d.imag / rho * ap / (rho * den_h)
            q, a = qp, ap
            weight = n * math.pi / rho
            d0 = weight * (se - sh)
            d1 = weight * sign * (se + sh)
            sign = -sign
            s0 += d0
            s1 += d1
            # max(abs(s0), abs(s1), 1e-300) without the call, which costs a tenth of
            # the loop; compared in max()'s order, so a NaN s0 still gives a NaN bound
            bound = abs(s0)
            h = abs(s1)
            if h > bound:
                bound = h
            if bound < 1e-300:
                bound = 1e-300
            bound *= _TAIL_TOL
            if abs(d0) < bound and abs(d1) < bound:
                run += 1
                if run >= _TAIL_RUN:
                    return s0, s1, l
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
    if radius >= grating.period:
        raise GeometryError(
            f"cluster radius {radius:.3e} m >= grating period "
            f"{grating.period:.3e} m: sub-period sphere model does not apply")
    flux = grating.laser_flux if flux is None else finite("flux", flux, True)

    k = grating.wavenumber
    rho = k * radius
    s0, s1, used = _unit_sums(rho, species.permittivity)
    try:
        prefactor = 4.0 * flux / (PLANCK_H * grating.laser_frequency * k * k)
    except ZeroDivisionError:  # h nu k^2 underflows
        prefactor = math.inf
    if prefactor == math.inf:  # or h nu k^2 is small enough that the quotient overflows
        raise DomainError(f"the absorption prefactor is out of float range at laser "
                          f"wavelength {grating.laser_wavelength} m and flux {flux} J/m^2")
    return AbsorptionProfile(n0=prefactor * s0, n1=prefactor * s1, truncation_order=used)

