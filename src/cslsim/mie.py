"""Standing-wave photon absorption of a dielectric sphere.

Supplies the mean absorbed-photon number n0 and its cosine modulation n1
per grating pulse from the electric/magnetic multipole sums, valid in the
sub-period regime R < d.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError, GeometryError, NonConvergenceError, ResonanceError
from .params import PLANCK_H, ClusterSpecies, GratingConfig, cluster_radius
from .specfun import spherical_hankel_array, spherical_jn_array

_TAIL_TOL = 1e-10        # relative tail bound for the multipole sums
_TAIL_RUN = 5            # consecutive terms that must satisfy the bound
_HARD_CAP = 200          # absolute truncation cap
_DEGENERATE_DEN = 1e-30


@dataclass(frozen=True)
class MultipoleTerms:
    """Per-order multipole components at scaled radius rho = k_L R."""

    rho: float
    sigma_e: tuple[float, ...]   # sigma_l^(E), l = 1..len
    sigma_h: tuple[float, ...]   # sigma_l^(H), l = 1..len


@dataclass(frozen=True)
class AbsorptionProfile:
    """n(x) = n0 + n1 cos(2 pi x / d) for one species, grating, and flux."""

    n0: float
    n1: float
    flux: float
    truncation_order: int
    converged: bool

    def __post_init__(self):
        if self.converged and self.n0 < abs(self.n1) * (1.0 - 1e-12):
            raise DomainError(
                f"n(x) would go negative: n0={self.n0}, n1={self.n1}")

    def scaled_to(self, flux: float) -> "AbsorptionProfile":
        """Both parameters are exactly linear in the pulse flux."""
        s = flux / self.flux
        return AbsorptionProfile(self.n0 * s, self.n1 * s, flux,
                                 self.truncation_order, self.converged)


def _refractive_root(eps: complex) -> complex:
    # Principal branch; Im(sqrt(eps)) >= 0 so waves decay into the sphere.
    u = cmath.sqrt(eps)
    if u.imag < 0.0:
        u = -u
    return u


def _sigma_e(l, rho, eps, u, js, hs):
    num = (eps * js[l] * (u * rho * js[l - 1] - l * js[l]).conjugate()).imag
    den = abs(l * (eps - 1.0) * js[l] * hs[l]
              + u * rho * (js[l - 1] * hs[l] - u * js[l] * hs[l - 1])) ** 2
    if den < _DEGENERATE_DEN:
        raise ResonanceError(f"degenerate sigma_E denominator at l={l}, rho={rho}")
    return num / den


def _sigma_h(l, rho, u, js, hs):
    num = (u * js[l].conjugate() * js[l - 1]).imag
    den = rho * abs(js[l] * hs[l + 1] - u * js[l + 1] * hs[l]) ** 2
    if den < _DEGENERATE_DEN:
        raise ResonanceError(f"degenerate sigma_H denominator at l={l}, rho={rho}")
    return num / den


def multipole_terms(rho: float, eps: complex, lmax: int) -> MultipoleTerms:
    """All multipole components up to lmax in one pass (shared Bessel arrays)."""
    if lmax < 1 or lmax > _HARD_CAP:
        raise DomainError(f"lmax must be in [1, {_HARD_CAP}], got {lmax}")
    if not (rho > 0.0 and math.isfinite(rho)):
        raise DomainError(f"rho must be positive, got {rho}")
    eps = complex(eps)
    if eps.imag < 0.0:
        raise DomainError("Im(eps) must be >= 0")
    u = _refractive_root(eps)
    js = spherical_jn_array(lmax + 1, u * rho)
    hs = spherical_hankel_array(lmax + 1, rho)
    se = tuple(_sigma_e(l, rho, eps, u, js, hs) for l in range(1, lmax + 1))
    sh = tuple(_sigma_h(l, rho, u, js, hs) for l in range(1, lmax + 1))
    return MultipoleTerms(rho=rho, sigma_e=se, sigma_h=sh)


def truncation_budget(rho: float) -> int:
    """Wiscombe-style order budget for the multipole sums."""
    return min(_HARD_CAP, max(50, math.ceil(rho + 4.0 * rho ** (1.0 / 3.0) + 10.0)))


def absorption_sums(rho: float, eps: complex) -> tuple[float, float, int, bool]:
    """Dimensionless multipole sums (S0, S1, truncation order, converged).

    S0 is the position-average series (all contributions of one sign for an
    absorbing sphere), S1 the alternating modulation series:

        S0 = sum_l (2l+1) pi / rho * (sigma_E - sigma_H)
        S1 = sum_l (2l+1) pi / rho * (-1)^(l-1) * (sigma_E + sigma_H)

    Both carry the common prefactor 4 F_L / (h nu_L k_L^2) in n0, n1.
    """
    budget = truncation_budget(rho)
    terms = multipole_terms(rho, eps, budget)
    s0 = 0.0
    s1 = 0.0
    run = 0
    used = 0
    converged = False
    for l in range(1, budget + 1):
        weight = (2 * l + 1) * math.pi / rho
        se = terms.sigma_e[l - 1]
        sh = terms.sigma_h[l - 1]
        d0 = weight * (se - sh)
        d1 = weight * (-1.0) ** (l - 1) * (se + sh)
        s0 += d0
        s1 += d1
        used = l
        scale = max(abs(s0), abs(s1), 1e-300)
        if max(abs(d0), abs(d1)) < _TAIL_TOL * scale:
            run += 1
            if run >= _TAIL_RUN:
                converged = True
                break
        else:
            run = 0
    return s0, s1, used, converged


def absorption_profile(species: ClusterSpecies, grating: GratingConfig,
                       flux: float | None = None) -> AbsorptionProfile:
    """Absorbed-photon parameters (n0, n1) of a sphere in the pulsed grating."""
    radius = cluster_radius(species)
    if radius >= grating.period:
        raise GeometryError(
            f"cluster radius {radius:.3e} m >= grating period "
            f"{grating.period:.3e} m: sub-period sphere model does not apply")
    if flux is None:
        flux = grating.laser_flux
    if flux < 0.0 or not math.isfinite(flux):
        raise DomainError(f"flux must be >= 0, got {flux}")

    k = grating.wavenumber
    rho = k * radius
    s0, s1, used, converged = absorption_sums(rho, species.permittivity)
    if not converged:
        raise NonConvergenceError(
            f"multipole sums did not meet tail bound {_TAIL_TOL} by l={used} "
            f"(rho={rho:.4f})")
    prefactor = 4.0 * flux / (PLANCK_H * grating.laser_frequency * k * k)
    return AbsorptionProfile(n0=prefactor * s0, n1=prefactor * s1, flux=flux,
                             truncation_order=used, converged=converged)

