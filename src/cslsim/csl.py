"""Continuous-spontaneous-localization effect on the interferometer.

The closed-form visibility reduction, whose exponent integrates the
center-of-mass decay rate along the two paths' separation, and the
critical-mass solver for the exclusion boundary.
"""

from __future__ import annotations

import math

from .errors import DomainError, finite
from .params import ClusterSpecies, CslParams, GratingConfig, _value_type


class CslReduction(_value_type("CslReduction", "ratio exponent geometry_factor")):
    """Visibility ratio V_CSL / V = exp(-exponent) and its pieces."""

    __slots__ = ()


def geometry_factor(grating: GratingConfig, csl: CslParams) -> float:
    """Fraction of the saturated rate effective at path separation N d.

    1 - sqrt(pi) r_c / (N d) * erf(N d / 2 r_c); tends to 0 when the
    separation is small on the localization scale and to 1 when large.
    """
    nd = grating.talbot_order * grating.period
    a = nd / (2.0 * csl.r_c)
    if a < 1e-8:
        # erf expansion: 1 - erf(a) sqrt(pi)/(2a) = a^2/3 + O(a^4)
        return a * a / 3.0
    return 1.0 - math.sqrt(math.pi) * csl.r_c / nd * math.erf(a)


def csl_exponent(species: ClusterSpecies, grating: GratingConfig,
                 csl: CslParams) -> float:
    """Exponent 2 lambda0 T0 N (m/m0)^3 * geometry_factor."""
    t0 = grating.talbot_time_for_mass(csl.m0)
    mass_ratio = species.mass / csl.m0
    return (2.0 * csl.lambda0 * t0 * grating.talbot_order
            * mass_ratio ** 3 * geometry_factor(grating, csl))


def csl_visibility_ratio(species: ClusterSpecies, grating: GratingConfig,
                         csl: CslParams) -> CslReduction:
    """Closed-form visibility reduction V_CSL / V."""
    try:
        exponent = csl_exponent(species, grating, csl)
    except OverflowError:  # from (m/m0)^3
        exponent = math.inf
    if not math.isfinite(exponent):
        raise DomainError(
            f"CSL exponent is not finite for mass {species.mass} kg "
            f"({species.mass_amu} amu) at m0 = {csl.m0} kg")
    return CslReduction(ratio=math.exp(-exponent), exponent=exponent,
                        geometry_factor=geometry_factor(grating, csl))


def critical_mass(csl: CslParams, grating: GratingConfig,
                  threshold: float = 0.5) -> float:
    """Mass at which the CSL visibility ratio drops to the threshold.

    Closed-form cube-root inversion of the exponent.
    """
    if not (0.0 < threshold < 1.0):
        raise DomainError(f"threshold must lie in (0, 1), got {threshold}")
    if csl.lambda0 <= 0.0:
        raise DomainError("critical mass requires lambda0 > 0")
    g = geometry_factor(grating, csl)
    if g <= 0.0:
        raise DomainError("degenerate geometry: separation N d vanishes on the "
                          "localization scale")
    t0 = grating.talbot_time_for_mass(csl.m0)
    denom = 2.0 * csl.lambda0 * t0 * grating.talbot_order * g
    return csl.m0 * (math.log(1.0 / threshold) / denom) ** (1.0 / 3.0)


def exclusion_boundary(grating: GratingConfig, csl_template: CslParams,
                       lambda0_grid, threshold: float = 0.5
                       ) -> list[tuple[float, float]]:
    """Critical mass along a grid of localization rates.

    Returns (lambda0, m_c) pairs in grid order; in log-log coordinates the
    boundary is a straight line of slope -1/3.
    """
    out = []
    for lam in lambda0_grid:
        csl = CslParams(r_c=csl_template.r_c, lambda0=finite("lambda0 grid value", lam),
                        m0=csl_template.m0)
        out.append((lam, critical_mass(csl, grating, threshold)))
    return out
