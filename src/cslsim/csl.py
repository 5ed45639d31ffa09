"""Continuous-spontaneous-localization effect on the interferometer.

The closed-form visibility reduction, whose exponent integrates the
center-of-mass decay rate along the two paths' separation, and its
inversion, the critical-mass line of the exclusion boundary.
"""

from __future__ import annotations

import math

from .errors import DomainError, finite, open_interval
from .params import ClusterSpecies, CslParams, GratingConfig, _cbrt, _value_type


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


def csl_visibility_ratio(species: ClusterSpecies, grating: GratingConfig,
                         csl: CslParams) -> CslReduction:
    """Closed-form visibility reduction V_CSL / V = exp(-exponent), with the
    exponent 2 lambda0 T0 N (m/m0)^3 * geometry_factor."""
    try:
        g = geometry_factor(grating, csl)
        exponent = (2.0 * csl.lambda0 * grating.talbot_time_for_mass(csl.m0)
                    * grating.talbot_order * (species.mass / csl.m0) ** 3 * g)
    except OverflowError:  # from (m/m0)^3
        exponent = math.inf
    if not math.isfinite(exponent):
        raise DomainError(
            f"CSL exponent is not finite for mass {species.mass} kg "
            f"({species.mass_amu} amu) at m0 = {csl.m0} kg")
    return CslReduction(ratio=math.exp(-exponent), exponent=exponent, geometry_factor=g)


def critical_mass(csl: CslParams, grating: GratingConfig,
                  threshold: float = 0.5) -> float:
    """Mass at which the CSL visibility ratio drops to the threshold: the
    one-point case of the exclusion boundary at csl.lambda0."""
    return exclusion_boundary(grating, csl, [csl.lambda0], threshold)[0][1]


def exclusion_boundary(grating: GratingConfig, csl: CslParams,
                       lambda0_grid, threshold: float = 0.5
                       ) -> list[tuple[float, float]]:
    """Critical mass along a grid of localization rates (csl.lambda0 unread).

    Returns (lambda0, m_c) pairs in grid order.  Inverting the exponent
    2 lambda0 T0 N (m/m0)^3 g = -ln threshold gives the straight line of
    slope -1/3 in log-log, m_c = C / lambda0^(1/3) with
    C = m0 (-ln threshold / (2 T0 N g))^(1/3), computed once per call.
    For any finite lambda0 > 0 the cube root lies within about 1e-108 to
    6e102, so m_c leaves the float range only if C is near its edge.
    """
    threshold = open_interval("threshold", threshold, 1.0)
    g = geometry_factor(grating, csl)
    if g <= 0.0:
        raise DomainError("degenerate geometry: separation N d vanishes on the "
                          "localization scale")
    denom = 2.0 * grating.talbot_time_for_mass(csl.m0) * grating.talbot_order * g
    # -ln threshold stays finite for a subnormal threshold, where ln(1 / threshold) does not
    c = csl.m0 * _cbrt(-math.log(threshold) / denom) if denom else math.inf
    if not 0.0 < c < math.inf:
        raise DomainError(f"the critical-mass coefficient is out of float range at "
                          f"r_c = {csl.r_c} m and m0 = {csl.m0} kg")
    out = []
    for lam in lambda0_grid:
        lam = finite("lambda0 grid value", lam)
        m_c = c / _cbrt(lam)
        if not 0.0 < m_c < math.inf:
            raise DomainError(f"the critical mass is out of float range at "
                              f"lambda0 grid value {lam}")
        out.append((lam, m_c))
    return out
