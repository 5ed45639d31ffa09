"""Environmental decoherence budget: residual-gas collisions and thermal
blackbody photons (absorption, emission, Rayleigh scattering).

The underlying models and their constants are collected in one documented
configuration block (`DecoherenceModel`); the contour results are meaningful
at the order-of-magnitude level only.
"""

from __future__ import annotations

import bisect
import math

from .errors import DomainError, finite, open_interval
from .params import (
    BOHR_RADIUS,
    BOLTZMANN_KB,
    GOLD_ATOM_MASS_AMU,
    HARTREE_ENERGY,
    HBAR,
    SPEED_OF_LIGHT,
    VACUUM_PERMITTIVITY,
    ClusterSpecies,
    EnvironmentConfig,
    GratingConfig,
    _value_type,
    cluster_radius,
    total_interference_time,
)


class DecoherenceModel(_value_type("DecoherenceModel", (
        "c6_prefactor gas_electron_count cluster_electrons_per_amu collision_effectiveness "
        "dc_conductivity photon_effectiveness_cap"),
        (7.57,  # c6_prefactor: sigma(v) = c6_prefactor (C6 / hbar v)^(2/5) for London 1/r^6
         10.0,  # gas_electron_count: Slater-Kirkwood effective electron number of N2
         11.0 / GOLD_ATOM_MASS_AMU,  # cluster_electrons_per_amu: the same, gold valence
         # collision_effectiveness: every gas collision fully resolves the paths
         # (thermal de Broglie wavelength << N d at all relevant temperatures)
         1.0,
         # dc_conductivity: S/m, bulk gold; Drude low-frequency absorptive response
         # Im[(eps-1)/(eps+2)] ~ 3 eps0 omega / dc_conductivity
         4.1e7,
         # photon_effectiveness_cap: a photon at wavelength lambda resolves the
         # paths with effectiveness (2 pi N d / lambda)^2, capped at this value
         1.0))):
    """All model constants behind the environmental channels.

    Every number here is recorded in output manifests.  Defaults are
    standard literature values; they are never tuned to reproduce any
    particular figure.  The rates read `DEFAULT_MODEL`, so building
    another instance changes no rate.
    """

    __slots__ = ()


# The one set of constants that every rate below reads, like CONSTANTS.
DEFAULT_MODEL = DecoherenceModel()


class DecoherenceBudget(_value_type("DecoherenceBudget", (
        "rate_collision rate_bb_absorption rate_bb_emission rate_bb_scattering "
        "exposure_time visibility_factor"))):
    """Effective (fringe-weighted) rates and the combined visibility factor."""

    __slots__ = ()

    @property
    def total_rate(self) -> float:  # the benchmark's output checks read it
        return (self.rate_collision + self.rate_bb_absorption
                + self.rate_bb_emission + self.rate_bb_scattering)


def dispersion_coefficient(species: ClusterSpecies, env: EnvironmentConfig) -> float:
    """Slater-Kirkwood C6 between the cluster and one gas molecule, in J m^6.

    The cluster static polarizability volume is taken as R^3 (conducting
    sphere limit of Clausius-Mossotti).
    """
    a0_cubed = BOHR_RADIUS ** 3
    alpha_cluster = cluster_radius(species) ** 3 / a0_cubed   # atomic units
    alpha_gas = env.gas_polarizability_volume / a0_cubed
    n_cluster = species.mass_amu * DEFAULT_MODEL.cluster_electrons_per_amu
    n_gas = DEFAULT_MODEL.gas_electron_count
    c6_au = 1.5 * alpha_cluster * alpha_gas / (
        math.sqrt(alpha_cluster / n_cluster) + math.sqrt(alpha_gas / n_gas))
    return c6_au * HARTREE_ENERGY * BOHR_RADIUS ** 6


def collision_cross_section(speed: float, c6: float) -> float:
    """Total London-van der Waals cross section at one relative speed."""
    return DEFAULT_MODEL.c6_prefactor * (c6 / (HBAR * finite("speed", speed))) ** 0.4


# (2/sqrt(pi)) Gamma(9/5), the Maxwell-Boltzmann mean of v^(3/5) over v_p^(3/5)
_MAXWELL_FACTOR = 2.0 / math.sqrt(math.pi) * math.gamma(1.8)


def collision_rate(species: ClusterSpecies, env: EnvironmentConfig) -> float:
    """Residual-gas collision rate n_gas <sigma_tot v>, linear in pressure.

    sigma falls as v^(-2/5), so the Maxwell-Boltzmann mean
    (4/sqrt(pi)) int u^3 exp(-u^2) sigma(v_p u) v_p du is
    (2/sqrt(pi)) Gamma(9/5) v_p sigma(v_p), v_p the most probable speed.
    """
    if env.gas_pressure == 0.0:
        return 0.0
    try:
        n_gas = env.gas_pressure / (BOLTZMANN_KB * env.gas_temperature)
    except ZeroDivisionError:
        raise DomainError(f"kB T is 0 at gas temperature {env.gas_temperature} K") from None
    c6 = dispersion_coefficient(species, env)
    v_p = math.sqrt(2.0 * BOLTZMANN_KB * env.gas_temperature / env.gas_mass)
    mean_sigma_v = _MAXWELL_FACTOR * v_p * collision_cross_section(v_p, c6)
    return n_gas * mean_sigma_v * DEFAULT_MODEL.collision_effectiveness


def _bose_tails(x: float) -> tuple[float, float, float]:
    """int_x^inf t^m / (e^t - 1) dt for m = 4, 6 and 8 and x >= 0, in one pass.

    Expanding 1/(e^t - 1) = sum_k e^(-k t) gives sum_k Gamma(m+1, k x) / k^(m+1),
    Gamma(m+1, y) = m! e^(-y) sum_{j<=m} y^j / j!, so the m share the partial sums.
    Each k is straight-line code: the Poisson weights e^(-y) y^j / j!, each the
    last times y / j, added left to right, the sums at j = 4, 6 and 8 kept.
    The terms fall like e^(-k x) and at least like k^-(m+1); stopping at k x >= 50
    or k = 1000 leaves out less than 1e-12 of m! zeta(m+1), the sum at 0.
    """
    t4 = t6 = t8 = 0.0
    for k in range(1, math.ceil(50.0 / max(x, 0.05)) + 1):
        y = k * x
        # e^(-y) y^j / j! is a Poisson weight: it never overflows
        p0 = math.exp(-y)
        p1 = p0 * y
        p2 = p1 * (y / 2)
        p3 = p2 * (y / 3)
        p4 = p3 * (y / 4)
        p5 = p4 * (y / 5)
        p6 = p5 * (y / 6)
        p7 = p6 * (y / 7)
        p8 = p7 * (y / 8)
        s4 = p0 + p1 + p2 + p3 + p4
        s6 = s4 + p5 + p6
        t4, t6, t8 = t4 + s4 / k ** 5, t6 + s6 / k ** 7, t8 + (s6 + p7 + p8) / k ** 9
    return 24 * t4, 720 * t6, 40320 * t8


# The complete integrals m! zeta(m+1), as _bose_tails(0.0) rounds them.
_BOSE_INTEGRAL = {6: 726.0114797149829, 8: 40400.97839874761}

# What every thermal-photon rate evaluation shares: the Bose integrals, the
# effectiveness cap and its square root, and the temperature-free parts of
# the absorption and scattering prefactors (see blackbody_rates).
_BOSE_6, _BOSE_8 = _BOSE_INTEGRAL[6], _BOSE_INTEGRAL[8]
_CAP = DEFAULT_MODEL.photon_effectiveness_cap
_SQRT_CAP = math.sqrt(_CAP)
_ABS_FACTOR = 12.0 * VACUUM_PERMITTIVITY
_ABS_DIVISOR = math.pi * DEFAULT_MODEL.dc_conductivity * SPEED_OF_LIGHT ** 3
_SCA_DIVISOR = 3.0 * math.pi * SPEED_OF_LIGHT ** 6
# Past this kink x the tails are below the rounding of the rates, so they are
# not summed.  t_m ~ x^m e^(-x): at x = 64, t6 and t8 round away from the
# complete integrals, and cap t4 and cap t6 are below half an ulp of
# a^2 6! zeta(7) and a^2 8! zeta(9), by about 3000x and 45x (a^2 = cap / x^2,
# so the ratios do not depend on the cap).  The largest x at which a tail
# still moves a bit of the rates is about 59.
_TAIL_FREE_X = 64.0


def _photon_rates(temperature: float, nd: float, k_abs: float,
                  k_sca: float) -> tuple[float, float]:
    """(absorption, scattering) at one temperature, blackbody_rates' constants given.

    With w = kB T / hbar and a = N d w / c they are k_abs w^5 and k_sca w^7
    times int_0^inf x^p min(a^2 x^2, cap) / (e^x - 1) dx for p = 4 and 6:
    below the kink x = sqrt(cap) / a, where the effectiveness a^2 x^2
    saturates, the integrand is a^2 x^(p+2) / (e^x - 1), above it
    cap x^p / (e^x - 1).  Past _TAIL_FREE_X the tails above the kink
    cannot change a bit, and only the complete integrals are read.
    """
    w = BOLTZMANN_KB * temperature / HBAR
    a = nd * w / SPEED_OF_LIGHT
    try:
        x = _SQRT_CAP / a
        if x > _TAIL_FREE_X:
            i4, i6 = a * a * _BOSE_6, a * a * _BOSE_8
        else:
            t4, t6, t8 = _bose_tails(x)
            i4 = a * a * (_BOSE_6 - t6) + _CAP * t4
            i6 = a * a * (_BOSE_8 - t8) + _CAP * t6
        return k_abs * (w ** 5 * i4), k_sca * (w ** 7 * i6)
    except (ZeroDivisionError, OverflowError):  # kB T underflows, or w^7 overflows
        raise DomainError(f"thermal photon rates are out of float range at "
                          f"{temperature} K") from None


def blackbody_rates(species: ClusterSpecies, grating: GratingConfig, temperature: float,
                    cluster_temperature: float | None = None) -> tuple[float, float, float]:
    """Fringe-weighted thermal photon rates (absorption, emission, scattering)
    in radiation at `temperature`, in K.

    All three are spectral integrals of cross section x photon flux x
    effectiveness over the Planck distribution.  The absorptive response
    comes from the Drude low-frequency limit of bulk gold; Rayleigh
    scattering uses the conducting-sphere static polarizability R^3.
    Emission balances absorption at the cluster temperature (equilibrium
    assumption), evaluated at `cluster_temperature`; None puts the cluster
    in equilibrium with the radiation, and emission is the absorption rate.

    Cross section times photon flux is a power of omega, so with
    x = hbar omega / kB T each rate is (kB T / hbar)^(power+1) times a
    Bose integral, cut where the effectiveness (N d omega / c)^2 reaches
    its cap.
    """
    nd = grating.talbot_order * (grating.laser_wavelength / 2.0)  # N times the period
    r3 = cluster_radius(species) ** 3
    # sigma(omega) times the photon flux omega^2 / (pi^2 c^2), per omega^power:
    # Drude absorption 4 pi (omega/c) R^3 * 3 eps0 omega / sigma_dc, and
    # Rayleigh scattering (8 pi / 3) (omega/c)^4 R^6.
    k_abs = _ABS_FACTOR * r3 / _ABS_DIVISOR
    k_sca = 8.0 * r3 * r3 / _SCA_DIVISOR
    temperature = finite("temperature", temperature)
    absorption, scattering = _photon_rates(temperature, nd, k_abs, k_sca)
    emission = (absorption if cluster_temperature in (None, temperature) else _photon_rates(
        finite("cluster_temperature", cluster_temperature), nd, k_abs, k_sca)[0])
    return absorption, emission, scattering


def decoherence_budget(species: ClusterSpecies, grating: GratingConfig,
                       env: EnvironmentConfig) -> DecoherenceBudget:
    """All channel rates plus the combined visibility factor."""
    t_total = total_interference_time(species, grating)
    rate_coll = collision_rate(species, env)
    rate_abs, rate_em, rate_sca = blackbody_rates(species, grating, env.radiation_temperature,
                                                  env.cluster_temperature)
    total = rate_coll + rate_abs + rate_em + rate_sca
    # the rates are >= 0, so a finite total exposure bounds every channel's
    if not math.isfinite(total * t_total):
        raise DomainError(
            f"decoherence exposure is not finite for mass {species.mass} kg, "
            f"pressure {env.gas_pressure} Pa, gas temperature {env.gas_temperature} K "
            f"and radiation temperature {env.radiation_temperature} K")
    return DecoherenceBudget(
        rate_collision=rate_coll,
        rate_bb_absorption=rate_abs,
        rate_bb_emission=rate_em,
        rate_bb_scattering=rate_sca,
        exposure_time=t_total,
        visibility_factor=math.exp(-total * t_total),
    )


# -- critical contour -------------------------------------------------------

def critical_contour(species: ClusterSpecies, grating: GratingConfig,
                     pressure_grid, temperature_grid,
                     env_template: EnvironmentConfig | None = None,
                     level: float = 0.5) -> list[list[tuple[float, float]]]:
    """The visibility_factor = level set over a (pressure, T) grid.

    The temperature axis is the radiation (ambient) temperature; the gas
    temperature stays at the template value so the two knobs remain the
    independently variable ones.  ln(factor) = -(a p + b(T)) t_total, with
    a the collision rate per Pa and b(T) the blackbody rate, which rises
    strictly with T.  So the level set is one curve on which p falls as T
    rises, and it crosses each grid line at most once: a grid temperature
    at p = (ln(1/level) / t_total - b(T)) / a, and a grid pressure where
    b(T) = ln(1/level) / t_total - a p, between the two grid temperatures
    whose b values bracket it.  Returns one polyline of (pressure_Pa,
    temperature_K), one vertex per crossed grid line in increasing T; an
    empty list is a valid result (no crossing on the grid).

    The rates are evaluated up the temperature grid only until b(T) is past
    the largest pressure-line target, b at the lowest grid pressure, and the
    T line lies below the lowest grid pressure: from there on the contour
    has left the grid.  The top grid temperature is still evaluated, so a
    grid whose rates leave float range is refused, naming that temperature.
    """
    level = open_interval("'level'", level, 1.0)  # -ln(level) is the exposure traced
    # a repeated grid value is one grid line, so the size is checked after the set
    pressures = sorted({finite("grid pressure", p) for p in pressure_grid})
    temperatures = sorted({finite("grid temperature", t) for t in temperature_grid})
    if len(pressures) < 2 or len(temperatures) < 2:
        raise DomainError("contour tracing needs at least a 2 x 2 grid")
    base_env = env_template if env_template is not None else EnvironmentConfig()

    t_total = total_interference_time(species, grating)
    if t_total == 0.0:
        raise DomainError(f"the interference time underflows to 0 at mass {species.mass} kg "
                          f"and grating period {grating.period} m")
    budget = -math.log(level) / t_total
    coll_coeff = collision_rate(species, base_env._replace(gas_pressure=1.0))
    if coll_coeff == 0.0:
        raise DomainError(f"the collision rate per Pa underflows to 0 at mass {species.mass} kg "
                          f"and density {species.bulk_density} kg/m^3")

    cluster_temperature = base_env.cluster_temperature

    def bb_rate(temperature: float) -> float:
        # left to right, not sum(): from CPython 3.12 on sum() compensates,
        # which would make the contour's bytes depend on the Python version
        absorption, emission, scattering = blackbody_rates(
            species, grating, temperature, cluster_temperature)
        return absorption + emission + scattering

    # b rises with T.  Once it is past the largest pressure-line target and
    # its temperature line lies below the lowest grid pressure, no higher grid
    # temperature adds a vertex or moves a bisection, so the walk stops there.
    top = budget - coll_coeff * pressures[0]
    bb = []
    for t in temperatures:
        b = bb_rate(t)
        bb.append(b)
        if b > top and (budget - b) / coll_coeff < pressures[0]:
            break
    if len(bb) < len(temperatures):
        b = bb_rate(temperatures[-1])
    if not b < math.inf:  # the rates rise with T, so the top one leaves float range first
        raise DomainError(f"thermal photon rates are not finite at {temperatures[-1]} K")
    vertices = [(p, t) for p, t in zip([(budget - b) / coll_coeff for b in bb], temperatures)
                if pressures[0] <= p <= pressures[-1]]
    for p in pressures:
        target = budget - coll_coeff * p
        # bb[j - 1] <= target < bb[j]; a target equal to a grid value is a grid
        # node, already found on its temperature line
        j = bisect.bisect_right(bb, target)
        if 0 < j < len(bb) and bb[j - 1] < target:
            vertices.append((p, _solve_temperature(
                bb_rate, target, temperatures[j - 1], temperatures[j], bb[j - 1], bb[j])))
    vertices.sort(key=lambda v: (v[1], -v[0]))
    return [vertices] if vertices else []


def _solve_temperature(bb_rate, target: float, t_lo: float, t_hi: float,
                       b_lo: float, b_hi: float) -> float:
    """T in (t_lo, t_hi) with bb_rate(T) = target, given b_lo < target < b_hi.

    Illinois (regula falsi that halves the stale end's weight) on
    g = ln(b / target) against x = ln T: b is close to a power of T, so g is
    nearly linear in x and a few steps bring |g| within 1e-12.  Bounded at
    100 steps in case rounding stalls |g| above that, when it returns the
    last iterate.
    """
    if b_lo == 0.0:
        raise DomainError(f"thermal photon rates underflow to 0 at {t_lo} K, outside ln b's range")
    x0, x1 = math.log(t_lo), math.log(t_hi)
    g0, g1 = math.log(b_lo / target), math.log(b_hi / target)
    kept = 0
    for _ in range(100):
        x = x1 - g1 * (x1 - x0) / (g1 - g0)
        g = math.log(bb_rate(math.exp(x)) / target)
        if abs(g) <= 1e-12:
            break
        if g > 0.0:
            x1, g1 = x, g
            if kept == 1:
                g0 *= 0.5
            kept = 1
        else:
            x0, g0 = x, g
            if kept == -1:
                g1 *= 0.5
            kept = -1
    return math.exp(x)
