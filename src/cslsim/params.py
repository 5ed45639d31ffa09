"""Physical constants, unit conversions, and the shared domain types.

Everything internal is SI.  amu, nm, and mbar exist only at the
constructors / config boundary and are converted exactly once.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .errors import ConfigError, DomainError, finite

def _value_type(name: str, fields: str, defaults=()):
    """The named-tuple base of an immutable value type: its fields compare,
    hash, print, copy and pickle in order, and _replace builds through the
    type's own __new__, so a changed field is checked as a new value is."""
    base = namedtuple(name, fields, defaults=defaults)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


class PhysicalConstants(_value_type("PhysicalConstants", (
        "planck_h boltzmann_kB speed_of_light_c atomic_mass_unit vacuum_permittivity"),
        (6.62607015e-34,      # planck_h: J s (exact)
         1.380649e-23,        # boltzmann_kB: J/K (exact)
         299792458.0,         # speed_of_light_c: m/s (exact)
         1.66053906660e-27,   # atomic_mass_unit: kg
         8.8541878128e-12))):  # vacuum_permittivity: F/m
    """SI defining constants (2019 redefinition) plus CODATA-2018 values."""

    __slots__ = ()


CONSTANTS = PhysicalConstants()

# Convenience aliases used throughout the numerics.
PLANCK_H = CONSTANTS.planck_h
BOLTZMANN_KB = CONSTANTS.boltzmann_kB
SPEED_OF_LIGHT = CONSTANTS.speed_of_light_c
ATOMIC_MASS_UNIT = CONSTANTS.atomic_mass_unit
VACUUM_PERMITTIVITY = CONSTANTS.vacuum_permittivity
HBAR = PLANCK_H / (2.0 * math.pi)

# CODATA-2018, needed for the Slater-Kirkwood dispersion coefficient.
BOHR_RADIUS = 5.29177210903e-11    # m
HARTREE_ENERGY = 4.3597447222071e-18  # J

# Bulk gold at the 157 nm grating wavelength; density is a configurable
# default recorded in every output manifest.
GOLD_DENSITY = 19300.0             # kg/m^3
GOLD_PERMITTIVITY_157NM = 0.9 + 3.2j
GOLD_ATOM_MASS_AMU = 196.96657

MBAR_TO_PA = 100.0


def amu_to_kg(mass_amu: float) -> float:
    return mass_amu * ATOMIC_MASS_UNIT


def kg_to_amu(mass_kg: float) -> float:
    return mass_kg / ATOMIC_MASS_UNIT


def mbar_to_pa(p_mbar: float) -> float:
    return p_mbar * MBAR_TO_PA


def pa_to_mbar(p_pa: float) -> float:
    return p_pa / MBAR_TO_PA


def _cluster_kg(mass_amu: float, name: str = "mass") -> float:
    # checked in kg, where a tiny mass underflows to 0, but named as given
    mass = amu_to_kg(mass_amu)
    if not 0.0 < mass < math.inf:
        raise DomainError(f"{name} must be positive and finite in kg, got {mass_amu} amu")
    return mass


class ClusterSpecies(_value_type("ClusterSpecies", "mass bulk_density permittivity label")):
    """A spherical dielectric cluster: mass, bulk density, permittivity."""

    __slots__ = ()

    def __new__(cls, mass: float,         # kg
                bulk_density: float,      # kg/m^3
                permittivity: complex,    # relative epsilon at the grating wavelength
                label: str = "cluster"):
        fields = finite("mass", mass), finite("bulk_density", bulk_density), permittivity, label
        try:
            eps = complex(permittivity)
        except (TypeError, ValueError):
            raise DomainError(f"permittivity must be a complex number, "
                              f"got {permittivity!r}") from None
        if not (math.isfinite(eps.real) and math.isfinite(eps.imag)):
            raise DomainError("permittivity must be finite")
        if eps.imag < 0.0:
            raise DomainError("Im(eps) must be >= 0 for a passive medium")
        return tuple.__new__(cls, fields)

    @classmethod
    def from_amu(cls, mass_amu: float, bulk_density: float,
                 permittivity: complex, label: str = "cluster") -> "ClusterSpecies":
        return cls(_cluster_kg(mass_amu), bulk_density, permittivity, label)

    @property
    def mass_amu(self) -> float:
        return kg_to_amu(self.mass)


def gold_cluster(mass_amu: float) -> ClusterSpecies:
    return ClusterSpecies.from_amu(mass_amu, GOLD_DENSITY, GOLD_PERMITTIVITY_157NM, "gold")


class GratingConfig(_value_type("GratingConfig", "laser_wavelength talbot_order laser_flux")):
    """Pulsed standing-wave grating: wavelength, Talbot order, pulse flux."""

    __slots__ = ()

    def __new__(cls, laser_wavelength: float,  # m
                talbot_order: int = 2,
                laser_flux: float = 1.0):      # J/m^2 per pulse
        finite("laser_wavelength", laser_wavelength)
        # the Talbot time scales with the order, so it must have a double value; a bool is no order
        if not (isinstance(talbot_order, int) and not isinstance(talbot_order, bool)
                and 1 <= talbot_order <= sys.float_info.max):
            raise DomainError(f"talbot_order must be an integer from 1 to {sys.float_info.max:g}")
        return tuple.__new__(cls, (laser_wavelength, talbot_order,
                                   finite("laser_flux", laser_flux, True)))

    @property
    def period(self) -> float:
        """Grating period d = lambda_L / 2 (standing-wave antinode spacing)."""
        return self.laser_wavelength / 2.0

    @property
    def laser_frequency(self) -> float:
        return SPEED_OF_LIGHT / self.laser_wavelength

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.laser_wavelength

    def talbot_time_for_mass(self, mass_kg: float) -> float:
        try:
            return mass_kg * self.period ** 2 / PLANCK_H
        except OverflowError:  # d^2 leaves float range
            raise DomainError(f"the Talbot time is out of float range at grating period "
                              f"{self.period} m") from None


def default_grating() -> GratingConfig:
    """157 nm fluorine-laser grating, second Talbot order."""
    return GratingConfig(157e-9)


class CslParams(_value_type("CslParams", "r_c lambda0 m0")):
    """Localization length, rate at the reference mass, and reference mass."""

    __slots__ = ()

    def __new__(cls, r_c: float = 100e-9,      # m
                lambda0: float = 0.0,          # Hz
                m0: float = ATOMIC_MASS_UNIT):  # kg
        return tuple.__new__(cls, (finite("r_c", r_c), finite("lambda0", lambda0, True),
                                   finite("m0", m0)))


class EnvironmentConfig(_value_type("EnvironmentConfig", (
        "gas_pressure gas_temperature gas_mass gas_polarizability_volume "
        "environment_temperature cluster_temperature"))):
    """Residual gas plus thermal radiation field around the interferometer."""

    __slots__ = ()

    def __new__(cls, gas_pressure: float = 0.0,                 # Pa
                gas_temperature: float = 300.0,                    # K
                gas_mass: float = 28.0 * ATOMIC_MASS_UNIT,         # kg, N2 default
                gas_polarizability_volume: float = 1.74e-30,       # m^3 (alpha/4 pi eps0), N2
                environment_temperature: float | None = None,      # K; None -> gas temperature
                cluster_temperature: float | None = None):         # K; None -> environment
        fields = (finite("gas_pressure", gas_pressure, True),
                  finite("gas_temperature", gas_temperature), finite("gas_mass", gas_mass),
                  finite("gas_polarizability_volume", gas_polarizability_volume),
                  environment_temperature, cluster_temperature)
        # only these two may be None: see the properties below
        for name, value in (("environment_temperature", environment_temperature),
                            ("cluster_temperature", cluster_temperature)):
            if value is not None:
                finite(name, value)
        return tuple.__new__(cls, fields)

    @property
    def radiation_temperature(self) -> float:
        return self.environment_temperature if self.environment_temperature is not None \
            else self.gas_temperature

    @property
    def internal_temperature(self) -> float:  # the benchmark's output checks read it
        # Cluster in equilibrium with the radiation field unless overridden.
        return self.cluster_temperature if self.cluster_temperature is not None \
            else self.radiation_temperature


# -- derived quantities -------------------------------------------------------

def cluster_radius(species: ClusterSpecies) -> float:
    """Sphere radius (3 m / 4 pi rho)^(1/3) from mass and bulk density."""
    return (3.0 * species.mass / (4.0 * math.pi * species.bulk_density)) ** (1.0 / 3.0)


def total_interference_time(species: ClusterSpecies, grating: GratingConfig) -> float:
    """Total two-arm evolution time 2 N T_T, T_T = m d^2 / h the Talbot time."""
    return 2.0 * grating.talbot_order * grating.talbot_time_for_mass(species.mass)


# -- config files -----------------------------------------------------------

class RunConfig(_value_type("RunConfig", "species grating csl environment", (
        gold_cluster(1.9697e5), default_grating(), CslParams(), EnvironmentConfig()))):
    """Everything a CLI run can take from a config file; a section the file
    leaves out takes these defaults."""

    __slots__ = ()


# Config section -> key -> (field, conversion to SI from the unit
# the key names); eps_re and eps_im make up the permittivity.
_CONFIG_KEYS = {
    "species": {"label": ("label", str), "mass_amu": ("mass", _cluster_kg),
                "density_kg_m3": ("bulk_density", float),
                "eps_re": ("eps_re", float), "eps_im": ("eps_im", float)},
    "grating": {"wavelength_nm": ("laser_wavelength", lambda nm: nm * 1e-9),
                "talbot_order": ("talbot_order", int), "flux_J_m2": ("laser_flux", float)},
    "csl": {"rc_nm": ("r_c", lambda nm: nm * 1e-9), "lambda0_hz": ("lambda0", float),
            "m0_amu": ("m0", lambda amu: _cluster_kg(amu, "m0"))},
    "environment": {"pressure_mbar": ("gas_pressure", mbar_to_pa),
                    "gas_temperature_K": ("gas_temperature", float),
                    "gas_mass_amu": ("gas_mass", lambda amu: _cluster_kg(amu, "gas_mass")),
                    "gas_polarizability_A3": ("gas_polarizability_volume", lambda a: a * 1e-30),
                    "environment_temperature_K": ("environment_temperature", float),
                    "cluster_temperature_K": ("cluster_temperature", float)},
}
# The keys a section must give when a file gives the section.
_REQUIRED_KEYS = {"species": {"mass_amu", "density_kg_m3", "eps_re", "eps_im"},
                  "grating": {"wavelength_nm"}}


def _fields(section: str, values: dict) -> dict:
    """`values`, {key: text or number}, as SI values under their field names."""
    fields = {}
    for key, raw in values.items():
        field, to_si = _CONFIG_KEYS[section][key]
        try:  # a label is text and a Talbot order an integer; all else is a float
            value = (to_si if to_si in (str, int) else float)(raw)
        except ValueError:
            kind = "an integer" if to_si is int else "a number"
            raise ConfigError(f"[{section}] {key} must be {kind}, got {raw!r}") from None
        fields[field] = to_si(value)
    if "eps_re" in fields:  # required together
        fields["permittivity"] = complex(fields.pop("eps_re"), fields.pop("eps_im"))
    return fields


def _with_keys(config: RunConfig, rows) -> RunConfig:
    """`config` with the key of each (section, key, value) row set to the value."""
    for section, key, value in rows:
        config = config._replace(**{section: getattr(config, section)._replace(
            **_fields(section, {key: value}))})
    return config


def load_config(path: str) -> RunConfig:
    """Parse a sectioned key=value config file, UTF-8, in which `%` is literal.

    Unknown sections or keys are hard errors so that a misspelled physics
    constant can never silently fall back to a default.  Keys under
    [DEFAULT] would reach every section, so that section is unknown too.
    """
    import configparser  # only a run with --config pays for the import

    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (units live in the name)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file: {path}")
    if parser.defaults():
        raise ConfigError(f"unknown config section [{parser.default_section}]")
    defaults, sections = RunConfig(), {}
    for section in parser.sections():
        if section not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _CONFIG_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
        missing = _REQUIRED_KEYS.get(section, set()) - set(parser[section])
        if missing:
            raise ConfigError(f"[{section}] missing keys: {sorted(missing)}")
        # from the type's defaults, so a [species] without a label is "cluster"
        sections[section] = type(getattr(defaults, section))(**_fields(section, parser[section]))
    return RunConfig(**sections)
