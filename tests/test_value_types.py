"""The immutable value types, each a named tuple: immutability, equality,
hashing, repr, copying and pickling, field by field in the order each
type's constructor takes them."""

import copy
import pickle

import pytest

import cslsim
from cslsim import (
    AbsorptionProfile,
    ClusterSpecies,
    CslParams,
    CslReduction,
    DecoherenceBudget,
    DecoherenceModel,
    EnvironmentConfig,
    FringeObservables,
    GratingConfig,
    PhysicalConstants,
    default_grating,
    gold_cluster,
)
from cslsim.errors import DomainError
from cslsim.params import RunConfig

# type -> (its fields in constructor order, positional values for a non-default instance)
FIELDS = {
    PhysicalConstants: (("planck_h", "boltzmann_kB", "speed_of_light_c", "atomic_mass_unit",
                         "vacuum_permittivity"), (1.0, 2.0, 3.0, 4.0, 5.0)),
    ClusterSpecies: (("mass", "bulk_density", "permittivity", "label"),
                     (1e-21, 19300.0, 0.9 + 3.2j, "gold")),
    GratingConfig: (("laser_wavelength", "talbot_order", "laser_flux"), (157e-9, 3, 2.5)),
    CslParams: (("r_c", "lambda0", "m0"), (1e-7, 1e-10, 2e-27)),
    EnvironmentConfig: (("gas_pressure", "gas_temperature", "gas_mass",
                         "gas_polarizability_volume", "environment_temperature",
                         "cluster_temperature"), (1e-6, 250.0, 6e-26, 1.6e-30, 77.0, None)),
    RunConfig: (("species", "grating", "csl", "environment"),
                (gold_cluster(1e7), default_grating(), CslParams(lambda0=1e-8),
                 EnvironmentConfig(gas_pressure=1e-7))),
    AbsorptionProfile: (("n0", "n1", "truncation_order"), (2.0, 1.5, 12)),
    FringeObservables: (("visibility", "transmissivity", "n0", "n1"), (0.85, 0.1, 2.0, 1.5)),
    CslReduction: (("ratio", "exponent", "geometry_factor"), (0.9, 0.105, 0.5)),
    DecoherenceModel: (("c6_prefactor", "gas_electron_count", "cluster_electrons_per_amu",
                        "collision_effectiveness", "dc_conductivity",
                        "photon_effectiveness_cap"), (7.0, 10.0, 0.05, 1.0, 4e7, 0.5)),
    DecoherenceBudget: (("rate_collision", "rate_bb_absorption", "rate_bb_emission",
                         "rate_bb_scattering", "exposure_time", "visibility_factor"),
                        (1.0, 2.0, 3.0, 4.0, 0.05, 0.6)),
}
TYPES = list(FIELDS)


def _instance(cls):
    return cls(*FIELDS[cls][1])


def test_public_names_are_unchanged():
    assert cslsim.__all__ == [
        "CONSTANTS", "AbsorptionProfile", "ClusterSpecies", "CslParams", "CslReduction",
        "DecoherenceBudget", "DecoherenceModel", "EnvironmentConfig", "FringeObservables",
        "GratingConfig", "PhysicalConstants", "absorption_profile", "blackbody_rates",
        "cluster_radius", "collision_rate", "critical_contour", "critical_mass",
        "csl_visibility_ratio", "decoherence_budget", "default_grating",
        "exclusion_boundary", "flux_for_target_visibility", "gold_cluster", "load_config",
        "observables", "total_interference_time", "transmissivity", "visibility"]
    # every public value type is covered below
    assert {name for name in cslsim.__all__ if isinstance(getattr(cslsim, name), type)} == {
        cls.__name__ for cls in TYPES if cls is not RunConfig}


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_fields_are_read_only(cls):
    value = _instance(cls)
    for name in FIELDS[cls][0]:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):  # no field can be added either
        value.extra = 1.0
    assert value == _instance(cls)


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_equal_fields_mean_equal_values_and_hashes(cls):
    names, values = FIELDS[cls]
    a, b = cls(*values), cls(**dict(zip(names, values)))
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert cls._fields == names and a._asdict() == dict(zip(names, values))
    # a change to one field makes the values unequal
    changed = {ClusterSpecies: "cluster", EnvironmentConfig: 100.0,
               RunConfig: EnvironmentConfig()}.get(cls, 0.25)
    assert a._replace(**{names[-1]: changed}) != a and a._replace() == a
    # a value is the tuple of its fields, and equals that tuple
    assert a == tuple(values) and a != a._asdict()


def test_replace_checks_the_new_value():
    with pytest.raises(DomainError, match="gas_pressure must be >= 0"):
        EnvironmentConfig()._replace(gas_pressure=-1.0)
    with pytest.raises(DomainError, match="talbot_order must be an integer"):
        default_grating()._replace(talbot_order=0)
    with pytest.raises(ValueError, match="unexpected field names"):
        EnvironmentConfig()._replace(no_such_field=1.0)


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_repr_names_the_fields_in_order(cls):
    names, values = FIELDS[cls]
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(_instance(cls)) == f"{cls.__name__}({fields})"


def test_repr_matches_the_dataclass_form():
    assert repr(gold_cluster(1e6)) == (
        "ClusterSpecies(mass=1.6605390666e-21, bulk_density=19300.0, "
        "permittivity=(0.9+3.2j), label='gold')")
    assert repr(EnvironmentConfig()) == (
        "EnvironmentConfig(gas_pressure=0.0, gas_temperature=300.0, "
        "gas_mass=4.64950938648e-26, gas_polarizability_volume=1.74e-30, "
        "environment_temperature=None, cluster_temperature=None)")


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_copy_and_pickle_round_trip(cls):
    value = _instance(cls)
    for twin in (copy.copy(value), copy.deepcopy(value),
                 *(pickle.loads(pickle.dumps(value, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1))):
        assert type(twin) is cls and twin == value and hash(twin) == hash(value)
