import math

import pytest

from cslsim.cli import _species_dict
from cslsim.errors import ConfigError, DomainError
from cslsim.params import (
    ATOMIC_MASS_UNIT,
    CONSTANTS,
    PLANCK_H,
    ClusterSpecies,
    GratingConfig,
    CslParams,
    EnvironmentConfig,
    RunConfig,
    cluster_radius,
    default_grating,
    gold_cluster,
    load_config,
    total_interference_time,
)
from oracles import csl_decay_rate_oracle


def test_constants_positive_and_exact():
    assert CONSTANTS.planck_h == 6.62607015e-34
    assert CONSTANTS.boltzmann_kB == 1.380649e-23
    assert CONSTANTS.speed_of_light_c == 299792458.0
    assert CONSTANTS.atomic_mass_unit == 1.66053906660e-27
    for value in (CONSTANTS.planck_h, CONSTANTS.boltzmann_kB,
                  CONSTANTS.speed_of_light_c, CONSTANTS.atomic_mass_unit,
                  CONSTANTS.vacuum_permittivity):
        assert value > 0.0


def test_unit_sphere_radius():
    species = ClusterSpecies(mass=4.0 * math.pi / 3.0, bulk_density=1.0,
                             permittivity=1.0 + 0.0j)
    assert cluster_radius(species) == pytest.approx(1.0, rel=1e-14)


def test_gold_au1000_radius():
    # direct cube-root evaluation: (3 m / 4 pi rho)^(1/3)
    species = gold_cluster(1.9697e5)
    expected = (3.0 * 1.9697e5 * ATOMIC_MASS_UNIT
                / (4.0 * math.pi * 19300.0)) ** (1.0 / 3.0)
    assert cluster_radius(species) == pytest.approx(expected, rel=1e-14)
    assert cluster_radius(species) == pytest.approx(1.59e-9, rel=5e-3)


def test_radius_cube_root_scaling():
    small = gold_cluster(1e5)
    large = gold_cluster(1e8)
    assert cluster_radius(large) / cluster_radius(small) == pytest.approx(10.0, rel=1e-12)


def test_radius_roundtrip_to_mass():
    for mass_amu in (1e4, 1.9697e5, 1e7, 3.3e9):
        species = gold_cluster(mass_amu)
        r = cluster_radius(species)
        back = r ** 3 * 4.0 * math.pi / 3.0 * species.bulk_density
        assert back == pytest.approx(species.mass, rel=1e-12)


def test_talbot_time_per_amu():
    grating = default_grating()
    assert grating.period == pytest.approx(78.5e-9, rel=1e-14)
    expected = ATOMIC_MASS_UNIT * (78.5e-9) ** 2 / PLANCK_H
    per_amu = grating.talbot_time_for_mass(ATOMIC_MASS_UNIT)
    assert per_amu == pytest.approx(expected, rel=1e-15)
    assert per_amu == pytest.approx(1.544e-8, rel=1e-3)


def test_total_interference_time_near_60ms():
    species = gold_cluster(1e6)
    grating = default_grating()
    total = total_interference_time(species, grating)
    assert abs(total - 60e-3) / 60e-3 < 0.10
    assert total == pytest.approx(61.8e-3, rel=1e-2)


def test_talbot_time_linear_in_mass():
    grating = default_grating()
    for mass_amu in (1.0, 137.0, 1e6, 3.7e8):
        t1 = grating.talbot_time_for_mass(gold_cluster(mass_amu).mass)
        t2 = grating.talbot_time_for_mass(gold_cluster(2.0 * mass_amu).mass)
        assert abs(t2 - 2.0 * t1) <= 4.0 * math.ulp(t2)


def test_pure_functions_bit_identical():
    species = gold_cluster(1e6)
    grating = default_grating()
    assert grating.talbot_time_for_mass(species.mass) == grating.talbot_time_for_mass(species.mass)
    assert cluster_radius(species) == cluster_radius(species)


def test_species_invariants():
    with pytest.raises(DomainError):
        ClusterSpecies(mass=-1.0, bulk_density=1.0, permittivity=1.0)
    with pytest.raises(DomainError):
        ClusterSpecies(mass=1.0, bulk_density=0.0, permittivity=1.0)
    with pytest.raises(DomainError):
        ClusterSpecies(mass=1.0, bulk_density=1.0, permittivity=1.0 - 0.5j)
    for permittivity in (None, "abc", [1]):  # complex() raises TypeError or ValueError
        with pytest.raises(DomainError, match="permittivity must be a complex number"):
            ClusterSpecies(1e-21, 19300.0, permittivity)


def test_species_store_the_checked_complex_permittivity():
    species = ClusterSpecies(1e-21, 19300.0, "1+2j")
    assert type(species.permittivity) is complex and species.permittivity == 1 + 2j
    assert (_species_dict(species)["eps_re"], _species_dict(species)["eps_im"]) == (1.0, 2.0)
    # a real permittivity equals, and hashes like, the complex it is stored as
    real = ClusterSpecies(1e-21, 19300.0, 2.0)
    assert type(real.permittivity) is complex
    assert real == ClusterSpecies(1e-21, 19300.0, 2 + 0j) == (1e-21, 19300.0, 2.0, "cluster")
    assert hash(real) == hash((1e-21, 19300.0, 2.0, "cluster"))


def test_grating_invariants():
    with pytest.raises(DomainError):
        GratingConfig(laser_wavelength=-157e-9)
    with pytest.raises(DomainError):
        GratingConfig(laser_wavelength=157e-9, talbot_order=0)
    with pytest.raises(DomainError, match="talbot_order must be an integer from 1 to"):
        GratingConfig(laser_wavelength=157e-9, talbot_order=True)
    grating = GratingConfig(laser_wavelength=157e-9)
    assert grating.period * 2.0 == grating.laser_wavelength


def test_csl_params_rate_quadratic():
    csl = CslParams(lambda0=1e-10)
    m = 1e-21
    assert csl_decay_rate_oracle(1.0, csl, 2.0 * m) == pytest.approx(
        4.0 * csl_decay_rate_oracle(1.0, csl, m), rel=1e-14)
    assert csl.r_c == 100e-9
    assert csl.m0 == ATOMIC_MASS_UNIT
    with pytest.raises(DomainError):
        CslParams(r_c=-1.0)


CONFIG_TEXT = """\
[species]
label = gold
mass_amu = 1.9697e5
density_kg_m3 = 19300
eps_re = 0.9
eps_im = 3.2

[grating]
wavelength_nm = 157
talbot_order = 2
flux_J_m2 = 2.5

[csl]
rc_nm = 100
lambda0_hz = 1e-10

[environment]
pressure_mbar = 1e-9
gas_temperature_K = 300
"""


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG_TEXT)
    cfg = load_config(str(path))
    assert cfg.species.label == "gold"
    assert cfg.species.mass_amu == pytest.approx(1.9697e5, rel=1e-12)
    assert cfg.species.permittivity == pytest.approx(0.9 + 3.2j)
    assert cfg.grating.laser_wavelength == pytest.approx(157e-9, rel=1e-12)
    assert cfg.grating.talbot_order == 2
    assert cfg.grating.laser_flux == 2.5
    assert cfg.csl.r_c == pytest.approx(100e-9)
    assert cfg.csl.lambda0 == 1e-10
    assert cfg.environment.gas_pressure == pytest.approx(1e-7, rel=1e-12)


def test_load_config_takes_defaults_for_what_a_file_leaves_out(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[csl]\nlambda0_hz = 1e-10\n")
    assert load_config(str(path)) == RunConfig(csl=CslParams(lambda0=1e-10))
    path.write_text("[environment]\npressure_mbar = 1e-9\n")
    assert load_config(str(path)).environment == EnvironmentConfig(
        gas_pressure=1e-9 * 100.0)


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[species]\nmass_amu = 1\ndensity_kg_m3 = 1\n"
                    "eps_re = 1\neps_im = 0\nmas_amu = 2\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_load_config_rejects_unknown_section(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[speces]\nmass_amu = 1\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/nowhere.cfg")
