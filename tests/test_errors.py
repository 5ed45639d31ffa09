import ast
import math
import re
from pathlib import Path

import pytest

import cslsim
from cslsim import csl, decoherence, interferometer, mie, params, specfun
from cslsim.errors import DomainError

SPECIES, GRATING = params.gold_cluster(1e6), params.default_grating()

# id -> (name in the message, whether 0 is accepted, a call that hands the value to the check)
CHECKS = {
    "species-mass": ("mass", False, lambda v: params.ClusterSpecies(v, 19300.0, 1j)),
    "species-bulk_density": ("bulk_density", False,
                             lambda v: params.ClusterSpecies(1e-20, v, 1j)),
    "grating-laser_wavelength": ("laser_wavelength", False, params.GratingConfig),
    "grating-laser_flux": ("laser_flux", True, lambda v: params.GratingConfig(157e-9, 2, v)),
    "csl-r_c": ("r_c", False, lambda v: params.CslParams(r_c=v)),
    "csl-lambda0": ("lambda0", True, lambda v: params.CslParams(lambda0=v)),
    "csl-m0": ("m0", False, lambda v: params.CslParams(m0=v)),
    "environment-gas_pressure": ("gas_pressure", True,
                                 lambda v: params.EnvironmentConfig(gas_pressure=v)),
    **{f"environment-{name}": (name, False,
                               lambda v, name=name: params.EnvironmentConfig(**{name: v}))
       for name in ("gas_temperature", "environment_temperature", "cluster_temperature",
                    "gas_mass", "gas_polarizability_volume")},
    "absorption_sums-rho": ("rho", False, lambda v: mie.absorption_sums(v, 1j)),
    "absorption_profile-flux": ("flux", True,
                                lambda v: mie.absorption_profile(SPECIES, GRATING, v)),
    "visibility-n1": ("n1", True, interferometer.visibility),
    "transmissivity-n0": ("n0", True, lambda v: interferometer.transmissivity(v, 0.0)),
    "transmissivity-n1": ("n1", True, lambda v: interferometer.transmissivity(1.0, v)),
    "exclusion_boundary-grid": ("lambda0 grid value", False, lambda v: csl.exclusion_boundary(
        GRATING, params.CslParams(), [1e-10, v])),
    "collision_cross_section-speed": ("speed", False,
                                      lambda v: decoherence.collision_cross_section(v, 1e-70)),
    "critical_contour-pressure": ("grid pressure", False, lambda v: decoherence.critical_contour(
        SPECIES, GRATING, [1e-7, v], [100.0, 200.0])),
    "critical_contour-temperature": ("grid temperature", False,
                                     lambda v: decoherence.critical_contour(
                                         SPECIES, GRATING, [1e-7, 1e-6], [v, 200.0])),
    "blackbody_rates-temperature": ("temperature", False,
                                    lambda v: decoherence.blackbody_rates(SPECIES, GRATING, v)),
    "blackbody_rates-cluster_temperature": ("cluster_temperature", False,
                                            lambda v: decoherence.blackbody_rates(
                                                SPECIES, GRATING, 300.0, v)),
    "bessel_I_scaled-x": ("x", True, lambda v: specfun.bessel_I_scaled(0, v)),
    "spherical_hankel_array-x": ("x", False, lambda v: specfun.spherical_hankel_array(2, v)),
}


# None may stand only for the two unset temperatures of an environment
UNSET_REFUSED = {f"environment-{name}"
                 for name in ("gas_temperature", "gas_mass", "gas_polarizability_volume")}


@pytest.mark.parametrize("check, value", [
    (check, value) for check, (_, zero, _) in CHECKS.items()
    for value in ((-1.0, math.inf, math.nan) if zero else (0.0, -1.0, math.inf, math.nan))
    + ((None,) if check in UNSET_REFUSED else ())])
def test_each_range_check_refuses_in_one_wording(check, value):
    name, zero, call = CHECKS[check]
    with pytest.raises(DomainError) as refused:
        call(value)
    bound = ">= 0" if zero else "positive"
    assert str(refused.value) == f"{name} must be {bound} and finite, got {value}"


def _range_refusals():
    """(module, innermost function, message text) of each `raise DomainError(...)`
    outside errors.py whose text reads like a hand-written range check."""
    wording = re.compile(r"must be (positive|>= 0|> 0)")
    found = []
    for path in sorted(Path(cslsim.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        owner = {}
        for function in ast.walk(ast.parse(path.read_text())):  # outer functions first
            if isinstance(function, ast.FunctionDef):
                for node in ast.walk(function):
                    owner[node] = function.name
        for node, function in owner.items():
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == "DomainError"):
                text = "".join(part.value for part in ast.walk(node.exc)
                               if isinstance(part, ast.Constant) and isinstance(part.value, str))
                if wording.search(text):
                    found.append((path.name, function, text))
    return found


def test_range_checks_are_not_written_by_hand():
    # the amu check names its unit, and a passive medium's Im(eps) is a complex part
    found = _range_refusals()
    kept = [site for site in found
            if site[1] == "_cluster_kg" or site[2].startswith("Im(eps) must be >= 0")]
    assert len(kept) == 3
    assert [site for site in found if site not in kept] == []
