import ast
import math
import re
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import cslsim
from cslsim import csl, decoherence, errors, interferometer, mie, params, specfun
from cslsim.errors import DomainError

SPECIES, GRATING = params.gold_cluster(1e6), params.default_grating()

# id -> (name in the message, whether 0 is accepted, a call that hands the value
# to the check and returns the value kept, or what the site returns)
CHECKS = {
    "species-mass": ("mass", False, lambda v: params.ClusterSpecies(v, 19300.0, 1j).mass),
    "species-bulk_density": ("bulk_density", False,
                             lambda v: params.ClusterSpecies(1e-20, v, 1j).bulk_density),
    "gold_cluster-mass_amu": ("mass", False, lambda v: params.gold_cluster(v).mass),
    "grating-laser_wavelength": ("laser_wavelength", False,
                                 lambda v: params.GratingConfig(v).laser_wavelength),
    "grating-laser_flux": ("laser_flux", True,
                           lambda v: params.GratingConfig(157e-9, 2, v).laser_flux),
    "csl-r_c": ("r_c", False, lambda v: params.CslParams(r_c=v).r_c),
    "csl-lambda0": ("lambda0", True, lambda v: params.CslParams(lambda0=v).lambda0),
    "csl-m0": ("m0", False, lambda v: params.CslParams(m0=v).m0),
    **{f"environment-{name}": (name, name == "gas_pressure",
                               lambda v, name=name: getattr(
                                   params.EnvironmentConfig(**{name: v}), name))
       for name in ("gas_pressure", "gas_temperature", "environment_temperature",
                    "cluster_temperature", "gas_mass", "gas_polarizability_volume")},
    "absorption_sums-rho": ("rho", False, lambda v: mie.absorption_sums(v, 1j)[:2]),
    "absorption_profile-flux": ("flux", True,
                                lambda v: mie.absorption_profile(SPECIES, GRATING, v)[:2]),
    "visibility-n1": ("n1", True, interferometer.visibility),
    "transmissivity-n0": ("n0", True, lambda v: interferometer.transmissivity(v, 0.0)),
    "transmissivity-n1": ("n1", True, lambda v: interferometer.transmissivity(1.0, v)),
    "exclusion_boundary-grid": ("lambda0 grid value", False, lambda v: csl.exclusion_boundary(
        GRATING, params.CslParams(), [1e-10, v])[1]),
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
# the sites where None means "unset": a default or an equilibrium temperature
UNSET_ACCEPTED = {"environment-environment_temperature", "environment-cluster_temperature",
                  "blackbody_rates-cluster_temperature", "absorption_profile-flux"}

# id -> (name in the message, the upper end of (0, hi), a call as in CHECKS)
OPEN_CHECKS = {
    "solve-target": ("target visibility", 2.0, interferometer.solve_modulation_for_visibility),
    "flux_for_target_visibility-target": ("target visibility", 2.0, lambda v: (
        interferometer.flux_for_target_visibility(SPECIES, GRATING, v))),
    "critical_mass-threshold": ("threshold", 1.0, lambda v: csl.critical_mass(
        params.CslParams(lambda0=1e-10), GRATING, v)),
    "critical_contour-level": ("'level'", 1.0, lambda v: decoherence.critical_contour(
        SPECIES, GRATING, [1e-8, 1e-3], [100.0, 300.0], level=v)),
}

# id -> (name in the message, a call as in CHECKS)
COMPLEX_CHECKS = {
    "species-permittivity": ("permittivity", lambda v: params.ClusterSpecies(
        1e-20, 19300.0, v).permittivity),
    "absorption_sums-eps": ("eps", lambda v: mie.absorption_sums(0.5, v)[:2]),
    "spherical_jn_array-z": ("z", lambda v: specfun.spherical_jn_array(2, v)),
}

# id -> (a value of another type, the real number it stands for, whether
# complex() takes it): a real number is what float() converts, text excepted
TYPE_AXIS = {
    "Decimal": (Decimal("0.5"), 0.5, True),
    "Fraction": (Fraction(1, 2), 0.5, True),
    "float64": (np.float64(0.5), 0.5, True),
    "int64": (np.int64(1), 1.0, True),
    "10**400": (10 ** 400, None, False),
    "str": ("1", None, True),
    "str-abc": ("abc", None, False),
    "bytes": (b"1", None, False),
    "None": (None, None, False),
    "complex": (1 + 0j, None, True),
    "complex-inf": (complex(0.0, math.inf), None, False),
    "list": ([0.5], None, False),
}


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


def _leaves(kept):
    """The numbers in `kept`, a number or nested tuples and lists of them, a
    complex as its two parts."""
    if isinstance(kept, (tuple, list)):
        return [leaf for part in kept for leaf in _leaves(part)]
    return [kept.real, kept.imag] if isinstance(kept, complex) else [kept]


def _type_axis_cases():
    """(site, the message up to the value, call, the upper end of its real
    range, or None for a complex check)."""
    for check, (name, zero, call) in CHECKS.items():
        bound = ">= 0" if zero else "positive"
        yield check, f"{name} must be {bound} and finite, got ", call, math.inf
    for check, (name, hi, call) in OPEN_CHECKS.items():
        yield check, f"{name} must lie in (0, {hi:g}), got ", call, hi
    for check, (name, call) in COMPLEX_CHECKS.items():
        yield check, f"{name} must be a complex number with finite parts, got ", call, None


TYPE_AXIS_CASES = {f"{check}-{kind}": (check, wording, call, hi, kind)
                   for check, wording, call, hi in _type_axis_cases() for kind in TYPE_AXIS}


@pytest.mark.parametrize("case", sorted(TYPE_AXIS_CASES))
def test_each_check_keeps_a_number_as_a_float_and_refuses_the_rest_in_one_wording(case):
    check, wording, call, hi, kind = TYPE_AXIS_CASES[case]
    value, real, complex_ok = TYPE_AXIS[kind]
    accepted = complex_ok if hi is None else real is not None and real < hi
    if value is None and check in UNSET_ACCEPTED:
        call(value)  # None is the unset value there
    elif accepted:
        kept = call(value)  # never a TypeError, ValueError or OverflowError
        assert _leaves(kept) and all(type(leaf) is float for leaf in _leaves(kept))
    else:
        with pytest.raises(DomainError) as refused:
            call(value)
        assert str(refused.value) == f"{wording}{value!r}"


def test_only_errors_converts_a_real_or_complex_argument():
    # cli parses command-line text into numbers; anywhere else a one-argument
    # float() or complex() would convert an argument, and an isinstance() on
    # float or complex would type-check one, past the checks in errors.py
    found = []
    for path in sorted(Path(cslsim.__file__).parent.glob("*.py")):
        if path.name in ("errors.py", "cli.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                types = {n.id for arg in node.args[1:] for n in ast.walk(arg)
                         if isinstance(n, ast.Name)}
                if ((node.func.id in ("float", "complex") and len(node.args) == 1)
                        or (node.func.id == "isinstance" and types & {"float", "complex"})):
                    found.append((path.name, node.lineno))
    assert found == []


# id -> (name in the message, the range [lo, hi], a call that hands the value
# to the check and returns what the site returns); bessel_I_scaled reads its
# order from the fused series below x = 30 and from the expansion above
INTEGER_CHECKS = {
    "grating-talbot_order": ("talbot_order", 1, sys.float_info.max,
                             lambda v: params.GratingConfig(157e-9, v).talbot_order),
    "spherical_jn_array-lmax": ("lmax", 0, 256, lambda v: specfun.spherical_jn_array(v, 1.0)),
    "bessel_I_scaled-order-series": ("order", 0, 2, lambda v: specfun.bessel_I_scaled(v, 2.0)),
    "bessel_I_scaled-order-expansion": ("order", 0, 2,
                                        lambda v: specfun.bessel_I_scaled(v, 40.0)),
}

# id -> a value that is no integer of the range at any site; the ends come per site
INTEGER_REFUSED = {
    "bool": True,
    "float": 2.0,
    "float-2.5": 2.5,
    "str": "2",
    "bytes": b"2",
    "None": None,
    "10**400": 10 ** 400,
}


@pytest.mark.parametrize("check", sorted(INTEGER_CHECKS))
def test_each_integer_check_keeps_an_int_or_a_numpy_integer_as_an_int(check):
    name, lo, hi, call = INTEGER_CHECKS[check]
    assert call(np.int64(2)) == call(2)
    for value in (2, np.int64(2)):
        kept = errors.integer(name, value, lo, hi)
        assert type(kept) is int and kept == 2
    if check == "grating-talbot_order":
        assert type(call(np.int64(2))) is int


@pytest.mark.parametrize("check, kind", [
    (check, kind) for check in sorted(INTEGER_CHECKS)
    for kind in [*INTEGER_REFUSED, "below", "above"]])
def test_each_integer_check_refuses_the_rest_in_one_wording(check, kind):
    name, lo, hi, call = INTEGER_CHECKS[check]
    value = {"below": lo - 1, "above": int(hi) + 1}.get(kind, INTEGER_REFUSED.get(kind))
    with pytest.raises(DomainError) as refused:
        call(value)
    assert str(refused.value) == f"{name} must be an integer from {lo} to {hi:g}, got {value!r}"


def test_only_errors_checks_an_integer_argument():
    # an isinstance() on int, an operator.index or a membership test against
    # a tuple of int literals would check an order past errors.integer
    found = []
    for path in sorted(Path(cslsim.__file__).parent.glob("*.py")):
        if path.name in ("errors.py", "cli.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                hand = "int" in {n.id for arg in node.args[1:] for n in ast.walk(arg)
                                 if isinstance(n, ast.Name)}
            elif isinstance(node, ast.Attribute):
                hand = node.attr == "index" and getattr(node.value, "id", None) == "operator"
            elif isinstance(node, ast.ImportFrom):
                hand = node.module == "operator" and "index" in {a.name for a in node.names}
            elif isinstance(node, ast.Compare):
                hand = any(isinstance(op, (ast.In, ast.NotIn))
                           and isinstance(right, (ast.Tuple, ast.List, ast.Set)) and right.elts
                           and all(isinstance(e, ast.Constant) and type(e.value) is int
                                   for e in right.elts)
                           for op, right in zip(node.ops, node.comparators))
            else:
                hand = False
            if hand:
                found.append((path.name, node.lineno))
    assert found == []
