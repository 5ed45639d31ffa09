"""Exception hierarchy shared by all cslsim modules, and the number checks,
which return the checked value as a float (or a complex, or an int) for
callers to keep."""

import cmath
import math
import operator


class CslSimError(Exception):
    """Base class for all cslsim errors."""


class DomainError(CslSimError, ValueError):
    """An argument is outside the mathematical domain of a function."""


class NonConvergenceError(CslSimError, ArithmeticError):
    """An iterative sum or integral did not meet its tail bound."""


class ResonanceError(NonConvergenceError):
    """A multipole denominator is degenerate (numerical morphology resonance)."""


class GeometryError(CslSimError, ValueError):
    """The sphere does not fit the sub-period grating model (R >= d)."""


class UnachievableTargetError(CslSimError, ValueError):
    """The requested visibility cannot be reached on the monotone branch."""


class ConfigError(CslSimError, ValueError):
    """Malformed configuration file or command-line usage."""


def _real(value) -> float:
    """float(value); NaN, which every range refuses, for text and for what
    float() does not convert (None, a complex, a list, 10**400)."""
    try:
        return math.nan if isinstance(value, (str, bytes)) else float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def finite(name: str, value, zero: bool = False) -> float:
    """`value` as a float if it is a real number (what float() converts, text
    excepted), finite and > 0, or >= 0 with `zero`; else DomainError."""
    x = value if type(value) is float else _real(value)
    if 0.0 <= x < math.inf if zero else 0.0 < x < math.inf:
        return x
    raise DomainError(f"{name} must be {'>= 0' if zero else 'positive'} and finite, "
                      f"got {value!r}")


def open_interval(name: str, value, hi: float) -> float:
    """`value` as a float if it is a real number in (0, hi); else DomainError."""
    x = value if type(value) is float else _real(value)
    if 0.0 < x < hi:
        return x
    raise DomainError(f"{name} must lie in (0, {hi:g}), got {value!r}")


def finite_complex(name: str, value) -> complex:
    """complex(value) if that converts, text such as "1+2j" included, and both
    parts are finite; else DomainError."""
    try:
        z = complex(value)
        if cmath.isfinite(z):
            return z
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"{name} must be a complex number with finite parts, got {value!r}")


def integer(name: str, value, lo: int, hi: float) -> int:
    """`value` as an int if it is an integer (what operator.index takes, an
    int or a numpy integer, a bool excepted) in [lo, hi]; else DomainError."""
    try:
        n = value if type(value) is int else operator.index(value)
    except TypeError:  # a float, text, None
        n = None
    if n is not None and type(value) is not bool and lo <= n <= hi:
        return n
    raise DomainError(f"{name} must be an integer from {lo} to {hi:g}, got {value!r}")
