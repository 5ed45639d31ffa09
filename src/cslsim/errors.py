"""Exception hierarchy shared by all cslsim modules, and the two range checks."""

import math


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


def finite(name: str, value, zero: bool = False):
    """`value` if it is finite and > 0, or >= 0 with `zero`; else DomainError.

    NaN fails both comparisons, so it is refused like inf, and a value that
    does not compare with a float, such as None, is refused too.
    """
    try:
        if 0.0 <= value < math.inf if zero else 0.0 < value < math.inf:
            return value
    except TypeError:
        pass
    raise DomainError(f"{name} must be {'>= 0' if zero else 'positive'} and finite, got {value}")


def open_interval(name: str, value, hi: float) -> None:
    """DomainError unless `value` lies in (0, hi): NaN, None, a str and a list fail too."""
    try:
        if 0.0 < value < hi:
            return
    except TypeError:
        pass
    raise DomainError(f"{name} must lie in (0, {hi:g}), got {value}")
