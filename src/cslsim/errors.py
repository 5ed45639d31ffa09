"""Exception hierarchy shared by all cslsim modules."""


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
