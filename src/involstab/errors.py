"""Exception hierarchy shared across the package."""


class InvolStabError(Exception):
    """Base class for all package-specific failures."""


class SpecMismatch(InvolStabError):
    """Operands, or an operand and a map, from different algebra instances."""


class DegenerateDirection(InvolStabError):
    """Random direction draw produced the zero element repeatedly."""


class KindSpecMismatch(InvolStabError):
    """Involution kind is not defined on the given algebra instance."""


class NotContractive(InvolStabError):
    """Measured orbit ratio exceeds the declared Lipschitz constant."""


class Exhausted(InvolStabError):
    """Orbit distances are finite but the tolerance was not met in time."""


class NoContraction(InvolStabError):
    """No scaling direction makes the control function contractive."""


class StabilizationFailure(InvolStabError):
    """Scaling-limit iteration could not produce a usable limit."""


class IterateOverflow(StabilizationFailure):
    """An iterate's argument exceeded the overflow guard, or its value is
    not finite."""


class NonCauchy(StabilizationFailure):
    """A ladder difference broke the tail bound; hypothesis violated."""


class OutOfRange(InvolStabError):
    """Parameter outside the valid range for the requested regime."""


class ConfigError(InvolStabError):
    """Scenario configuration failed validation; message names the key."""
