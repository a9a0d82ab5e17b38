"""Exception types shared across the library."""


class DiscriminationError(Exception):
    """Base class for all errors raised by this package."""


class ContractViolation(DiscriminationError):
    """An argument violates a documented precondition (bad norm, wrong plane, ...)."""


class DegenerateEnsemble(DiscriminationError):
    """The ensemble Bloch vector is too short to define a direction."""
