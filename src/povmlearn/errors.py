"""The exception type of the library."""


class ContractViolation(Exception):
    """An argument violates a documented precondition (bad norm, wrong plane, ...)."""
