"""Semantic exception hierarchy for visitprob."""


class VisitProbError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(VisitProbError, ValueError):
    """An argument violates its contract (range, type, or consistency)."""


class BackendMismatchError(VisitProbError, TypeError):
    """Values from different numeric backends were mixed in one operation."""


class EnumerationGuardError(VisitProbError, RuntimeError):
    """An exhaustive enumeration would exceed the configured size guard."""


class NumericalError(VisitProbError, ArithmeticError):
    """A backend's arithmetic overflowed or lost its result (inf or NaN)."""
