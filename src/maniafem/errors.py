"""Exception types shared across the package."""


class RegimeError(ValueError):
    """A parameter violates one of the admissibility inequalities."""


class EvaluationError(ValueError):
    """A user-supplied function returned a non-finite value."""


class ConsistencyError(RuntimeError):
    """An internal sanity check failed (e.g. a non-finite energy)."""
