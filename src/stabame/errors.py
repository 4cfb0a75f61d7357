"""Shared exception types."""


class BudgetExceededError(RuntimeError):
    """A configured size budget (dense, enumeration, or search) would be exceeded."""


class FactsError(ValueError):
    """A facts file is malformed or contains contradictory entries."""
