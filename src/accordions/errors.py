"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """Parameters fall outside the contract of an operation or family."""


class NotApplicableError(ValueError):
    """The query lies outside the regime a decider covers.

    The library no longer raises it: every decider answers every valid
    query (a circulant with both lengths even is a "both-even" no from
    circulant_iso_accordion).  The name stays exported for code that still
    catches it.
    """


class InvariantViolationError(RuntimeError):
    """An internal self-check failed; signals an implementation bug."""


class BudgetExceededError(RuntimeError):
    """The oracle's node budget ran out before the search completed."""
