"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An object failed one of its construction invariants.

    The ``invariant`` attribute names the violated invariant so that error
    reporting (and the CLI) can surface which check failed.
    """

    def __init__(self, invariant: str, message: str):
        self.invariant = invariant
        super().__init__(f"{invariant}: {message}")


class DimensionMismatch(ValidationError):
    """Two objects were combined whose dimensions are incompatible."""

    def __init__(self, message: str):
        super().__init__("dimension-mismatch", message)


class BudgetExceeded(RuntimeError):
    """A count of what an operation would build exceeds the budget.

    ``limiting_dim`` is that count and ``quantity`` names it: by default a
    total complex dimension (for a tensor power possibly its Kraus count);
    in a simulation the receiver's Gram dimension or the number of the
    adversary's outcome tuples.
    """

    def __init__(
        self, limiting_dim: int, budget: int, context: str = "", quantity: str = "dimension"
    ):
        self.limiting_dim = limiting_dim
        self.budget = budget
        where = f" ({context})" if context else ""
        super().__init__(f"{quantity} {limiting_dim} exceeds budget {budget}{where}")
