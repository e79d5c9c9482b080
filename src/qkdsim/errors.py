"""Exception types shared across the package."""

import math


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


def _count(n: int) -> str:
    """n in full up to 18 digits, beyond that to three significant digits
    ("1.41e+1505"), found without converting n to a string: Python refuses
    that past 4300 digits, and a count of outcome tuples can have more."""
    n = int(n)
    if n < 10**18:
        return str(n)
    exp = int(math.log10(n))
    exp += (10 ** (exp + 1) <= n) - (10**exp > n)
    lead = (n * 1000 // 10**exp + 5) // 10
    if lead == 1000:
        lead, exp = 100, exp + 1
    return f"{lead // 100}.{lead % 100:02d}e+{exp}"


class BudgetExceeded(RuntimeError):
    """A count of what an operation would build exceeds the budget.

    ``limiting_dim`` is that count and ``quantity`` names it: by default a
    total complex dimension (for a tensor power possibly its Kraus count);
    in a simulation the receiver's Gram dimension or the number of the
    adversary's outcome tuples. The message gives a count beyond 18 digits
    to three significant digits.
    """

    def __init__(
        self, limiting_dim: int, budget: int, context: str = "", quantity: str = "dimension"
    ):
        self.limiting_dim = limiting_dim
        self.budget = budget
        where = f" ({context})" if context else ""
        super().__init__(f"{quantity} {_count(limiting_dim)} exceeds budget {budget}{where}")
