"""Exception types shared across the package."""


class SymcharError(Exception):
    """Base class for errors raised by this package."""


class NotAUnit(SymcharError):
    """Requested an inverse mod n of a residue that is not coprime to n."""


class DimensionTooLarge(SymcharError):
    """A d!-sized computation was requested above the supported cutoff."""


class BudgetExceeded(SymcharError):
    """A sweep would exceed the configured evaluation budget.

    Carries the number of evaluations the request would need and the
    budget it was checked against.
    """

    def __init__(self, required, budget):
        super().__init__(f"would need {required} evaluations, budget is {budget}")
        self.required = required
        self.budget = budget

    @classmethod
    def check(cls, required, budget):
        """Raise BudgetExceeded unless `required` evaluations fit in `budget`."""
        if required > budget:
            raise cls(required, budget)


class NoUnitPivot(SymcharError):
    """Row reduction mod n stalled: no remaining entry is coprime to n."""


class HypothesisFailed(SymcharError):
    """A check was invoked on inputs that do not satisfy its hypothesis."""


class DimensionMismatch(SymcharError):
    """Vector or matrix arguments have incompatible shapes."""


class VerificationFailed(SymcharError):
    """An internal consistency check that should hold identically failed.

    Carries a witness describing the failing instance.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
