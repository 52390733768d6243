"""Exception types shared across the package."""

__all__ = [
    "AmbiguousSelectionError",
    "ArithmeticFault",
    "BudgetExceededError",
    "DimensionMismatchError",
    "InconsistentConstantRowError",
    "IterationLimitError",
    "ModelFormatError",
    "NonFiniteError",
    "PointNotLocatedError",
    "UnwrapError",
]


class UnwrapError(Exception):
    """Base class for all library-specific errors."""


class ModelFormatError(UnwrapError):
    """A model, decomposition, or shallow-network file is malformed."""


class DimensionMismatchError(UnwrapError):
    """Array shapes do not chain or do not match a declared dimension."""


class NonFiniteError(UnwrapError):
    """An entry is NaN or infinite where only finite values are allowed."""


class IterationLimitError(UnwrapError):
    """Simplex pivot budget exhausted; signals numerical pathology.

    Pattern-search callers must treat the tested cell as feasible when this
    is raised, so an ill-conditioned program can never prune a region.
    """


class BudgetExceededError(UnwrapError):
    """Pattern-search budget of feasibility LPs exhausted.

    ``partial`` carries the enumeration state gathered so far.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class ArithmeticFault(UnwrapError):
    """Undefined extended-real operation, e.g. adding +inf to -inf."""


class AmbiguousSelectionError(UnwrapError):
    """More than one region row fired for one output coordinate."""


class PointNotLocatedError(UnwrapError):
    """No region of a decomposition contains the query point.

    ``nearest_region`` holds the index of the region with the largest
    minimum slack, which is the best numerical candidate.
    """

    def __init__(self, message, nearest_region=None):
        super().__init__(message)
        self.nearest_region = nearest_region


class InconsistentConstantRowError(UnwrapError):
    """A constraint row with a zero normal contradicts its own pattern bit."""
