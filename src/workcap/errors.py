"""Exception types shared across the package."""

from __future__ import annotations


class WorkcapError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(WorkcapError, ValueError):
    """Shapes or alphabets do not line up."""


class DomainError(WorkcapError, ValueError):
    """An argument is outside the operation's domain (e.g. a table entry
    outside [0, 1], or an unknown entropy base)."""


class ConvergenceError(WorkcapError, RuntimeError):
    """A certified computation did not close within its budget;
    ``estimates`` holds the (lower, upper) interval it reached."""

    def __init__(self, message: str, estimates: tuple[float, float] | None = None):
        super().__init__(message)
        self.estimates = estimates


class BudgetError(WorkcapError, RuntimeError):
    """An exact enumeration would exceed the configured memory budget."""

    def __init__(self, message: str, required: int | None = None, budget: int | None = None):
        super().__init__(message)
        self.required = required
        self.budget = budget


class ChannelClassError(WorkcapError, ValueError):
    """A model does not belong to the channel class an operation requires."""


class ModelFormatError(WorkcapError, ValueError):
    """A model file violates the file-format contract.  In-memory models are
    checked at construction and raise DomainError or DimensionError."""


class InternalConsistencyError(WorkcapError, RuntimeError):
    """A quantity that must be nonnegative came out negative beyond rounding."""
