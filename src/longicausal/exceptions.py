"""Exception types shared across the package, and its one finite-number check.

All of them derive from ValueError through LongicausalError so callers can
catch either the package family or plain ValueError. `_require_finite` is the
rule for a real-number argument at the API edge: a real number, not a bool,
and finite, or a DomainError.
"""

import math
import numbers


class LongicausalError(ValueError):
    """Base class for all errors raised by this package."""


class PanelError(LongicausalError):
    """Panel construction violated an invariant (length mismatch, bad values)."""


class SingularDesignError(LongicausalError):
    """Design matrix is rank deficient, or a fit's normal equations or information matrix are singular."""


class DomainError(LongicausalError):
    """An argument is outside the operation's domain (response range, se <= 0, ...)."""


def _require_finite(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")


class DegenerateVarianceError(LongicausalError):
    """A fitted treatment model has zero residual variance; densities undefined."""


class WeightError(LongicausalError):
    """A stabilized-weight factor is non-finite for some unit/period."""


class SchemaError(LongicausalError):
    """A CSV input violated its schema. Carries its message and row/column context."""

    def __init__(self, message: str, *, row: int | None = None, column: str | None = None):
        where = []
        if row is not None:
            where.append(f"row {row}")
        if column is not None:
            where.append(f"column '{column}'")
        full = message if not where else f"{message} ({', '.join(where)})"
        super().__init__(full)
        self.message = message
        self.row = row
        self.column = column


class SimulationError(LongicausalError):
    """Simulation cannot proceed (mean overflow, failure budget exceeded)."""
