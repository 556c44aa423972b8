"""Exception types shared across the package."""


class BaroflowError(Exception):
    """Base class for all package errors.  One that ends a time-stepped run
    names the guard that fired, the failed step (1-based) and the time t it
    started from; each is None for a failure outside the step loop."""

    step: int | None = None
    t: float | None = None

    def __init__(self, *args, guard: str | None = None):
        super().__init__(*args)
        self.guard = guard


class DomainError(BaroflowError, ValueError):
    """An input is outside its mathematical domain (e.g. nonpositive density)."""


class GridMismatchError(BaroflowError, ValueError):
    """Fields that must share a grid do not."""


class StepSizeError(BaroflowError, ValueError):
    """Time step violates the CFL bound."""


class ShockError(BaroflowError, RuntimeError):
    """The flow map lost monotonicity; the smooth solution has ended."""


class VacuumError(BaroflowError, ValueError):
    """A density profile would become nonpositive."""


class InstabilityFlagError(BaroflowError, RuntimeError):
    """A spectral quantity violates the boundedness criterion it was supposed to satisfy."""

