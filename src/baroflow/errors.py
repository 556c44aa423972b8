"""Exception types shared across the package, and the one scalar parameter check."""

import math
import numbers


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


def _check_scalar(name, value, low=None, high=None, integer=False, closed=False):
    """value, if it is a real number (a numbers.Integral when `integer`), not a
    bool, finite (tested on floats only: an int is finite however large) and in
    (low, high], or in [low, high] for an integer or when `closed`; else a DomainError."""
    closed = closed or integer
    lo, hi = -math.inf if low is None else low, math.inf if high is None else high
    if (not isinstance(value, numbers.Integral if integer else numbers.Real)
            or isinstance(value, bool)
            or not (isinstance(value, numbers.Integral) or math.isfinite(value))
            or not ((lo <= value if closed else lo < value) and value <= hi)):
        what = "an integer" if integer else "a finite real number"
        raise DomainError(f"{name} must be {what} in {'[' if closed and low is not None else '('}"
                          f"{lo}, {hi}{')' if high is None else ']'}, got {value!r}")
    return value
