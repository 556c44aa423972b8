"""The polytropic pressure law p(rho) = A rho^gamma and the quantities of the
metric that it fixes: the metric weight lambda(rho) = C rho^(2-gamma) with
C = (gamma-1)/(2A), the auxiliary phi(rho) = (lambda - rho*lambda')/2 (so that
p = rho^2 phi / lambda^2), phi', and h'(rho) = p'(rho)/rho.  The special cases
used elsewhere: gamma=3 -> lambda=3/rho, gamma=2 -> lambda const.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, _check_scalar

RHO_MIN = 1e-6
RHO_MAX = 1e6


def _check_rho(rho):
    rho = np.asarray(rho, dtype=float)
    # min and max, which NaN fails (an empty array passes); the message names the side left
    if not (rho.min(initial=RHO_MAX) >= RHO_MIN and rho.max(initial=RHO_MIN) <= RHO_MAX):
        if (rho <= 0).any():
            raise DomainError("density must be positive")
        raise DomainError(f"density outside working range [{RHO_MIN}, {RHO_MAX}]")
    return rho


@dataclass(frozen=True)
class PressureModel:
    """The barotropic model p = A rho^gamma (A > 0, gamma > 1), every
    quantity in closed form.  Each public method checks the density once
    and composes the unchecked forms, which the step loop calls directly."""

    A: float
    gamma: float
    C: float = field(init=False, repr=False)

    def __post_init__(self):
        _check_scalar("A", self.A, 0)
        _check_scalar("gamma", self.gamma, 1)  # phi degenerates at gamma = 1
        object.__setattr__(self, "C", (self.gamma - 1.0) / (2.0 * self.A))

    def lam(self, rho):
        return self._lam(_check_rho(rho))

    def phi(self, rho):
        rho = _check_rho(rho)
        return self._phi(rho, self._lam(rho))

    def curvature_coefficient(self, x):
        """x*phi'(x) + phi(x)^2/lambda(x); its sign controls the 1D curvature."""
        x = _check_rho(x)
        lam = self._lam(x)
        return x * self._dphi(x) + self._phi(x, lam) ** 2 / lam

    def sound_speed(self, rho):
        """sqrt(p'(rho)); used for CFL bounds."""
        return self._sound_speed(_check_rho(rho))

    def _lam(self, rho):
        return self.C * rho ** (2.0 - self.gamma)

    def _phi(self, rho, lam):
        """phi from rho and lam = lambda(rho)."""
        return 0.5 * (lam - rho * (self.C * (2.0 - self.gamma) * rho ** (1.0 - self.gamma)))

    def _dphi(self, rho):
        return 0.5 * self.C * (self.gamma - 1.0) * (2.0 - self.gamma) * rho ** (1.0 - self.gamma)

    def _h_prime(self, rho):
        """h'(rho) = p'(rho)/rho, the coefficient of the linearized equations."""
        return self.A * self.gamma * rho ** (self.gamma - 2.0)

    def _sound_speed(self, rho):
        return np.sqrt(np.maximum(rho * self._h_prime(rho), 0.0))


def polytropic(A: float, gamma: float) -> PressureModel:
    """The model with p(rho) = A rho^gamma."""
    return PressureModel(A, gamma)
