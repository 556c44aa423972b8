"""Correspondence between the metric weight lambda(rho), the auxiliary
phi(rho) = (lambda - rho*lambda')/2, and the pressure p(rho) = rho^2 phi / lambda^2.

The polytropic family p = A rho^gamma corresponds to
lambda(rho) = ((gamma-1)/(2A)) rho^(2-gamma); that inverse map reproduces both
special cases used elsewhere (gamma=3 -> lambda=3/rho, gamma=2 -> lambda const).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError

RHO_MIN = 1e-6
RHO_MAX = 1e6


def _check_rho(rho):
    rho = np.asarray(rho, dtype=float)
    if (rho <= 0).any():
        raise DomainError("density must be positive")
    if (rho < RHO_MIN).any() or (rho > RHO_MAX).any():
        raise DomainError(f"density outside working range [{RHO_MIN}, {RHO_MAX}]")
    return rho


@dataclass(frozen=True)
class PressureModel:
    """Barotropic model defined by the metric weight lambda and its derivative.

    For polytropic models (A, gamma set) the derived quantities phi', psi, h'
    use closed forms; otherwise phi' falls back to a centered finite difference
    with step 1e-6*x and psi to quadrature of p/rho^2.
    """

    lam_fn: Callable[[np.ndarray], np.ndarray]
    dlam_fn: Callable[[np.ndarray], np.ndarray]
    name: str = "custom"
    A: float | None = None
    gamma: float | None = None
    reference_p: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self):
        sample = np.geomspace(0.1, 10.0, 7)
        lam = self.lam_fn(sample)
        if np.any(np.asarray(lam) <= 0):
            raise DomainError("lambda(rho) must be positive on the working range")
        if self.reference_p is not None:
            p = self.pressure(sample)
            ref = np.asarray(self.reference_p(sample), dtype=float)
            if np.max(np.abs(p - ref)) > 1e-10 * max(1.0, np.max(np.abs(ref))):
                raise DomainError("lambda-derived pressure disagrees with reference p")

    @property
    def is_polytropic(self) -> bool:
        return self.A is not None

    def lam(self, rho):
        return self.lam_fn(_check_rho(rho))

    def dlam(self, rho):
        return self.dlam_fn(_check_rho(rho))

    def phi(self, rho):
        rho = _check_rho(rho)
        return 0.5 * (self.lam_fn(rho) - rho * self.dlam_fn(rho))

    def dphi(self, rho):
        rho = _check_rho(rho)
        if self.is_polytropic:
            C = (self.gamma - 1.0) / (2.0 * self.A)
            return 0.5 * C * (self.gamma - 1.0) * (2.0 - self.gamma) * rho ** (1.0 - self.gamma)
        h = 1e-6 * rho
        return (self.phi(rho + h) - self.phi(rho - h)) / (2 * h)

    def pressure(self, rho):
        rho = _check_rho(rho)
        return rho**2 * self.phi(rho) / self.lam_fn(rho) ** 2

    def curvature_coefficient(self, x):
        """x*phi'(x) + phi(x)^2/lambda(x); its sign controls the 1D curvature."""
        x = _check_rho(x)
        return x * self.dphi(x) + self.phi(x) ** 2 / self.lam_fn(x)

    def potential_density(self, rho):
        """psi(rho) with psi'(rho) = p(rho)/rho^2."""
        rho = _check_rho(rho)
        if self.is_polytropic:
            return self.A * rho ** (self.gamma - 1.0) / (self.gamma - 1.0)
        scalar = rho.ndim == 0
        rho1 = np.atleast_1d(rho)
        out = np.empty_like(rho1)
        for i, r in enumerate(rho1):
            s = np.linspace(1.0, r, 201)
            out[i] = np.trapezoid(self.pressure(s) / s**2, s)
        return out[0] if scalar else out

    def linearization_coefficient(self, rho):
        """h'(rho) = p'(rho)/rho, the coefficient of the linearized equations."""
        rho = _check_rho(rho)
        if self.is_polytropic:
            return self.A * self.gamma * rho ** (self.gamma - 2.0)
        h = 1e-6 * rho
        dp = (self.pressure(rho + h) - self.pressure(rho - h)) / (2 * h)
        return dp / rho

    def sound_speed(self, rho):
        """sqrt(p'(rho)); used for CFL bounds."""
        rho = _check_rho(rho)
        return np.sqrt(np.maximum(rho * self.linearization_coefficient(rho), 0.0))


def polytropic(A: float, gamma: float) -> PressureModel:
    """Model with p(rho) = A rho^gamma, via lambda = ((gamma-1)/(2A)) rho^(2-gamma)."""
    if A <= 0:
        raise DomainError("polytropic A must be positive")
    if gamma <= 1:
        raise DomainError("polytropic gamma must exceed 1 (phi degenerates otherwise)")
    C = (gamma - 1.0) / (2.0 * A)
    return PressureModel(
        lam_fn=lambda rho: C * rho ** (2.0 - gamma),
        dlam_fn=lambda rho: C * (2.0 - gamma) * rho ** (1.0 - gamma),
        name=f"polytropic(A={A}, gamma={gamma})",
        A=A,
        gamma=gamma,
    )


def from_catalog(name: str, c: float = 1.0) -> PressureModel:
    """Small fixed catalog of lambda choices: 'rho', '3/rho', 'const'."""
    if name == "rho":
        return PressureModel(lambda r: r, lambda r: np.ones_like(r), name="lambda=rho")
    if name == "3/rho":
        return polytropic(1.0 / 3.0, 3.0)
    if name == "const":
        return polytropic(c**2 / 2.0, 2.0)
    raise DomainError(f"unknown catalog model {name!r}")


@dataclass(frozen=True)
class EntropyPressure:
    """Separable extension p(rho, s) = p(rho) * zeta(s)^2 of a barotropic model."""

    base: PressureModel
    zeta: Callable[[np.ndarray], np.ndarray]
    zeta_inv: Callable[[np.ndarray], np.ndarray] | None = None

    def pressure(self, rho, s):
        return self.base.pressure(rho) * np.asarray(self.zeta(s)) ** 2
