"""Closed-form Jacobi analysis along the uniformly sheared torus geodesic
u = omega d/dy, rho = 1: the displacement splits into a gradient part that
oscillates acoustically and a divergence-free part that grows linearly, so
boundedness holds exactly when the initial perturbation is a gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import grids
from .errors import _check_scalar
from .grids import TorusGrid, VectorField, _irfft2, hodge_decompose, integrate

BOUNDED_TOL = 1e-10  # the divergence-free part's L^2 norm below which v0 is a gradient


@dataclass(frozen=True)
class TorusModeSolution:
    """Spectral data for the shear-geodesic Jacobi field: f_hat holds the FFT
    of the gradient potential of v0, z the divergence-free remainder."""

    grid: TorusGrid
    f_hat: np.ndarray
    z: VectorField
    omega: float
    c: float

    def __post_init__(self):
        _check_scalar("omega", self.omega)
        _check_scalar("c", self.c, 0)

    @cached_property
    def _half_spectra(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """On the half spectrum along y (ny//2 + 1 columns): the gradient
        part's components i k_a f_hat / (c|k|), zero at k = 0; rfft2 of z;
        c|k| on the kx rows 0..nx/2, which row nx - k repeats bit for bit;
        and the ky row.  The x derivative is zeroed on the kx Nyquist row
        (the grid counts are even), where i kx is anti-Hermitian: the
        full-spectrum real part drops it, so the half spectrum must too."""
        g = self.grid
        h = g.ny // 2 + 1
        kx, ky = g.wavenumbers
        ky = ky[:, :h]
        ck = self.c * np.sqrt(kx**2 + ky**2)
        osc = self.f_hat[:, :h] / np.where(ck == 0, 1.0, ck)
        osc[0, 0] = 0.0
        dx = 1j * kx
        dx[g.nx // 2] = 0.0
        grad_hat = np.stack([dx * osc, 1j * ky * osc])
        return grad_hat, np.fft.rfft2(self.z.values), ck[:g.nx // 2 + 1], ky

    def j_at(self, t: float) -> VectorField:
        """j(t) = sum_k (a_k sin(c|k|t)/(c|k|)) grad phi_k(x, y - omega t)
        + t z(x, y - omega t), by one half-spectrum inverse transform, with
        one sine per kx row 0..nx/2, mirrored onto rows nx/2 + 1..nx - 1."""
        _check_scalar("t", t)
        grad_hat, z_hat, ck, ky = self._half_spectra
        sines = np.sin(ck * t)
        spec = np.concatenate([sines, sines[-2:0:-1]]) * grad_hat
        spec += t * z_hat
        spec *= np.exp(-1j * ky * self.omega * t)
        return VectorField(self.grid, _irfft2(spec, self.grid.shape))

    def series_bound(self) -> float:
        """sup_t ||gradient part of j(t)||_inf <= sum_k |f_hat_k| / (c N)."""
        n_total = self.grid.nx * self.grid.ny
        total = np.sum(np.abs(self.f_hat)) - np.abs(self.f_hat[0, 0])
        return float(total) / (self.c * n_total)

def synthesize(v0: VectorField, omega: float, c: float) -> TorusModeSolution:
    f, z = hodge_decompose(v0)
    return TorusModeSolution(v0.grid, np.fft.fft2(f.values), z, omega, c)


@dataclass(frozen=True)
class BoundednessReport:
    bounded: bool
    w_norm: float
    series_bound: float | None


def classify_boundedness(sol: TorusModeSolution) -> BoundednessReport:
    """Bounded displacement iff v0 is a gradient: certificate is the L^2 norm
    of the divergence-free Hodge part of the solution's v0 (below
    BOUNDED_TOL), plus the analytic sup bound when bounded; omega does not enter."""
    w_norm = float(np.sqrt(integrate(grids.inner(sol.z, sol.z))))
    bounded = w_norm < BOUNDED_TOL
    return BoundednessReport(bounded, w_norm, sol.series_bound() if bounded else None)

