"""Closed-form 1D machinery for the pressure law p(rho) = rho^3/3 (lambda =
3/rho): Riemann invariants u +/- rho each satisfy Burgers' equation, so the
pre-shock solution, the exact Jacobi field, and the conjugate times along the
constant geodesic are all available in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError, GridMismatchError, ShockError, _check_scalar
from .geodesic import FluidState
from .grids import (
    CircleGrid,
    ScalarField,
    VectorField,
    _interp_coeffs,
    _minimize_bounded,
    _phases,
    check_same_grid,
    circle_interp_antideriv,
)


@dataclass(frozen=True)
class RiemannData:
    """Riemann invariants alpha_plus = u + rho, alpha_minus = u - rho at t=0."""

    alpha_plus: ScalarField
    alpha_minus: ScalarField

    def __post_init__(self):
        check_same_grid(self.alpha_plus, self.alpha_minus)
        if np.any(self.alpha_plus.values <= self.alpha_minus.values):
            raise DomainError("density must be positive (alpha_plus must exceed alpha_minus)")

    @property
    def grid(self) -> CircleGrid:
        return self.alpha_plus.grid


def riemann_invariants(u0: ScalarField, rho0: ScalarField) -> RiemannData:
    g = check_same_grid(u0, rho0)
    return RiemannData(ScalarField(g, u0.values + rho0.values),
                       ScalarField(g, u0.values - rho0.values))


def shock_time(alpha0: ScalarField) -> float:
    """T* = 1/max(-alpha0'), or +inf if alpha0 is nondecreasing."""
    return _flow(alpha0).shock_time


def _flow(alpha0: ScalarField) -> CharacteristicFlow:
    """The flow of alpha0, built once per datum, so that the closed forms on
    one datum share its shock time and fine-grid table.  The cache is keyed by
    the bytes of alpha0 (a caller that changes its array gets a new flow),
    and each flow holds a read-only copy of them."""
    return _cached_flow(alpha0.grid, alpha0.values.tobytes())


@lru_cache(maxsize=8)
def _cached_flow(grid: CircleGrid, data: bytes) -> CharacteristicFlow:
    return CharacteristicFlow(ScalarField(grid, np.frombuffer(data)))


@dataclass(frozen=True)
class CharacteristicFlow:
    """The Burgers characteristic flow xi(t,x) = x + t alpha0(x) and its
    spatial inverse chi, valid for t below the shock time.  The trigonometric
    interpolant of alpha0 and its derivative are summed from coefficients
    formed once per flow, as circle_interp forms them, so every value at a
    point is bitwise the circle_interp one; the values on the fine grid come
    from an irfft of the same coefficients, and give both the shock time and
    the seed and bracket of each inversion."""

    alpha0: ScalarField

    @cached_property
    def _coeffs(self) -> tuple[np.ndarray, np.ndarray]:
        vals = self.alpha0.values
        return _interp_coeffs(vals), _interp_coeffs(vals, 1)

    @cached_property
    def _fine(self) -> tuple[np.ndarray, np.ndarray]:
        """The interpolant and minus its slope on the uniform 8n-point grid
        2 pi j / 8n, from one zero-padded irfft of the coefficients; all but
        the mean are halved, since irfft counts each interior bin twice.  The
        slope locates the shock time; the values seed the inversion."""
        c = np.stack(self._coeffs)
        c[:, 1:] *= 0.5
        a, da = np.fft.irfft(c, 8 * self.alpha0.grid.n, norm="forward")
        return a, -da

    @cached_property
    def shock_time(self) -> float:
        """1/max_x(-alpha0'(x)) over the continuum: the fine-grid maximum,
        refined over the cells either side of it by grids._minimize_bounded
        (Brent's method, xatol 1e-13; bitwise scipy's bounded
        minimize_scalar); +inf if alpha0 is nondecreasing."""
        da = self._coeffs[1]
        slope = self._fine[1]
        k = int(np.argmax(slope))
        h = 2 * np.pi / len(slope)
        _, fmin = _minimize_bounded(
            lambda x: float(np.real(_phases(np.array([x], dtype=float), len(da)) @ da)[0]),
            k * h - h, k * h + h, 1e-13)
        m = max(float(slope[k]), -fmin)
        if m <= 1e-13:
            return float("inf")
        return 1.0 / m

    def _invert(self, t: float, x) -> tuple[np.ndarray, np.ndarray]:
        """Solve x = chi + t alpha0(chi) for chi (lift on the real line) by
        safeguarded Newton iteration, bisection fallback; returns chi and
        alpha0(chi) at chi.ravel().  Before the shock time xi_j = z_j + t a_j
        increases on the fine grid and chi - x is 2 pi-periodic, so
        interpolating that table puts the seed in the root's fine cell, and
        the seed -/+ two cells is a bracket with a cell of slack for
        rounding; xi mod 2 pi is the sorted table rotated at its minimum, so
        one gather sorts it and pads it as np.interp's period option does,
        without that option's argsort.  Each iterate's value and slope come
        from one phase build; a step that lands on a bracket end (a converged
        point whose step rounds to zero) is kept.  The value is the converged
        iterate's, bitwise circle_interp's, since it sums the same
        coefficients against the same phases."""
        if t >= self.shock_time:
            raise ShockError(f"t={t} is at or past the shock time {self.shock_time}")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        a, da = self._coeffs
        afine = self._fine[0]
        z, h = np.linspace(0.0, 2 * np.pi, len(afine), endpoint=False, retstep=True)
        xi = (z + t * afine) % (2 * np.pi)
        idx = np.arange(-1, len(xi) + 1) + int(np.argmin(xi))
        xp = np.take(xi, idx, mode="wrap")
        xp[[0, -1]] += (-2 * np.pi, 2 * np.pi)
        chi = x + np.interp(x % (2 * np.pi), xp, np.take(-t * afine, idx, mode="wrap"))
        lo, hi = chi - 2 * h, chi + 2 * h
        for _ in range(100):
            phases = _phases(chi.ravel(), len(a))
            value = np.real(phases @ a)
            f = chi + t * value - x
            lo = np.where(f < 0, chi, lo)
            hi = np.where(f > 0, chi, hi)
            if np.max(np.abs(f)) < 1e-13:
                return chi, value
            fp = 1.0 + t * np.real(phases @ da)
            step = np.where(fp > 1e-10, f / np.where(fp > 1e-10, fp, 1.0), 0.0)
            nxt = chi - step
            bad = (nxt < lo) | (nxt > hi) | (fp <= 1e-10)
            chi = np.where(bad, 0.5 * (lo + hi), nxt)
        return chi, np.real(_phases(chi.ravel(), len(a)) @ a)


def _trace_back(u0: ScalarField, rho0: ScalarField, t: float):
    """The feet chi_+, chi_- at time 0 of the characteristics through the
    grid nodes at time t, each with its Riemann invariant's value there:
    (grid, (chi_+, alpha_+), (chi_-, alpha_-)), for t >= 0 only."""
    _check_scalar("t", t, 0, closed=True)
    inv = riemann_invariants(u0, rho0)
    x = inv.grid.x
    return inv.grid, _flow(inv.alpha_plus)._invert(t, x), _flow(inv.alpha_minus)._invert(t, x)


def exact_state(u0: ScalarField, rho0: ScalarField, t: float) -> FluidState:
    """Pre-shock solution by tracing both Riemann invariants back along their
    characteristics; returns the barotropic state (q = rho)."""
    g, (_, ap), (_, am) = _trace_back(u0, rho0, t)
    u = ScalarField(g, 0.5 * (ap + am))
    rho = ScalarField(g, 0.5 * (ap - am))
    return FluidState(VectorField(g, u.values[None]), rho, ScalarField(g, rho.values.copy()))


def exact_jacobi(u0: ScalarField, rho0: ScalarField, v0: ScalarField,
                 t: float) -> VectorField:
    """Exact Jacobi field with J(0)=0, J'(0)=(v0, 0):
    rho(t,x) j(t,x) = (1/2) int_{chi_+(t,x)}^{chi_-(t,x)} v0(y) dy.

    The integral uses the exact antiderivative of the trigonometric
    interpolant of v0, with the inverse characteristics lifted to the real
    line so the endpoints are well defined for any t."""
    if not isinstance(v0, ScalarField):
        raise GridMismatchError(f"v0 must be a ScalarField, got {type(v0).__name__}")
    g, (chi_p, ap), (chi_m, am) = _trace_back(u0, rho0, t)
    rho = 0.5 * (ap - am)
    V = circle_interp_antideriv(v0.values, np.concatenate([chi_m, chi_p]))
    j = 0.5 * (V[: g.n] - V[g.n:]) / rho
    return VectorField(g, j[None])


def conjugate_times(n: int, m_max: int) -> list[float]:
    """Conjugate times 2 pi m / n along the constant geodesic for the mode
    v0 = cos(nx)."""
    _check_scalar("n", n, 1, integer=True)
    _check_scalar("m_max", m_max, 1, integer=True)
    return [2 * np.pi * m / n for m in range(1, m_max + 1)]
