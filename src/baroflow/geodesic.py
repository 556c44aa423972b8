"""Time integration of the compressible geodesic system (barotropic Euler with
the auxiliary variable q), plus the flow map, steady states, and energy.

Method of lines: spectral space derivatives, classical RK4 in time.  The flow
map is carried on the circle as a lift on the real line and advanced by
evaluating the trigonometric interpolant of u at the particle positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import grids
from .errors import DomainError, ShockError, StepSizeError, VacuumError
from .grids import (
    CircleGrid,
    DiscGrid,
    ScalarField,
    TorusGrid,
    VectorField,
    check_same_grid,
    circle_interp,
    integrate,
)
from .pressure import PressureModel, polytropic

SHOCK_JACOBIAN_FLOOR = 1e-3
CFL_SAFETY = 0.5


@dataclass(frozen=True)
class FluidState:
    """Velocity, density, and the auxiliary metric variable q = lambda(rho) f."""

    u: VectorField
    rho: ScalarField
    q: ScalarField

    def __post_init__(self):
        check_same_grid(self.u, self.rho, self.q)
        if np.any(self.rho.values <= 0):
            raise DomainError("density must be positive pointwise")

    @property
    def grid(self):
        return self.rho.grid

    def f(self, model: PressureModel) -> ScalarField:
        return ScalarField(self.grid, self.q.values / model.lam(self.rho.values))


@dataclass(frozen=True)
class FlowMap:
    """Particle positions eta per reference node, tracked as a lift on the real
    line (circle only), with the initial density for compatibility checks."""

    eta: np.ndarray
    rho0: ScalarField

    def __post_init__(self):
        object.__setattr__(self, "eta", np.asarray(self.eta, dtype=float))
        if self.eta.shape != self.rho0.grid.shape:
            raise DomainError("flow map shape does not match its grid")

    @property
    def grid(self):
        return self.rho0.grid

    def jacobian(self) -> np.ndarray:
        """d eta / dx, spectral on the periodic displacement eta - x."""
        g = self.grid
        disp = self.eta - g.x
        return 1.0 + grids.derivative(ScalarField(g, disp)).values

    def compatibility_residual(self, rho: ScalarField) -> float:
        """sup norm of rho(eta) * Jac(eta) - rho0."""
        rho_at_eta = circle_interp(rho.values, self.eta)
        return float(np.max(np.abs(rho_at_eta * self.jacobian() - self.rho0.values)))


def identity_flowmap(rho0: ScalarField) -> FlowMap:
    return FlowMap(rho0.grid.x.copy(), rho0)


@dataclass
class GeodesicTrajectory:
    times: list[float] = field(default_factory=list)
    states: list[FluidState] = field(default_factory=list)
    flowmaps: list[FlowMap | None] = field(default_factory=list)
    energies: list[float] = field(default_factory=list)

    def append(self, t, state, flowmap, energy_value):
        if self.times and t <= self.times[-1]:
            raise ValueError("trajectory times must be strictly increasing")
        self.times.append(t)
        self.states.append(state)
        self.flowmaps.append(flowmap)
        self.energies.append(energy_value)

    def energy_drift(self) -> float:
        e = np.asarray(self.energies)
        if e[0] == 0:
            return float(np.max(np.abs(e)))
        return float(np.max(np.abs(e - e[0]) / abs(e[0])))


def barotropic_initializer(u0: VectorField, rho0: ScalarField, model: PressureModel) -> FluidState:
    """Barotropic initial data: q0 = rho0 (equivalently f0 = rho0/lambda(rho0))."""
    check_same_grid(u0, rho0)
    if np.any(rho0.values <= 0):
        raise DomainError("density must be positive pointwise")
    return FluidState(u0, rho0, ScalarField(rho0.grid, rho0.values.copy()))


def entropy_initializer(u0: VectorField, rho0: ScalarField, s0: ScalarField,
                        zeta) -> FluidState:
    """Initial data with an entropy profile: q0 = rho0 * zeta(s0)."""
    check_same_grid(u0, rho0, s0)
    return FluidState(u0, rho0, ScalarField(rho0.grid, rho0.values * zeta(s0.values)))


def energy(state: FluidState, model: PressureModel) -> float:
    """E = (1/2) int [lambda(rho) f^2 + rho |u|^2] dmu with f = q/lambda(rho)."""
    lam = model.lam(state.rho.values)
    dens = state.q.values**2 / lam + state.rho.values * grids.inner(state.u, state.u).values
    return 0.5 * integrate(ScalarField(state.grid, dens))


def cfl_dt_max(state: FluidState, model: PressureModel) -> float:
    """Largest admissible step 0.5 * dx / max(|u| + wavespeed)."""
    g = state.grid
    if isinstance(g, CircleGrid):
        dx = g.dx
    elif isinstance(g, TorusGrid):
        dx = min(2 * np.pi / g.nx, 2 * np.pi / g.ny)
    else:
        raise DomainError("time stepping is supported on periodic grids")
    speed = np.sqrt(grids.inner(state.u, state.u).values)
    cs = model.sound_speed(state.rho.values)
    return CFL_SAFETY * dx / float(np.max(speed + cs))


def _rhs(u: np.ndarray, rho: np.ndarray, q: np.ndarray, eta, grid, model):
    uf = VectorField(grid, u)
    rhof = ScalarField(grid, rho)
    phi = model.phi(rhof.values)
    lam = model.lam(rhof.values)
    pressure_like = ScalarField(grid, q**2 * phi / lam**2)
    du = -(grids.covariant_derivative(uf, uf).values
           + grids.grad(pressure_like).values / rhof.values)
    dq = -grids.div(VectorField(grid, q * u)).values
    drho = -grids.div(VectorField(grid, rho * u)).values
    deta = circle_interp(u[0], eta) if eta is not None else None
    return du, drho, dq, deta


def rk4(rhs, y: tuple, dt: float) -> tuple:
    """One classical RK4 step of y' = rhs(*y) over a tuple of arrays."""
    k1 = rhs(*y)
    k2 = rhs(*(a + 0.5 * dt * k for a, k in zip(y, k1)))
    k3 = rhs(*(a + 0.5 * dt * k for a, k in zip(y, k2)))
    k4 = rhs(*(a + dt * k for a, k in zip(y, k3)))
    return tuple(a + (s1 + 2 * s2 + 2 * s3 + s4) * (dt / 6.0)
                 for a, s1, s2, s3, s4 in zip(y, k1, k2, k3, k4))


def _advance(state: FluidState, flowmap: FlowMap | None, model: PressureModel,
             dt: float, extra: tuple = (), extra_rhs=None):
    """Guarded RK4 step of the background (u, rho, q[, eta]) together with the
    `extra` arrays, whose derivative extra_rhs(u, rho, q, eta, *extra, grid,
    model) is taken at the same background stage."""
    g = state.grid
    bound = cfl_dt_max(state, model)
    if dt > bound:
        raise StepSizeError(f"dt={dt} exceeds the CFL bound {bound:.3e}")
    bg = (state.u.values, state.rho.values, state.q.values)
    if flowmap is not None:
        bg += (flowmap.eta,)
    nb = len(bg)

    def rhs(*y):
        eta = y[3] if nb == 4 else None
        out = _rhs(y[0], y[1], y[2], eta, g, model)[:nb]
        if extra_rhs is None:
            return out
        return out + extra_rhs(y[0], y[1], y[2], eta, *y[nb:], g, model)

    try:
        y = rk4(rhs, bg + extra, dt)
        new_state = FluidState(VectorField(g, y[0]), ScalarField(g, y[1]),
                               ScalarField(g, y[2]))
    except (DomainError, ValueError) as exc:
        # gradient blow-up at the shock shows up as loss of positivity or of
        # finiteness once the grid can no longer resolve the steepening
        raise ShockError(f"solution left the smooth regime: {exc}") from exc
    new_map = None
    if flowmap is not None:
        new_map = FlowMap(y[3], flowmap.rho0)
        if float(np.min(new_map.jacobian())) <= SHOCK_JACOBIAN_FLOOR:
            raise ShockError("flow map lost monotonicity (shock reached)")
    return new_state, new_map, y[nb:]


def step_geodesic(state: FluidState, flowmap: FlowMap | None, model: PressureModel,
                  dt: float) -> tuple[FluidState, FlowMap | None]:
    """One RK4 step of u_t = -nabla_u u - (1/rho) grad(q^2 phi/lambda^2),
    q_t = -div(qu), rho_t = -div(rho u), eta_t = u(eta)."""
    new_state, new_map, _ = _advance(state, flowmap, model, dt)
    return new_state, new_map


def integrate_geodesic(state0: FluidState, model: PressureModel, t_end: float,
                       dt: float, store_every: int = 1) -> GeodesicTrajectory:
    """Integrate to t_end with fixed steps (last step shortened to land on
    t_end exactly).  The flow map is carried on circle grids."""
    g = state0.grid
    flowmap = identity_flowmap(state0.rho) if isinstance(g, CircleGrid) else None
    traj = GeodesicTrajectory()
    traj.append(0.0, state0, flowmap, energy(state0, model))
    n_steps = int(np.ceil(t_end / dt - 1e-12))
    state, t = state0, 0.0
    for k in range(n_steps):
        step = min(dt, t_end - t)
        state, flowmap = step_geodesic(state, flowmap, model, step)
        t += step
        if (k + 1) % store_every == 0 or k == n_steps - 1:
            traj.append(t, state, flowmap, energy(state, model))
    return traj


# ---------------------------------------------------------------------------
# Steady states


def steady_euler_residual(state: FluidState, model: PressureModel) -> tuple[float, float]:
    """Sup norms of the momentum and continuity residuals of the steady system
    nabla_u u + (1/rho) grad p(rho) = 0, div(rho u) = 0."""
    g = state.grid
    # (1/rho) grad p = h'(rho) grad rho with h' = p'/rho, sharper discretely
    hp = model.linearization_coefficient(state.rho.values)
    mom = (grids.covariant_derivative(state.u, state.u).values
           + hp * grids.grad(state.rho).values)
    cont = grids.div(VectorField(g, state.rho.values * state.u.values)).values
    if isinstance(g, DiscGrid):
        # compare coordinate components in the physical frame
        mom = mom * np.stack([np.ones_like(g.r), g.r])[:, :, None]
    return float(np.max(np.abs(mom))), float(np.max(np.abs(cont)))


def steady_shear_torus(omega_of_x: np.ndarray, grid: TorusGrid,
                       model: PressureModel) -> FluidState:
    """Shear flow u = omega(x) d/dy with rho = q = 1; steady for any profile."""
    om = np.asarray(omega_of_x, dtype=float)
    if om.shape != (grid.nx,):
        raise DomainError("omega profile must be sampled on the x nodes")
    u = VectorField(grid, np.stack([np.zeros(grid.shape), np.broadcast_to(om[:, None], grid.shape)]))
    ones = ScalarField(grid, np.ones(grid.shape))
    return FluidState(u, ones, ones)


def rigid_rotation_disc(omega: float, c: float, rho0: float, grid: DiscGrid) -> FluidState:
    """Rigid rotation u = omega d/dtheta with the balancing density profile
    rho(r) = rho0 - omega^2/2c^2 + omega^2 r^2/2c^2 for the gamma = 2 model."""
    if rho0 <= omega**2 / (2 * c**2):
        raise VacuumError(
            f"rho0={rho0} must exceed omega^2/(2 c^2)={omega**2 / (2 * c**2)}")
    rho_r = rho0 - omega**2 / (2 * c**2) + omega**2 * grid.r**2 / (2 * c**2)
    rho = ScalarField(grid, np.broadcast_to(rho_r[:, None], grid.shape).copy())
    u = VectorField(grid, np.stack([np.zeros(grid.shape), np.full(grid.shape, omega)]))
    return FluidState(u, rho, ScalarField(grid, rho.values.copy()))


def rigid_rotation_model(c: float) -> PressureModel:
    """The gamma = 2 pressure model p = c^2 rho^2 / 2 used by the rotating disc."""
    return polytropic(c**2 / 2, 2.0)
