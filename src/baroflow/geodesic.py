"""Time integration of the compressible geodesic system (barotropic Euler with
the auxiliary variable q), plus the flow map, steady states, and energy.

Method of lines: spectral space derivatives, classical RK4 in time.  The flow
map is carried on the circle as a lift on the real line and advanced by
evaluating the trigonometric interpolant of u at the particle positions.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate

import numpy as np

from .errors import DomainError, ShockError, StepSizeError
from .grids import (
    CircleGrid,
    ScalarField,
    TorusGrid,
    VectorField,
    check_same_grid,
    circle_interp,
)
from .pressure import PressureModel

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
        return 1.0 + g.grad(self.eta - g.x)[0]

def identity_flowmap(rho0: ScalarField) -> FlowMap:
    return FlowMap(rho0.grid.x.copy(), rho0)


@dataclass
class Trajectory:
    """The stored samples of one run: times, background states, flow maps
    (None off the circle) and, for a linearized run, Jacobi states (None for
    a geodesic run).  Energies are computed from the states and the model."""

    model: PressureModel
    times: list[float] = field(default_factory=list)
    states: list[FluidState] = field(default_factory=list)
    flowmaps: list[FlowMap | None] = field(default_factory=list)
    jstates: list = field(default_factory=list)

    def append(self, t, state, flowmap, jstate=None):
        if self.times and t <= self.times[-1]:
            raise ValueError("trajectory times must be strictly increasing")
        self.times.append(t)
        self.states.append(state)
        self.flowmaps.append(flowmap)
        self.jstates.append(jstate)

    @property
    def energies(self) -> list[float]:
        return [energy(s, self.model) for s in self.states]

    def energy_drift(self) -> float:
        e = np.asarray(self.energies)
        if e[0] == 0:
            return float(np.max(np.abs(e)))
        return float(np.max(np.abs(e - e[0]) / abs(e[0])))


def barotropic_initializer(u0: VectorField, rho0: ScalarField, model: PressureModel) -> FluidState:
    """Barotropic initial data: q0 = rho0 (equivalently f0 = rho0/lambda(rho0))."""
    return FluidState(u0, rho0, ScalarField(rho0.grid, rho0.values.copy()))


def energy(state: FluidState, model: PressureModel) -> float:
    """E = (1/2) int [lambda(rho) f^2 + rho |u|^2] dmu with f = q/lambda(rho)."""
    g = state.grid
    lam = model.lam(state.rho.values)
    dens = state.q.values**2 / lam + state.rho.values * g.inner(state.u.values, state.u.values)
    return 0.5 * g.integrate(dens)


def cfl_dt_max(state: FluidState, model: PressureModel) -> float:
    """Largest admissible step 0.5 * dx / max(|u| + wavespeed)."""
    g = state.grid
    dx = g.cfl_spacing
    speed = np.sqrt(g.inner(state.u.values, state.u.values))
    cs = model.sound_speed(state.rho.values)
    return CFL_SAFETY * dx / float(np.max(speed + cs))


def _nabla(w: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """nabla_w v (flat), from the partials dv[c, a] = d_a v_c: one product per
    axis over every component at once.  A stack of scalars h (dv[k, a] =
    d_a h_k) gives each w(h_k)."""
    return reduce(operator.add, (w[a] * dv[:, a] for a in range(len(w))))


def _div(dv: np.ndarray) -> np.ndarray:
    """div v = sum_a d_a v_a, from the partials dv[c, a] = d_a v_c."""
    return reduce(operator.add, (dv[a, a] for a in range(len(dv))))


def _parts(y: np.ndarray, ncomp: int, flow: bool, jac: bool):
    """Views of the parts of a stacked state y: u, rho, q, eta (None without a
    flow map) and the Jacobi (v, sigma, j, G) (empty without).  u, v and j
    take one row per component, every other part one row, in that order."""
    b = ncomp + 2 + flow
    jrows = (y[b:b + ncomp], y[b + ncomp], y[b + ncomp + 1:b + 2 * ncomp + 1],
             y[b + 2 * ncomp + 1]) if jac else ()
    return y[:ncomp], y[ncomp], y[ncomp + 1], y[ncomp + 2] if flow else None, jrows


def _rhs(y: np.ndarray, grid, model, flow: bool, jac: bool) -> np.ndarray:
    """The RK stage on the stacked state y (see _parts): the derivative of
    (u, rho, q[, eta]) and, if jac, of the Jacobi state at the same stage, as
    one array shaped like y, with u_t = -nabla_u u - (1/rho) grad(q^2
    phi/lambda^2), q_t = -div(qu), rho_t = -div(rho u), eta_t = u(eta) and
    the equations of jacobi.linearized_step.  Every derivative operand is
    differentiated in one stacked transform, and u and g are interpolated at
    eta from one phase matrix."""
    out = np.empty_like(y)
    u, rho, q, eta, jrows = _parts(y, grid.ncomp, flow, jac)
    du, drho, dq, deta, djrows = _parts(out, grid.ncomp, flow, jac)
    lam = model.lam(rho)  # first: its density check is the one stage guard
    phi = model._phi(rho, lam)
    ops = [u, (q**2 * phi / lam**2)[None], q * u, rho * u]
    if jac:
        (v, sigma, j, _), (dv, dsigma, dj, dG) = jrows, djrows
        hp = model._h_prime(rho)
        ops += [sigma * u, rho * v, v, (hp * sigma)[None], j, (rho / lam)[None]]
    ends = list(accumulate(len(op) for op in ops))
    d = grid.partials(np.concatenate(ops))
    du_, dpress, dqu, drhou, *djac = (d[i:k] for i, k in zip([0] + ends, ends))
    du[...] = -(_nabla(u, du_) + dpress[0] / rho)
    drho[...] = -_div(drhou)
    dq[...] = -_div(dqu)
    if not jac:
        if flow:
            deta[...] = circle_interp(u[0], eta)
        return out
    dsigmau, drhov, dv_, dhps, dj_, drl = djac
    dsigma[...] = -(_div(dsigmau) + _div(drhov))
    dv[...] = -(_nabla(u, dv_) + _nabla(v, du_) + dhps[0])
    # [u, j] = nabla_u j - nabla_j u (flat M)
    dj[...] = v - (_nabla(u, dj_) - _nabla(j, du_))
    if not flow:
        dG[...] = 0.0
        return out
    # g = 2 phi(rho) sigma / lambda(rho)^2 + j(rho / lambda(rho)), taken along eta
    gval = 2 * phi * sigma / lam**2 + _nabla(j, drl)[0]
    deta[...], dG[...] = circle_interp(np.stack([u[0], gval], axis=1), eta).T
    return out


def rk4(rhs, y: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step of y' = rhs(y) over one array."""
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    return y + (k1 + 2 * k2 + 2 * k3 + k4) * (dt / 6.0)


def _advance(state: FluidState, flowmap: FlowMap | None, model: PressureModel,
             dt: float, jac: tuple = ()):
    """Guarded RK4 step of the background (u, rho, q[, eta]) together with the
    Jacobi arrays jac = (v, sigma, j, G), if given, stepped as one stacked
    array.  The new state, flow map and Jacobi arrays are views of it."""
    g = state.grid
    bound = cfl_dt_max(state, model)
    if dt > bound:
        raise StepSizeError(f"dt={dt} exceeds the CFL bound {bound:.3e}")
    flow = flowmap is not None
    rows = [state.u.values, state.rho.values[None], state.q.values[None]]
    rows += [flowmap.eta[None]] if flow else []
    if jac:
        v, sigma, j, G = jac
        rows += [v, sigma[None], j, G[None]]
    try:
        y = rk4(lambda y: _rhs(y, g, model, flow, bool(jac)), np.concatenate(rows), dt)
        u, rho, q, eta, new_jac = _parts(y, g.ncomp, flow, bool(jac))
        new_state = FluidState(VectorField(g, u), ScalarField(g, rho), ScalarField(g, q))
    except DomainError as exc:
        # gradient blow-up at the shock shows up as loss of positivity or of
        # finiteness once the grid can no longer resolve the steepening
        raise ShockError(f"solution left the smooth regime: {exc}") from exc
    new_map = None
    if flow:
        new_map = FlowMap(eta, flowmap.rho0)
        if float(np.min(new_map.jacobian())) <= SHOCK_JACOBIAN_FLOOR:
            raise ShockError("flow map lost monotonicity (shock reached)")
    return new_state, new_map, new_jac


def step_geodesic(state: FluidState, flowmap: FlowMap | None, model: PressureModel,
                  dt: float) -> tuple[FluidState, FlowMap | None]:
    """One RK4 step of u_t = -nabla_u u - (1/rho) grad(q^2 phi/lambda^2),
    q_t = -div(qu), rho_t = -div(rho u), eta_t = u(eta)."""
    new_state, new_map, _ = _advance(state, flowmap, model, dt)
    return new_state, new_map


def _integrate(state0: FluidState, model: PressureModel, t_end: float, dt: float,
               store_every: int, step, jstate0=None, flowmap=...) -> Trajectory:
    """The run loop of every integrator: fixed steps
    step(jstate, state, flowmap, model, h) -> (jstate, state, flowmap) to
    t_end, the last one shortened to land on t_end exactly, storing the start,
    every store_every-th step and the last.  A given flow map (None for none)
    is carried on; by default circle runs start one at the identity."""
    if flowmap is ...:
        flowmap = identity_flowmap(state0.rho) if isinstance(state0.grid, CircleGrid) else None
    traj = Trajectory(model)
    traj.append(0.0, state0, flowmap, jstate0)
    n_steps = int(np.ceil(t_end / dt - 1e-12))
    jstate, state, t = jstate0, state0, 0.0
    for k in range(n_steps):
        h = min(dt, t_end - t)
        jstate, state, flowmap = step(jstate, state, flowmap, model, h)
        t += h
        if (k + 1) % store_every == 0 or k == n_steps - 1:
            traj.append(t, state, flowmap, jstate)
    return traj


def integrate_geodesic(state0: FluidState, model: PressureModel, t_end: float,
                       dt: float, store_every: int = 1) -> Trajectory:
    """Integrate to t_end with fixed steps (last step shortened to land on
    t_end exactly).  The flow map is carried on circle grids."""
    return _integrate(state0, model, t_end, dt, store_every,
                      lambda _, s, fm, m, h: (None, *step_geodesic(s, fm, m, h)))


# ---------------------------------------------------------------------------
# Steady states


def steady_shear_torus(omega_of_x: np.ndarray, grid: TorusGrid,
                       model: PressureModel) -> FluidState:
    """Shear flow u = omega(x) d/dy with rho = q = 1; steady for any profile."""
    om = np.asarray(omega_of_x, dtype=float)
    if om.shape != (grid.nx,):
        raise DomainError("omega profile must be sampled on the x nodes")
    u = VectorField(grid, np.stack([np.zeros(grid.shape), np.broadcast_to(om[:, None], grid.shape)]))
    ones = ScalarField(grid, np.ones(grid.shape))
    return FluidState(u, ones, ones)
