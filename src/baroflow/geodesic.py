"""Time integration of the compressible geodesic system (barotropic Euler with
the auxiliary variable q), plus the flow map, the Jacobi state stepped
along with it, and energy.

Method of lines: spectral space derivatives, classical RK4 in time.  The flow
map is carried on the circle as a lift on the real line and advanced by
evaluating the trigonometric interpolant of u at the particle positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import pressure
from .errors import BaroflowError, DomainError, ShockError, StepSizeError, _check_scalar
from .grids import (
    CircleGrid,
    ScalarField,
    VectorField,
    _check_finite,
    _div,
    _nabla,
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
            raise DomainError("density must be positive")

    @property
    def grid(self):
        return self.rho.grid


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
        return 1.0 + self.grid._d(self.eta - self.grid.x, 0)


@dataclass(frozen=True)
class JacobiState:
    """Linearized state: Eulerian perturbation (v, sigma), Lagrangian displacement
    j, and the function-direction displacement G, tracked along a flow map only."""

    v: VectorField
    sigma: ScalarField
    j: VectorField
    G: ScalarField

    def __post_init__(self):
        check_same_grid(self.v, self.sigma, self.j, self.G)

    @property
    def grid(self):
        return self.sigma.grid


def identity_flowmap(rho0: ScalarField) -> FlowMap:
    return FlowMap(rho0.grid.x.copy(), rho0)


class Trajectory(NamedTuple):
    """The samples of one run (see _samples): times, states, flow maps (None
    off the circle) and Jacobi states (None for a geodesic run)."""

    times: list[float]
    states: list[FluidState]
    flowmaps: list[FlowMap | None]
    jstates: list[JacobiState | None]


def barotropic_initializer(u0: VectorField, rho0: ScalarField, model: PressureModel) -> FluidState:
    """Barotropic initial data: q0 = rho0 (equivalently f0 = rho0/lambda(rho0))."""
    return FluidState(u0, rho0, ScalarField(rho0.grid, rho0.values.copy()))


def energy(state: FluidState, model: PressureModel) -> float:
    """E = (1/2) int [lambda(rho) f^2 + rho |u|^2] dmu with f = q/lambda(rho)."""
    g = state.grid
    lam = model.lam(state.rho.values)
    dens = state.q.values**2 / lam + state.rho.values * g.inner(state.u.values, state.u.values)
    return 0.5 * g.integrate(dens)


def energy_drift(energies) -> float:
    """max |E - E0| / |E0| over a run's energies, E0 the first (max |E| if E0 = 0)."""
    e = np.asarray(energies)
    return float(np.max(np.abs(e - e[0]) / (abs(e[0]) or 1.0)))


def _cfl_bound(grid, u: np.ndarray, sound_speed: np.ndarray) -> float:
    speed = np.sqrt(_nabla(u, u[None])[0])  # |u|^2 = sum_a u_a u_a, in axis order
    speed += sound_speed
    return CFL_SAFETY * grid.cfl_spacing / float(speed.max())


def cfl_dt_max(state: FluidState, model: PressureModel) -> float:
    """Largest admissible step 0.5 * dx / max(|u| + wavespeed)."""
    return _cfl_bound(state.grid, state.u.values, model.sound_speed(state.rho.values))


@lru_cache(maxsize=None)
def _layout(nrows: int, ncomp: int) -> tuple[int, int, int]:
    """(has Jacobi rows, has a flow map, first scalar row) for nrows rows."""
    jac, flow = divmod(nrows - ncomp - 2, 2 * ncomp + 2)
    return jac, flow, (1 + 2 * jac) * ncomp


def _parts(y: np.ndarray, ncomp: int):
    """Views of the parts of a stacked state y: u, rho, q, eta (None without a
    flow map) and the Jacobi (v, sigma, j, G) (empty without).  The rows go
    by kind: vectors (u, v, j) one row per component, scalars (rho, q,
    sigma), the Lagrangian pair (eta, G); parts a state lacks drop out.  So
    the row count fixes the layout: ncomp + 2 rows, one more for a flow map
    and 2 ncomp + 2 more for a Jacobi state."""
    jac, flow, s = _layout(len(y), ncomp)
    jrows = (y[ncomp:2 * ncomp], y[s + 2], y[2 * ncomp:s], y[-1]) if jac else ()
    return y[:ncomp], y[s], y[s + 1], y[s + 2 + jac] if flow else None, jrows


def _rhs(y: np.ndarray, grid, model, check: bool = True) -> np.ndarray:
    """The RK stage on the stacked state y (see _parts): the derivative of
    (u, rho, q[, eta]) and of the Jacobi state, if any, at the same stage, as
    one new array shaped like y, with u_t = -nabla_u u - (1/rho) grad(q^2
    phi/lambda^2), q_t = -div(qu), rho_t = -div(rho u), eta_t = u(eta) and
    the equations of jacobi.linearized_step.  One stacked transform takes
    the operands [U, V, J | rho u, q u, sigma u | rho v | P, HS, RL] (the
    Jacobi ones with Jacobi rows only), and each operator family is one call
    over a block of rows.  u and g are interpolated at eta from one phase
    matrix."""
    nc = grid.ncomp
    jac, flow, s = _layout(len(y), nc)
    u, rho, q, scalars = y[:nc], y[s], y[s + 1], y[s:s + 2 + jac]
    out = np.empty_like(y)
    lam = model.lam(rho) if check else model._lam(rho)  # check: the stage guard
    phi = model._phi(rho, lam)
    lam2 = lam**2
    # operand rows: the vectors to s, the scalars times u to m, rho v to p,
    # then P = q^2 phi/lambda^2, h' sigma and rho/lambda
    m = s + len(scalars) * nc
    p = m + jac * nc
    ops = np.empty((p + 1 + 2 * jac,) + rho.shape)
    ops[:s] = y[:s]
    np.multiply(scalars[:, None], u, out=ops[s:m].reshape((len(scalars), nc) + rho.shape))
    np.divide(q**2 * phi, lam2, out=ops[p])
    if jac:
        v, sigma, j = y[nc:2 * nc], y[s + 2], y[2 * nc:s]
        np.multiply(rho, v, out=ops[m:p])
        np.multiply(model._h_prime(rho), sigma, out=ops[p + 1])
        np.divide(rho, lam, out=ops[p + 2])
    d = grid.partials(ops)
    nabla = _nabla(u, d[:s])  # nabla_u of each vector
    # div of each of rho u, q u[, sigma u, rho v]: (component, axis) first
    div = _div(d[s:p].reshape((-1, nc) + d.shape[1:]).swapaxes(0, 1).swapaxes(1, 2))
    np.negative(nabla[:nc] + d[p] / rho, out=out[:nc])
    np.negative(div[:2], out=out[s:s + 2])
    if jac:
        # (nabla_v u, nabla_j u), the components of v and j first
        vj = _nabla(y[nc:s].reshape((2, nc, 1) + rho.shape).swapaxes(0, 1), d[:nc])
        np.negative(div[2] + div[3], out=out[s + 2])
        np.negative(nabla[nc:2 * nc] + vj[0] + d[p + 1], out=out[nc:2 * nc])
        # [u, j] = nabla_u j - nabla_j u (flat M)
        np.subtract(v, nabla[2 * nc:] - vj[1], out=out[2 * nc:s])
    if flow:
        # g = 2 phi(rho) sigma / lambda(rho)^2 + j(rho / lambda(rho)) goes to
        # the free V row, so u [and g] are adjacent rows, taken along eta
        # into the Lagrangian rows
        if jac:
            np.divide(2 * phi * sigma, lam2, out=ops[1])
            ops[1] += _nabla(j, d[p + 2:])[0]
        circle_interp(ops[:1 + jac].T, y[s + 2 + jac], out=out[s + 2 + jac:])
    elif jac:
        out[-1] = 0.0  # G_t without a flow map
    return out


def rk4(rhs, y: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step of y' = rhs(y) over one array, as a new array:
    the stages are summed into k1 in place, so rhs must return a new array."""
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    k1 += 2 * k2
    k1 += 2 * k3
    k1 += k4
    k1 *= dt / 6.0
    k1 += y
    return k1


def _pack(state: FluidState, flowmap: FlowMap | None,
          jstate: JacobiState | None = None) -> np.ndarray:
    """The stacked state of _parts, as a new array."""
    vectors, scalars = [state.u.values], [state.rho.values, state.q.values]
    lagrangian = [] if flowmap is None else [flowmap.eta]
    if jstate is not None:
        vectors += [jstate.v.values, jstate.j.values]
        scalars.append(jstate.sigma.values)
        lagrangian.append(jstate.G.values)
    return np.concatenate(vectors + [row[None] for row in scalars + lagrangian])


def _unpack(y: np.ndarray, grid, rho0: ScalarField | None):
    """The state, flow map (with initial density rho0; None if rho0 is) and
    Jacobi state (None without) of a stacked state y, as views of it.  The
    fields validate their values in that order."""
    u, rho, q, eta, jrows = _parts(y, grid.ncomp)
    state = FluidState(VectorField(grid, u), ScalarField(grid, rho), ScalarField(grid, q))
    flowmap = None if rho0 is None else FlowMap(eta, rho0)
    jstate = None
    if jrows:
        v, sigma, j, G = jrows
        jstate = JacobiState(VectorField(grid, v), ScalarField(grid, sigma),
                             VectorField(grid, j), ScalarField(grid, G))
    return state, flowmap, jstate


def _step(y: np.ndarray, grid, model: PressureModel, dt: float) -> np.ndarray:
    """One guarded RK4 step of a stacked state y (see _parts) whose density
    is in range, as a new array.  The guards, in order, each naming itself on
    its error: the CFL bound ("cfl", StepSizeError); a later RK stage's
    density out of range ("stage_density", ShockError); a state after the step
    that is not finite or whose density is out of range ("state", ShockError);
    the flow-map Jacobian floor ("jacobian_floor", ShockError); non-finite
    Jacobi rows ("jacobi_finite", DomainError).  Failures are worded as the
    fields word them; the finiteness guards look at their rows only when
    one test over the whole state fails."""
    nc = grid.ncomp
    jac, flow, s = _layout(len(y), nc)
    bound = _cfl_bound(grid, y[:nc], model._sound_speed(y[s]))
    if dt > bound:
        raise StepSizeError(f"dt={dt} exceeds the CFL bound {bound:.3e}", guard="cfl")
    guard = "stage_density"
    try:
        # the first stage is at y, whose density is checked already
        y = rk4(lambda z: _rhs(z, grid, model, z is not y), y, dt)
        guard = "state"
        finite = np.isfinite(y).all()
        if not finite:
            _check_finite("vector", y[:nc])
            _check_finite("scalar", y[s:s + 2])
        pressure._check_rho(y[s])
    except DomainError as exc:
        # gradient blow-up at the shock shows up as loss of positivity or of
        # finiteness once the grid can no longer resolve the steepening
        raise ShockError(f"solution left the smooth regime: {exc}", guard=guard) from exc
    # min(1 + D(eta - x)) is 1 + min D(eta - x): rounding is monotone
    if flow and 1.0 + float(grid._d(y[s + 2 + jac] - grid.x, 0).min()) <= SHOCK_JACOBIAN_FLOOR:
        raise ShockError("flow map lost monotonicity (shock reached)", guard="jacobian_floor")
    if jac and not finite:
        for kind, rows in zip(("vector", "scalar") * 2, _parts(y, nc)[4]):
            _check_finite(kind, rows, "jacobi_finite")
    return y


def _advance(state: FluidState, flowmap: FlowMap | None, model: PressureModel,
             dt: float, jstate: JacobiState | None = None):
    """The one-step API: pack, one step of the step loop (so dt is checked as
    a run checks it), and the new state, flow map and Jacobi state as views
    of the stepped array."""
    (_, y), = _steps(_pack(state, flowmap, jstate), state.grid, model, dt, dt)
    return _unpack(y, state.grid, None if flowmap is None else flowmap.rho0)


def step_geodesic(state: FluidState, flowmap: FlowMap | None, model: PressureModel,
                  dt: float) -> tuple[FluidState, FlowMap | None]:
    """One RK4 step of u_t = -nabla_u u - (1/rho) grad(q^2 phi/lambda^2),
    q_t = -div(qu), rho_t = -div(rho u), eta_t = u(eta)."""
    new_state, new_map, _ = _advance(state, flowmap, model, dt)
    return new_state, new_map


def _default_flowmap(state0: FluidState) -> FlowMap | None:
    """The flow map a run starts with: the identity on the circle, none
    elsewhere."""
    return identity_flowmap(state0.rho) if isinstance(state0.grid, CircleGrid) else None


def _steps(y: np.ndarray, grid, model: PressureModel, t_end: float, dt: float):
    """The one step loop: fixed guarded steps (see _step) of the stacked state
    y to t_end, the last one shortened to land on t_end exactly, yielding
    (t, y) after each step.  It builds no fields; the caller reads the rows.
    dt is checked first, so a one-step call (t_end = dt) names a bad dt."""
    _check_scalar("dt", dt, 0)
    if not _check_scalar("t_end", t_end, 0, closed=True) / dt < math.inf:
        raise DomainError(f"t_end={t_end} and dt={dt} must keep t_end / dt finite")
    t = 0.0
    for k in range(1, int(np.ceil(t_end / dt - 1e-12)) + 1):
        h = min(dt, t_end - t)
        try:
            if k == 1:  # y's density; each step checks the densities it makes
                pressure._check_rho(_parts(y, grid.ncomp)[1])
            y = _step(y, grid, model, h)
        except BaroflowError as exc:
            exc.t, exc.step = t, k
            raise
        t += h
        yield t, y


def _samples(state0: FluidState, model: PressureModel, t_end: float, dt: float,
             store_every: int, jstate0: JacobiState | None = None):
    """The run loop: (t, state, flow map, Jacobi state) at the start, after
    every store_every-th step of _steps and after the last, with fields built
    for these samples only.  The Jacobi state, if given, is stepped along;
    circle runs carry a flow map from the identity."""
    _check_scalar("store_every", store_every, 1, integer=True)
    flowmap = _default_flowmap(state0)
    g = state0.grid
    rho0 = None if flowmap is None else flowmap.rho0
    yield 0.0, state0, flowmap, jstate0
    k = 0
    for k, (t, y) in enumerate(_steps(_pack(state0, flowmap, jstate0), g, model, t_end, dt), 1):
        if k % store_every == 0:
            yield (t, *_unpack(y, g, rho0))
    if k % store_every:
        yield (t, *_unpack(y, g, rho0))
