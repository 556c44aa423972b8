"""Linearized (Jacobi) equations along a geodesic: Eulerian perturbation
(v, sigma), Lagrangian displacement j, and the function-direction displacement
G integrated along particle paths.  Includes an independent geodesic-deviation
oracle (centered difference of two perturbed geodesics) and conjugate-time
detection by minimizing the Jacobi norm along the trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from . import grids
from .errors import DomainError, ShockError
from .geodesic import FluidState, FlowMap, _advance, identity_flowmap
from .grids import (
    CircleGrid,
    ScalarField,
    VectorField,
    check_same_grid,
    circle_interp,
    integrate,
)
from .pressure import PressureModel


@dataclass(frozen=True)
class JacobiState:
    """Linearized state: Eulerian perturbation (v, sigma), Lagrangian
    displacement j, and the function-direction displacement G."""

    v: VectorField
    sigma: ScalarField
    j: VectorField
    G: ScalarField

    def __post_init__(self):
        check_same_grid(self.v, self.sigma, self.j, self.G)

    @property
    def grid(self):
        return self.sigma.grid


def initial_jacobi(v0: VectorField) -> JacobiState:
    """Velocity-direction initial perturbation: J(0)=0, J'(0)=(v0, 0)."""
    g = v0.grid
    zeros = np.zeros(g.shape)
    return JacobiState(v0, ScalarField(g, zeros),
                       VectorField(g, np.zeros_like(v0.values)), ScalarField(g, zeros))


def commutator(u: VectorField, j: VectorField) -> VectorField:
    """[u, j] = nabla_u j - nabla_j u (flat M)."""
    return VectorField(u.grid, grids.covariant_derivative(u, j).values
                       - grids.covariant_derivative(j, u).values)


def g_function(jstate: JacobiState, state: FluidState, model: PressureModel) -> ScalarField:
    """g = 2 phi(rho) sigma / lambda(rho)^2 + j(rho/lambda(rho))."""
    g = jstate.grid
    rv = state.rho.values
    phi = model.phi(rv)
    lam = model.lam(rv)
    ratio = ScalarField(g, rv / lam)
    return ScalarField(g, 2 * phi * jstate.sigma.values / lam**2
                       + grids.directional(jstate.j, ratio).values)


def _linearized_rhs(u, rho, q, eta, jv, jsig, jj, jG, g, model: PressureModel):
    """Derivative of (v, sigma, j, G) at the background stage (u, rho, q, eta)."""
    uf = VectorField(g, u)
    vf = VectorField(g, jv)
    jf = VectorField(g, jj)
    hp = model.linearization_coefficient(rho)
    dsig = -(grids.div(VectorField(g, jsig * uf.values)).values
             + grids.div(VectorField(g, rho * jv)).values)
    dv = -(grids.covariant_derivative(uf, vf).values
           + grids.covariant_derivative(vf, uf).values
           + grids.grad(ScalarField(g, hp * jsig)).values)
    dj = jv - commutator(uf, jf).values
    if eta is None:
        return dv, dsig, dj, np.zeros(g.shape)
    st = FluidState(uf, ScalarField(g, rho), ScalarField(g, q))
    gval = g_function(JacobiState(vf, ScalarField(g, jsig), jf, ScalarField(g, jG)), st, model)
    return dv, dsig, dj, circle_interp(gval.values, eta)


def linearized_step(jstate: JacobiState, state: FluidState, flowmap: FlowMap | None,
                    model: PressureModel, dt: float
                    ) -> tuple[JacobiState, FluidState, FlowMap | None]:
    """One RK4 step of the background and the linearized system as one ODE:
    sigma_t = -div(sigma u) - div(rho v); v_t = -nabla_u v - nabla_v u
    - grad(h'(rho) sigma); j_t = v - [u, j]; G_t = g(eta)."""
    g = jstate.grid
    check_same_grid(jstate.sigma, state.rho)
    extra = (jstate.v.values, jstate.sigma.values, jstate.j.values, jstate.G.values)
    new_state, new_map, (jv, js, jj, jG) = _advance(
        state, flowmap, model, dt, extra, _linearized_rhs)
    new_j = JacobiState(VectorField(g, jv), ScalarField(g, js),
                        VectorField(g, jj), ScalarField(g, jG))
    return new_j, new_state, new_map


@dataclass
class LinearizedTrajectory:
    times: list[float] = field(default_factory=list)
    states: list[FluidState] = field(default_factory=list)
    flowmaps: list[FlowMap | None] = field(default_factory=list)
    jstates: list[JacobiState] = field(default_factory=list)

    def append(self, t, state, flowmap, jstate):
        self.times.append(t)
        self.states.append(state)
        self.flowmaps.append(flowmap)
        self.jstates.append(jstate)


def integrate_linearized(state0: FluidState, jstate0: JacobiState,
                         model: PressureModel, t_end: float, dt: float,
                         store_every: int = 1) -> LinearizedTrajectory:
    g = state0.grid
    flowmap = identity_flowmap(state0.rho) if isinstance(g, CircleGrid) else None
    traj = LinearizedTrajectory()
    traj.append(0.0, state0, flowmap, jstate0)
    n_steps = int(np.ceil(t_end / dt - 1e-12))
    state, jstate, t = state0, jstate0, 0.0
    for k in range(n_steps):
        step = min(dt, t_end - t)
        jstate, state, flowmap = linearized_step(jstate, state, flowmap, model, step)
        t += step
        if (k + 1) % store_every == 0 or k == n_steps - 1:
            traj.append(t, state, flowmap, jstate)
    return traj


def constraint_residual(jstate: JacobiState, state: FluidState) -> float:
    """sup norm of sigma + div(rho j)."""
    g = jstate.grid
    flux = grids.div(VectorField(g, state.rho.values * jstate.j.values)).values
    return float(np.max(np.abs(jstate.sigma.values + flux)))


def jacobi_norm_sq(jstate: JacobiState) -> float:
    """L^2 size of the displacement pair (j, G); vanishes at conjugate points."""
    g = jstate.grid
    jj = grids.inner(jstate.j, jstate.j).values
    return integrate(ScalarField(g, jj + jstate.G.values**2))


# ---------------------------------------------------------------------------
# Geodesic deviation oracle


def deviation_oracle(u0: VectorField, rho0: ScalarField, v0: VectorField,
                     model: PressureModel, s: float, t_end: float, dt: float,
                     store_every: int = 1):
    """Centered difference (eta_plus - eta_minus)/(2s) of two geodesics with
    initial velocities u0 +/- s v0, as an independent proxy for j(eta)."""
    from .geodesic import barotropic_initializer, integrate_geodesic

    branches = []
    for sign, name in ((1.0, "plus"), (-1.0, "minus")):
        u = VectorField(u0.grid, u0.values + sign * s * v0.values)
        st = barotropic_initializer(u, rho0, model)
        try:
            branches.append(integrate_geodesic(st, model, t_end, dt, store_every))
        except ShockError as exc:
            raise ShockError(f"perturbed branch '{name}' hit a shock: {exc}") from exc
    tp, tm = branches
    times = tp.times
    devs = [(fp.eta - fm.eta) / (2 * s) for fp, fm in zip(tp.flowmaps, tm.flowmaps)]
    return times, devs


def j_along_flow(jstate: JacobiState, flowmap: FlowMap) -> np.ndarray:
    """j(t, eta(t,x)) per reference node, for comparison with the oracle."""
    return circle_interp(jstate.j.values[0], flowmap.eta)


# ---------------------------------------------------------------------------
# Growth report


@dataclass(frozen=True)
class GrowthReport:
    max_ratio: float
    growth_rate: float


def growth_report(times, jstates, v0: VectorField) -> GrowthReport:
    """max_t ||j(t)||_inf / (t ||v0||_inf) and a linear-fit slope of
    ||j(t)||_inf."""
    if not jstates:
        raise DomainError("empty Jacobi series")
    vmax = float(np.max(np.abs(v0.values)))
    jmax = np.array([float(np.max(np.abs(js.j.values))) for js in jstates])
    t = np.asarray(times, dtype=float)
    if vmax == 0.0:
        return GrowthReport(0.0, 0.0)
    pos = t > 0
    ratio = float(np.max(jmax[pos] / (t[pos] * vmax))) if np.any(pos) else 0.0
    slope = float(np.polyfit(t, jmax, 1)[0]) if len(t) > 1 else 0.0
    return GrowthReport(ratio, slope)


# ---------------------------------------------------------------------------
# Conjugate-time detection


def detect_conjugate_times(state0: FluidState, v0: VectorField, model: PressureModel,
                           t_max: float, dt: float, rel_tol: float = 0.05) -> list[float]:
    """Times where the Jacobi norm ||(j, G)|| vanishes, found by bracketing
    local minima of the stored norm series and refining each by bounded
    minimization with re-integration from the nearest checkpoint."""
    traj = integrate_linearized(state0, initial_jacobi(v0), model, t_max, dt)
    t = np.asarray(traj.times)
    norms2 = np.array([jacobi_norm_sq(js) for js in traj.jstates])
    scale2 = float(np.max(norms2))
    if scale2 == 0.0:
        return []

    def norm2_at(time, k_checkpoint):
        """Squared norm at an off-grid time (smooth near a zero crossing),
        re-integrating from checkpoint k."""
        state = traj.states[k_checkpoint]
        jstate = traj.jstates[k_checkpoint]
        fm = traj.flowmaps[k_checkpoint]
        remain = time - traj.times[k_checkpoint]
        if remain <= 0:
            return jacobi_norm_sq(jstate)
        nsub = max(1, int(np.ceil(remain / dt)))
        h = remain / nsub
        for _ in range(nsub):
            jstate, state, fm = linearized_step(jstate, state, fm, model, h)
        return jacobi_norm_sq(jstate)

    zeros = []
    for k in range(1, len(t) - 1):
        if norms2[k] <= norms2[k - 1] and norms2[k] < norms2[k + 1] \
                and norms2[k] < (rel_tol**2) * scale2:
            res = optimize.minimize_scalar(
                lambda time: norm2_at(time, k - 1),
                bounds=(t[k - 1], t[k + 1]), method="bounded",
                options={"xatol": 1e-10},
            )
            zeros.append(float(res.x))
    return zeros
