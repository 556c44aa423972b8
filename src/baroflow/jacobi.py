"""Linearized (Jacobi) equations along a geodesic: Eulerian perturbation
(v, sigma), Lagrangian displacement j, and the function-direction displacement
G integrated along particle paths, growth reports, and conjugate-time
detection by minimizing the Jacobi norm along the trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy

from .errors import DomainError
from .geodesic import FluidState, FlowMap, JacobiState, Trajectory, _advance, _integrate
from .grids import ScalarField, VectorField, check_same_grid
from .pressure import PressureModel


def initial_jacobi(v0: VectorField) -> JacobiState:
    """Velocity-direction initial perturbation: J(0)=0, J'(0)=(v0, 0)."""
    g = v0.grid
    zeros = np.zeros(g.shape)
    return JacobiState(v0, ScalarField(g, zeros),
                       VectorField(g, np.zeros_like(v0.values)), ScalarField(g, zeros))


def linearized_step(jstate: JacobiState, state: FluidState, flowmap: FlowMap | None,
                    model: PressureModel, dt: float
                    ) -> tuple[JacobiState, FluidState, FlowMap | None]:
    """One RK4 step of the background and the linearized system as one ODE:
    sigma_t = -div(sigma u) - div(rho v); v_t = -nabla_u v - nabla_v u
    - grad(h'(rho) sigma); j_t = v - [u, j]; G_t = g(eta)."""
    check_same_grid(jstate.sigma, state.rho)
    new_state, new_map, new_j = _advance(state, flowmap, model, dt, jstate)
    return new_j, new_state, new_map


def integrate_linearized(state0: FluidState, jstate0: JacobiState,
                         model: PressureModel, t_end: float, dt: float,
                         store_every: int = 1) -> Trajectory:
    """integrate_geodesic with the Jacobi field carried along: the same steps,
    stored samples and flow map."""
    check_same_grid(jstate0.sigma, state0.rho)
    return _integrate(state0, model, t_end, dt, store_every, jstate0)


def constraint_residual(jstate: JacobiState, state: FluidState) -> float:
    """sup norm of sigma + div(rho j)."""
    g = jstate.grid
    flux = g.div(state.rho.values * jstate.j.values)
    return float(np.max(np.abs(jstate.sigma.values + flux)))


def jacobi_norm_sq(jstate: JacobiState) -> float:
    """L^2 size of the displacement pair (j, G); vanishes at conjugate points."""
    g = jstate.grid
    return g.integrate(g.inner(jstate.j.values, jstate.j.values) + jstate.G.values**2)


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

    def norm2_at(time, k):
        """Squared norm at an off-grid time (smooth near a zero crossing),
        re-integrating from checkpoint k."""
        remain = time - traj.times[k]
        if remain <= 0:
            return jacobi_norm_sq(traj.jstates[k])
        nsub = max(1, int(np.ceil(remain / dt)))
        run = _integrate(traj.states[k], model, remain, remain / nsub, nsub,
                         traj.jstates[k], traj.flowmaps[k])
        return jacobi_norm_sq(run.jstates[-1])

    zeros = []
    for k in range(1, len(t) - 1):
        if norms2[k] <= norms2[k - 1] and norms2[k] < norms2[k + 1] \
                and norms2[k] < (rel_tol**2) * scale2:
            res = scipy.optimize.minimize_scalar(
                lambda time: norm2_at(time, k - 1),
                bounds=(t[k - 1], t[k + 1]), method="bounded",
                options={"xatol": 1e-10},
            )
            zeros.append(float(res.x))
    return zeros
