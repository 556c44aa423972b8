"""Linearized (Jacobi) equations along a geodesic: Eulerian perturbation
(v, sigma), Lagrangian displacement j, and the function-direction displacement
G integrated along particle paths, growth reports, and conjugate-time
detection by minimizing the Jacobi norm along the trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geodesic import (
    FluidState,
    FlowMap,
    JacobiState,
    Trajectory,
    _advance,
    _default_flowmap,
    _integrate,
    _pack,
    _parts,
    _steps,
)
from .grids import ScalarField, VectorField, _minimize_bounded, check_same_grid
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


# ---------------------------------------------------------------------------
# Growth report


@dataclass(frozen=True)
class GrowthReport:
    max_ratio: float
    growth_rate: float


def growth_report(times, jstates, v0: VectorField) -> GrowthReport:
    """max_t ||j(t)||_inf / (t ||v0||_inf) and a linear-fit slope of
    ||j(t)||_inf."""
    if not jstates or len(times) != len(jstates):
        raise DomainError(f"growth_report needs one time per Jacobi state, and at least one, "
                          f"got {len(times)} times and {len(jstates)} states")
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


# A local minimum of the Jacobi norm is refined as a conjugate time when it
# lies below this fraction of the largest norm of the run.
CONJUGATE_REL_TOL = 0.05


def _norm_sq(y: np.ndarray, grid) -> float:
    """||(j, G)||^2 = int |j|^2 + G^2 of a stacked state y with Jacobi rows
    (see geodesic._parts); it vanishes at conjugate points."""
    _, _, j, G = _parts(y, grid.ncomp)[4]
    return grid.integrate(grid.inner(j, j) + G**2)


def detect_conjugate_times(state0: FluidState, v0: VectorField, model: PressureModel,
                           t_max: float, dt: float) -> list[float]:
    """Times where the Jacobi norm ||(j, G)|| vanishes: each local minimum
    of the per-step norm below CONJUGATE_REL_TOL times the largest, refined
    over the steps either side of it by grids._minimize_bounded (Brent's
    method, xatol 1e-10; bitwise scipy's bounded minimize_scalar), each
    evaluation re-integrating from the step before it.  The
    norm is read off each stepped array, and the array of step k-1 is kept
    only when step k is a candidate minimum (norm no larger than at k-1,
    smaller than at k+1), so no trajectory is stored."""
    jstate0 = initial_jacobi(v0)
    check_same_grid(jstate0.sigma, state0.rho)
    g = state0.grid
    y = _pack(state0, _default_flowmap(state0), jstate0)
    times, norms2, candidates = [0.0], [_norm_sq(y, g)], []
    before, last = None, y  # the arrays of the two steps before this one
    for t, y in _steps(y, g, model, t_max, dt):
        times.append(t)
        norms2.append(_norm_sq(y, g))
        if before is not None and norms2[-3] >= norms2[-2] < norms2[-1]:
            candidates.append((len(times) - 2, before))
        before, last = last, y
    scale2 = max(norms2)
    if scale2 == 0.0:
        return []

    def norm2_at(time, k, y):
        """Squared norm at an off-grid time (smooth near a zero crossing),
        re-integrating from the array y of step k."""
        remain = time - times[k]
        if remain <= 0:
            return _norm_sq(y, g)
        nsub = max(1, int(np.ceil(remain / dt)))
        for _, y in _steps(y, g, model, remain, remain / nsub):
            pass
        return _norm_sq(y, g)

    zeros = []
    for k, y in candidates:
        if norms2[k] < CONJUGATE_REL_TOL**2 * scale2:
            time, _ = _minimize_bounded(lambda time: norm2_at(time, k - 1, y),
                                        times[k - 1], times[k + 1], 1e-10)
            zeros.append(float(time))
    return zeros
