"""Independent oracles the tests check the library against: closed forms,
cross-check integrators and residuals that no experiment runs.  Each one
computes its answer by a route other than the code under test (a centered
difference of perturbed geodesics, a direct method-of-lines integration, a
PDE residual), so a test that compares the two checks something.  The
general pressure law (any lambda(rho)) and the metric formulas that no
experiment uses live here too, beside the polytropic law the library runs,
and so do the rotating disc's polar grid, its eigenpairs, the exact mode
evolution and the boundedness classification of disc perturbations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.optimize

from baroflow import geometry, grids, jacobi
from baroflow.burgers import CharacteristicFlow, exact_state
from baroflow.disc import DiscBackground, _sturm_liouville_matrix, characteristic_roots
from baroflow.errors import (
    BaroflowError,
    DomainError,
    GridMismatchError,
    InstabilityFlagError,
    ShockError,
)
from baroflow.geometry import ScanReport, ScanTrial, TangentVector, sectional_curvature
from baroflow.geodesic import FlowMap, FluidState, barotropic_initializer, integrate_geodesic
from baroflow.grids import (
    CircleGrid,
    ScalarField,
    TorusGrid,
    VectorField,
    _interp_coeffs,
    _phases,
    circle_interp,
    derivative,
    integrate,
)
from baroflow.jacobi import JacobiState
from baroflow.pressure import PressureModel, _check_rho, polytropic
from baroflow.torus import TorusModeSolution, synthesize

# ---------------------------------------------------------------------------
# Time stepping


def tuple_rk4(rhs, y: tuple, dt: float) -> tuple:
    """One classical RK4 step of y' = rhs(*y) over a tuple of arrays, each
    combined on its own: the reference for the library's stacked-array
    geodesic.rk4."""
    k1 = rhs(*y)
    k2 = rhs(*(a + 0.5 * dt * k for a, k in zip(y, k1)))
    k3 = rhs(*(a + 0.5 * dt * k for a, k in zip(y, k2)))
    k4 = rhs(*(a + dt * k for a, k in zip(y, k3)))
    return tuple(a + (s1 + 2 * s2 + 2 * s3 + s4) * (dt / 6.0)
                 for a, s1, s2, s3, s4 in zip(y, k1, k2, k3, k4))


# ---------------------------------------------------------------------------
# Fields and pressure models


def random_band_limited_1d(grid: CircleGrid, rng: np.random.Generator,
                           mean: float = 0.0) -> ScalarField:
    """A seeded random field on the circle: mean plus the modes
    1 <= k < n/4, with the coefficients (a_k, b_k) drawn in mode order."""
    if not isinstance(grid, CircleGrid):
        raise GridMismatchError("random band-limited fields are drawn on the circle")
    ab = rng.standard_normal((len(grids._band_modes(grid.n)), 2))
    return ScalarField(grid, grids._band_limited_1d(grid.n, ab, mean))


def random_band_limited(grid, rng: np.random.Generator, mean: float = 0.0) -> ScalarField:
    """random_band_limited_1d on the circle; on the torus, modes
    |kx| < nx/4, |ky| < ny/4 with complex normal coefficients drawn as
    scalars in (kx, ky) order."""
    if not isinstance(grid, TorusGrid):
        return random_band_limited_1d(grid, rng, mean)
    kmax_x, kmax_y = grid.nx // 4 - 1, grid.ny // 4 - 1
    hat = np.zeros((grid.nx, grid.ny), dtype=complex)
    for kx in range(-kmax_x, kmax_x + 1):
        for ky in range(-kmax_y, kmax_y + 1):
            if kx == 0 and ky == 0:
                continue
            hat[kx, ky] = rng.standard_normal() + 1j * rng.standard_normal()
    field = np.real(np.fft.ifft2(hat)) * grid.nx * grid.ny / (kmax_x * kmax_y * 4)
    return ScalarField(grid, field + mean)


def random_band_limited_vector(grid, rng: np.random.Generator) -> VectorField:
    comps = [random_band_limited(grid, rng).values for _ in range(grid.ncomp)]
    return VectorField(grid, np.stack(comps))


@dataclass(frozen=True)
class LambdaModel:
    """A barotropic model given by any metric weight lambda(rho) and its
    derivative: the general law whose polytropic case is the library's
    PressureModel.  phi' and h' are centered differences with step
    1e-6 rho, and potential_density is a quadrature, so the closed forms are
    checked against a route that does not use them."""

    lam_fn: Callable[[np.ndarray], np.ndarray]
    dlam_fn: Callable[[np.ndarray], np.ndarray]

    def lam(self, rho):
        return self.lam_fn(_check_rho(rho))

    def phi(self, rho):
        rho = _check_rho(rho)
        return self._phi(rho, self.lam_fn(rho))

    def _phi(self, rho, lam):
        return 0.5 * (lam - rho * self.dlam_fn(rho))

    def dphi(self, rho):
        rho = _check_rho(rho)
        h = 1e-6 * rho
        return (self.phi(rho + h) - self.phi(rho - h)) / (2 * h)

    def _h_prime(self, rho):
        h = 1e-6 * rho
        return (pressure(self, rho + h) - pressure(self, rho - h)) / (2 * h) / rho

    def curvature_coefficient(self, x):
        """x phi'(x) + phi(x)^2 / lambda(x) from this model's own phi, phi'
        and lambda, not from the closed form under test."""
        x = _check_rho(x)
        return x * self.dphi(x) + self.phi(x) ** 2 / self.lam(x)


def pressure(model, rho):
    """p(rho) = rho^2 phi / lambda^2."""
    rho = _check_rho(rho)
    return rho**2 * model.phi(rho) / model.lam(rho) ** 2


def linearization_coefficient(model, rho):
    """h'(rho) = p'(rho)/rho, the coefficient of the linearized equations."""
    return model._h_prime(_check_rho(rho))


def potential_density(model, rho):
    """psi(rho) with psi'(rho) = p(rho)/rho^2: A rho^(gamma-1)/(gamma-1) for
    a PressureModel; for a LambdaModel the trapezoid quadrature from 1 on
    201 points."""
    rho = _check_rho(rho)
    if isinstance(model, PressureModel):
        return model.A * rho ** (model.gamma - 1.0) / (model.gamma - 1.0)
    scalar = rho.ndim == 0
    rho1 = np.atleast_1d(rho)
    out = np.empty_like(rho1)
    for i, r in enumerate(rho1):
        s = np.linspace(1.0, r, 201)
        out[i] = np.trapezoid(pressure(model, s) / s**2, s)
    return out[0] if scalar else out


def state_f(state: FluidState, model) -> ScalarField:
    """The function part f = q / lambda(rho) of a state."""
    return ScalarField(state.grid, state.q.values / model.lam(state.rho.values))


def from_catalog(name: str, c: float = 1.0):
    """Small fixed catalog of lambda choices: 'rho', '3/rho', 'const'."""
    if name == "rho":
        return LambdaModel(lambda r: r, lambda r: np.ones_like(r))
    if name == "3/rho":
        return polytropic(1.0 / 3.0, 3.0)
    if name == "const":
        return polytropic(c**2 / 2.0, 2.0)
    raise DomainError(f"unknown catalog model {name!r}")


# ---------------------------------------------------------------------------
# Rotated gradient


def sgrad(f: ScalarField) -> VectorField:
    """Rotated gradient (divergence-free) on the torus or the disc.  On the
    disc this follows the orientation sgrad f = (f_theta/r) d/dr - (f_r/r)
    d/dtheta."""
    g, fv = f.grid, f.values
    if isinstance(g, TorusGrid):
        return VectorField(g, np.array([g._d(fv, 1), -g._d(fv, 0)]))
    r = g.r[:, None]
    return VectorField(g, np.array([g._dtheta(fv) / r, -g._dr(fv) / r]))


# ---------------------------------------------------------------------------
# Metric, Christoffel map and the operator Q


class NormalizationError(BaroflowError, ValueError):
    """Inputs fail a required normalization precondition."""


def _check_density(rho: np.ndarray):
    if np.any(rho <= 0):
        raise DomainError("density must be positive pointwise")


def metric_inner(U: TangentVector, V: TangentVector, rho: ScalarField, model) -> float:
    """<<U, V>> = int [lambda(rho) f g + rho <u, v>] dmu."""
    g = grids.check_same_grid(U.f, V.f, rho)
    _check_density(rho.values)
    lam = model.lam(rho.values)
    dens = geometry._metric_density(g, lam, rho.values, U.f.values, V.f.values,
                                    U.u.values, V.u.values)
    return integrate(ScalarField(g, dens))


def christoffel(U: TangentVector, V: TangentVector, rho: ScalarField,
                model) -> TangentVector:
    """Explicit Christoffel map: (z, j) with j = (phi/lambda)(f div v + g div u)
    and z = (1/rho) grad(phi(rho) f g)."""
    g = grids.check_same_grid(U.f, V.f, rho)
    _check_density(rho.values)
    phi = model.phi(rho.values)
    lam = model.lam(rho.values)
    div_u = grids.div(U.u).values
    div_v = grids.div(V.u).values
    j = ScalarField(g, phi / lam * (U.f.values * div_v + V.f.values * div_u))
    z_raw = grids.grad(ScalarField(g, phi * U.f.values * V.f.values))
    z = VectorField(g, z_raw.values / rho.values)
    return TangentVector(z, j)


def christoffel_weak(U: TangentVector, V: TangentVector, W: TangentVector,
                     rho: ScalarField, model) -> float:
    """Weak form <<Gamma(U,V), W>> = int phi(rho)(h f div v + h g div u - f g div w)."""
    g = grids.check_same_grid(U.f, V.f, W.f, rho)
    phi = model.phi(rho.values)
    dens = phi * (
        W.f.values * U.f.values * grids.div(V.u).values
        + W.f.values * V.f.values * grids.div(U.u).values
        - U.f.values * V.f.values * grids.div(W.u).values
    )
    return integrate(ScalarField(g, dens))


def q_operator(u: VectorField, v: VectorField) -> ScalarField:
    """Q(u,v) = div(nabla_u v) - u(div v) - (div u)(div v), through the raw
    geometry._q of the curvature quadrature."""
    g = grids.check_same_grid(u, v)
    return ScalarField(g, geometry._q(g, u.values, v.values, g.div(u.values), g.div(v.values)))


def density_functional_derivative(alpha: ScalarField, phi_fn, rho: ScalarField,
                                  w: VectorField, dphi_fn=None) -> float:
    """Derivative of Phi(eta) = int alpha phi_fn(rho) dmu along the flow of w:
    -int div(rho w) alpha phi_fn'(rho) dmu."""
    g = grids.check_same_grid(alpha, rho, w)
    _check_density(rho.values)
    if dphi_fn is None:
        h = 1e-6 * rho.values
        dphi = (np.asarray(phi_fn(rho.values + h)) - np.asarray(phi_fn(rho.values - h))) / (2 * h)
    else:
        dphi = np.asarray(dphi_fn(rho.values))
    flux = grids.div(VectorField(g, rho.values * w.values)).values
    return -integrate(ScalarField(g, flux * alpha.values * dphi))


def jacobi_metric_curvature_1d(u: VectorField, v: VectorField, rho: ScalarField,
                               model, E: float) -> float:
    """Sectional curvature of the energy-conformal metric on circle
    diffeomorphisms, for a rho-orthonormal pair (u, v) at energy level E."""
    g = grids.check_same_grid(u, v, rho)
    if not isinstance(g, CircleGrid):
        raise DomainError("the comparison curvature is implemented on the circle")
    _check_density(rho.values)
    rv = rho.values
    uu = integrate(ScalarField(g, rv * u.values[0] ** 2))
    vv = integrate(ScalarField(g, rv * v.values[0] ** 2))
    uv = integrate(ScalarField(g, rv * u.values[0] * v.values[0]))
    if abs(uu - 1) > 1e-8 or abs(vv - 1) > 1e-8 or abs(uv) > 1e-8:
        raise NormalizationError("u, v must be rho-orthonormal")
    Phi = integrate(ScalarField(g, rv * potential_density(model, rv)))
    if E <= Phi:
        raise DomainError(f"energy level E={E} must exceed Phi={Phi}")
    dp = rv * linearization_coefficient(model, rv)  # p'(rho)
    du = derivative(ScalarField(g, u.values[0])).values
    dv = derivative(ScalarField(g, v.values[0])).values
    drho = derivative(rho).values
    I1 = 2.0 * integrate(ScalarField(g, rv * dp * (du**2 + dv**2)))
    Ju = integrate(ScalarField(g, dp * drho * u.values[0]))
    Jv = integrate(ScalarField(g, dp * drho * v.values[0]))
    I2 = integrate(ScalarField(g, dp**2 * drho**2 / rv))
    gap = E - Phi
    return (I1 + (3 * Jv**2 + 3 * Ju**2 - I2) / gap) / (4 * gap**2)


# ---------------------------------------------------------------------------
# Curvature sign scan


def random_section_1d(grid: CircleGrid, rng: np.random.Generator):
    """Random band-limited (U, V, rho) tuple on the circle with rho bounded
    away from zero: five fields drawn in turn, each scaled to sup norm one."""
    def bl():
        v = random_band_limited_1d(grid, rng).values
        return v / (np.max(np.abs(v)) + 1e-12)

    U = TangentVector(VectorField(grid, bl()[None]), ScalarField(grid, bl()))
    V = TangentVector(VectorField(grid, bl()[None]), ScalarField(grid, bl()))
    rho = ScalarField(grid, 1.0 + 0.5 * bl())
    return U, V, rho


def curvature_scan_1d(model: PressureModel, trials: int, seed: int,
                      n: int = 64) -> ScanReport:
    """geometry.curvature_sign_scan_1d one trial at a time: each section from
    random_section_1d on its own Philox(key=seed, counter=i) stream, through
    sectional_curvature alone, and the coefficient minimum from
    PressureModel.curvature_coefficient on each density."""
    grid = CircleGrid(n)
    rows, coef_min = [], np.inf
    for i in range(trials):
        rng = np.random.Generator(np.random.Philox(key=seed, counter=i))
        U, V, rho = random_section_1d(grid, rng)
        rep = sectional_curvature(U, V, rho, model)
        rows.append(ScanTrial(i, seed, rep.term_R, rep.term_div, rep.term_Q,
                              rep.term_grad, rep.total))
        coef_min = min(coef_min, float(np.min(model.curvature_coefficient(rho.values))))
    totals = np.array([r.total for r in rows])
    k = int(np.argmin(totals))
    return ScanReport(rows, float(totals[k]), k, coef_min)


# ---------------------------------------------------------------------------
# Geodesics


def steady_shear_torus(omega_of_x: np.ndarray, grid: TorusGrid,
                       model: PressureModel) -> FluidState:
    """Shear flow u = omega(x) d/dy with rho = q = 1; steady for any profile."""
    om = np.asarray(omega_of_x, dtype=float)
    if om.shape != (grid.nx,):
        raise DomainError("omega profile must be sampled on the x nodes")
    u = VectorField(grid, np.stack([np.zeros(grid.shape), np.broadcast_to(om[:, None], grid.shape)]))
    ones = ScalarField(grid, np.ones(grid.shape))
    return FluidState(u, ones, ones)


def steady_euler_residual(state: FluidState, model: PressureModel) -> tuple[float, float]:
    """Sup norms of the momentum and continuity residuals of the steady system
    nabla_u u + (1/rho) grad p(rho) = 0, div(rho u) = 0."""
    g = state.grid
    # (1/rho) grad p = h'(rho) grad rho with h' = p'/rho, sharper discretely
    hp = linearization_coefficient(model, state.rho.values)
    mom = (grids.covariant_derivative(state.u, state.u).values
           + hp * grids.grad(state.rho).values)
    cont = grids.div(VectorField(g, state.rho.values * state.u.values)).values
    if isinstance(g, DiscGrid):
        # compare coordinate components in the physical frame
        mom = mom * np.stack([np.ones_like(g.r), g.r])[:, :, None]
    return float(np.max(np.abs(mom))), float(np.max(np.abs(cont)))


def compatibility_residual(flowmap: FlowMap, rho: ScalarField) -> float:
    """sup norm of rho(eta) * Jac(eta) - rho0."""
    rho_at_eta = interp(rho.values, flowmap.eta)
    return float(np.max(np.abs(rho_at_eta * flowmap.jacobian() - flowmap.rho0.values)))


# ---------------------------------------------------------------------------
# Jacobi fields: geodesic deviation


def deviation_oracle(u0: VectorField, rho0: ScalarField, v0: VectorField,
                     model: PressureModel, s: float, t_end: float, dt: float,
                     store_every: int = 1):
    """Centered difference (eta_plus - eta_minus)/(2s) of two geodesics with
    initial velocities u0 +/- s v0, as an independent proxy for j(eta)."""
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
    return interp(jstate.j.values[0], flowmap.eta)


def jacobi_norm_sq(jstate: JacobiState) -> float:
    """L^2 size of the displacement pair (j, G); vanishes at conjugate points."""
    g = jstate.grid
    return g.integrate(g.inner(jstate.j.values, jstate.j.values) + jstate.G.values**2)


def stored_conjugate_times(state0: FluidState, v0: VectorField, model: PressureModel,
                           t_max: float, dt: float, rel_tol: float = 0.05) -> list[float]:
    """Conjugate times from a stored trajectory: every step of
    integrate_linearized kept, the norm series read off the stored Jacobi
    states, and each refinement re-run from the stored sample before the
    minimum by a loop of linearized_step on the run loop's schedule.  The
    reference for jacobi.detect_conjugate_times, which keeps no trajectory."""
    traj = jacobi.integrate_linearized(state0, jacobi.initial_jacobi(v0), model, t_max, dt)
    t = np.asarray(traj.times)
    norms2 = np.array([jacobi_norm_sq(js) for js in traj.jstates])
    scale2 = float(np.max(norms2))
    if scale2 == 0.0:
        return []

    def norm2_at(time, k):
        remain = time - traj.times[k]
        if remain <= 0:
            return jacobi_norm_sq(traj.jstates[k])
        nsub = max(1, int(np.ceil(remain / dt)))
        h = remain / nsub
        js, st, fm = traj.jstates[k], traj.states[k], traj.flowmaps[k]
        s = 0.0
        for _ in range(int(np.ceil(remain / h - 1e-12))):
            step = min(h, remain - s)
            js, st, fm = jacobi.linearized_step(js, st, fm, model, step)
            s += step
        return jacobi_norm_sq(js)

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


# ---------------------------------------------------------------------------
# Burgers closed forms


def interp(values: np.ndarray, xq) -> np.ndarray:
    """The trigonometric interpolant of 1D grid samples at arbitrary points:
    circle_interp of the one-column stack, written into one row."""
    xq = np.asarray(xq, dtype=float).ravel()
    return circle_interp(np.asarray(values)[:, None], xq, out=np.empty((1, len(xq))))[0]


def interp_deriv(values: np.ndarray, xq, deriv: int = 1) -> np.ndarray:
    """The deriv-th derivative of the trigonometric interpolant of 1D grid
    samples at arbitrary points, summed as circle_interp sums the interpolant
    itself: the coefficients grids._interp_coeffs(values, deriv), from which
    the Burgers flow reads its slopes, against the phases grids._phases."""
    a = _interp_coeffs(values, deriv)
    return np.real(_phases(np.asarray(xq, dtype=float).ravel(), len(a)) @ a)


def forward(flow: CharacteristicFlow, t: float, x) -> np.ndarray:
    """The characteristic map xi(t, x) = x + t alpha0(x)."""
    return np.asarray(x, dtype=float) + t * interp(flow.alpha0.values, x)


def conjugate_j(n: int, t, x) -> np.ndarray:
    """Closed-form Jacobi field j(t,x) = sin(nt) cos(n(x-t))/n along the
    constant geodesic u0 = rho0 = 1 with v0 = cos(nx)."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    return np.sin(n * t) * np.cos(n * (x - t)) / n


def conjugate_G(n: int, t, x) -> np.ndarray:
    """Closed-form function-direction displacement G(t,x) =
    (4/3n) sin(nx) sin^2(nt/2) along the same geodesic."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    return (4.0 / (3 * n)) * np.sin(n * x) * np.sin(n * t / 2) ** 2


def pde_residual(u0: ScalarField, rho0: ScalarField, t: float,
                 dt: float = 1e-5) -> float:
    """Sup norm of u_t + u u_x + rho rho_x at time t (centered difference in
    time, spectral in space); a consistency check on exact_state."""
    sp = exact_state(u0, rho0, t + dt)
    sm = exact_state(u0, rho0, t - dt)
    s0 = exact_state(u0, rho0, t)
    g = rho0.grid
    ut = (sp.u.values[0] - sm.u.values[0]) / (2 * dt)
    ux = derivative(ScalarField(g, s0.u.values[0])).values
    rx = derivative(s0.rho).values
    return float(np.max(np.abs(ut + s0.u.values[0] * ux + s0.rho.values * rx)))


# ---------------------------------------------------------------------------
# Torus shear modes


def j_at_every_row(sol: TorusModeSolution, t: float) -> np.ndarray:
    """j(t) of TorusModeSolution.j_at by the plain route, for a byte
    comparison: sin(c|k|t) taken on every kx row and np.fft.irfft2."""
    grad_hat, z_hat, _, ky = sol._half_spectra
    kx = sol.grid.wavenumbers[0]
    spec = np.sin(sol.c * np.sqrt(kx**2 + ky**2) * t) * grad_hat
    spec += t * z_hat
    spec *= np.exp(-1j * ky * sol.omega * t)
    return np.fft.irfft2(spec, s=sol.grid.shape)


def z_sup_norm(sol: TorusModeSolution) -> float:
    mag = np.sqrt(grids.inner(sol.z, sol.z).values)
    return float(np.max(mag))


def torus_curvature_coefficient(model: PressureModel) -> float:
    """The model's curvature coefficient at rho = 1, phi'(1) + phi(1)^2 /
    lambda(1), over lambda(1)^2; the curvature in the shear section is this
    times int (div v)^2 dmu."""
    return float(model.curvature_coefficient(1.0) / model.lam(1.0) ** 2)


@dataclass(frozen=True)
class CrosscheckReport:
    times: list[float]
    max_rel_gap: float
    growth_slope: float | None


def mode_numeric_crosscheck(v0: VectorField, omega: float, c: float,
                            t_end: float, dt: float = 0.01,
                            n_samples: int = 10) -> CrosscheckReport:
    """Integrate the linearized equations along the shear geodesic and compare
    j with the closed-form series at sampled times."""
    g = v0.grid
    model = polytropic(c**2 / 2, 2.0)
    state = steady_shear_torus(np.full(g.nx, omega), g, model)
    sol = synthesize(v0, omega, c)
    n_steps = int(np.ceil(t_end / dt))
    store = max(1, n_steps // n_samples)
    traj = jacobi.integrate_linearized(state, jacobi.initial_jacobi(v0),
                                       model, t_end, dt, store_every=store)
    gaps, times, norms = [], [], []
    for t, js in zip(traj.times[1:], traj.jstates[1:]):
        expect = sol.j_at(t)
        diff = js.j.values - expect.values
        num = np.sqrt(integrate(ScalarField(g, np.sum(diff**2, axis=0))))
        den = np.sqrt(integrate(grids.inner(expect, expect))) + 1e-300
        gaps.append(num / den)
        times.append(t)
        norms.append(np.sqrt(integrate(grids.inner(js.j, js.j))))
    slope = None
    if len(times) > 2:
        slope = float(np.polyfit(times, norms, 1)[0])
    return CrosscheckReport(times, float(np.max(gaps)) if gaps else 0.0, slope)


# ---------------------------------------------------------------------------
# Rotating disc: the polar grid


def _radial_nodes(n_r: int) -> np.ndarray:
    """Radial nodes j/n_r for j = 1..n_r: r = 0 is excluded, r = 1 included."""
    return np.arange(1, n_r + 1) / n_r


@dataclass(frozen=True)
class DiscGrid:
    """Polar grid on the unit disc: radial nodes j/n_r for j=1..n_r (so the last
    node sits on the boundary and r=0 is excluded), uniform angles.  Its
    operators take the library's grid-method names, so the field functions
    of baroflow.grids and the curvature quadrature run on it: second-order
    differences in r, one-sided at both ends, and a spectral derivative in
    theta.  Vector fields hold the coordinate components (u^r, u^theta) of
    u = u^r d/dr + u^theta d/dtheta, not the physical ones: |d/dtheta| = r.
    It refuses the CFL spacing, so stepping a disc state fails at step 1."""

    n_r: int
    n_theta: int

    def __post_init__(self):
        if self.n_r < 8:
            raise DomainError(f"disc grid needs n_r >= 8, got {self.n_r}")
        if self.n_theta < 8 or self.n_theta % 2:
            raise DomainError(f"disc grid needs n_theta >= 8 and even, got {self.n_theta}")

    @cached_property
    def r(self) -> np.ndarray:
        return _radial_nodes(self.n_r)

    @property
    def dr(self) -> float:
        return 1.0 / self.n_r

    @cached_property
    def shape(self):
        return (self.n_r, self.n_theta)

    ncomp = 2

    def _dr(self, f: np.ndarray) -> np.ndarray:
        return np.gradient(f, self.dr, axis=0, edge_order=2)

    def _dtheta(self, f: np.ndarray) -> np.ndarray:
        return grids._spectral_deriv(f, 1, self.n_theta)

    def grad(self, f: np.ndarray) -> np.ndarray:
        """grad f = f_r d/dr + (f_theta / r^2) d/dtheta."""
        return np.array([self._dr(f), self._dtheta(f) / self.r[:, None] ** 2])

    def div(self, v: np.ndarray) -> np.ndarray:
        r = self.r[:, None]
        return self._dr(r * v[0]) / r + self._dtheta(v[1])

    def curl(self, v: np.ndarray) -> np.ndarray:
        r = self.r[:, None]
        return (self._dr(r**2 * v[1]) - self._dtheta(v[0])) / r

    def directional(self, u: np.ndarray, h: np.ndarray) -> np.ndarray:
        return u[0] * self._dr(h) + u[1] * self._dtheta(h)

    def covariant_derivative(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Flat nabla_u v with the polar Christoffel symbols."""
        au, bu = u
        av, bv = v
        r = self.r[:, None]
        return np.array([self.directional(u, av) - r * bu * bv,
                         self.directional(u, bv) + (au * bv + bu * av) / r])

    def inner(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return u[0] * v[0] + self.r[:, None] ** 2 * u[1] * v[1]

    def integrate(self, f: np.ndarray) -> float:
        """int f r dr dtheta; the integrand r*f vanishes at r=0."""
        ring = f.mean(axis=1) * 2 * np.pi * self.r
        return float(np.trapezoid(np.concatenate([[0.0], ring]),
                                  np.concatenate([[0.0], self.r])))

    @property
    def cfl_spacing(self) -> float:
        raise DomainError("time stepping is supported on periodic grids")


def disc_theta(grid: DiscGrid) -> np.ndarray:
    """The uniform angles of a disc grid."""
    return 2.0 * np.pi * np.arange(grid.n_theta) / grid.n_theta


def disc_mesh(grid: DiscGrid):
    """The (r, theta) node arrays of a disc grid, each shaped like the grid."""
    return np.meshgrid(grid.r, disc_theta(grid), indexing="ij")


def disc_state(background: DiscBackground, grid: DiscGrid) -> FluidState:
    """The rotating background on `grid`, with q = rho."""
    rho = ScalarField(grid, np.broadcast_to(background.rho(grid.r)[:, None], grid.shape).copy())
    u = VectorField(grid, np.stack([np.zeros(grid.shape), np.full(grid.shape, background.omega)]))
    return FluidState(u, rho, ScalarField(grid, rho.values.copy()))


# ---------------------------------------------------------------------------
# Rotating disc: eigenpairs, exact mode evolution and classification

RESIDUAL_TOL = 1e-6  # the largest relative remainder of v0 outside the eigenbasis


class ProjectionResidualError(BaroflowError, ValueError):
    """A field cannot be represented in the truncated eigenbasis to tolerance."""


@dataclass(frozen=True)
class EigenPair:
    """Eigenpair of Lambda sigma = div(rho grad sigma) restricted to the
    azimuthal mode n: radial profile zeta with zeta(1)=0, eigenvalue lam > 0,
    normalized to unit L^2 norm with weight r dr."""

    n: int
    k: int
    lam: float
    r: np.ndarray
    zeta: np.ndarray


def sturm_liouville_modes(background: DiscBackground, n: int, k_max: int,
                          n_nodes: int = 400) -> list[EigenPair]:
    """The eigenpairs of disc.sturm_liouville_eigs' problem, each radial
    profile on the nodes r = j/n_nodes, j = 1..n_nodes, with unit L^2 norm in
    the weight r dr and its largest entry positive.  The same matrix and
    check, and the same bisection for the values, so the two agree bit for
    bit."""
    diag, off = _sturm_liouville_matrix(background, n, k_max, n_nodes)
    vals, vecs = scipy.linalg.eigh_tridiagonal(diag, off, select="i",
                                               select_range=(0, k_max - 1))
    h = 1.0 / n_nodes
    r = _radial_nodes(n_nodes)
    pairs = []
    for k in range(k_max):
        zt = vecs[:, k] / np.sqrt(r[:-1])  # undo the similarity scaling
        zeta = np.concatenate([zt, [0.0]])
        norm = np.sqrt(np.sum(zeta**2 * r) * h)
        zeta = zeta / norm
        if zeta[np.argmax(np.abs(zeta))] < 0:
            zeta = -zeta
        pairs.append(EigenPair(n, k + 1, float(vals[k]), r, zeta))
    return pairs


@dataclass(frozen=True)
class ModeCoefficients:
    """Amplitudes of (sigma, F, G) for one (k, n) mode in the rotating frame
    e^{in(theta - omega t)}."""

    sigma: complex
    F: complex
    G: complex


def mode_matrix(lam: float, n: int, omega: float, c: float) -> np.ndarray:
    """d/dt (sigma, F, G) = M (sigma, F, G) for sigma' + F = 0,
    F' + 2 omega G - c^2 lam sigma = 0, G' - 2 omega F - i n omega^2 sigma = 0.

    The sign of the i n omega^2 coupling follows from taking the curl of the
    momentum equation with the orientation G = -curl(rho v); the tests verify
    it against a direct method-of-lines integration of the primitive
    linearized equations (direct_mode_integration below)."""
    return np.array([
        [0.0, -1.0, 0.0],
        [c**2 * lam, 0.0, -2 * omega],
        [1j * n * omega**2, 2 * omega, 0.0],
    ], dtype=complex)


@dataclass(frozen=True)
class ModeSystem:
    lam: float
    n: int
    omega: float
    c: float

    @cached_property
    def frequencies(self) -> np.ndarray:
        """Oscillation frequencies iy of the mode matrix; these are the
        negatives of the characteristic cubic roots (the cubic is stated for
        the reflected mode -n)."""
        return np.sort(-characteristic_roots(self.lam, self.n, self.omega, self.c))

    @cached_property
    def _eig(self):
        M = mode_matrix(self.lam, self.n, self.omega, self.c)
        vals, vecs = np.linalg.eig(M)
        ys = np.sort(np.imag(vals))
        if np.max(np.abs(ys - self.frequencies)) > 1e-8 * max(1.0, np.max(np.abs(ys))):
            raise InstabilityFlagError("matrix spectrum disagrees with the cubic")
        if np.linalg.cond(vecs) > 1e8:
            raise DomainError("mode system is numerically defective")
        return vals, vecs, np.linalg.inv(vecs)

    def evolve(self, coeffs0: ModeCoefficients, t: float) -> ModeCoefficients:
        vals, vecs, inv = self._eig
        y0 = np.array([coeffs0.sigma, coeffs0.F, coeffs0.G], dtype=complex)
        yt = vecs @ (np.exp(vals * t) * (inv @ y0))
        return ModeCoefficients(yt[0], yt[1], yt[2])


@dataclass(frozen=True)
class ModeEntry:
    n: int
    k: int
    lam: float
    frequencies: np.ndarray
    coeffs: ModeCoefficients
    has_zero_frequency: bool


@dataclass(frozen=True)
class Classification:
    bounded: bool
    criterion_value: float
    projection_residual: float
    modes: list[ModeEntry]


def _project_profiles(background: DiscBackground, profiles: np.ndarray, n: int,
                      k_max: int, n_nodes: int):
    """Coefficients (one row per profile) of radial profiles in the (weight r)
    orthonormal eigenbasis of one eigensolve, plus each one's unexplained L^2
    remainder over interior nodes (the basis enforces the boundary at r=1)."""
    pairs = sturm_liouville_modes(background, n, k_max, n_nodes)
    h = 1.0 / n_nodes
    r = _radial_nodes(n_nodes)
    zeta = np.array([p.zeta for p in pairs])
    coeffs = np.sum(profiles[:, None] * zeta * r, axis=-1) * h
    resid = np.sqrt(np.sum((np.abs(profiles - coeffs @ zeta) ** 2 * r)[:, :-1], axis=-1) * h)
    return pairs, coeffs, resid


def synthesize_and_classify(v0: VectorField, background: DiscBackground,
                            k_max: int = 12, n_max: int = 16) -> Classification:
    """Project rho v0 = grad f + sgrad g onto the eigenbasis via F = div(rho v0)
    and G = -curl(rho v0) (the sgrad orientation used here satisfies
    curl(sgrad g) = -Delta g), evolve each mode exactly, and classify; a
    relative remainder above RESIDUAL_TOL is a ProjectionResidualError.

    The displacement is bounded iff the azimuthal average of curl(rho v0)
    vanishes at every radius: a zero frequency occurs only at n = 0, and the
    n = 0 rotational component rides it."""
    g = v0.grid
    if not isinstance(g, DiscGrid):
        raise GridMismatchError("disc classification needs a disc field")
    n_nodes = g.n_r
    rho = background.rho(g.r)[:, None]
    P = VectorField(g, rho * v0.values)
    F0 = grids.div(P).values
    G0 = -grids.curl(P).values
    FG_hat = np.fft.fft(np.stack([F0, G0]), axis=-1) / g.n_theta
    F_hat, G_hat = FG_hat

    # boundedness criterion: n=0 azimuthal average of curl(rho v0)
    crit = float(np.max(np.abs(G_hat[:, 0])))
    scale = float(np.max(np.abs(G0))) + float(np.max(np.abs(F0))) + 1e-300
    bounded = crit < 1e-10 * max(scale, 1.0)

    total_sq = float(np.sum((np.abs(F_hat) ** 2 + np.abs(G_hat) ** 2)
                            * g.r[:, None]) / n_nodes)
    resid_sq = 0.0
    modes = []
    for n in range(-n_max, n_max + 1):
        profiles = FG_hat[:, :, n % g.n_theta]
        if np.max(np.abs(profiles[0])) + np.max(np.abs(profiles[1])) < 1e-14 * max(scale, 1.0):
            continue
        pairs, (fc, gc), (fres, gres) = _project_profiles(background, profiles, n, k_max, n_nodes)
        resid_sq += fres**2
        if n != 0:
            # the n=0 rotational profile rides the zero frequency and is
            # handled in closed form by the curl criterion, not the basis
            resid_sq += gres**2
        for pair, fck, gck in zip(pairs, fc, gc):
            if abs(fck) + abs(gck) < 1e-12 * max(scale, 1.0):
                continue
            sys = ModeSystem(pair.lam, n, background.omega, background.c)
            ys = sys.frequencies
            has_zero = bool(np.any(np.abs(ys) < 1e-12))
            modes.append(ModeEntry(n, pair.k, pair.lam, ys,
                                   ModeCoefficients(0.0, fck, gck), has_zero))
    residual = float(np.sqrt(resid_sq / (total_sq + 1e-300)))
    if total_sq > 0 and residual > RESIDUAL_TOL:
        raise ProjectionResidualError(
            f"initial data leaves relative residual {residual:.3e} outside the "
            f"truncated eigenbasis (boundary-incompatible or under-resolved)")
    return Classification(bounded, crit, residual, modes)


# ---------------------------------------------------------------------------
# Rotating disc: mode evolution and a direct radial integration


def evolve_rk4(system: ModeSystem, coeffs0: ModeCoefficients, t: float,
               dt: float = 1e-3) -> ModeCoefficients:
    M = mode_matrix(system.lam, system.n, system.omega, system.c)
    y = np.array([coeffs0.sigma, coeffs0.F, coeffs0.G], dtype=complex)
    steps = max(1, int(np.ceil(t / dt)))
    h = t / steps
    for _ in range(steps):
        (y,) = tuple_rk4(lambda y: (M @ y,), (y,), h)
    return ModeCoefficients(y[0], y[1], y[2])


def displacement_amplitude(system: ModeSystem, coeffs0: ModeCoefficients,
                           t: float) -> float:
    """|int_0^t sigma(s) ds|-style amplitude proxy for the Jacobi
    displacement of this mode: the component on a zero frequency grows
    linearly, every other component stays bounded."""
    vals, vecs, inv = system._eig
    y0 = np.array([coeffs0.sigma, coeffs0.F, coeffs0.G], dtype=complex)
    w = inv @ y0
    total = 0.0 + 0.0j
    for val, amp in zip(vals, w):
        if abs(val) < 1e-12:
            total += amp * t
        else:
            total += amp * (np.exp(val * t) - 1.0) / val
    return abs(total)


def radial_poisson_gradient_mode(background: DiscBackground, pair: EigenPair):
    """Solve Delta_n f = zeta with f(1) = 0, using the same composite
    derivative stencil as the grid operators, so that div(grad(f e^{in theta}))
    evaluated through those operators reproduces zeta exactly on interior
    nodes.  Returns (f, a, b) radial arrays with rho v0 = a d/dr + b d/dtheta
    (so v0 = (1/rho) * (a, b) is a pure-gradient perturbation)."""
    n = pair.n
    n_nodes = len(pair.r)
    r = pair.r
    D = np.gradient(np.eye(n_nodes), 1.0 / n_nodes, axis=0, edge_order=2)
    # Delta_n f = (1/r) d/dr(r df/dr) - n^2 f / r^2 through the grid stencil
    lap = (np.diag(1.0 / r) @ D @ np.diag(r) @ D
           - np.diag(n**2 / r**2))
    f_int = np.linalg.solve(lap[:-1, :-1], pair.zeta[:-1])
    f = np.concatenate([f_int, [0.0]])
    a = D @ f
    b = 1j * n * f / r**2
    return f, a, b


def direct_mode_integration(background: DiscBackground, n: int,
                            sigma0: np.ndarray, a0: np.ndarray, b0: np.ndarray,
                            t_end: float, dt: float):
    """RK4 method-of-lines integration of the linearized equations for one
    azimuthal mode e^{in theta} (laboratory frame) on the radial grid:
    sigma_t = -(1/r)(r rho a)' - i n rho b - i n omega sigma,
    a_t = -i n omega a + 2 r omega b - c^2 sigma',
    b_t = -i n omega b - 2 omega a / r - i n c^2 sigma / r^2,
    with sigma pinned to zero at the boundary.  Here (a, b) are the
    coordinate components of the velocity perturbation."""
    n_nodes = len(sigma0)
    h = 1.0 / n_nodes
    r = _radial_nodes(n_nodes)
    rho = background.rho(r)
    om, c = background.omega, background.c

    def flux_deriv(gv):
        """d/dr of an r-weighted flux that vanishes at the axis; using the
        known zero at r=0 keeps the stencil stable under the 1/r weight."""
        out = np.gradient(gv, h, edge_order=2)
        out[0] = gv[1] / (2 * h)
        return out

    # internally evolve the physical azimuthal component V = r b, which stays
    # regular at the axis
    def rhs(sig, a, V):
        dsig = (-flux_deriv(r * rho * a) / r - 1j * n * rho * V / r
                - 1j * n * om * sig)
        dsig[-1] = 0.0
        da = -1j * n * om * a + 2 * om * V - c**2 * np.gradient(sig, h, edge_order=2)
        dV = -1j * n * om * V - 2 * om * a - 1j * n * c**2 * sig / r
        return dsig, da, dV

    y = (np.asarray(sigma0, dtype=complex), np.asarray(a0, dtype=complex),
         r * np.asarray(b0, dtype=complex))
    steps = max(1, int(np.ceil(t_end / dt)))
    hstep = t_end / steps
    for _ in range(steps):
        y = tuple_rk4(rhs, y, hstep)
    sig, a, V = y
    return sig, a, V / r
