"""Warped-product metric on velocity/function pairs: inner product, Christoffel
map, the symmetric operator Q, sectional curvature quadrature, and the 1D
comparison curvature of the energy-conformal (Jacobi) metric."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grids
from .errors import DomainError, NormalizationError
from .grids import ScalarField, VectorField, check_same_grid, integrate
from .pressure import PressureModel


@dataclass(frozen=True)
class TangentVector:
    """Tangent to the product configuration space: a vector field plus a scalar."""

    u: VectorField
    f: ScalarField

    def __post_init__(self):
        check_same_grid(self.u, self.f)

    @property
    def grid(self):
        return self.f.grid


@dataclass(frozen=True)
class CurvatureReport:
    term_R: float
    term_div: float
    term_Q: float
    term_grad: float
    total: float
    normalized: float


def _check_density(rho: np.ndarray):
    if np.any(rho <= 0):
        raise DomainError("density must be positive pointwise")


def _metric_density(g, lam, rho, f, h, u, v) -> np.ndarray:
    """lambda(rho) f h + rho <u, v> on raw arrays: the integrand of <<U, V>>."""
    return lam * f * h + rho * g.inner(u, v)


def metric_inner(U: TangentVector, V: TangentVector, rho: ScalarField, model: PressureModel) -> float:
    """<<U, V>> = int [lambda(rho) f g + rho <u, v>] dmu."""
    g = check_same_grid(U.f, V.f, rho)
    _check_density(rho.values)
    lam = model.lam(rho.values)
    dens = _metric_density(g, lam, rho.values, U.f.values, V.f.values, U.u.values, V.u.values)
    return integrate(ScalarField(g, dens))


def christoffel(U: TangentVector, V: TangentVector, rho: ScalarField, model: PressureModel) -> TangentVector:
    """Explicit Christoffel map: (z, j) with j = (phi/lambda)(f div v + g div u)
    and z = (1/rho) grad(phi(rho) f g)."""
    g = check_same_grid(U.f, V.f, rho)
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
                     rho: ScalarField, model: PressureModel) -> float:
    """Weak form <<Gamma(U,V), W>> = int phi(rho)(h f div v + h g div u - f g div w)."""
    g = check_same_grid(U.f, V.f, W.f, rho)
    phi = model.phi(rho.values)
    dens = phi * (
        W.f.values * U.f.values * grids.div(V.u).values
        + W.f.values * V.f.values * grids.div(U.u).values
        - U.f.values * V.f.values * grids.div(W.u).values
    )
    return integrate(ScalarField(g, dens))


def _q(g, u: np.ndarray, v: np.ndarray, div_u: np.ndarray, div_v: np.ndarray) -> np.ndarray:
    """Q(u, v) on raw arrays, given div u and div v."""
    return g.div(g.covariant_derivative(u, v)) - g.directional(u, div_v) - div_u * div_v


def q_operator(u: VectorField, v: VectorField) -> ScalarField:
    """Q(u,v) = div(nabla_u v) - u(div v) - (div u)(div v)."""
    g = check_same_grid(u, v)
    return ScalarField(g, _q(g, u.values, v.values, g.div(u.values), g.div(v.values)))


def density_functional_derivative(alpha: ScalarField, phi_fn, rho: ScalarField,
                                  w: VectorField, dphi_fn=None) -> float:
    """Derivative of Phi(eta) = int alpha phi_fn(rho) dmu along the flow of w:
    -int div(rho w) alpha phi_fn'(rho) dmu."""
    g = check_same_grid(alpha, rho, w)
    _check_density(rho.values)
    if dphi_fn is None:
        h = 1e-6 * rho.values
        dphi = (np.asarray(phi_fn(rho.values + h)) - np.asarray(phi_fn(rho.values - h))) / (2 * h)
    else:
        dphi = np.asarray(dphi_fn(rho.values))
    flux = grids.div(VectorField(g, rho.values * w.values)).values
    return -integrate(ScalarField(g, flux * alpha.values * dphi))


def _curvature(g, model: PressureModel, rv, u, v, f, gg, first: int = 0):
    """The quadrature of sectional_curvature on raw arrays with any leading
    batch axes (a scalar (*batch, *shape), a vector (ncomp, *batch, *shape)):
    term_div, term_Q, term_grad, total and the Gram entries uu, vv, uv, each
    a float for one section and an array over the batch otherwise, and the
    curvature coefficient at every density.  A non-finite integral raises
    DomainError; in a batch the message names the first bad item, counted
    from `first`."""
    phi = model.phi(rv)
    lam = model.lam(rv)
    coef = model.curvature_coefficient(rv)
    div_u = g.div(u)
    div_v = g.div(v)

    term_R = 0.0
    term_div = g.integrate(coef * (f * div_v - gg * div_u) ** 2)

    quu = _q(g, u, u, div_u, div_u)
    qvv = _q(g, v, v, div_v, div_v)
    quv = _q(g, u, v, div_u, div_v)
    term_Q = g.integrate(phi * (f**2 * qvv + gg**2 * quu - 2 * f * gg * quv))

    cross = f * g.grad(gg) - gg * g.grad(f)
    term_grad = g.integrate(phi**2 / rv * g.inner(cross, cross))

    total = term_R + term_div + term_Q + term_grad
    uu = g.integrate(_metric_density(g, lam, rv, f, f, u, u))
    vv = g.integrate(_metric_density(g, lam, rv, gg, gg, v, v))
    uv = g.integrate(_metric_density(g, lam, rv, f, gg, u, v))
    finite = np.isfinite((total, uu, vv, uv)).all(axis=0)
    if not finite.all():
        where = "" if finite.ndim == 0 else f" (trial {first + int(np.argmin(finite))})"
        raise DomainError("curvature integrand has non-finite entries" + where)
    return term_div, term_Q, term_grad, total, uu, vv, uv, coef


def sectional_curvature(U: TangentVector, V: TangentVector, rho: ScalarField,
                        model: PressureModel) -> CurvatureReport:
    """Unnormalized sectional curvature <<R(U,V)V,U>> as four itemized integrals.

    The intrinsic term is identically zero on the supported flat base manifolds
    and is reported as such."""
    g = check_same_grid(U.f, V.f, rho)
    _check_density(rho.values)
    term_div, term_Q, term_grad, total, uu, vv, uv, _ = _curvature(
        g, model, rho.values, U.u.values, V.u.values, U.f.values, V.f.values)
    gram = uu * vv - uv**2
    normalized = total / gram if abs(gram) > 1e-14 * max(uu * vv, 1.0) else float("nan")
    return CurvatureReport(0.0, term_div, term_Q, term_grad, total, normalized)


@dataclass(frozen=True)
class ScanTrial:
    index: int
    seed: int
    term_R: float
    term_div: float
    term_Q: float
    term_grad: float
    total: float


@dataclass(frozen=True)
class ScanReport:
    trials: list[ScanTrial]
    min_total: float
    argmin: int
    coef_min: float  # the curvature coefficient's minimum over the sampled densities


# Grid points per block of the curvature scan (32 trials at n = 128): enough
# trials per numpy call to pay its overhead, few enough to keep memory small.
SCAN_BLOCK_POINTS = 4096


def curvature_sign_scan_1d(model: PressureModel, trials: int, seed: int,
                           n: int = 64) -> ScanReport:
    """Evaluate the curvature on seeded random 1D sections; nonnegative for
    polytropic gamma <= 3.  Trial i draws from its own stream
    Philox(key=seed, counter=i) the coefficients of five band-limited fields
    (grids.random_band_limited), each scaled to sup norm one: u, f, v, g and
    rho = 1 + 0.5 * the fifth, with U = (u, f) and V = (v, g).  The trials go
    through sectional_curvature's quadrature in blocks of SCAN_BLOCK_POINTS
    grid points, so memory is O(block) whatever the number of trials, and
    every trial gets the bits it would get alone."""
    grid = grids.CircleGrid(n)
    modes = len(grids._band_modes(n))
    block = max(1, SCAN_BLOCK_POINTS // n)
    rows, totals, coef_min = [], np.empty(trials), np.inf
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        ab = np.empty((5, stop - start, modes, 2))
        for b, i in enumerate(range(start, stop)):
            rng = np.random.Generator(np.random.Philox(key=seed, counter=i))
            ab[:, b] = rng.standard_normal((5, modes, 2))
        w = grids._band_limited_1d(n, ab, 0.0)
        w /= np.max(np.abs(w), axis=-1, keepdims=True) + 1e-12
        rho = 1.0 + 0.5 * w[4]
        _check_density(rho)
        term_div, term_Q, term_grad, total, *_, coef = _curvature(
            grid, model, rho, w[0:1], w[2:3], w[1], w[3], first=start)
        totals[start:stop] = total
        coef_min = min(coef_min, float(coef.min()))
        terms = np.stack([term_div, term_Q, term_grad, total], axis=1).tolist()
        rows += [ScanTrial(i, seed, 0.0, *t) for i, t in zip(range(start, stop), terms)]
    k = int(np.argmin(totals))
    return ScanReport(rows, float(totals[k]), k, coef_min)


def jacobi_metric_curvature_1d(u: VectorField, v: VectorField, rho: ScalarField,
                               model: PressureModel, E: float) -> float:
    """Sectional curvature of the energy-conformal metric on circle
    diffeomorphisms, for a rho-orthonormal pair (u, v) at energy level E."""
    g = check_same_grid(u, v, rho)
    if not isinstance(g, grids.CircleGrid):
        raise DomainError("the comparison curvature is implemented on the circle")
    _check_density(rho.values)
    rv = rho.values
    uu = integrate(ScalarField(g, rv * u.values[0] ** 2))
    vv = integrate(ScalarField(g, rv * v.values[0] ** 2))
    uv = integrate(ScalarField(g, rv * u.values[0] * v.values[0]))
    if abs(uu - 1) > 1e-8 or abs(vv - 1) > 1e-8 or abs(uv) > 1e-8:
        raise NormalizationError("u, v must be rho-orthonormal")
    Phi = integrate(ScalarField(g, rv * model.potential_density(rv)))
    if E <= Phi:
        raise DomainError(f"energy level E={E} must exceed Phi={Phi}")
    dp = rv * model.linearization_coefficient(rv)  # p'(rho)
    du = grids.derivative(ScalarField(g, u.values[0])).values
    dv = grids.derivative(ScalarField(g, v.values[0])).values
    drho = grids.derivative(rho).values
    I1 = 2.0 * integrate(ScalarField(g, rv * dp * (du**2 + dv**2)))
    Ju = integrate(ScalarField(g, dp * drho * u.values[0]))
    Jv = integrate(ScalarField(g, dp * drho * v.values[0]))
    I2 = integrate(ScalarField(g, dp**2 * drho**2 / rv))
    gap = E - Phi
    return (I1 + (3 * Jv**2 + 3 * Ju**2 - I2) / gap) / (4 * gap**2)
