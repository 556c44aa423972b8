"""Warped-product metric on velocity/function pairs: the sectional curvature
quadrature, with the metric density and the symmetric operator Q on raw
arrays, and the seeded curvature sign scan on the circle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grids
from .errors import DomainError, _check_scalar
from .grids import ScalarField, VectorField, check_same_grid
from .pressure import PressureModel


@dataclass(frozen=True)
class TangentVector:
    """Tangent to the product configuration space: a vector field plus a scalar."""

    u: VectorField
    f: ScalarField

    def __post_init__(self):
        check_same_grid(self.u, self.f)


@dataclass(frozen=True)
class CurvatureReport:
    term_R: float
    term_div: float
    term_Q: float
    term_grad: float
    total: float
    normalized: float


def _metric_density(g, lam, rho, f, h, u, v) -> np.ndarray:
    """lambda(rho) f h + rho <u, v> on raw arrays: the integrand of <<U, V>>."""
    return lam * f * h + rho * g.inner(u, v)


def _q(g, u: np.ndarray, v: np.ndarray, div_u: np.ndarray, div_v: np.ndarray) -> np.ndarray:
    """Q(u, v) on raw arrays, given div u and div v."""
    return g.div(g.covariant_derivative(u, v)) - g.directional(u, div_v) - div_u * div_v


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
    (grids._band_limited_1d), each scaled to sup norm one: u, f, v, g and
    rho = 1 + 0.5 * the fifth, with U = (u, f) and V = (v, g).  The trials go
    through sectional_curvature's quadrature in blocks of SCAN_BLOCK_POINTS
    grid points, so memory is O(block) whatever the number of trials, and
    every trial gets the bits it would get alone."""
    _check_scalar("trials", trials, 1, integer=True)
    _check_scalar("seed", seed, 0, integer=True)
    grid = grids.CircleGrid(n)
    modes = len(grids._band_modes(n))
    block = max(1, SCAN_BLOCK_POINTS // n)
    rows, totals, coef_min = [], np.empty(trials), np.inf
    # one generator for the scan, rewound to counter i for trial i: the same
    # draws as a fresh Philox(key=seed, counter=i), without building one
    bitgen = np.random.Philox(key=seed)
    rng, state = np.random.Generator(bitgen), bitgen.state
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        ab = np.empty((5, stop - start, modes, 2))
        for b, i in enumerate(range(start, stop)):
            state["state"]["counter"][:] = (i, 0, 0, 0)
            bitgen.state = state
            ab[:, b] = rng.standard_normal((5, modes, 2))
        w = grids._band_limited_1d(n, ab, 0.0)
        w /= np.max(np.abs(w), axis=-1, keepdims=True) + 1e-12
        rho = 1.0 + 0.5 * w[4]
        term_div, term_Q, term_grad, total, *_, coef = _curvature(
            grid, model, rho, w[0:1], w[2:3], w[1], w[3], first=start)
        totals[start:stop] = total
        coef_min = min(coef_min, float(coef.min()))
        terms = np.stack([term_div, term_Q, term_grad, total], axis=1).tolist()
        rows += [ScanTrial(i, seed, 0.0, *t) for i, t in zip(range(start, stop), terms)]
    k = int(np.argmin(totals))
    return ScanReport(rows, float(totals[k]), k, coef_min)
