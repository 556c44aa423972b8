"""Discrete geometry substrate: grids on S^1, the flat 2-torus, and the unit disc,
with differential operators and quadrature.

Periodic directions use trigonometric (FFT) differentiation, exact for
band-limited fields.  The radial direction on the disc uses second-order
centered finite differences with one-sided stencils at the ends; the grid
excludes r=0 (regularity is handled mode-wise by the consumers).

Vector fields are stored in coordinate components: (u_x, u_y) on the torus,
(u^r, u^theta) on the disc, where u = u^r d/dr + u^theta d/dtheta.  Note the
disc components are coordinate, not physical: |d/dtheta| = r.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import GridMismatchError


# ---------------------------------------------------------------------------
# Grids


@dataclass(frozen=True)
class CircleGrid:
    """Uniform periodic grid on [0, 2*pi)."""

    n: int

    def __post_init__(self):
        if self.n < 8 or self.n % 2:
            raise ValueError(f"circle grid needs n >= 8 and even, got {self.n}")

    @cached_property
    def x(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n) / self.n

    @property
    def dx(self) -> float:
        return 2.0 * np.pi / self.n

    @property
    def shape(self):
        return (self.n,)

    ncomp = 1


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid on [0, 2*pi)^2."""

    nx: int
    ny: int

    def __post_init__(self):
        for n in (self.nx, self.ny):
            if n < 8 or n % 2:
                raise ValueError(f"torus grid needs counts >= 8 and even, got {n}")

    @cached_property
    def x(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.nx) / self.nx

    @cached_property
    def y(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.ny) / self.ny

    @cached_property
    def mesh(self):
        return np.meshgrid(self.x, self.y, indexing="ij")

    @property
    def shape(self):
        return (self.nx, self.ny)

    ncomp = 2


@dataclass(frozen=True)
class DiscGrid:
    """Polar grid on the unit disc: radial nodes j/n_r for j=1..n_r (so the last
    node sits on the boundary and r=0 is excluded), uniform angles."""

    n_r: int
    n_theta: int

    def __post_init__(self):
        if self.n_r < 8:
            raise ValueError(f"disc grid needs n_r >= 8, got {self.n_r}")
        if self.n_theta < 8 or self.n_theta % 2:
            raise ValueError(f"disc grid needs n_theta >= 8 and even, got {self.n_theta}")

    @cached_property
    def r(self) -> np.ndarray:
        return np.arange(1, self.n_r + 1) / self.n_r

    @property
    def dr(self) -> float:
        return 1.0 / self.n_r

    @cached_property
    def theta(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_theta) / self.n_theta

    @cached_property
    def mesh(self):
        return np.meshgrid(self.r, self.theta, indexing="ij")

    @property
    def shape(self):
        return (self.n_r, self.n_theta)

    ncomp = 2


Grid = CircleGrid | TorusGrid | DiscGrid


# ---------------------------------------------------------------------------
# Fields


@dataclass(frozen=True)
class ScalarField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != self.grid.shape:
            raise GridMismatchError(f"scalar values {v.shape} vs grid {self.grid.shape}")
        if not np.isfinite(v).all():
            raise ValueError("scalar field has non-finite entries")


@dataclass(frozen=True)
class VectorField:
    grid: Grid
    values: np.ndarray  # shape (ncomp, *grid.shape)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if isinstance(self.grid, CircleGrid) and v.shape == self.grid.shape:
            v = v[None, :]
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid.ncomp,) + self.grid.shape:
            raise GridMismatchError(f"vector values {v.shape} vs grid {self.grid.shape}")
        if not np.isfinite(v).all():
            raise ValueError("vector field has non-finite entries")


def check_same_grid(*fields):
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid != g:
            raise GridMismatchError("fields live on different grids")
    return g


# ---------------------------------------------------------------------------
# Spectral building blocks


@lru_cache(maxsize=None)
def _ik(n: int, ndim: int, axis: int) -> np.ndarray:
    """Read-only i*k over the rfft bins of length-n data, shaped to broadcast
    along `axis`.  The Nyquist bin is zeroed: it has no odd derivative."""
    ik = 1j * np.arange(n // 2 + 1)
    ik[-1] = 0.0
    shape = [1] * ndim
    shape[axis] = n // 2 + 1
    ik = ik.reshape(shape)
    ik.flags.writeable = False
    return ik


def _spectral_deriv(values: np.ndarray, axis: int, n: int) -> np.ndarray:
    hat = np.fft.rfft(values, axis=axis)
    return np.fft.irfft(_ik(n, values.ndim, axis) * hat, n, axis=axis)


def _radial_deriv(values: np.ndarray, dr: float) -> np.ndarray:
    """Second-order d/dr along axis 0, one-sided at both ends."""
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2 * dr)
    out[0] = (-3 * values[0] + 4 * values[1] - values[2]) / (2 * dr)
    out[-1] = (3 * values[-1] - 4 * values[-2] + values[-3]) / (2 * dr)
    return out


def _deriv_x(f: np.ndarray, grid) -> np.ndarray:
    if isinstance(grid, CircleGrid):
        return _spectral_deriv(f, 0, grid.n)
    if isinstance(grid, TorusGrid):
        return _spectral_deriv(f, 0, grid.nx)
    return _radial_deriv(f, grid.dr)


def _deriv_y(f: np.ndarray, grid) -> np.ndarray:
    if isinstance(grid, TorusGrid):
        return _spectral_deriv(f, 1, grid.ny)
    return _spectral_deriv(f, 1, grid.n_theta)


# ---------------------------------------------------------------------------
# Differential operators


def derivative(f: ScalarField) -> ScalarField:
    """Trigonometric-interpolation derivative on the circle."""
    if not isinstance(f.grid, CircleGrid):
        raise GridMismatchError("derivative() expects a circle field; use grad()")
    return ScalarField(f.grid, _spectral_deriv(f.values, 0, f.grid.n))


def grad(f: ScalarField) -> VectorField:
    g = f.grid
    if isinstance(g, CircleGrid):
        return VectorField(g, _spectral_deriv(f.values, 0, g.n)[None])
    if isinstance(g, TorusGrid):
        return VectorField(g, np.stack([_deriv_x(f.values, g), _deriv_y(f.values, g)]))
    # disc: grad f = f_r d/dr + (f_theta / r^2) d/dtheta
    fr = _radial_deriv(f.values, g.dr)
    ft = _deriv_y(f.values, g)
    return VectorField(g, np.stack([fr, ft / g.r[:, None] ** 2]))


def sgrad(f: ScalarField) -> VectorField:
    """Rotated gradient (divergence-free).  On the disc this follows the
    orientation sgrad f = (f_theta/r) d/dr - (f_r/r) d/dtheta."""
    g = f.grid
    if isinstance(g, TorusGrid):
        return VectorField(g, np.stack([_deriv_y(f.values, g), -_deriv_x(f.values, g)]))
    if isinstance(g, DiscGrid):
        fr = _radial_deriv(f.values, g.dr)
        ft = _deriv_y(f.values, g)
        r = g.r[:, None]
        return VectorField(g, np.stack([ft / r, -fr / r]))
    raise GridMismatchError("sgrad is defined on 2D grids only")


def div(v: VectorField) -> ScalarField:
    g = v.grid
    if isinstance(g, CircleGrid):
        return ScalarField(g, _spectral_deriv(v.values[0], 0, g.n))
    if isinstance(g, TorusGrid):
        return ScalarField(g, _deriv_x(v.values[0], g) + _deriv_y(v.values[1], g))
    r = g.r[:, None]
    return ScalarField(g, _radial_deriv(r * v.values[0], g.dr) / r + _deriv_y(v.values[1], g))


def curl(v: VectorField) -> ScalarField:
    """Scalar curl of a 2D vector field."""
    g = v.grid
    if isinstance(g, TorusGrid):
        return ScalarField(g, _deriv_x(v.values[1], g) - _deriv_y(v.values[0], g))
    if isinstance(g, DiscGrid):
        r = g.r[:, None]
        return ScalarField(
            g, (_radial_deriv(r**2 * v.values[1], g.dr) - _deriv_y(v.values[0], g)) / r
        )
    raise GridMismatchError("curl is defined on 2D grids only")


def directional(u: VectorField, h: ScalarField) -> ScalarField:
    """u(h): derivative of the scalar h along u (coordinate components)."""
    g = check_same_grid(u, h)
    if isinstance(g, CircleGrid):
        return ScalarField(g, u.values[0] * _deriv_x(h.values, g))
    return ScalarField(g, u.values[0] * _deriv_x(h.values, g) + u.values[1] * _deriv_y(h.values, g))


def covariant_derivative(u: VectorField, v: VectorField) -> VectorField:
    """nabla_u v in the flat metric (polar Christoffel symbols on the disc)."""
    g = check_same_grid(u, v)
    if isinstance(g, CircleGrid):
        return VectorField(g, (u.values[0] * _deriv_x(v.values[0], g))[None])
    if isinstance(g, TorusGrid):
        au, bu = u.values
        out = [au * _deriv_x(c, g) + bu * _deriv_y(c, g) for c in v.values]
        return VectorField(g, np.stack(out))
    au, bu = u.values
    av, bv = v.values
    r = g.r[:, None]
    comp_r = au * _deriv_x(av, g) + bu * _deriv_y(av, g) - r * bu * bv
    comp_t = au * _deriv_x(bv, g) + bu * _deriv_y(bv, g) + (au * bv + bu * av) / r
    return VectorField(g, np.stack([comp_r, comp_t]))


def inner(u: VectorField, v: VectorField) -> ScalarField:
    """Pointwise Riemannian inner product <u, v> on M."""
    g = check_same_grid(u, v)
    if isinstance(g, DiscGrid):
        r2 = g.r[:, None] ** 2
        return ScalarField(g, u.values[0] * v.values[0] + r2 * u.values[1] * v.values[1])
    return ScalarField(g, np.einsum("c...,c...->...", u.values, v.values))


# ---------------------------------------------------------------------------
# Quadrature


def integrate(f: ScalarField) -> float:
    g = f.grid
    if isinstance(g, CircleGrid):
        return float(f.values.sum() * g.dx)
    if isinstance(g, TorusGrid):
        return float(f.values.sum() * (2 * np.pi / g.nx) * (2 * np.pi / g.ny))
    # disc: int f r dr dtheta; the integrand r*f vanishes at r=0
    ring = f.values.mean(axis=1) * 2 * np.pi * g.r
    return float(np.trapezoid(np.concatenate([[0.0], ring]), np.concatenate([[0.0], g.r])))


# ---------------------------------------------------------------------------
# Hodge decomposition on the torus


def hodge_decompose(v: VectorField) -> tuple[ScalarField, VectorField]:
    """Split v = grad f + w with f mean-zero and div w = 0, mode-wise in Fourier
    space.  Harmonic (constant) parts are folded into w."""
    g = v.grid
    if not isinstance(g, TorusGrid):
        raise GridMismatchError("hodge_decompose expects a torus field")
    kx = np.fft.fftfreq(g.nx, d=1.0 / g.nx)[:, None]
    ky = np.fft.fftfreq(g.ny, d=1.0 / g.ny)[None, :]
    k2 = kx**2 + ky**2
    k2safe = np.where(k2 == 0, 1.0, k2)
    vx_hat = np.fft.fft2(v.values[0])
    vy_hat = np.fft.fft2(v.values[1])
    div_hat = 1j * kx * vx_hat + 1j * ky * vy_hat
    f_hat = -div_hat / k2safe
    f_hat[0, 0] = 0.0
    f = ScalarField(g, np.real(np.fft.ifft2(f_hat)))
    w = VectorField(g, v.values - grad(f).values)
    return f, w


# ---------------------------------------------------------------------------
# Trigonometric interpolation on the circle


def _trig_coeffs(values: np.ndarray) -> np.ndarray:
    """Coefficients a_k, k = 0..n/2, of the trigonometric interpolant
    Re sum_k a_k e^{ikx} of grid samples (rfft / n, interior modes doubled)."""
    a = np.fft.rfft(values) / len(values)
    a[1:-1] *= 2.0
    return a


def _phases(xq: np.ndarray, m: int) -> np.ndarray:
    """e^{ikx} for k = 0..m-1 at each point of xq, one row per point, as a
    cumulative product of e^{ix}: one complex exp per point, not per mode."""
    out = np.empty((len(xq), m), dtype=complex)
    out[:, 0] = 1.0
    out[:, 1:] = np.exp(1j * xq)[:, None]
    return np.cumprod(out, axis=1, out=out)


def circle_interp(values: np.ndarray, xq, deriv: int = 0) -> np.ndarray:
    """Evaluate the trigonometric interpolant of grid samples (or its
    derivative) at arbitrary points."""
    a = _trig_coeffs(values)
    if deriv:
        a = a * (1j * np.arange(len(a))) ** deriv
        a[-1] = 0.0  # Nyquist mode has no odd derivative
    xq = np.asarray(xq, dtype=float).ravel()
    return np.real(_phases(xq, len(a)) @ a)


def circle_interp_antideriv(values: np.ndarray, xq) -> np.ndarray:
    """Antiderivative V of the trigonometric interpolant with V(0) = 0,
    evaluated on the real line (the mean contributes a linear part)."""
    a = _trig_coeffs(values)
    xq = np.asarray(xq, dtype=float).ravel()
    k = np.arange(1, len(a))
    terms = (_phases(xq, len(a))[:, 1:] - 1.0) @ (a[1:] / (1j * k))
    return np.real(a[0]) * xq + np.real(terms)


# ---------------------------------------------------------------------------
# Random band-limited fields (modes |k| <= n/4, seeded)


def _band_limited_1d(n: int, rng: np.random.Generator, mean: float) -> np.ndarray:
    # strictly below n/4 so that bilinear products stay below the Nyquist mode
    # and their spectral derivatives are exact
    x = 2 * np.pi * np.arange(n) / n
    out = np.full(n, mean)
    for k in range(1, n // 4):
        a, b = rng.standard_normal(2)
        out += a * np.cos(k * x) + b * np.sin(k * x)
    return out


def random_band_limited(grid: Grid, rng: np.random.Generator, mean: float = 0.0) -> ScalarField:
    if isinstance(grid, CircleGrid):
        return ScalarField(grid, _band_limited_1d(grid.n, rng, mean))
    if isinstance(grid, TorusGrid):
        kmax_x, kmax_y = grid.nx // 4 - 1, grid.ny // 4 - 1
        hat = np.zeros((grid.nx, grid.ny), dtype=complex)
        for kx in range(-kmax_x, kmax_x + 1):
            for ky in range(-kmax_y, kmax_y + 1):
                if kx == 0 and ky == 0:
                    continue
                hat[kx, ky] = rng.standard_normal() + 1j * rng.standard_normal()
        field = np.real(np.fft.ifft2(hat)) * grid.nx * grid.ny / (kmax_x * kmax_y * 4)
        return ScalarField(grid, field + mean)
    raise GridMismatchError("random band-limited fields are defined on periodic grids")


def random_band_limited_vector(grid: Grid, rng: np.random.Generator) -> VectorField:
    comps = [random_band_limited(grid, rng).values for _ in range(grid.ncomp)]
    return VectorField(grid, np.stack(comps))


# ---------------------------------------------------------------------------
# CSV serialization


def _coords(grid) -> tuple[list[str], np.ndarray]:
    if isinstance(grid, CircleGrid):
        return ["x"], grid.x[:, None]
    if isinstance(grid, TorusGrid):
        X, Y = grid.mesh
        return ["x", "y"], np.column_stack([X.ravel(), Y.ravel()])
    R, T = grid.mesh
    return ["r", "theta"], np.column_stack([R.ravel(), T.ravel()])


def to_csv(field: ScalarField | VectorField) -> str:
    names, coords = _coords(field.grid)
    if isinstance(field, ScalarField):
        cols = [field.values.ravel()]
        names = names + ["value"]
    else:
        cols = [c.ravel() for c in field.values]
        names = names + [f"value_{i}" for i in range(len(cols))]
    buf = io.StringIO()
    buf.write(",".join(names) + "\n")
    data = np.column_stack([coords] + [c[:, None] for c in cols])
    np.savetxt(buf, data, delimiter=",", fmt="%.17g")
    return buf.getvalue()
