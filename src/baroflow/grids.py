"""Discrete geometry substrate: grids on S^1 and the flat 2-torus, fields
on them, and their differential operators and quadrature.

Each grid owns its operators as methods on raw arrays, which the time
steppers call on RK stage arrays.  The circle and the torus share one
periodic implementation of real-FFT derivatives along each axis (exact for
band-limited fields): grad, u(h) and nabla_u v are reductions of one stack
of partials and div takes d_a v_a alone, the axis terms summed in axis
order from the first term.  The field functions (grad, div, ...) are the
public API: they validate their fields, then call the grid method.

The per-step and per-sample transforms (derivatives, interpolation
coefficients, the torus Jacobi field at each sample time) call the
pocketfft kernels of numpy.fft with np.fft's factors: np.fft's bits without
its Python layer, about 3 us a call, more than the kernel takes on a
128-point row.  Transforms made once per call stay on np.fft.

Vector fields are stored in coordinate components: (u_x,) on the circle,
(u_x, u_y) on the torus.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np
from numpy.fft import _pocketfft_umath as _pfu

from .errors import DomainError, GridMismatchError, _check_scalar


# ---------------------------------------------------------------------------
# Derivative kernels


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


def _rfft(values: np.ndarray, axis: int) -> np.ndarray:
    """np.fft.rfft(values, axis=axis) of an even-length axis, by the kernel
    call it makes, into the half spectrum it would allocate."""
    shape = list(values.shape)
    shape[axis] = shape[axis] // 2 + 1
    out = np.empty_like(values, shape=shape, dtype=complex)
    return _pfu.rfft_n_even(values, 1, axes=[(axis,), (), (axis,)], out=out)


def _spectral_deriv(values: np.ndarray, axis: int, n: int,
                    out: np.ndarray | None = None) -> np.ndarray:
    """d/dx along `axis` of length-n data (n even): the rfft times i*k, then
    the irfft scaled by 1/n, bit for bit np.fft.irfft(ik * np.fft.rfft(...))."""
    hat = _ik(n, values.ndim, axis) * _rfft(values, axis)
    if out is None:
        out = np.empty_like(hat, shape=values.shape, dtype=float)
    return _pfu.irfft(hat, 1.0 / n, axes=[(axis,), (), (axis,)], out=out)


def _irfft2(hat: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """np.fft.irfft2(hat, s=shape) over the last two axes (even counts), by
    the kernel calls it makes: ifft along x with 1/nx, then irfft along y."""
    nx, ny = shape
    mixed = _pfu.ifft(hat, 1.0 / nx, axes=[(-2,), (), (-2,)], out=np.empty_like(hat))
    out = np.empty_like(mixed, shape=hat.shape[:-1] + (ny,), dtype=float)
    return _pfu.irfft(mixed, 1.0 / ny, axes=[(-1,), (), (-1,)], out=out)


def _nabla(w: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """nabla_w v (flat), from the partials dv[c, a] = d_a v_c: one product per
    axis over every component at once, summed in axis order from the first
    term.  A stack of scalars h (dv[k, a] = d_a h_k) gives each w(h_k)."""
    out = w[0] * dv[:, 0]
    for a in range(1, len(w)):
        out += w[a] * dv[:, a]
    return out


def _div(dv: np.ndarray) -> np.ndarray:
    """div v = sum_a d_a v_a, from the partials dv[c, a] = d_a v_c, summed in
    axis order from the first term (a view of it for one axis)."""
    out = dv[0, 0]
    for a in range(1, len(dv)):
        out = out + dv[a, a]
    return out


# ---------------------------------------------------------------------------
# Grids and their operators (raw arrays in, raw arrays out)


class PeriodicGrid:
    """Operators of a uniform periodic grid on [0, 2*pi)^ncomp, with one
    spectral derivative per axis.  The grid axes are counted from the end,
    so leading batch axes pass through every operator: a scalar is
    (*batch, *shape) and a vector (ncomp, *batch, *shape), and each batch
    item gets the bits it would get alone."""

    def _d(self, f: np.ndarray, axis: int) -> np.ndarray:
        return _spectral_deriv(f, axis - len(self.shape), self.shape[axis])

    def partials(self, ops: np.ndarray) -> np.ndarray:
        """Every first partial of a stack of operands (leading axis), with one
        real-FFT pair per grid axis: out[k, a] = d_a ops[k], bit for bit the
        single-operand derivative."""
        out = np.empty((len(ops), len(self.shape)) + ops.shape[1:])
        for a, n in enumerate(self.shape):
            _spectral_deriv(ops, a - len(self.shape), n, out=out[:, a])
        return out

    def grad(self, f: np.ndarray) -> np.ndarray:
        return self.partials(f[None])[0]

    def div(self, v: np.ndarray) -> np.ndarray:
        """sum_a d_a v_a: one derivative per axis, of its own component."""
        out = self._d(v[0], 0)
        for a in range(1, len(self.shape)):
            out += self._d(v[a], a)
        return out

    def directional(self, u: np.ndarray, h: np.ndarray) -> np.ndarray:
        """u(h) = sum_a u_a d_a h."""
        return _nabla(u, self.partials(h[None]))[0]

    def covariant_derivative(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return _nabla(u, self.partials(v))

    def inner(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.einsum("c...,c...->...", u, v)

    def integrate(self, f: np.ndarray) -> float | np.ndarray:
        """The sum over the grid axes times the cell volume: a float for one
        field, an array over the batch axes otherwise."""
        total = f.sum(axis=tuple(range(-len(self.shape), 0)))
        volume = reduce(operator.mul, (2 * np.pi / n for n in self.shape), total)
        return float(volume) if f.ndim == len(self.shape) else volume

    @cached_property
    def cfl_spacing(self) -> float:
        return min(2 * np.pi / n for n in self.shape)


@dataclass(frozen=True)
class CircleGrid(PeriodicGrid):
    """Uniform periodic grid on [0, 2*pi)."""

    n: int

    def __post_init__(self):
        if _check_scalar("n", self.n, 8, integer=True) % 2:
            raise DomainError(f"circle grid needs an even n, got {self.n}")

    @cached_property
    def x(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n) / self.n

    @cached_property
    def shape(self):
        return (self.n,)

    ncomp = 1


@dataclass(frozen=True)
class TorusGrid(PeriodicGrid):
    """Uniform periodic grid on [0, 2*pi)^2."""

    nx: int
    ny: int

    def __post_init__(self):
        for name, n in (("nx", self.nx), ("ny", self.ny)):
            if _check_scalar(name, n, 8, integer=True) % 2:
                raise DomainError(f"torus grid needs even counts, got {name}={n}")

    @cached_property
    def x(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.nx) / self.nx

    @cached_property
    def y(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.ny) / self.ny

    @cached_property
    def mesh(self):
        return np.meshgrid(self.x, self.y, indexing="ij")

    @cached_property
    def wavenumbers(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only FFT wavenumbers in fftfreq order: kx a column, ky a row."""
        kx = np.fft.fftfreq(self.nx, d=1.0 / self.nx)[:, None]
        ky = np.fft.fftfreq(self.ny, d=1.0 / self.ny)[None, :]
        kx.flags.writeable = ky.flags.writeable = False
        return kx, ky

    @cached_property
    def shape(self):
        return (self.nx, self.ny)

    ncomp = 2

    def curl(self, v: np.ndarray) -> np.ndarray:
        return self._d(v[1], 0) - self._d(v[0], 1)


Grid = CircleGrid | TorusGrid


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
        _check_finite("scalar", v)


@dataclass(frozen=True)
class VectorField:
    grid: Grid
    values: np.ndarray  # shape (ncomp, *grid.shape)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid.ncomp,) + self.grid.shape:
            raise GridMismatchError(f"vector values {v.shape} vs grid {self.grid.shape}")
        _check_finite("vector", v)


def _check_finite(kind: str, values: np.ndarray, guard: str | None = None) -> None:
    """The fields' finiteness test, on a "scalar" or "vector" field's values."""
    if not np.isfinite(values).all():
        raise DomainError(f"{kind} field has non-finite entries", guard=guard)


def check_same_grid(*fields):
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid != g:
            raise GridMismatchError("fields live on different grids")
    return g


# ---------------------------------------------------------------------------
# Differential operators and quadrature on fields (validate, then delegate)


def derivative(f: ScalarField) -> ScalarField:
    """Trigonometric-interpolation derivative on the circle."""
    if not isinstance(f.grid, CircleGrid):
        raise GridMismatchError("derivative() expects a circle field; use grad()")
    return ScalarField(f.grid, f.grid._d(f.values, 0))


def grad(f: ScalarField) -> VectorField:
    return VectorField(f.grid, f.grid.grad(f.values))


def div(v: VectorField) -> ScalarField:
    return ScalarField(v.grid, v.grid.div(v.values))


def curl(v: VectorField) -> ScalarField:
    """Scalar curl of a 2D vector field."""
    if isinstance(v.grid, CircleGrid):
        raise GridMismatchError("curl is defined on 2D grids only")
    return ScalarField(v.grid, v.grid.curl(v.values))


def directional(u: VectorField, h: ScalarField) -> ScalarField:
    """u(h): derivative of the scalar h along u (coordinate components)."""
    g = check_same_grid(u, h)
    return ScalarField(g, g.directional(u.values, h.values))


def covariant_derivative(u: VectorField, v: VectorField) -> VectorField:
    """nabla_u v in the flat metric."""
    g = check_same_grid(u, v)
    return VectorField(g, g.covariant_derivative(u.values, v.values))


def inner(u: VectorField, v: VectorField) -> ScalarField:
    """Pointwise Riemannian inner product <u, v> on M."""
    g = check_same_grid(u, v)
    return ScalarField(g, g.inner(u.values, v.values))


def integrate(f: ScalarField) -> float:
    return f.grid.integrate(f.values)


# ---------------------------------------------------------------------------
# Hodge decomposition on the torus


def hodge_decompose(v: VectorField) -> tuple[ScalarField, VectorField]:
    """Split v = grad f + w with f mean-zero and div w = 0, mode-wise in Fourier
    space.  Harmonic (constant) parts are folded into w."""
    g = v.grid
    if not isinstance(g, TorusGrid):
        raise GridMismatchError("hodge_decompose expects a torus field")
    kx, ky = g.wavenumbers
    k2 = kx**2 + ky**2
    div_hat = 1j * kx * np.fft.fft2(v.values[0]) + 1j * ky * np.fft.fft2(v.values[1])
    f_hat = -div_hat / np.where(k2 == 0, 1.0, k2)
    f_hat[0, 0] = 0.0
    # a contiguous copy: the real view would keep the complex transform alive
    f = ScalarField(g, np.fft.ifft2(f_hat).real.copy())
    w = VectorField(g, v.values - g.grad(f.values))
    return f, w


# ---------------------------------------------------------------------------
# Trigonometric interpolation on the circle


def _phases(xq: np.ndarray, m: int) -> np.ndarray:
    """e^{ikx} for k = 0..m-1 (m >= 2) at each point of xq, one row per
    point.  Built mode-major by doubling: rows [s, 2s) are rows [0, s) times
    e^{isx}, one contiguous block product per power of two.  The factor
    e^{isx} is row s/2 squared into an array of its own: with a row of the
    table as the factor, numpy takes another complex-multiply loop for one
    point than for many, and a point would not get the same bits alone as in
    a batch.  Returns the (len(xq), m) transpose view."""
    out = np.empty((m, len(xq)), dtype=complex)
    out[0] = 1.0
    np.exp(1j * xq, out=out[1])
    s = 2
    while s < m:
        np.multiply(out[:min(s, m - s)], out[s // 2] * out[s // 2], out=out[s:2 * s])
        s *= 2
    return out.T


@lru_cache(maxsize=None)
def _coeff_weights(n: int) -> np.ndarray:
    """Read-only (n, n/2, ..., n/2, n), n even: an rfft over them is rfft / n with the
    interior modes doubled, bit for bit above the subnormal range."""
    w = np.full(n // 2 + 1, n / 2)
    w[[0, -1]] = n
    w.flags.writeable = False
    return w


def _interp_coeffs(values: np.ndarray, deriv: int = 0) -> np.ndarray:
    """The coefficients a_k, k = 0..n/2, that circle_interp sums against the
    phases: those of the trigonometric interpolant Re sum_k a_k e^{ikx} of
    grid samples along axis 0 (rfft / n, interior modes doubled), or of its
    deriv-th derivative.  The transform runs along the rows of values.T, so
    it is contiguous for the transpose of a row stack.  The last bin is the
    Nyquist bin only for even n, so odd sample counts are rejected."""
    if len(values) % 2:
        raise DomainError(f"trigonometric interpolation needs an even sample count, "
                          f"got {len(values)}")
    a = _rfft(values.T, -1)
    a /= _coeff_weights(len(values))
    a = a.T
    if deriv:
        a = (a.T * (1j * np.arange(len(a))) ** deriv).T
        a[-1] = 0.0  # Nyquist mode has no odd derivative
    return a


def circle_interp(values: np.ndarray, xq, out) -> np.ndarray:
    """Evaluate the trigonometric interpolant of grid samples at arbitrary
    points: samples of shape (n, k) are k functions evaluated from one phase
    matrix and written into out, a sequence of k arrays of len(xq), one per
    function."""
    a = _interp_coeffs(values)
    phases = _phases(np.asarray(xq, dtype=float).ravel(), len(a))
    # one matvec per function: an (m, k) matmat is not bitwise equal to them
    for row, col in zip(out, a.T):
        row[...] = (phases @ col).real
    return out


def circle_interp_antideriv(values: np.ndarray, xq) -> np.ndarray:
    """Antiderivative V of the trigonometric interpolant with V(0) = 0,
    evaluated on the real line (the mean contributes a linear part)."""
    a = _interp_coeffs(values)
    xq = np.asarray(xq, dtype=float).ravel()
    k = np.arange(1, len(a))
    terms = (_phases(xq, len(a))[:, 1:] - 1.0) @ (a[1:] / (1j * k))
    return np.real(a[0]) * xq + np.real(terms)


# ---------------------------------------------------------------------------
# Band-limited fields (modes 1 <= k < n/4) on the circle


@lru_cache(maxsize=None)
def _band_modes(n: int) -> np.ndarray:
    """Read-only (cos kx, sin kx) rows on the n-point circle grid, shaped
    (K, 2, n) for the modes k = 1..K, K = n/4 - 1: strictly below n/4, so that
    bilinear products stay below the Nyquist mode and their spectral
    derivatives are exact."""
    x = 2 * np.pi * np.arange(n) / n
    table = np.array([(np.cos(k * x), np.sin(k * x)) for k in range(1, n // 4)])
    table.flags.writeable = False
    return table


def _band_limited_1d(n: int, ab: np.ndarray, mean: float) -> np.ndarray:
    """mean + sum_k a_k cos kx + b_k sin kx on the n-point circle grid, from
    coefficients ab of shape (*batch, K, 2) in mode order; the result is
    (*batch, n).  The terms accumulate onto the mean in mode order, one mode
    at a time, so a batch item gets the bits it would get alone; each mode's
    a cos + b sin is written into two buffers made once, so memory stays
    three times that of the result and no mode allocates."""
    out = np.full(ab.shape[:-2] + (n,), mean)
    term, sin_term = np.empty(out.shape), np.empty(out.shape)
    for k, (cos, sin) in enumerate(_band_modes(n)):
        np.multiply(ab[..., k, :1], cos, out=term)
        term += np.multiply(ab[..., k, 1:], sin, out=sin_term)
        out += term
    return out


# ---------------------------------------------------------------------------
# Bounded scalar minimization


def _minimize_bounded(f, lo: float, hi: float, xatol: float) -> tuple[float, float]:
    """Brent's minimizer of f on [lo, hi] (R. P. Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 5), returning the best point
    x and f(x): parabolic steps through the three best points, golden-section
    steps where no parabola is acceptable, until the bracket lies within
    2 (sqrt(eps) |x| + xatol / 3) of x or f has been called 500 times.  Step
    for step scipy.optimize's _minimize_scalar_bounded, so the bits agree
    (BSD-3-Clause, (c) 2001-2002 Enthought, Inc., 2003 SciPy Developers)."""
    sqrt_eps, golden_mean = np.sqrt(2.2e-16), 0.5 * (3.0 - np.sqrt(5.0))
    a, b = lo, hi
    xf = nfc = fulc = a + golden_mean * (b - a)
    rat = e = 0.0
    fx = ffulc = fnfc = f(xf)
    num = 1
    while True:
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500 or not abs(xf - xm) > tol2 - 0.5 * (b - a):
            return xf, fx
        golden = True
        if abs(e) > tol1:
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * (1.0 if xm >= xf else -1.0)
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + (1.0 if rat >= 0 else -1.0) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
