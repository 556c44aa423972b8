import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baroflow import grids
from baroflow.errors import GridMismatchError
from baroflow.grids import (
    CircleGrid,
    DiscGrid,
    ScalarField,
    TorusGrid,
    VectorField,
    circle_interp,
    circle_interp_antideriv,
    curl,
    derivative,
    div,
    grad,
    hodge_decompose,
    integrate,
    random_band_limited,
    random_band_limited_vector,
    sgrad,
)


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


class TestCircleDerivative:
    def test_sin(self):
        g = CircleGrid(64)
        d = derivative(ScalarField(g, np.sin(g.x)))
        assert np.max(np.abs(d.values - np.cos(g.x))) < 1e-12

    def test_constant(self):
        g = CircleGrid(16)
        d = derivative(ScalarField(g, np.ones(16)))
        assert np.max(np.abs(d.values)) < 1e-14

    def test_mixed_modes(self):
        # analytic differentiation oracle for sin(3x)+cos(5x)
        g = CircleGrid(64)
        d = derivative(ScalarField(g, np.sin(3 * g.x) + np.cos(5 * g.x)))
        expect = 3 * np.cos(3 * g.x) - 5 * np.sin(5 * g.x)
        assert np.max(np.abs(d.values - expect)) < 1e-10

    def test_rejects_torus(self):
        g = TorusGrid(8, 8)
        with pytest.raises(GridMismatchError):
            derivative(ScalarField(g, np.zeros(g.shape)))


class TestTorusOperators:
    def test_grad_cos_x(self):
        g = TorusGrid(32, 32)
        X, _ = g.mesh
        v = grad(ScalarField(g, np.cos(X)))
        assert np.max(np.abs(v.values[0] + np.sin(X))) < 1e-12
        assert np.max(np.abs(v.values[1])) < 1e-12

    def test_div_of_gradient(self):
        g = TorusGrid(32, 32)
        X, _ = g.mesh
        d = div(VectorField(g, np.stack([-np.sin(X), np.zeros(g.shape)])))
        assert np.max(np.abs(d.values + np.cos(X))) < 1e-12

    def test_curl_grad_zero(self):
        g = TorusGrid(32, 32)
        f = random_band_limited(g, rng(3))
        c = curl(grad(f))
        assert np.max(np.abs(c.values)) < 1e-10

    def test_div_sgrad_zero(self):
        g = TorusGrid(32, 32)
        f = random_band_limited(g, rng(4))
        assert np.max(np.abs(div(sgrad(f)).values)) < 1e-10

    @given(st.integers(0, 2**32 - 1), st.integers(0, 31))
    @settings(max_examples=20, deadline=None)
    def test_translation_equivariance(self, seed, shift):
        g = CircleGrid(32)
        f = random_band_limited(g, rng(seed))
        shifted_then_d = derivative(ScalarField(g, np.roll(f.values, shift)))
        d_then_shifted = np.roll(derivative(f).values, shift)
        assert np.max(np.abs(shifted_then_d.values - d_then_shifted)) < 1e-10


class TestDiscOperators:
    def test_grad_polar(self):
        g = DiscGrid(128, 32)
        R, T = g.mesh
        v = grad(ScalarField(g, R**2 * np.cos(T)))
        assert np.max(np.abs(v.values[0] - 2 * R * np.cos(T))) < 1e-10
        assert np.max(np.abs(v.values[1] + np.sin(T))) < 1e-10

    def test_div_rotational_zero(self):
        g = DiscGrid(64, 32)
        u = VectorField(g, np.stack([np.zeros(g.shape), np.ones(g.shape)]))
        assert np.max(np.abs(div(u).values)) < 1e-12

    def test_curl_rigid_rotation(self):
        # u = a d/dtheta has curl 2a
        g = DiscGrid(64, 32)
        u = VectorField(g, np.stack([np.zeros(g.shape), 0.7 * np.ones(g.shape)]))
        assert np.max(np.abs(curl(u).values - 1.4)) < 1e-10


class TestIntegrate:
    def test_cos2_circle(self):
        g = CircleGrid(64)
        assert integrate(ScalarField(g, np.cos(g.x) ** 2)) == pytest.approx(np.pi, abs=1e-12)

    def test_constant_torus(self):
        g = TorusGrid(8, 16)
        assert integrate(ScalarField(g, np.ones(g.shape))) == pytest.approx(4 * np.pi**2)

    def test_r2_disc(self):
        # int_0^2pi int_0^1 r^3 dr dtheta = pi/2
        g = DiscGrid(400, 16)
        R, _ = g.mesh
        assert integrate(ScalarField(g, R**2)) == pytest.approx(np.pi / 2, rel=1e-5)

    def test_closed_divergence_integral(self):
        g = CircleGrid(64)
        r = rng(11)
        rho = random_band_limited(g, r, mean=2.0)
        w = random_band_limited_vector(g, r)
        val = integrate(div(VectorField(g, rho.values * w.values)))
        assert abs(val) < 1e-10


class TestHodge:
    def test_pure_gradient(self):
        g = TorusGrid(32, 32)
        X, _ = g.mesh
        f0 = np.cos(X)
        v = grad(ScalarField(g, f0))
        f, w = hodge_decompose(v)
        assert np.max(np.abs(f.values - f0)) < 1e-12
        assert np.max(np.abs(w.values)) < 1e-12

    def test_constant_field_is_divfree(self):
        g = TorusGrid(16, 16)
        v = VectorField(g, np.stack([np.zeros(g.shape), np.ones(g.shape)]))
        f, w = hodge_decompose(v)
        assert np.max(np.abs(f.values)) < 1e-14
        assert np.max(np.abs(w.values - v.values)) < 1e-14

    def test_roundtrip_and_orthogonality(self):
        g = TorusGrid(32, 32)
        v = random_band_limited_vector(g, rng(7))
        f, w = hodge_decompose(v)
        re = grad(f).values + w.values
        assert np.max(np.abs(re - v.values)) < 1e-10
        assert np.max(np.abs(div(w).values)) < 1e-10
        ortho = integrate(grids.inner(grad(f), w))
        assert abs(ortho) < 1e-9


class TestInterp:
    def test_matches_grid_and_offgrid(self):
        g = CircleGrid(32)
        vals = np.sin(2 * g.x) + 0.3 * np.cos(5 * g.x)
        xq = np.linspace(0, 2 * np.pi, 101)
        expect = np.sin(2 * xq) + 0.3 * np.cos(5 * xq)
        assert np.max(np.abs(circle_interp(vals, xq) - expect)) < 1e-12

    def test_derivative_eval(self):
        g = CircleGrid(32)
        vals = np.sin(2 * g.x)
        xq = np.array([0.1, 1.7, 4.0])
        assert np.max(np.abs(circle_interp(vals, xq, deriv=1) - 2 * np.cos(2 * xq))) < 1e-12

    def test_antiderivative(self):
        g = CircleGrid(32)
        vals = 1.5 + np.cos(3 * g.x)
        xq = np.array([0.0, 0.5, 2.0, 7.0, -1.0])
        expect = 1.5 * xq + np.sin(3 * xq) / 3
        assert np.max(np.abs(circle_interp_antideriv(vals, xq) - expect)) < 1e-12


def dense_interp(values, xq, deriv):
    """Reference interpolant: the dense sum Re sum_k w_k c_k (ik)^d e^{ikx}.
    Returns the values and the scale sum_k |w_k c_k k^d|."""
    n = len(values)
    c = np.fft.rfft(values) / n
    k = np.arange(n // 2 + 1)
    w = np.full(n // 2 + 1, 2.0)
    w[0] = 1.0
    w[-1] = 1.0
    if deriv:
        c = c * (1j * k) ** deriv
        c[-1] = 0.0
    return np.real(np.exp(1j * np.outer(xq, k)) @ (w * c)), np.sum(np.abs(w * c))


def complex_fft_deriv(values, axis):
    """Reference periodic derivative along `axis`: complex FFT with fftfreq
    wavenumbers and the Nyquist mode dropped."""
    n = values.shape[axis]
    k = np.fft.fftfreq(n, d=1.0 / n)
    k[n // 2] = 0.0
    shape = [1] * values.ndim
    shape[axis] = n
    hat = np.fft.fft(values, axis=axis)
    return np.real(np.fft.ifft(1j * k.reshape(shape) * hat, axis=axis))


class TestKernelEquivalence:
    @pytest.mark.parametrize("deriv", [0, 1, 2])
    @pytest.mark.parametrize("n", [8, 64, 128, 1024])
    def test_interp_matches_dense_phases(self, n, deriv):
        r = rng(n + deriv)
        vals = r.standard_normal(n)
        xq = r.uniform(-20 * np.pi, 20 * np.pi, 300)
        expect, scale = dense_interp(vals, xq, deriv)
        assert np.max(np.abs(circle_interp(vals, xq, deriv=deriv) - expect)) <= 1e-12 * scale

    def test_circle_derivative_and_grad(self):
        g = CircleGrid(64)
        f = ScalarField(g, rng(11).standard_normal(g.n))
        expect = complex_fft_deriv(f.values, 0)
        tol = 1e-13 * np.max(np.abs(expect))
        assert np.max(np.abs(derivative(f).values - expect)) <= tol
        assert np.max(np.abs(grad(f).values[0] - expect)) <= tol

    def test_torus_grad_both_axes(self):
        g = TorusGrid(16, 24)
        f = ScalarField(g, rng(12).standard_normal(g.shape))
        v = grad(f).values
        for axis in (0, 1):
            expect = complex_fft_deriv(f.values, axis)
            assert np.max(np.abs(v[axis] - expect)) <= 1e-13 * np.max(np.abs(expect))

    def test_disc_angular_grad(self):
        g = DiscGrid(16, 24)
        f = ScalarField(g, rng(13).standard_normal(g.shape))
        expect = complex_fft_deriv(f.values, 1) / g.r[:, None] ** 2
        assert np.max(np.abs(grad(f).values[1] - expect)) <= 1e-13 * np.max(np.abs(expect))

    @pytest.mark.parametrize("n", [8, 64])
    def test_nyquist_mode_has_zero_derivative(self, n):
        g = CircleGrid(n)
        assert np.max(np.abs(derivative(ScalarField(g, np.cos(n // 2 * g.x))).values)) < 1e-12


class TestSerialization:
    def test_csv_header_and_rows(self):
        g = CircleGrid(8)
        txt = grids.to_csv(ScalarField(g, np.arange(8.0)))
        lines = txt.strip().split("\n")
        assert lines[0] == "x,value"
        assert len(lines) == 9
