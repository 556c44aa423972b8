import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from baroflow import grids
from baroflow.errors import BaroflowError, DomainError, GridMismatchError
from baroflow.grids import (
    CircleGrid,
    ScalarField,
    TorusGrid,
    VectorField,
    circle_interp,
    circle_interp_antideriv,
    covariant_derivative,
    curl,
    derivative,
    directional,
    div,
    grad,
    hodge_decompose,
    inner,
    integrate,
)
from oracles import (
    DiscGrid,
    disc_mesh,
    interp,
    interp_deriv,
    random_band_limited,
    random_band_limited_1d,
    random_band_limited_vector,
    sgrad,
)


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


class TestConstructors:
    @pytest.mark.parametrize("make", [lambda: CircleGrid(9), lambda: TorusGrid(8, 6),
                                      lambda: DiscGrid(4, 8), lambda: DiscGrid(8, 9)],
                             ids=["circle_odd", "torus_small", "disc_nr", "disc_ntheta"])
    def test_bad_grid_size_is_a_baroflow_domain_error(self, make):
        with pytest.raises(BaroflowError) as exc:
            make()
        assert isinstance(exc.value, DomainError)

    def test_non_finite_values_are_domain_errors(self):
        g = CircleGrid(8)
        with pytest.raises(DomainError):
            ScalarField(g, np.full(8, np.nan))
        with pytest.raises(DomainError):
            VectorField(g, np.full((1, 8), np.inf))

    def test_circle_vector_field_takes_one_component_row(self):
        # a circle vector is (1, n); a bare (n,) row is a shape mismatch
        g = CircleGrid(8)
        assert VectorField(g, np.ones((1, 8))).values.shape == (1, 8)
        with pytest.raises(GridMismatchError, match=r"vector values \(8,\)"):
            VectorField(g, np.ones(8))


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
        R, T = disc_mesh(g)
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

    @pytest.mark.parametrize("n_r", [8, 64, 401])
    def test_radial_derivative_is_the_second_order_stencil(self, n_r):
        # centered in the interior (bitwise), one-sided second order at both ends
        g = DiscGrid(n_r, 16)
        f = rng(n_r).standard_normal(g.shape)
        dr = g.dr
        got = g._dr(f)
        assert np.array_equal(got[1:-1], (f[2:] - f[:-2]) / (2 * dr))
        ends = [(-3 * f[0] + 4 * f[1] - f[2]) / (2 * dr), (3 * f[-1] - 4 * f[-2] + f[-3]) / (2 * dr)]
        assert np.max(np.abs(got[[0, -1]] - ends)) <= 1e-14 * np.max(np.abs(ends))


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
        R, _ = disc_mesh(g)
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
        assert np.max(np.abs(interp(vals, xq) - expect)) < 1e-12

    def test_derivative_eval(self):
        g = CircleGrid(32)
        vals = np.sin(2 * g.x)
        xq = np.array([0.1, 1.7, 4.0])
        assert np.max(np.abs(interp_deriv(vals, xq) - 2 * np.cos(2 * xq))) < 1e-12
        with pytest.raises(TypeError):
            # the slope is not circle_interp's
            circle_interp(vals[:, None], xq, out=np.empty((1, 3)), deriv=1)

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


def spectral_d(values, axis):
    """Periodic derivative along `axis`: real FFT times i*k, Nyquist bin
    zeroed."""
    n = values.shape[axis]
    ik = 1j * np.arange(n // 2 + 1)
    ik[-1] = 0.0
    shape = [1] * values.ndim
    shape[axis] = n // 2 + 1
    return np.fft.irfft(ik.reshape(shape) * np.fft.rfft(values, axis=axis), n, axis=axis)


def random_fields(g, seed):
    r = rng(seed)
    return (ScalarField(g, r.standard_normal(g.shape)),
            VectorField(g, r.standard_normal((g.ncomp,) + g.shape)),
            VectorField(g, r.standard_normal((g.ncomp,) + g.shape)))


def assert_all_equal(cases):
    for name, (got, want) in cases.items():
        assert np.array_equal(got, want), name


class TestKernelEquivalence:
    """The grid-owned operators reproduce the coordinate formulas bit for bit."""

    def test_circle_operators_match_formulas(self):
        g = CircleGrid(32)
        f, u, v = random_fields(g, 20)
        (a,), (c,) = u.values, v.values
        d = spectral_d
        assert_all_equal({
            "grad": (grad(f).values, d(f.values, 0)[None]),
            "div": (div(v).values, d(c, 0)),
            "directional": (directional(u, f).values, a * d(f.values, 0)),
            "covariant_derivative": (covariant_derivative(u, v).values, (a * d(c, 0))[None]),
            "inner": (inner(u, v).values, np.einsum("c...,c...->...", u.values, v.values)),
            "integrate": (integrate(f), float(f.values.sum() * (2 * np.pi / 32))),
        })

    def test_torus_operators_match_formulas(self):
        g = TorusGrid(16, 24)
        f, u, v = random_fields(g, 21)
        (a, b), (c, e) = u.values, v.values
        fv, d = f.values, spectral_d
        assert_all_equal({
            "grad": (grad(f).values, np.stack([d(fv, 0), d(fv, 1)])),
            "sgrad": (sgrad(f).values, np.stack([d(fv, 1), -d(fv, 0)])),
            "div": (div(v).values, d(c, 0) + d(e, 1)),
            "curl": (curl(v).values, d(e, 0) - d(c, 1)),
            "directional": (directional(u, f).values, a * d(fv, 0) + b * d(fv, 1)),
            "covariant_derivative": (
                covariant_derivative(u, v).values,
                np.stack([a * d(c, 0) + b * d(c, 1), a * d(e, 0) + b * d(e, 1)])),
            "inner": (inner(u, v).values, np.einsum("c...,c...->...", u.values, v.values)),
            "integrate": (integrate(f), float(fv.sum() * (2 * np.pi / 16) * (2 * np.pi / 24))),
        })

    def test_disc_operators_match_formulas(self):
        g = DiscGrid(16, 24)
        f, u, v = random_fields(g, 22)
        (a, b), (c, e) = u.values, v.values
        fv, r = f.values, g.r[:, None]

        def dr(x):  # the stencil itself: test_radial_derivative_is_the_second_order_stencil
            return np.gradient(x, g.dr, axis=0, edge_order=2)

        def dt(x):
            return spectral_d(x, 1)

        for x in (fv, c, e):  # raw bytes, signed zeros too
            assert g._dtheta(x).tobytes() == dt(x).tobytes()
        ring = fv.mean(axis=1) * 2 * np.pi * g.r
        assert_all_equal({
            "grad": (grad(f).values, np.stack([dr(fv), dt(fv) / r**2])),
            "sgrad": (sgrad(f).values, np.stack([dt(fv) / r, -dr(fv) / r])),
            "div": (div(v).values, dr(r * c) / r + dt(e)),
            "curl": (curl(v).values, (dr(r**2 * e) - dt(c)) / r),
            "directional": (directional(u, f).values, a * dr(fv) + b * dt(fv)),
            "covariant_derivative": (
                covariant_derivative(u, v).values,
                np.stack([a * dr(c) + b * dt(c) - r * b * e,
                          a * dr(e) + b * dt(e) + (a * e + b * c) / r])),
            "inner": (inner(u, v).values, a * c + r**2 * b * e),
            "integrate": (integrate(f), float(np.trapezoid(
                np.concatenate([[0.0], ring]), np.concatenate([[0.0], g.r])))),
        })

    @pytest.mark.parametrize("g", [CircleGrid(8), CircleGrid(64), CircleGrid(128),
                                   CircleGrid(2048), TorusGrid(16, 24)],
                             ids=["circle8", "circle64", "circle128", "circle2048",
                                  "torus16x24"])
    def test_stacked_partials_match_single_operand_derivatives(self, g):
        # raw bytes (signed zeros too) against spectral_d, which goes through
        # np.fft, on every grid axis, without and with a leading batch axis
        for batch in ((), (3,)):
            ops = rng(24).standard_normal((7,) + batch + g.shape)
            d = g.partials(ops)
            assert d.shape == (7, g.ncomp) + batch + g.shape
            for k in range(7):
                for a in range(g.ncomp):
                    want = spectral_d(ops[k], a - g.ncomp).tobytes()
                    assert d[k, a].tobytes() == want, (batch, k, a)
                    assert g._d(ops[k], a).tobytes() == want, (batch, k, a)

    @pytest.mark.parametrize("g", [CircleGrid(64), TorusGrid(64, 64), TorusGrid(16, 24)],
                             ids=["circle64", "torus64x64", "torus16x24"])
    def test_div_takes_one_derivative_per_axis(self, g, monkeypatch):
        # d_a v_a only, per axis, bit for bit the sum of the diagonal partials
        v = rng(26).standard_normal((g.ncomp, 3) + g.shape)
        want = grids._div(g.partials(v))
        transforms = []

        def counting_deriv(values, axis, n, out=None, _deriv=grids._spectral_deriv):
            transforms.append((values.shape, axis))
            return _deriv(values, axis, n, out=out)

        monkeypatch.setattr(grids, "_spectral_deriv", counting_deriv)
        got = g.div(v)
        assert transforms == [((3,) + g.shape, a - g.ncomp) for a in range(g.ncomp)]
        assert got.shape == (3,) + g.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("g", [CircleGrid(8), CircleGrid(64), TorusGrid(16, 24)],
                             ids=["circle8", "circle64", "torus16x24"])
    def test_batch_axes_match_per_item_calls(self, g):
        # a scalar is (*batch, *shape), a vector (ncomp, *batch, *shape) and
        # a stack of partials (k, ncomp, *batch, *shape)
        batch = (2, 3)
        r = rng(25)
        f, h = r.standard_normal((2,) + batch + g.shape)
        u, v = r.standard_normal((2, g.ncomp) + batch + g.shape)
        ops = r.standard_normal((5,) + batch + g.shape)
        batched = {f"d{a}": g._d(f, a) for a in range(g.ncomp)}
        batched.update(grad=g.grad(f), div=g.div(u), directional=g.directional(u, h),
                       covariant_derivative=g.covariant_derivative(u, v),
                       inner=g.inner(u, v), integrate=g.integrate(f),
                       partials=g.partials(ops))
        for i in np.ndindex(batch):
            c = (slice(None),) + i  # item i of a vector
            items = {f"d{a}": (g._d(f[i], a), i) for a in range(g.ncomp)}
            items.update(grad=(g.grad(f[i]), c), div=(g.div(u[c]), i),
                         directional=(g.directional(u[c], h[i]), i),
                         covariant_derivative=(g.covariant_derivative(u[c], v[c]), c),
                         inner=(g.inner(u[c], v[c]), i), integrate=(g.integrate(f[i]), i),
                         partials=(g.partials(ops[c]), (slice(None),) + c))
            for name, (item, where) in items.items():
                assert np.array_equal(batched[name][where], item), (name, i)
        assert isinstance(g.integrate(f[0, 0]), float)
        assert g.integrate(f).shape == batch

    @pytest.mark.parametrize("g", [CircleGrid(64), TorusGrid(16, 24)],
                             ids=["circle64", "torus16x24"])
    def test_integrate_one_field_sums_every_entry(self, g):
        # a strided field as well as a contiguous one: f.sum() times each
        # axis's spacing, as a float
        f = rng(26).standard_normal(g.shape[::-1]).T
        for field in (f, np.ascontiguousarray(f)):
            want = field.sum()
            for n in g.shape:
                want = want * (2 * np.pi / n)
            assert g.integrate(field) == float(want)

    @pytest.mark.parametrize("n", [8, 16, 64, 128, 256])
    def test_circle_random_band_limited_matches_mode_loop(self, n):
        def mode_loop(rng, mean):
            x = 2 * np.pi * np.arange(n) / n
            out = np.full(n, mean)
            for k in range(1, n // 4):
                a, b = rng.standard_normal(2)
                out += a * np.cos(k * x) + b * np.sin(k * x)
            return out

        g, got_rng, want_rng = CircleGrid(n), rng(30 + n), rng(30 + n)
        for mean in (0.0, 1.5, -0.25):  # three consecutive draws
            got = random_band_limited_1d(g, got_rng, mean).values
            assert np.array_equal(got, mode_loop(want_rng, mean)), mean

    def test_circle_band_table_is_cached_and_read_only(self):
        table = grids._band_modes(64)
        assert table.shape == (15, 2, 64)
        assert grids._band_modes(64) is table
        with pytest.raises(ValueError):
            table[0, 0, 0] = 1.0

    @pytest.mark.parametrize("grid", [TorusGrid(16, 16), DiscGrid(16, 16)])
    def test_random_band_limited_is_drawn_on_the_circle_only(self, grid):
        with pytest.raises(GridMismatchError):
            random_band_limited_1d(grid, rng(0))

    def test_circle_rejects_planar_operators(self):
        _, u, _ = random_fields(CircleGrid(8), 23)
        with pytest.raises(GridMismatchError):
            curl(u)

    def test_torus_wavenumbers_are_cached_and_read_only(self):
        g = TorusGrid(8, 12)
        kx, ky = g.wavenumbers
        assert g.wavenumbers[0] is kx
        assert np.array_equal(kx[:, 0], np.fft.fftfreq(8, d=1.0 / 8))
        assert np.array_equal(ky[0], np.fft.fftfreq(12, d=1.0 / 12))
        with pytest.raises(ValueError):
            kx[0, 0] = 1.0

    @pytest.mark.parametrize("deriv", [0, 1, 2])
    @pytest.mark.parametrize("n", [8, 64, 128, 1024, 2048])
    def test_interp_matches_dense_phases(self, n, deriv):
        r = rng(n + deriv)
        vals = r.standard_normal(n)
        xq = r.uniform(-20 * np.pi, 20 * np.pi, 300)
        expect, scale = dense_interp(vals, xq, deriv)
        got = interp_deriv(vals, xq, deriv) if deriv else interp(vals, xq)
        assert np.max(np.abs(got - expect)) <= 1e-12 * scale

    @pytest.mark.parametrize("m", [2, 3, 5, 8, 9, 33, 65, 1025])
    def test_phases_of_a_point_are_the_same_alone_and_in_a_batch(self, m):
        xq = rng(40 + m).uniform(-20 * np.pi, 20 * np.pi, 257)
        batch = grids._phases(xq, m)
        assert batch.shape == (257, m)
        for i in range(len(xq)):
            assert np.array_equal(grids._phases(xq[i:i + 1], m)[0], batch[i]), i
        assert np.array_equal(grids._phases(xq[5:9], m), batch[5:9])

    def test_weighted_divide_is_the_scaled_transform_bitwise(self):
        # one divide by (n, n/2, ..., n/2, n) against rfft / n with the
        # interior modes doubled, compared as raw bits (signed zeros too),
        # for one function and for the transpose of a row stack
        for n in list(range(8, 301, 2)) + [2046, 2048]:
            for vals in (rng(n).standard_normal(n), rng(n + 1).standard_normal((2, n)).T):
                want = np.fft.rfft(vals.T).T
                want /= n
                want[1:-1] *= 2.0
                got = grids._interp_coeffs(vals)
                assert got.shape == want.shape
                assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes(), n

    @pytest.mark.parametrize("n", [9, 15, 63])
    def test_odd_sample_counts_are_rejected(self, n):
        vals = np.cos(4 * 2 * np.pi * np.arange(n) / n)
        for call in (lambda: interp(vals, [0.5]),
                     lambda: interp_deriv(vals, [0.5]),
                     lambda: circle_interp(np.stack([vals, vals], axis=1), [0.5],
                                           out=np.empty((2, 1))),
                     lambda: circle_interp_antideriv(vals, [0.5])):
            with pytest.raises(DomainError, match="even sample count"):
                call()

    def test_interp_of_columns_matches_each_column(self):
        # a column stack and the transpose of a (k, n) row stack, written row
        # by row into out: each row is its column's one-function interpolant
        r = rng(25)
        vals = r.standard_normal((64, 3))
        xq = r.uniform(-10.0, 10.0, 40)
        for stack in (vals, np.ascontiguousarray(vals.T).T):
            out = np.full((3, 40), np.nan)
            assert circle_interp(stack, xq, out=out) is out
            for c in range(3):
                assert np.array_equal(out[c], interp(vals[:, c].copy(), xq)), c

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


def assert_same_as_scipy(f, lo, hi, xatol):
    """grids._minimize_bounded evaluates f at the points scipy's bounded
    minimize_scalar does, in the same order, and returns its x and f(x), all
    bit for bit (NaN included); returns the points and the result."""
    ref_xs, xs = [], []
    ref = scipy.optimize.minimize_scalar(lambda x: (ref_xs.append(x), f(x))[1], bounds=(lo, hi),
                                         method="bounded", options={"xatol": xatol})
    res = grids._minimize_bounded(lambda x: (xs.append(x), f(x))[1], lo, hi, xatol)
    bits = lambda vals: np.array(vals, dtype=float).tobytes()  # noqa: E731
    assert len(xs) == len(ref_xs) == ref.nfev
    assert bits(xs) == bits(ref_xs)
    assert bits(res) == bits((ref.x, ref.fun))
    return xs, res


class TestMinimizeBounded:
    """grids._minimize_bounded is scipy's bounded Brent search bit for bit:
    the same evaluation points, the same result and the same count."""

    @pytest.mark.parametrize("n", [16, 32, 64, 128, 256, 512])
    def test_shock_time_objective(self, n):
        g = CircleGrid(n)
        for seed in range(4):
            da = grids._interp_coeffs(random_band_limited_1d(g, rng(seed)).values, 1)
            fine, h = np.linspace(0.0, 2 * np.pi, 8 * n, endpoint=False, retstep=True)
            k = int(np.argmax(-np.real(grids._phases(fine, len(da)) @ da)))
            assert_same_as_scipy(
                lambda x: float(np.real(grids._phases(np.array([x], dtype=float), len(da)) @ da)[0]),
                fine[k] - h, fine[k] + h, 1e-13)

    @pytest.mark.parametrize("center", [3.1316, 3.14159, 3.1416, 3.145])
    def test_quartic_near_a_double_zero(self, center):
        # the squared Jacobi norm near a conjugate time pi, on a bracket of
        # two steps of 0.005 (the first one ends short of pi)
        def quartic(x):
            d = x - np.pi
            return d * d * (1.0 + 0.3 * d * d)
        assert_same_as_scipy(quartic, center - 0.005, center + 0.005, 1e-10)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_minimum_at_a_bound(self, sign):
        _, (x, _) = assert_same_as_scipy(lambda x: sign * x, 0.25, 2.0, 1e-10)
        assert x == pytest.approx(0.25 if sign > 0 else 2.0, abs=1e-7)

    def test_plateaus(self):
        # a staircase makes ties between a new point and the kept ones
        assert_same_as_scipy(lambda x: float(np.floor(25 * abs(x - 0.7))), 0.0, 1.0, 1e-10)

    def test_constant(self):
        assert_same_as_scipy(lambda x: 1.0, -1.0, 3.0, 1e-13)

    @pytest.mark.parametrize("where", [lambda x: True, lambda x: x > 0.6],
                             ids=["everywhere", "right_part"])
    def test_nan(self, where):
        assert_same_as_scipy(lambda x: float("nan") if where(x) else (x - 0.7) ** 2,
                             0.0, 1.0, 1e-10)

    def test_evaluation_cap(self):
        # a line admits no parabola, and golden sections toward 0 would take
        # some 1,400 evaluations to meet the tolerance there
        xs, _ = assert_same_as_scipy(lambda x: x, 0.0, 1.0, 1e-300)
        assert len(xs) == 500
