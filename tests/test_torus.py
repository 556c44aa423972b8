import numpy as np
import pytest

from baroflow import geometry, torus
from baroflow.errors import GridMismatchError
from baroflow.grids import (
    ScalarField,
    TorusGrid,
    VectorField,
    div,
    grad,
    hodge_decompose,
    integrate,
)
from baroflow.pressure import polytropic
from oracles import (
    j_at_every_row,
    mode_numeric_crosscheck,
    random_band_limited_vector,
    torus_curvature_coefficient,
    z_sup_norm,
)

G = TorusGrid(32, 32)
X, Y = G.mesh


def grad_field(fvals):
    return grad(ScalarField(G, fvals))


class TestTorusJacobi:
    def test_single_gradient_mode_omega_zero(self):
        c = 1.3
        v0 = grad_field(np.cos(X))
        for t in (0.3, 1.0, 2.5):
            j = torus.synthesize(v0, 0.0, c).j_at(t)
            expect_x = -np.sin(c * t) / c * np.sin(X)
            assert np.max(np.abs(j.values[0] - expect_x)) < 1e-12
            assert np.max(np.abs(j.values[1])) < 1e-12

    def test_divergence_free_grows_linearly(self):
        v0 = VectorField(G, np.stack([np.zeros(G.shape), np.ones(G.shape)]))
        j = torus.synthesize(v0, 0.4, 1.0).j_at(7.0)
        assert np.allclose(j.values[1], 7.0, atol=1e-12)
        assert np.max(np.abs(j.values[0])) < 1e-12

    def test_zero_input(self):
        v0 = VectorField(G, np.zeros((2,) + G.shape))
        j = torus.synthesize(v0, 0.5, 1.0).j_at(3.0)
        assert np.max(np.abs(j.values)) == 0.0

    def test_initial_conditions(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        v0 = random_band_limited_vector(G, rng)
        sol = torus.synthesize(v0, omega=0.7, c=2.0)
        assert np.max(np.abs(sol.j_at(0.0).values)) < 1e-12
        h = 1e-5
        jt0 = (sol.j_at(h).values - sol.j_at(-h).values) / (2 * h)
        assert np.max(np.abs(jt0 - v0.values)) < 1e-6

    def test_div_z_small(self):
        rng = np.random.Generator(np.random.Philox(key=12))
        v0 = random_band_limited_vector(G, rng)
        sol = torus.synthesize(v0, 0.0, 1.0)
        assert np.max(np.abs(div(sol.z).values)) < 1e-10

    def test_bounded_class_respects_series_bound(self):
        c = 1.5
        v0 = grad_field(np.sin(2 * X) + np.cos(3 * Y) + 0.3 * np.sin(X + Y))
        sol = torus.synthesize(v0, omega=0.6, c=c)
        bound = sol.series_bound()
        sup = max(
            float(np.max(np.sqrt(np.sum(sol.j_at(t).values**2, axis=0))))
            for t in np.linspace(0.0, 100.0 / c, 400)
        )
        assert sup <= bound + 1e-10

    def test_linear_class_slope(self):
        v0_z = np.stack([-np.sin(Y), np.zeros(G.shape)])
        v0 = VectorField(G, v0_z + 0.2 * grad_field(np.cos(X)).values)
        sol = torus.synthesize(v0, omega=0.3, c=1.0)
        ts = np.linspace(10.0, 100.0, 200)
        sups = [float(np.max(np.sqrt(np.sum(sol.j_at(t).values**2, axis=0))))
                for t in ts]
        slope = np.polyfit(ts, sups, 1)[0]
        assert slope == pytest.approx(z_sup_norm(sol), rel=0.01)


def j_at_formula(sol, t):
    """j(t) with every transform redone, fft2 of z included, on the full
    spectrum: the real part of each complex inverse transform."""
    kx, ky = sol.grid.wavenumbers
    kmag = np.sqrt(kx**2 + ky**2)
    ksafe = np.where(kmag == 0, 1.0, kmag)
    osc = np.where(kmag == 0, 0.0, np.sin(sol.c * ksafe * t) / (sol.c * ksafe))
    shift = np.exp(-1j * ky * sol.omega * t)
    coef = sol.f_hat * osc * shift
    jx = np.real(np.fft.ifft2(1j * kx * coef))
    jy = np.real(np.fft.ifft2(1j * ky * coef))
    zx = np.real(np.fft.ifft2(np.fft.fft2(sol.z.values[0]) * shift))
    zy = np.real(np.fft.ifft2(np.fft.fft2(sol.z.values[1]) * shift))
    return np.stack([jx + t * zx, jy + t * zy])


def max_rel_gap(sol, ts):
    """max over ts of max|j_at - formula| / max|formula|."""
    gaps = []
    for t in ts:
        want = j_at_formula(sol, float(t))
        gaps.append(np.max(np.abs(sol.j_at(float(t)).values - want)) / np.max(np.abs(want)))
    return max(gaps)


@pytest.mark.parametrize("kind", ["gradient", "divfree", "mixed"])
def test_j_at_matches_formula(kind):
    gradient = grad_field(np.sin(2 * X) + np.cos(3 * Y)).values
    divfree = np.stack([-np.sin(Y), np.zeros(G.shape)])
    v0 = {"gradient": gradient, "divfree": divfree, "mixed": gradient + 0.5 * divfree}[kind]
    sol = torus.synthesize(VectorField(G, v0), omega=0.7, c=1.3)
    assert max_rel_gap(sol, np.linspace(-3.0, 60.0, 10)) <= 1e-14


@pytest.mark.parametrize("shape", [(8, 8), (34, 34), (16, 32), (32, 16), (10, 12)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_j_at_matches_formula_on_white_noise(shape):
    # noise fills the Nyquist row and column, where the full-spectrum real
    # part drops the anti-Hermitian derivative terms
    g = TorusGrid(*shape)
    rng = np.random.Generator(np.random.Philox(key=sum(shape)))
    sol = torus.synthesize(VectorField(g, rng.standard_normal((2,) + shape)),
                           omega=0.7, c=1.3)
    assert max_rel_gap(sol, np.linspace(-3.0, 60.0, 10)) <= 1e-14


@pytest.mark.parametrize("kind", ["gradient", "divfree", "mixed"])
@pytest.mark.parametrize("shape", [(16, 24), (24, 16), (32, 32), (128, 128)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_j_at_matches_the_every_row_route_bitwise(shape, kind):
    # white noise fills every row, the kx Nyquist row included; j_at takes
    # each sine once and mirrors it onto row nx - k
    g = TorusGrid(*shape)
    rng = np.random.Generator(np.random.Philox(key=shape[0] * shape[1]))
    v = VectorField(g, rng.standard_normal((2,) + shape))
    z = hodge_decompose(v)[1].values
    v0 = {"gradient": v.values - z, "divfree": z, "mixed": v.values}[kind]
    sol = torus.synthesize(VectorField(g, v0), omega=0.7, c=1.3)
    for t in (0.0, 0.37, -1.5, 60.0):
        j = sol.j_at(t).values
        want = j_at_every_row(sol, t)
        assert j.dtype == want.dtype and j.shape == want.shape
        assert j.tobytes() == want.tobytes()


class TestClassify:
    def test_gradient_is_bounded(self):
        v0 = grad_field(np.sin(2 * X) + np.cos(3 * Y))
        rep = torus.classify_boundedness(torus.synthesize(v0, 0.0, 1.0))
        assert rep.bounded and rep.series_bound is not None

    def test_divfree_grows(self):
        v0 = VectorField(G, np.stack([-np.sin(Y), np.zeros(G.shape)]))
        rep = torus.classify_boundedness(torus.synthesize(v0, 0.0, 1.0))
        assert not rep.bounded
        assert rep.w_norm > 1.0

    def test_mixed_flips_with_epsilon(self):
        w = np.stack([-np.sin(Y), np.zeros(G.shape)])
        base = grad_field(np.cos(2 * X)).values
        rep0 = torus.classify_boundedness(torus.synthesize(VectorField(G, base), 0.0, 1.0))
        rep1 = torus.classify_boundedness(
            torus.synthesize(VectorField(G, base + 1e-3 * w), 0.0, 1.0))
        assert rep0.bounded and not rep1.bounded

    def test_rejects_non_torus(self):
        from baroflow.grids import CircleGrid
        g = CircleGrid(16)
        # the Hodge decomposition owns the grid check
        with pytest.raises(GridMismatchError, match="expects a torus field"):
            torus.synthesize(VectorField(g, np.zeros((1, 16))), 0.0, 1.0)


class TestCurvatureCoefficient:
    def test_gamma2_value(self):
        c = 1.7
        assert torus_curvature_coefficient(polytropic(c**2 / 2, 2.0)) == \
            pytest.approx(c**2 / 4, rel=1e-12)

    def test_gamma3_zero(self):
        assert abs(torus_curvature_coefficient(polytropic(1 / 3, 3.0))) < 1e-12

    @pytest.mark.parametrize("gamma", [1.4, 2.0, 2.5])
    def test_symbolic_value(self, gamma):
        A = 0.8
        assert torus_curvature_coefficient(polytropic(A, gamma)) == \
            pytest.approx(A * (3 - gamma) / 2, rel=1e-10)

    @pytest.mark.parametrize("gamma", [1.4, 2.0, 2.5])
    def test_matches_sectional_curvature(self, gamma):
        A = 0.6
        model = polytropic(A, gamma)
        rng = np.random.Generator(np.random.Philox(key=21))
        u = VectorField(G, np.stack([np.zeros(G.shape),
                                     np.broadcast_to(np.sin(G.x)[:, None], G.shape)]))
        v = random_band_limited_vector(G, rng)
        rho = ScalarField(G, np.ones(G.shape))
        f_const = ScalarField(G, np.full(G.shape, 1.0 / model.lam(1.0)))
        U = geometry.TangentVector(u, f_const)
        V = geometry.TangentVector(v, f_const)
        rep = geometry.sectional_curvature(U, V, rho, model)
        expect = torus_curvature_coefficient(model) * integrate(
            ScalarField(G, div(v).values ** 2))
        assert rep.total == pytest.approx(expect, rel=1e-8)


class TestCrosscheck:
    def test_single_gradient_mode(self):
        v0 = grad_field(np.cos(X + Y))
        rep = mode_numeric_crosscheck(v0, omega=0.5, c=1.0, t_end=1.0, dt=0.005)
        assert rep.max_rel_gap < 1e-5

    def test_divfree_growth_slope(self):
        v0 = VectorField(G, np.stack([np.zeros(G.shape), np.cos(X)]))
        rep = mode_numeric_crosscheck(v0, omega=0.5, c=1.0, t_end=5.0,
                                            dt=0.01, n_samples=20)
        expect = np.sqrt(integrate(ScalarField(G, np.cos(X) ** 2)))
        assert rep.growth_slope == pytest.approx(expect, abs=1e-4)

    def test_zero_perturbation(self):
        v0 = VectorField(G, np.zeros((2,) + G.shape))
        rep = mode_numeric_crosscheck(v0, 0.5, 1.0, 1.0)
        assert rep.max_rel_gap == 0.0
