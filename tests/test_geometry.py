import tracemalloc
from dataclasses import astuple
from functools import lru_cache

import numpy as np
import pytest

from baroflow import geometry, grids, pressure
from baroflow.errors import DomainError
from baroflow.geometry import TangentVector, curvature_sign_scan_1d, sectional_curvature
from baroflow.grids import (
    CircleGrid,
    ScalarField,
    TorusGrid,
    VectorField,
)
from baroflow.pressure import polytropic
from oracles import (
    DiscGrid,
    LambdaModel,
    NormalizationError,
    christoffel,
    christoffel_weak,
    curvature_scan_1d,
    density_functional_derivative,
    from_catalog,
    interp,
    jacobi_metric_curvature_1d,
    linearization_coefficient,
    metric_inner,
    potential_density,
    q_operator,
    random_band_limited,
    random_band_limited_vector,
    random_section_1d,
)


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def tv(grid, u_values, f_values):
    return TangentVector(VectorField(grid, u_values), ScalarField(grid, f_values))


class TestMetricInner:
    def test_unit_velocity(self):
        g = CircleGrid(64)
        one = np.ones(g.n)
        U = tv(g, one[None], np.zeros(g.n))
        rho = ScalarField(g, one)
        assert metric_inner(U, U, rho, from_catalog("rho")) == pytest.approx(2 * np.pi)

    def test_function_part(self):
        g = CircleGrid(64)
        U = tv(g, np.zeros((1, g.n)), np.sin(g.x))
        rho = ScalarField(g, np.ones(g.n))
        val = metric_inner(U, U, rho, from_catalog("3/rho"))
        assert val == pytest.approx(3 * np.pi, abs=1e-12)

    def test_bilinearity(self):
        g = CircleGrid(32)
        r = rng(5)
        U, V, rho = random_section_1d(g, r)
        m = polytropic(1.0, 2.0)
        a = 2.7
        aU = TangentVector(
            VectorField(g, a * U.u.values), ScalarField(g, a * U.f.values)
        )
        assert metric_inner(aU, V, rho, m) == pytest.approx(
            a * metric_inner(U, V, rho, m), rel=1e-12
        )

    def test_rejects_nonpositive_density(self):
        g = CircleGrid(32)
        U = tv(g, np.zeros((1, g.n)), np.zeros(g.n))
        with pytest.raises(DomainError):
            metric_inner(U, U, ScalarField(g, -np.ones(g.n)), from_catalog("rho"))


class TestChristoffel:
    def test_lambda_rho_vanishes(self):
        g = CircleGrid(32)
        r = rng(1)
        U, V, rho = random_section_1d(g, r)
        out = christoffel(U, V, rho, from_catalog("rho"))
        assert np.max(np.abs(out.u.values)) < 1e-12
        assert np.max(np.abs(out.f.values)) < 1e-12

    def test_explicit_1d_example(self):
        # lambda=3/rho, rho=1, u=v=0, f=g=sin x -> z = d/dx(3 sin^2 x) = 3 sin 2x
        g = CircleGrid(64)
        U = tv(g, np.zeros((1, g.n)), np.sin(g.x))
        rho = ScalarField(g, np.ones(g.n))
        out = christoffel(U, U, rho, from_catalog("3/rho"))
        assert np.max(np.abs(out.u.values[0] - 3 * np.sin(2 * g.x))) < 1e-10
        assert np.max(np.abs(out.f.values)) < 1e-12

    @pytest.mark.parametrize("grid", [CircleGrid(32), TorusGrid(16, 16)])
    def test_weak_strong_agreement(self, grid):
        m = polytropic(1.0, 1.4)
        for trial in range(50):
            r = rng(100 + trial)
            def rtv():
                return TangentVector(
                    random_band_limited_vector(grid, r), random_band_limited(grid, r)
                )
            U, V, W = rtv(), rtv(), rtv()
            bump = random_band_limited(grid, r)
            rho = ScalarField(grid, 1.0 + 0.4 * bump.values / (np.max(np.abs(bump.values)) + 1e-12))
            strong = metric_inner(christoffel(U, V, rho, m), W, rho, m)
            weak = christoffel_weak(U, V, W, rho, m)
            assert abs(strong - weak) < 1e-8


class TestQOperator:
    def test_rigid_rotation_disc(self):
        g = DiscGrid(64, 32)
        a = 0.8
        z = VectorField(g, np.stack([np.zeros(g.shape), a * np.ones(g.shape)]))
        q = q_operator(z, z)
        assert np.max(np.abs(q.values + 2 * a**2)) < 1e-10

    def test_constant_torus_zero(self):
        g = TorusGrid(16, 16)
        u = VectorField(g, np.stack([np.ones(g.shape), 0.5 * np.ones(g.shape)]))
        assert np.max(np.abs(q_operator(u, u).values)) < 1e-12

    @pytest.mark.parametrize("grid", [CircleGrid(32), TorusGrid(16, 16)])
    def test_symmetry(self, grid):
        r = rng(17)
        u = random_band_limited_vector(grid, r)
        v = random_band_limited_vector(grid, r)
        gap = q_operator(u, v).values - q_operator(v, u).values
        assert np.max(np.abs(gap)) < 1e-9

    def test_integral_vanishes_on_torus(self):
        # int Q(z, z) dmu = 0 on a closed manifold
        g = TorusGrid(16, 16)
        z = random_band_limited_vector(g, rng(23))
        assert abs(grids.integrate(q_operator(z, z))) < 1e-9


def flow_map_functional(alpha, phi_fn, rho, w, s, substeps=64):
    """Independent oracle: evaluate Phi along the flow of w at parameter s by
    integrating the node trajectories and the transported density."""
    g = rho.grid
    eta = g.x.copy()
    ds = s / substeps
    wv = w.values[0]

    def vel(x):
        return interp(wv, x)

    for _ in range(substeps):
        k1 = vel(eta)
        k2 = vel(eta + 0.5 * ds * k1)
        k3 = vel(eta + 0.5 * ds * k2)
        k4 = vel(eta + ds * k3)
        eta = eta + ds / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    jac = grids.derivative(ScalarField(g, eta - g.x)).values + 1.0
    dens = interp(alpha.values, eta) * np.asarray(phi_fn(rho.values / jac)) * jac
    return grids.integrate(ScalarField(g, dens))


class TestDensityFunctionalDerivative:
    def test_total_mass_conserved(self):
        g = CircleGrid(64)
        r = rng(2)
        rho = ScalarField(g, 1.0 + 0.3 * np.sin(g.x))
        w = random_band_limited_vector(g, r)
        val = density_functional_derivative(
            ScalarField(g, np.ones(g.n)), lambda x: x, rho, w, dphi_fn=lambda x: np.ones_like(x)
        )
        assert abs(val) < 1e-10

    def test_divergence_free_direction(self):
        # div(rho w) = 0 when w = c / rho in 1D
        g = CircleGrid(64)
        rho = ScalarField(g, 1.0 + 0.3 * np.sin(g.x))
        w = VectorField(g, (1.0 / rho.values)[None])
        alpha = ScalarField(g, np.cos(2 * g.x))
        val = density_functional_derivative(alpha, lambda x: x**2, rho, w,
                                            dphi_fn=lambda x: 2 * x)
        assert abs(val) < 1e-10

    def test_finite_difference_oracle(self):
        g = CircleGrid(64)
        r = rng(9)
        alpha = random_band_limited(g, r)
        w = random_band_limited_vector(g, r)
        bump = random_band_limited(g, r)
        rho = ScalarField(g, 1.5 + 0.4 * bump.values / (np.max(np.abs(bump.values)) + 1e-12))
        phi_fn = lambda x: x**2 + np.sin(x)
        dphi_fn = lambda x: 2 * x + np.cos(x)
        analytic = density_functional_derivative(alpha, phi_fn, rho, w, dphi_fn=dphi_fn)
        s = 1e-5
        fd = (
            flow_map_functional(alpha, phi_fn, rho, w, s)
            - flow_map_functional(alpha, phi_fn, rho, w, -s)
        ) / (2 * s)
        assert abs(analytic - fd) < 1e-5 * max(1.0, abs(fd))


class TestSectionalCurvature:
    def test_torus_shear(self):
        # U = shear + f=rho/lambda, V = (sin x d/dx, rho/lambda), gamma=2
        c = 1.3
        m = polytropic(c**2 / 2, 2.0)
        g = TorusGrid(32, 32)
        X, _ = g.mesh
        fconst = np.full(g.shape, 1.0 / m.lam(1.0))
        U = tv(g, np.stack([np.zeros(g.shape), np.sin(X)]), fconst)
        V = tv(g, np.stack([np.sin(X), np.zeros(g.shape)]), fconst)
        rho = ScalarField(g, np.ones(g.shape))
        rep = sectional_curvature(U, V, rho, m)
        assert rep.total == pytest.approx(np.pi**2 * c**2 / 2, rel=1e-10)
        assert rep.total == pytest.approx(
            rep.term_R + rep.term_div + rep.term_Q + rep.term_grad, abs=1e-12
        )

    def test_1d_gamma3_gradient_term(self):
        g = CircleGrid(64)
        m = from_catalog("3/rho")
        rho = ScalarField(g, np.ones(g.n))
        U = tv(g, np.zeros((1, g.n)), np.ones(g.n))
        V = tv(g, np.zeros((1, g.n)), np.sin(g.x))
        rep = sectional_curvature(U, V, rho, m)
        assert abs(rep.term_div) < 1e-10
        assert abs(rep.term_Q) < 1e-12
        assert rep.term_grad == pytest.approx(9 * np.pi, rel=1e-10)

    @pytest.mark.parametrize("where, value", [(np.s_[:], 0.0), (np.s_[:], -1.0), (5, np.nan)],
                             ids=["zero", "negative", "nan_entry"])
    def test_rejects_nonpositive_or_nan_density(self, where, value):
        g = CircleGrid(32)
        U, V, _ = random_section_1d(g, rng(4))
        rho = ScalarField(g, np.ones(g.n))
        rho.values[where] = value  # a ScalarField refuses NaN only when built
        with pytest.raises(DomainError):
            sectional_curvature(U, V, rho, polytropic(1.0, 2.0))

    def test_degenerate_section_vanishes(self):
        g = CircleGrid(32)
        U, _, rho = random_section_1d(g, rng(3))
        rep = sectional_curvature(U, U, rho, polytropic(1.0, 2.0))
        assert abs(rep.total) < 1e-10

    def test_disjoint_supports_vanish(self):
        g = CircleGrid(128)
        def bump(center, width):
            d = np.minimum(np.abs(g.x - center), 2 * np.pi - np.abs(g.x - center))
            out = np.where(d < width, np.exp(-1.0 / np.maximum(1e-30, width**2 - d**2)), 0.0)
            return out
        U = tv(g, bump(0.7, 0.5)[None], bump(0.7, 0.5))
        V = tv(g, bump(4.0, 0.5)[None], bump(4.0, 0.5))
        rho = ScalarField(g, np.ones(g.n))
        rep = sectional_curvature(U, V, rho, polytropic(1.0, 2.0))
        assert abs(rep.total) < 1e-10

    def test_non_finite_integrand_is_a_domain_error(self):
        # lambda and phi underflow to 0 at rho = 1e6 for gamma = 60: 0/0
        g = CircleGrid(16)
        U = tv(g, np.sin(g.x)[None], np.cos(g.x))
        rho = ScalarField(g, np.full(g.n, 1e6))
        with np.errstate(all="ignore"), pytest.raises(DomainError):
            sectional_curvature(U, U, rho, polytropic(1.0, 60.0))


def q_formula(u, v):
    """Q(u, v) through the validated field operators."""
    div_v = grids.div(v)
    return (grids.div(grids.covariant_derivative(u, v)).values
            - grids.directional(u, div_v).values
            - grids.div(u).values * div_v.values)


def curvature_formula(U, V, rho, model):
    """The four integrals through the field operators, normalized by the Gram
    determinant of the metric."""
    g, rv = rho.grid, rho.values
    phi, lam, dphi = model.phi(rv), model.lam(rv), model._dphi(rv)
    f, gg = U.f.values, V.f.values
    div_u, div_v = grids.div(U.u).values, grids.div(V.u).values
    coef = rv * dphi + phi**2 / lam
    term_div = grids.integrate(ScalarField(g, coef * (f * div_v - gg * div_u) ** 2))
    quu, qvv, quv = q_formula(U.u, U.u), q_formula(V.u, V.u), q_formula(U.u, V.u)
    term_Q = grids.integrate(ScalarField(
        g, phi * (f**2 * qvv + gg**2 * quu - 2 * f * gg * quv)))
    cross = VectorField(g, f * grids.grad(V.f).values - gg * grids.grad(U.f).values)
    term_grad = grids.integrate(ScalarField(
        g, phi**2 / rv * grids.inner(cross, cross).values))
    total = 0.0 + term_div + term_Q + term_grad

    def metric(A, B):
        dens = lam * A.f.values * B.f.values + rv * grids.inner(A.u, B.u).values
        return grids.integrate(ScalarField(g, dens))

    uu, vv, uv = metric(U, U), metric(V, V), metric(U, V)
    gram = uu * vv - uv**2
    normalized = total / gram if abs(gram) > 1e-14 * max(uu * vv, 1.0) else float("nan")
    return 0.0, term_div, term_Q, term_grad, total, normalized


def random_section(g, r):
    """Random (U, V, rho) on any grid: normal coordinates, rho in [0.5, 1.5]."""
    def field(ncomp=None):
        return r.standard_normal(g.shape if ncomp is None else (ncomp,) + g.shape)

    U = tv(g, field(g.ncomp), field())
    V = tv(g, field(g.ncomp), field())
    return U, V, ScalarField(g, 1.0 + r.uniform(-0.5, 0.5, g.shape))


class TestRawArrayCurvature:
    """sectional_curvature and q_operator on raw arrays reproduce the
    field-operator formulas bit for bit."""

    SECTIONS = {
        "circle_scan": lambda: random_section_1d(CircleGrid(64), rng(40)),
        "circle": lambda: random_section(CircleGrid(32), rng(41)),
        "torus": lambda: random_section(TorusGrid(16, 24), rng(42)),
        "disc": lambda: random_section(DiscGrid(16, 24), rng(43)),
    }

    @pytest.mark.parametrize("model", [polytropic(1.0, 2.0), polytropic(1 / 3, 3.0)],
                             ids=["gamma2", "gamma3"])
    @pytest.mark.parametrize("section", sorted(SECTIONS))
    def test_sectional_curvature_matches_formula(self, section, model):
        U, V, rho = self.SECTIONS[section]()
        rep = sectional_curvature(U, V, rho, model)
        got = (rep.term_R, rep.term_div, rep.term_Q, rep.term_grad, rep.total,
               rep.normalized)
        want = curvature_formula(U, V, rho, model)
        assert np.isfinite(want).all()
        assert got == want

    @pytest.mark.parametrize("section", sorted(SECTIONS))
    def test_q_operator_matches_formula(self, section):
        U, V, _ = self.SECTIONS[section]()
        for a, b in ((U.u, U.u), (V.u, V.u), (U.u, V.u), (V.u, U.u)):
            assert np.array_equal(q_operator(a, b).values, q_formula(a, b))


# the scan's refusal of its first bad count, in the wording of errors._check_scalar
SCAN_REFUSAL = (r"^(trials must be an integer in \[1, inf\)"
                r"|seed must be an integer in \[0, inf\)), got ")


class TestCurvatureScan:
    def test_gamma2_nonnegative(self):
        rep = curvature_sign_scan_1d(polytropic(1.0, 2.0), trials=200, seed=7)
        assert rep.min_total >= -1e-10

    def test_gamma3_div_term_vanishes(self):
        rep = curvature_sign_scan_1d(from_catalog("3/rho"), trials=50, seed=3)
        assert all(abs(t.term_div) < 1e-10 for t in rep.trials)

    def test_determinism(self):
        a = curvature_sign_scan_1d(polytropic(1.0, 2.0), trials=5, seed=42)
        b = curvature_sign_scan_1d(polytropic(1.0, 2.0), trials=5, seed=42)
        assert a.trials == b.trials

    @pytest.mark.parametrize("trials, seed", [(0, 7), (-1, 7), (5, -1)])
    def test_rejects_bad_trials_and_seed(self, trials, seed):
        with pytest.raises(DomainError, match=SCAN_REFUSAL):
            curvature_sign_scan_1d(polytropic(1.0, 2.0), trials=trials, seed=seed)

    @pytest.mark.parametrize("trials, seed", [(2.5, 7), (2, 2.5), (2.0, 7)])
    def test_rejects_non_integer_trials_and_seed(self, trials, seed, monkeypatch):
        # rejected before the generator is built
        monkeypatch.setattr(np.random, "Philox", None)
        with pytest.raises(DomainError, match=SCAN_REFUSAL):
            curvature_sign_scan_1d(polytropic(1.0, 2.0), trials, seed)


def scan_bits(rep):
    """Every number of a scan report, as bytes: equal only bit for bit."""
    rows = np.array([astuple(t) for t in rep.trials])
    tail = np.array([rep.min_total, rep.argmin, rep.coef_min])
    return rows.tobytes() + tail.tobytes()


def scan_model(gamma):
    return polytropic(1.0 / 3.0 if gamma == 3.0 else 1.0, gamma)


@lru_cache(maxsize=None)
def oracle_scan(gamma, trials, n):
    return scan_bits(curvature_scan_1d(scan_model(gamma), trials, 5, n))


class TestBlockedCurvatureScan:
    """The scan evaluates its trials in blocks through sectional_curvature's
    quadrature; every trial, min_total, argmin and coef_min equal the
    one-trial-at-a-time oracle bit for bit, whatever the block size."""

    @pytest.mark.parametrize("trials", [1, 33, 200])
    @pytest.mark.parametrize("gamma", [1.4, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("n", [8, 16, 64, 128])
    def test_matches_per_trial_oracle(self, n, gamma, trials):
        rep = curvature_sign_scan_1d(scan_model(gamma), trials, 5, n)
        assert [t.index for t in rep.trials] == list(range(trials))
        assert scan_bits(rep) == oracle_scan(gamma, trials, n)

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("n", [16, 64])
    def test_block_size_does_not_change_results(self, n, block, monkeypatch):
        monkeypatch.setattr(geometry, "SCAN_BLOCK_POINTS", block * n)
        rep = curvature_sign_scan_1d(scan_model(4.0), 33, 5, n)
        assert scan_bits(rep) == oracle_scan(4.0, 33, n)

    @pytest.mark.parametrize("block", [None, 3])
    def test_non_finite_guard_names_the_first_bad_trial(self, block, monkeypatch):
        # lambda is NaN where rho >= 1.49; with seed 2 on 16 points, trial 4
        # is the first whose density gets there (trial 1 of the second
        # block of three)
        model = LambdaModel(lambda r: np.where(r < 1.49, 1.0, np.nan),
                            lambda r: np.zeros_like(r))
        with pytest.raises(DomainError):
            curvature_scan_1d(model, 5, 2, 16)
        curvature_scan_1d(model, 4, 2, 16)
        if block is not None:
            monkeypatch.setattr(geometry, "SCAN_BLOCK_POINTS", block * 16)
        with pytest.raises(DomainError, match=r"^curvature integrand has non-finite "
                                              r"entries \(trial 4\)$"):
            curvature_sign_scan_1d(model, 10, 2, 16)

    def test_memory_stays_that_of_a_block(self):
        # one batch of all 2,000 trials would peak near 75 MB; the parent's
        # one-trial loop peaked at 0.7 MB, mostly the ScanTrial rows
        model = polytropic(1.0, 2.0)
        curvature_sign_scan_1d(model, 2, 7, 128)  # warm the per-size caches
        tracemalloc.start()
        try:
            curvature_sign_scan_1d(model, 2000, 7, 128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    @pytest.mark.parametrize("trials", [1, 32, 200])
    def test_a_block_makes_at_most_three_density_checks(self, trials, monkeypatch):
        # phi, lambda and the curvature coefficient each check their block's
        # densities once; 32 trials fill one block at n = 128
        checked = []

        def counting_check(rho, _check=pressure._check_rho):
            checked.append(np.shape(rho))
            return _check(rho)

        monkeypatch.setattr(pressure, "_check_rho", counting_check)
        curvature_sign_scan_1d(polytropic(1.0, 2.0), trials, 7, 128)
        blocks = -(-trials // 32)
        assert 0 < len(checked) <= 3 * blocks
        assert {shape[0] for shape in checked} <= {trials, 32, trials % 32}


class TestJacobiMetricCurvature:
    @staticmethod
    def orthonormal_pair(g, rho):
        u = np.sin(g.x)
        v = np.cos(g.x)
        # Gram-Schmidt in the rho-weighted metric
        def ip(a, b):
            return grids.integrate(ScalarField(g, rho.values * a * b))
        u = u / np.sqrt(ip(u, u))
        v = v - ip(u, v) * u
        v = v / np.sqrt(ip(v, v))
        return VectorField(g, u[None]), VectorField(g, v[None])

    def test_constant_density_nonnegative(self):
        g = CircleGrid(64)
        m = polytropic(1.0, 2.0)
        rho = ScalarField(g, np.ones(g.n))
        u, v = self.orthonormal_pair(g, rho)
        Phi = grids.integrate(ScalarField(g, rho.values * potential_density(m, rho.values)))
        K = jacobi_metric_curvature_1d(u, v, rho, m, E=Phi + 1.0)
        du = grids.derivative(ScalarField(g, u.values[0])).values
        dv = grids.derivative(ScalarField(g, v.values[0])).values
        dp = rho.values * linearization_coefficient(m, rho.values)
        expect = 2 * grids.integrate(ScalarField(g, rho.values * dp * (du**2 + dv**2))) / 4.0
        assert K == pytest.approx(expect, rel=1e-10)
        assert K >= 0

    def test_negative_near_energy_floor(self):
        g = CircleGrid(64)
        m = polytropic(1.0, 2.0)
        rho = ScalarField(g, 1.0 + 0.4 * np.sin(g.x))
        dp = rho.values * linearization_coefficient(m, rho.values)
        drho = grids.derivative(rho).values
        weight = dp * drho

        def ip(a, b):
            return grids.integrate(ScalarField(g, rho.values * a * b))

        def wip(a):
            return grids.integrate(ScalarField(g, weight * a))

        # two independent combinations of three modes with zero weight integral;
        # Gram-Schmidt in the rho-metric preserves that (linearity)
        b1, b2, b3 = np.sin(2 * g.x), np.cos(2 * g.x), np.sin(3 * g.x)
        w1, w2, w3 = wip(b1), wip(b2), wip(b3)
        u_raw = w2 * b1 - w1 * b2
        v_raw = w3 * b1 - w1 * b3
        u_raw = u_raw / np.sqrt(ip(u_raw, u_raw))
        v_raw = v_raw - ip(u_raw, v_raw) * u_raw
        v_raw = v_raw / np.sqrt(ip(v_raw, v_raw))
        assert abs(wip(u_raw)) < 1e-10
        assert abs(wip(v_raw)) < 1e-10
        u = VectorField(g, u_raw[None])
        v = VectorField(g, v_raw[None])
        Phi = grids.integrate(ScalarField(g, rho.values * potential_density(m, rho.values)))
        K = jacobi_metric_curvature_1d(u, v, rho, m, E=Phi + 1e-4)
        assert K < 0

    def test_plane_invariance(self):
        g = CircleGrid(64)
        m = polytropic(1.0, 2.0)
        rho = ScalarField(g, np.ones(g.n))
        u, v = self.orthonormal_pair(g, rho)
        Phi = grids.integrate(ScalarField(g, rho.values * potential_density(m, rho.values)))
        E = Phi + 0.5
        K1 = jacobi_metric_curvature_1d(u, v, rho, m, E)
        a = 0.6
        u2 = VectorField(g, np.cos(a) * u.values + np.sin(a) * v.values)
        v2 = VectorField(g, -np.sin(a) * u.values + np.cos(a) * v.values)
        K2 = jacobi_metric_curvature_1d(u2, v2, rho, m, E)
        assert K1 == pytest.approx(K2, rel=1e-8)

    def test_preconditions(self):
        g = CircleGrid(64)
        m = polytropic(1.0, 2.0)
        rho = ScalarField(g, np.ones(g.n))
        u, v = self.orthonormal_pair(g, rho)
        Phi = grids.integrate(ScalarField(g, rho.values * potential_density(m, rho.values)))
        with pytest.raises(DomainError):
            jacobi_metric_curvature_1d(u, v, rho, m, E=Phi - 1.0)
        with pytest.raises(NormalizationError):
            jacobi_metric_curvature_1d(
                VectorField(g, 2 * u.values), v, rho, m, E=Phi + 1.0
            )
