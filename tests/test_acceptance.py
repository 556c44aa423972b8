"""Acceptance gate: end-to-end checks of every analytic target the library is
built around, each with a pinned tolerance and a desk-scale runtime budget.
"""

import numpy as np
import pytest

from baroflow import burgers, disc, geodesic, geometry, jacobi, torus
from baroflow.disc import DiscBackground
from baroflow.grids import (
    CircleGrid,
    ScalarField,
    TorusGrid,
    VectorField,
    div,
    grad,
    integrate,
)
from baroflow.pressure import polytropic
from oracles import (
    DiscGrid,
    ModeSystem,
    deviation_oracle,
    disc_theta,
    displacement_amplitude,
    j_along_flow,
    q_operator,
    radial_poisson_gradient_mode,
    random_band_limited_vector,
    sturm_liouville_modes,
    synthesize_and_classify,
    torus_curvature_coefficient,
    z_sup_norm,
)

GAMMA3 = polytropic(1.0 / 3.0, 3.0)


def constant_background(n):
    g = CircleGrid(n)
    state = geodesic.barotropic_initializer(
        VectorField(g, np.ones((1, n))), ScalarField(g, np.ones(n)), GAMMA3)
    return state, g


class TestConjugateTimes:
    """Zeros of the Jacobi field along the unit-speed constant flow occur at
    t = 2 pi m / n for the cos(n x) perturbation."""

    @pytest.mark.parametrize("n_mode", [1, 2, 4, 8])
    def test_detected_zeros(self, n_mode):
        state, g = constant_background(128)
        v0 = VectorField(g, np.cos(n_mode * g.x)[None])
        expect = burgers.conjugate_times(n_mode, 2)
        zeros = jacobi.detect_conjugate_times(state, v0, GAMMA3,
                                              t_max=expect[-1] + 0.3, dt=0.005)
        assert len(zeros) >= 2
        for z, e in zip(zeros[:2], expect):
            assert abs(z - e) < 1e-6


class TestGrowthBound:
    """sup_x |j(t,x)| <= t sup_x |v0(x)| pre-shock, for the closed form and
    the linearized integrator alike."""

    def test_seeded_suite(self):
        n = 64
        g = CircleGrid(n)
        rho0 = ScalarField(g, np.ones(n))
        for seed in range(50):
            rng = np.random.Generator(np.random.Philox(key=404, counter=seed))
            u0vals = np.zeros(n)
            v0vals = np.zeros(n)
            for k in range(1, 5):
                a, b, c, d = rng.standard_normal(4)
                u0vals += 0.3 * (a * np.cos(k * g.x) + b * np.sin(k * g.x)) / k
                v0vals += c * np.cos(k * g.x) + d * np.sin(k * g.x)
            u0 = ScalarField(g, u0vals)
            inv = burgers.riemann_invariants(u0, rho0)
            tshock = min(burgers.shock_time(inv.alpha_plus),
                         burgers.shock_time(inv.alpha_minus))
            t_end = 0.9 * min(tshock, 5.0)
            sup_v0 = np.max(np.abs(v0vals))

            # closed form
            for t in np.linspace(0.2 * t_end, t_end, 4):
                j = burgers.exact_jacobi(u0, rho0, ScalarField(g, v0vals), float(t))
                ratio = np.max(np.abs(j.values)) / (t * sup_v0)
                assert ratio <= 1 + 1e-6, f"seed {seed}, closed form at t={t}"

            # numerical integrator
            state = geodesic.barotropic_initializer(
                VectorField(g, u0vals[None]), rho0, GAMMA3)
            dt = min(0.9 * geodesic.cfl_dt_max(state, GAMMA3), 0.02)
            traj = jacobi.integrate_linearized(
                state, jacobi.initial_jacobi(VectorField(g, v0vals[None])),
                GAMMA3, t_end, dt, store_every=10)
            rep = jacobi.growth_report(traj.times, traj.jstates,
                                       VectorField(g, v0vals[None]))
            assert rep.max_ratio <= 1 + 1e-6, f"seed {seed}, integrator"


class TestCurvatureSignScan:
    """Total 1D curvature is nonnegative for gamma <= 3 and admits negative
    sections for gamma > 3."""

    @pytest.mark.parametrize("gamma", [1.4, 2.0, 3.0])
    def test_nonnegative(self, gamma):
        A = 1.0 / 3.0 if gamma == 3.0 else 1.0
        rep = geometry.curvature_sign_scan_1d(polytropic(A, gamma), 200, seed=9)
        assert rep.min_total >= -1e-10

    def test_negative_exhibit_gamma4(self):
        rep = geometry.curvature_sign_scan_1d(polytropic(1.0, 4.0), 200, seed=9)
        assert rep.min_total < 0


class TestExactVsNumericGeodesic:
    """Characteristics solution vs the spectral integrator at gamma = 3."""

    def test_linf_gap_and_order(self):
        n = 256
        g = CircleGrid(n)
        u0 = ScalarField(g, np.sin(g.x))
        rho0 = ScalarField(g, np.ones(n))
        state0 = geodesic.barotropic_initializer(
            VectorField(g, u0.values[None]), rho0, GAMMA3)
        t_end = 0.5
        exact = burgers.exact_state(u0, rho0, t_end)
        gaps = []
        for dt in (0.004, 0.002):
            traj = geodesic.integrate_geodesic(state0, GAMMA3, t_end, dt,
                                               store_every=10**9)
            last = traj.states[-1]
            gaps.append(max(float(np.max(np.abs(last.u.values - exact.u.values))),
                            float(np.max(np.abs(last.rho.values - exact.rho.values)))))
        assert gaps[0] < 1e-6
        assert gaps[0] / gaps[1] >= 8.0


class TestDeviationOracle:
    """Centered finite difference of perturbed flows converges to the
    linearized displacement at second order in the perturbation size."""

    def test_slope(self):
        n = 128
        g = CircleGrid(n)
        u0 = VectorField(g, (0.3 * np.sin(g.x))[None])
        rho0 = ScalarField(g, np.ones(n))
        state = geodesic.barotropic_initializer(u0, rho0, GAMMA3)
        v0 = VectorField(g, np.cos(2 * g.x)[None])
        t_end, dt = 0.5, 0.0025
        traj = jacobi.integrate_linearized(state, jacobi.initial_jacobi(v0),
                                           GAMMA3, t_end, dt)
        j_eta = j_along_flow(traj.jstates[-1], traj.flowmaps[-1])
        ss = [1e-2, 1e-3, 1e-4]
        errs = []
        for s in ss:
            _, devs = deviation_oracle(u0, rho0, v0, GAMMA3,
                                       s=s, t_end=t_end, dt=dt)
            errs.append(np.sqrt(np.mean((devs[-1] - j_eta) ** 2)))
        slope = np.polyfit(np.log(ss), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.2)


class TestTorusClassification:
    """Displacements along the sheared torus flow are bounded exactly for
    gradient data; divergence-free data grows linearly at rate ||z||."""

    def test_gradient_bounded_by_series(self):
        c = 1.5
        g = TorusGrid(32, 32)
        X, Y = g.mesh
        v0 = grad(ScalarField(g, np.sin(2 * X) + np.cos(3 * Y) + 0.4 * np.sin(X + Y)))
        sol = torus.synthesize(v0, omega=0.6, c=c)
        bound = sol.series_bound()
        sup = max(
            float(np.max(np.sqrt(np.sum(sol.j_at(t).values**2, axis=0))))
            for t in np.linspace(0.0, 100.0 / c, 400))
        assert sup <= bound + 1e-10
        assert torus.classify_boundedness(sol).bounded

    def test_divfree_linear_slope(self):
        g = TorusGrid(32, 32)
        X, Y = g.mesh
        w = np.stack([-np.sin(Y), np.zeros(g.shape)])
        v0 = VectorField(g, w + 0.2 * grad(ScalarField(g, np.cos(X))).values)
        sol = torus.synthesize(v0, omega=0.3, c=1.0)
        ts = np.linspace(10.0, 100.0, 200)
        sups = [float(np.max(np.sqrt(np.sum(sol.j_at(t).values**2, axis=0))))
                for t in ts]
        slope = np.polyfit(ts, sups, 1)[0]
        assert slope == pytest.approx(z_sup_norm(sol), rel=0.01)
        assert not torus.classify_boundedness(sol).bounded


class TestTorusCurvatureCoefficient:
    """At rho = 1 the shear-section curvature is A(3-gamma)/2 times the L^2
    norm of div v."""

    @pytest.mark.parametrize("gamma", [1.4, 2.0, 2.5])
    def test_matches_quadrature(self, gamma):
        A = 0.7
        model = polytropic(A, gamma)
        coeff = torus_curvature_coefficient(model)
        assert coeff == pytest.approx(A * (3 - gamma) / 2, rel=1e-8)
        g = TorusGrid(32, 32)
        rng = np.random.Generator(np.random.Philox(key=77))
        u = VectorField(g, np.stack([np.zeros(g.shape),
                                     np.broadcast_to(np.sin(g.x)[:, None], g.shape)]))
        v = random_band_limited_vector(g, rng)
        rho = ScalarField(g, np.ones(g.shape))
        f_const = ScalarField(g, np.full(g.shape, 1.0 / model.lam(1.0)))
        rep = geometry.sectional_curvature(geometry.TangentVector(u, f_const),
                                           geometry.TangentVector(v, f_const),
                                           rho, model)
        expect = coeff * integrate(ScalarField(g, div(v).values ** 2))
        assert rep.total == pytest.approx(expect, rel=1e-8)


class TestDiscSpectrum:
    """Every mode frequency cubic of the rotating disc has three distinct
    real roots, with the Rayleigh and downstream bounds holding strictly."""

    N_MAX, K_MAX, NODES = 16, 12, 400
    BG = DiscBackground(1.0, 1.0, 1.0)

    def test_cubics_and_vieta(self):
        for n_abs in range(self.N_MAX + 1):
            lams = disc.sturm_liouville_eigs(self.BG, n_abs, self.K_MAX,
                                             self.NODES).tolist()
            for lam in lams:
                for n in {n_abs, -n_abs}:
                    p, q = disc.characteristic_cubic_pq(lam, n, 1.0, 1.0)
                    assert p > 0 and q**2 < p**3
                    roots = disc.characteristic_roots(lam, n, 1.0, 1.0)
                    assert np.min(np.diff(np.sort(roots))) > 1e-6
                    scale = max(1.0, float(np.max(np.abs(roots))) ** 2)
                    assert abs(np.sum(roots)) < 1e-9 * scale
                    pairsum = (roots[0] * roots[1] + roots[0] * roots[2]
                               + roots[1] * roots[2])
                    assert abs(pairsum + 3 * p) < 1e-9 * scale

    def test_rayleigh_and_downstream_bounds(self):
        lam1 = [disc.sturm_liouville_eigs(self.BG, n, self.K_MAX, self.NODES)[0]
                for n in range(self.N_MAX + 1)]
        rep = disc.rayleigh_bound_check(self.BG, lam1)
        assert rep.all_hold
        for row in rep.rows:
            assert row.rayleigh_margin > 0
            assert row.downstream_margin > 0
            assert row.arithmetic_ok


class TestBesselRoots:
    def test_first_roots(self):
        assert disc.bessel_first_root(0) == pytest.approx(2.404826, abs=1e-6)
        assert disc.bessel_first_root(1) == pytest.approx(3.831706, abs=1e-6)


class TestDiscJacobiCriterion:
    """Displacements on the rotating disc stay bounded iff the azimuthal
    average of curl(rho v0) vanishes at every radius."""

    BG = DiscBackground(1.0, 1.0, 1.0)

    def test_pure_gradient_bounded(self):
        grid = DiscGrid(200, 16)
        pair = sturm_liouville_modes(self.BG, 2, 1, n_nodes=grid.n_r)[-1]
        f, a, b = radial_poisson_gradient_mode(self.BG, pair)
        rho = self.BG.rho(grid.r)
        phase = np.exp(1j * 2 * disc_theta(grid))[None, :]
        v0 = VectorField(grid, np.stack([
            np.real(a[:, None] * phase) / rho[:, None],
            np.real(b[:, None] * phase) / rho[:, None]]))
        cls = synthesize_and_classify(v0, self.BG, k_max=8, n_max=4)
        assert cls.bounded
        for m in cls.modes:
            assert not m.has_zero_frequency
            assert np.all(np.abs(m.frequencies) > 1e-8)
            sys = ModeSystem(m.lam, m.n, self.BG.omega, self.BG.c)
            amps = [displacement_amplitude(sys, m.coeffs, t)
                    for t in np.linspace(1.0, 100.0, 60)]
            cap = sum(2 * abs(w) / abs(val) for val, w in zip(
                sys._eig[0], sys._eig[2] @ np.array(
                    [m.coeffs.sigma, m.coeffs.F, m.coeffs.G], dtype=complex)))
            assert max(amps) <= cap + 1e-12

    def test_rotational_grows_linearly(self):
        grid = DiscGrid(200, 16)
        rho = self.BG.rho(grid.r)[:, None]
        v0 = VectorField(grid, np.stack([np.zeros(grid.shape),
                                         2.0 / rho * np.ones(grid.shape)]))
        cls = synthesize_and_classify(v0, self.BG, k_max=8, n_max=2)
        assert not cls.bounded
        assert cls.criterion_value > 0
        zero_modes = [m for m in cls.modes if m.has_zero_frequency]
        assert zero_modes and all(m.n == 0 for m in zero_modes)
        m = zero_modes[0]
        sys = ModeSystem(m.lam, m.n, self.BG.omega, self.BG.c)
        a1 = displacement_amplitude(sys, m.coeffs, 100.0)
        a2 = displacement_amplitude(sys, m.coeffs, 200.0)
        assert a2 == pytest.approx(2 * a1, rel=0.05)


class TestDiscCurvatureAdjudication:
    """For the section spanned by rigid rotations at rates 1 and k with
    density rho = r^2 / 2c^2, the full curvature quadrature must equal its
    reduced form (c^2/2) int rho^2 Q(z, z) dmu with z = (k-1) d/dtheta, whose
    closed-form value is -pi (k-1)^2 / (12 c^2)."""

    @pytest.mark.parametrize("k", [2.0, 3.0])
    def test_full_equals_reduced_and_closed_form(self, k):
        c = 1.3
        model = polytropic(c**2 / 2, 2.0)
        grid = DiscGrid(400, 8)
        rho_vals = np.broadcast_to((grid.r**2 / (2 * c**2))[:, None], grid.shape)
        rho = ScalarField(grid, np.array(rho_vals))
        f = ScalarField(grid, c**2 * rho.values)
        ones = np.ones(grid.shape)
        u = VectorField(grid, np.stack([np.zeros(grid.shape), ones]))
        v = VectorField(grid, np.stack([np.zeros(grid.shape), k * ones]))
        rep = geometry.sectional_curvature(geometry.TangentVector(u, f),
                                           geometry.TangentVector(v, f),
                                           rho, model)
        z = VectorField(grid, v.values - u.values)
        qzz = q_operator(z, z)
        reduced = integrate(ScalarField(grid, (c**2 / 2) * rho.values**2
                                        * qzz.values))
        assert rep.total == pytest.approx(reduced, rel=1e-8)
        assert np.max(np.abs(qzz.values + 2 * (k - 1) ** 2)) < 1e-8
        closed_form = -np.pi * (k - 1) ** 2 / (12 * c**2)
        assert reduced == pytest.approx(closed_form, rel=1e-3)
        assert rep.term_div == pytest.approx(0.0, abs=1e-12)
        assert rep.term_grad == pytest.approx(0.0, abs=1e-12)
