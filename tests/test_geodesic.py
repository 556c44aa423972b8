import numpy as np
import pytest

from baroflow import burgers, geodesic, jacobi
from baroflow.errors import ShockError, StepSizeError, VacuumError
from baroflow.grids import CircleGrid, DiscGrid, ScalarField, TorusGrid, VectorField
from baroflow.pressure import from_catalog, polytropic

GAMMA3 = polytropic(1 / 3, 3.0)


def circle_state(n=128, amp=1.0):
    g = CircleGrid(n)
    u0 = VectorField(g, (amp * np.sin(g.x))[None])
    rho0 = ScalarField(g, np.ones(n))
    return geodesic.barotropic_initializer(u0, rho0, GAMMA3), g


class TestInitializer:
    def test_q_equals_rho(self):
        state, g = circle_state()
        assert np.array_equal(state.q.values, state.rho.values)

    def test_f_gamma3(self):
        state, g = circle_state()
        assert np.allclose(state.f(GAMMA3).values, 1 / 3, atol=1e-14)

    def test_f_gamma2(self):
        g = CircleGrid(64)
        c = 2.0
        m = polytropic(c**2 / 2, 2.0)
        state = geodesic.barotropic_initializer(
            VectorField(g, np.zeros((1, g.n))), ScalarField(g, np.ones(g.n)), m)
        assert np.allclose(state.f(m).values, c**2, rtol=1e-13)


class TestEnergy:
    def test_constant_state_value(self):
        g = CircleGrid(64)
        state = geodesic.barotropic_initializer(
            VectorField(g, np.ones((1, g.n))), ScalarField(g, np.ones(g.n)), GAMMA3)
        assert geodesic.energy(state, GAMMA3) == pytest.approx(4 * np.pi / 3, rel=1e-13)

    def test_zero_state(self):
        g = CircleGrid(64)
        state = geodesic.FluidState(
            VectorField(g, np.zeros((1, g.n))),
            ScalarField(g, np.ones(g.n)),
            ScalarField(g, np.zeros(g.n)))
        # only the kinetic and q parts vanish; rho contributes nothing with u=0
        assert geodesic.energy(state, GAMMA3) == pytest.approx(0.0, abs=1e-15)

    def test_conservation_along_trajectory(self):
        state, g = circle_state(n=128)
        traj = geodesic.integrate_geodesic(state, GAMMA3, t_end=0.8, dt=0.002)
        assert traj.energy_drift() < 1e-8


class TestStepGeodesic:
    def test_constant_state_fixed_point(self):
        g = CircleGrid(64)
        state = geodesic.barotropic_initializer(
            VectorField(g, np.ones((1, g.n))), ScalarField(g, np.ones(g.n)), GAMMA3)
        fm = geodesic.identity_flowmap(state.rho)
        for _ in range(20):
            state, fm = geodesic.step_geodesic(state, fm, GAMMA3, 0.02)
        assert np.allclose(state.u.values, 1.0, atol=1e-13)
        assert np.allclose(state.rho.values, 1.0, atol=1e-13)
        assert np.allclose(fm.eta, g.x + 0.4, atol=1e-12)

    def test_matches_exact_solution(self):
        n = 256
        g = CircleGrid(n)
        u0 = ScalarField(g, np.sin(g.x))
        rho0 = ScalarField(g, np.ones(n))
        state = geodesic.barotropic_initializer(VectorField(g, u0.values[None]), rho0, GAMMA3)
        traj = geodesic.integrate_geodesic(state, GAMMA3, t_end=0.5, dt=0.002)
        exact = burgers.exact_state(u0, rho0, 0.5)
        err_u = np.max(np.abs(traj.states[-1].u.values - exact.u.values))
        err_r = np.max(np.abs(traj.states[-1].rho.values - exact.rho.values))
        assert max(err_u, err_r) < 1e-6

    def test_cfl_violation_raises(self):
        state, g = circle_state(n=64)
        with pytest.raises(StepSizeError):
            geodesic.step_geodesic(state, None, GAMMA3, dt=1.0)

    @pytest.mark.parametrize("step", ["step_geodesic", "linearized_step"])
    def test_stage_density_below_floor_raises(self, step):
        # compression at x = pi takes the RK4 midpoint density from 1.02e-6
        # to 0.95 of that, below RHO_MIN; the step must not go on clamped
        g = CircleGrid(32)
        rho0 = ScalarField(g, 1.0 + (1.0 - 1.02e-6) * np.cos(g.x))
        state = geodesic.barotropic_initializer(
            VectorField(g, (-50.0 * np.sin(g.x))[None]), rho0, GAMMA3)
        fm = geodesic.identity_flowmap(rho0)
        dt = 0.99 * geodesic.cfl_dt_max(state, GAMMA3)
        with pytest.raises(ShockError, match="working range"):
            if step == "step_geodesic":
                geodesic.step_geodesic(state, fm, GAMMA3, dt)
            else:
                jstate = jacobi.initial_jacobi(VectorField(g, np.cos(g.x)[None]))
                jacobi.linearized_step(jstate, state, fm, GAMMA3, dt)

    def test_shock_detection(self):
        state, g = circle_state(n=128)
        with pytest.raises(ShockError):
            geodesic.integrate_geodesic(state, GAMMA3, t_end=1.3, dt=0.002)

    def test_dt_convergence_factor(self):
        n = 128
        g = CircleGrid(n)
        u0 = ScalarField(g, np.sin(g.x))
        rho0 = ScalarField(g, np.ones(n))
        errs = []
        exact = burgers.exact_state(u0, rho0, 0.4)
        for dt in (0.01, 0.005):
            state = geodesic.barotropic_initializer(VectorField(g, u0.values[None]), rho0, GAMMA3)
            traj = geodesic.integrate_geodesic(state, GAMMA3, t_end=0.4, dt=dt)
            errs.append(np.max(np.abs(traj.states[-1].u.values[0] - exact.u.values[0])))
        assert errs[0] / errs[1] > 8.0


class TestFlowMapAndTransport:
    def test_density_compatibility(self):
        state, g = circle_state(n=128, amp=0.8)
        traj = geodesic.integrate_geodesic(state, GAMMA3, t_end=0.8, dt=0.002,
                                           store_every=40)
        assert len(traj.times) >= 10
        for st, fm in zip(traj.states, traj.flowmaps):
            assert fm.compatibility_residual(st.rho) < 1e-6

    def test_q_rho_transport(self):
        state, g = circle_state(n=128)
        traj = geodesic.integrate_geodesic(state, GAMMA3, t_end=0.7, dt=0.002)
        for st in traj.states:
            assert np.max(np.abs(st.q.values - st.rho.values)) < 1e-8

    def test_entropy_advection(self):
        n = 128
        g = CircleGrid(n)
        u0 = VectorField(g, (0.3 * np.sin(g.x))[None])
        rho0 = ScalarField(g, np.ones(n))
        s0 = ScalarField(g, 0.2 * np.cos(g.x))
        state = geodesic.entropy_initializer(u0, rho0, s0, zeta=np.exp)
        traj = geodesic.integrate_geodesic(state, GAMMA3, t_end=0.5, dt=0.002,
                                           store_every=50)
        # s = log(q/rho) should be advected: s(t, eta(t,x)) = s0(x)
        from baroflow.grids import circle_interp
        for st, fm in zip(traj.states[1:], traj.flowmaps[1:]):
            s = np.log(st.q.values / st.rho.values)
            s_at_eta = circle_interp(s, fm.eta)
            assert np.max(np.abs(s_at_eta - s0.values)) < 5e-5


class TestSteadyShearTorus:
    def test_constant_profile_residual_zero(self):
        g = TorusGrid(32, 32)
        m = polytropic(0.5, 2.0)
        st = geodesic.steady_shear_torus(np.full(32, 0.7), g, m)
        mom, cont = geodesic.steady_euler_residual(st, m)
        assert mom < 1e-14 and cont < 1e-14

    def test_sine_profile_residuals(self):
        g = TorusGrid(32, 32)
        m = polytropic(0.5, 2.0)
        st = geodesic.steady_shear_torus(np.sin(g.x), g, m)
        mom, cont = geodesic.steady_euler_residual(st, m)
        assert mom < 1e-10 and cont < 1e-10

    def test_persistence_under_integration(self):
        g = TorusGrid(32, 32)
        m = polytropic(0.5, 2.0)
        st = geodesic.steady_shear_torus(np.sin(g.x), g, m)
        traj = geodesic.integrate_geodesic(st, m, t_end=1.0, dt=0.01)
        drift = np.max(np.abs(traj.states[-1].u.values - st.u.values))
        assert drift < 1e-7


class TestRigidRotationDisc:
    def test_zero_omega_constant_density(self):
        g = DiscGrid(32, 32)
        st = geodesic.rigid_rotation_disc(0.0, 1.0, 2.0, g)
        assert np.allclose(st.rho.values, 2.0, atol=1e-14)

    def test_profile_values(self):
        g = DiscGrid(32, 32)
        st = geodesic.rigid_rotation_disc(1.0, 1.0, 1.0, g)
        expect = 0.5 + g.r**2 / 2
        assert np.allclose(st.rho.values, expect[:, None], atol=1e-14)
        assert st.rho.values[-1, 0] == pytest.approx(1.0)

    def test_density_slope(self):
        from baroflow.grids import _radial_deriv
        g = DiscGrid(64, 16)
        om, c = 0.8, 1.3
        st = geodesic.rigid_rotation_disc(om, c, 2.0, g)
        slope = _radial_deriv(st.rho.values, g.dr)
        assert np.allclose(slope, (om**2 * g.r / c**2)[:, None], atol=1e-10)

    def test_steady_residual(self):
        g = DiscGrid(64, 16)
        om, c = 0.8, 1.3
        m = geodesic.rigid_rotation_model(c)
        st = geodesic.rigid_rotation_disc(om, c, 2.0, g)
        mom, cont = geodesic.steady_euler_residual(st, m)
        assert mom < 1e-10 and cont < 1e-10

    def test_vacuum_error(self):
        g = DiscGrid(32, 32)
        with pytest.raises(VacuumError):
            geodesic.rigid_rotation_disc(2.0, 1.0, 1.0, g)
