import numpy as np
import pytest

from baroflow import burgers, geodesic, grids, jacobi, pressure
from baroflow.disc import DiscBackground
from baroflow.errors import BaroflowError, DomainError, ShockError, StepSizeError, VacuumError
from baroflow.grids import CircleGrid, ScalarField, TorusGrid, VectorField
from baroflow.pressure import polytropic
from oracles import (
    compatibility_residual,
    disc_state,
    DiscGrid,
    integrate_geodesic,
    interp,
    state_f,
    steady_euler_residual,
    steady_shear_torus,
)

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
        assert np.allclose(state_f(state, GAMMA3).values, 1 / 3, atol=1e-14)

    def test_f_gamma2(self):
        g = CircleGrid(64)
        c = 2.0
        m = polytropic(c**2 / 2, 2.0)
        state = geodesic.barotropic_initializer(
            VectorField(g, np.zeros((1, g.n))), ScalarField(g, np.ones(g.n)), m)
        assert np.allclose(state_f(state, m).values, c**2, rtol=1e-13)


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
        traj = integrate_geodesic(state, GAMMA3, t_end=0.8, dt=0.002)
        assert geodesic.energy_drift([geodesic.energy(s, GAMMA3) for s in traj.states]) < 1e-8

    def test_drift_is_relative_to_the_first_energy(self):
        assert geodesic.energy_drift([2.0, 2.5, 1.0]) == 0.5
        assert geodesic.energy_drift([0.0, -1e-3, 2e-4]) == 1e-3  # absolute from E0 = 0


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
        traj = integrate_geodesic(state, GAMMA3, t_end=0.5, dt=0.002)
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

    @pytest.mark.parametrize("rho_after", [5e-7, 2e6])
    def test_density_leaving_the_working_range_in_a_step_is_a_shock(self, rho_after,
                                                                    monkeypatch):
        # the step lands the density outside [RHO_MIN, RHO_MAX] but positive:
        # that ends the run as a shock, not as bad input at the next step
        state, g = circle_state(n=32)

        def leaving_rk4(rhs, y, dt):
            out = y.copy()
            out[1] = rho_after
            return out

        monkeypatch.setattr(geodesic, "rk4", leaving_rk4)
        with pytest.raises(ShockError, match="working range"):
            geodesic.step_geodesic(state, None, GAMMA3, 0.01)
        with pytest.raises(ShockError, match="working range"):
            integrate_geodesic(state, GAMMA3, t_end=0.05, dt=0.01)

    def test_input_density_outside_the_working_range_is_bad_input(self):
        state, g = circle_state(n=32)
        low = geodesic.FluidState(state.u, ScalarField(g, np.full(g.n, 5e-7)), state.q)
        with pytest.raises(DomainError, match="working range") as exc:
            geodesic.step_geodesic(low, None, GAMMA3, 0.01)
        assert not isinstance(exc.value, ShockError)

    @pytest.mark.parametrize("step", ["step_geodesic", "linearized_step"])
    def test_nan_stage_ends_the_step_as_a_shock(self, step, monkeypatch):
        # the first stage's derivatives come back NaN, so the second stage's
        # density is NaN: the stage's density check must stop it there
        state, g = circle_state(n=32)
        fm = geodesic.identity_flowmap(state.rho)
        calls = []

        def nan_partials(self, ops, _partials=grids.PeriodicGrid.partials):
            calls.append(len(ops))
            d = _partials(self, ops)
            return np.full_like(d, np.nan) if len(calls) == 1 else d

        monkeypatch.setattr(grids.PeriodicGrid, "partials", nan_partials)
        with pytest.raises(ShockError, match="working range"):
            if step == "step_geodesic":
                geodesic.step_geodesic(state, fm, GAMMA3, 0.01)
            else:
                jstate = jacobi.initial_jacobi(VectorField(g, np.cos(g.x)[None]))
                jacobi.linearized_step(jstate, state, fm, GAMMA3, 0.01)
        assert len(calls) == 1

    def test_programming_error_is_not_reported_as_a_shock(self, monkeypatch):
        state, g = circle_state(n=64)

        def broken_rhs(*args):
            raise ValueError("broken right-hand side")

        monkeypatch.setattr(geodesic, "_rhs", broken_rhs)
        with pytest.raises(ValueError, match="broken right-hand side") as exc:
            geodesic.step_geodesic(state, None, GAMMA3, dt=0.01)
        assert not isinstance(exc.value, ShockError)

    def test_shock_detection(self):
        state, g = circle_state(n=128)
        with pytest.raises(ShockError):
            integrate_geodesic(state, GAMMA3, t_end=1.3, dt=0.002)

    def test_dt_convergence_factor(self):
        n = 128
        g = CircleGrid(n)
        u0 = ScalarField(g, np.sin(g.x))
        rho0 = ScalarField(g, np.ones(n))
        errs = []
        exact = burgers.exact_state(u0, rho0, 0.4)
        for dt in (0.01, 0.005):
            state = geodesic.barotropic_initializer(VectorField(g, u0.values[None]), rho0, GAMMA3)
            traj = integrate_geodesic(state, GAMMA3, t_end=0.4, dt=dt)
            errs.append(np.max(np.abs(traj.states[-1].u.values[0] - exact.u.values[0])))
        assert errs[0] / errs[1] > 8.0


class TestFlowMapAndTransport:
    def test_density_compatibility(self):
        state, g = circle_state(n=128, amp=0.8)
        traj = integrate_geodesic(state, GAMMA3, t_end=0.8, dt=0.002,
                                           store_every=40)
        assert len(traj.times) >= 10
        for st, fm in zip(traj.states, traj.flowmaps):
            assert compatibility_residual(fm, st.rho) < 1e-6

    def test_q_rho_transport(self):
        state, g = circle_state(n=128)
        traj = integrate_geodesic(state, GAMMA3, t_end=0.7, dt=0.002)
        for st in traj.states:
            assert np.max(np.abs(st.q.values - st.rho.values)) < 1e-8

    def test_entropy_advection(self):
        n = 128
        g = CircleGrid(n)
        u0 = VectorField(g, (0.3 * np.sin(g.x))[None])
        rho0 = ScalarField(g, np.ones(n))
        s0 = ScalarField(g, 0.2 * np.cos(g.x))
        state = geodesic.FluidState(u0, rho0, ScalarField(g, rho0.values * np.exp(s0.values)))
        traj = integrate_geodesic(state, GAMMA3, t_end=0.5, dt=0.002,
                                           store_every=50)
        # s = log(q/rho) should be advected: s(t, eta(t,x)) = s0(x)
        for st, fm in zip(traj.states[1:], traj.flowmaps[1:]):
            s = np.log(st.q.values / st.rho.values)
            s_at_eta = interp(s, fm.eta)
            assert np.max(np.abs(s_at_eta - s0.values)) < 5e-5


def run_case(case):
    """(state, model, v0) of a run-loop case: the sine circle (a flow map is
    carried) or the torus shear."""
    if case == "circle":
        state, g = circle_state(n=32, amp=0.5)
        return state, GAMMA3, VectorField(g, np.cos(2 * g.x)[None])
    g = TorusGrid(16, 16)
    model = polytropic(0.5, 2.0)
    X, Y = g.mesh
    return (steady_shear_torus(0.3 * np.sin(g.x), g, model), model,
            VectorField(g, np.stack([np.cos(X + Y), np.sin(2 * Y)])))


def stepped_run(state, model, t_end, dt, store_every, jstate=None):
    """The run loop's schedule by the one-step API: fixed steps, the last one
    shortened to land on t_end, the start, every store_every-th step and the
    last stored."""
    fm = geodesic.identity_flowmap(state.rho) if isinstance(state.grid, CircleGrid) else None
    times, samples = [0.0], [(state, fm, jstate)]
    n_steps = int(np.ceil(t_end / dt - 1e-12))
    t = 0.0
    for k in range(n_steps):
        h = min(dt, t_end - t)
        if jstate is None:
            state, fm = geodesic.step_geodesic(state, fm, model, h)
        else:
            jstate, state, fm = jacobi.linearized_step(jstate, state, fm, model, h)
        t += h
        if (k + 1) % store_every == 0 or k == n_steps - 1:
            times.append(t)
            samples.append((state, fm, jstate))
    return times, samples


def sample_arrays(state, fm, js):
    out = [state.u.values, state.rho.values, state.q.values]
    out += [] if fm is None else [fm.eta]
    return out + ([] if js is None else [js.v.values, js.sigma.values, js.j.values, js.G.values])


def run(linearized, state, model, t_end, dt, store_every=1, v0=None):
    if linearized:
        return jacobi.integrate_linearized(state, jacobi.initial_jacobi(v0), model,
                                           t_end, dt, store_every)
    return integrate_geodesic(state, model, t_end, dt, store_every)


@pytest.mark.parametrize("grid", [CircleGrid(8), TorusGrid(8, 10)])
@pytest.mark.parametrize("flow", [False, True])
@pytest.mark.parametrize("jac", [False, True])
def test_parts_reads_the_layout_from_the_row_count(grid, flow, jac):
    rows = iter(np.random.default_rng(0).uniform(1.0, 2.0, (4 * grid.ncomp + 5,) + grid.shape))

    def vector():
        return VectorField(grid, np.array([next(rows) for _ in range(grid.ncomp)]))

    state = geodesic.FluidState(vector(), ScalarField(grid, next(rows)),
                                ScalarField(grid, next(rows)))
    fm = geodesic.FlowMap(next(rows), state.rho) if flow else None
    js = jacobi.JacobiState(vector(), ScalarField(grid, next(rows)), vector(),
                            ScalarField(grid, next(rows))) if jac else None
    u, rho, q, eta, jrows = geodesic._parts(geodesic._pack(state, fm, js), grid.ncomp)
    want = [state.u, state.rho, state.q] + ([fm.eta] if flow else [])
    want += [js.v, js.sigma, js.j, js.G] if jac else []
    got = [u, rho, q] + ([eta] if flow else []) + list(jrows)
    assert (eta is None) is not flow and len(jrows) == 4 * jac
    assert all(np.array_equal(a, getattr(b, "values", b)) for a, b in zip(got, want, strict=True))


class TestRunLoop:
    """The run loop carries one stacked array; it must give bit for bit what
    a loop of the public one-step calls gives."""

    @pytest.mark.parametrize("linearized", [False, True])
    @pytest.mark.parametrize("store_every", [1, 5, 7])
    @pytest.mark.parametrize("case", ["circle", "torus"])
    def test_matches_one_step_loop_bitwise(self, case, store_every, linearized):
        state, model, v0 = run_case(case)
        t_end, dt = 0.2037, 0.01  # 21 steps, the last one 0.0037
        traj = run(linearized, state, model, t_end, dt, store_every, v0)
        times, samples = stepped_run(state, model, t_end, dt, store_every,
                                     jacobi.initial_jacobi(v0) if linearized else None)
        assert traj.times == times
        assert times[-1] == pytest.approx(t_end, abs=1e-15)
        # stride 7: steps 7, 14 and 21, the shortened last step being a stride
        # step; stride 5: steps 5 to 20 and the last, stored apart
        assert len(traj.states) == len(samples) == {1: 22, 5: 6, 7: 4}[store_every]
        for k, (st, fm, js) in enumerate(samples):
            got = sample_arrays(traj.states[k], traj.flowmaps[k], traj.jstates[k])
            want = sample_arrays(st, fm, js)
            assert len(got) == len(want) == 3 + (case == "circle") + 4 * linearized
            for a, b in zip(got, want):
                assert np.array_equal(a, b), k

    @pytest.mark.parametrize("linearized", [False, True])
    def test_unstored_steps_build_no_fields(self, linearized, monkeypatch):
        state, model, v0 = run_case("circle")
        js0 = jacobi.initial_jacobi(v0)
        built = []
        for cls in (ScalarField, VectorField):
            def counting_init(self, *args, _init=cls.__init__, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counting_init)
        if linearized:
            traj = jacobi.integrate_linearized(state, js0, model, 0.09, 0.01, store_every=100)
        else:
            traj = integrate_geodesic(state, model, 0.09, 0.01, store_every=100)
        # nine steps, and only the last one stored: (u, rho, q) [+ (v, sigma, j, G)]
        assert len(traj.times) == 2
        assert len(built) == (7 if linearized else 3), built


def guard_outcome(fn, monkeypatch):
    """(steps begun, error type, message, guard) of a call that must fail,
    and the error."""
    steps = []

    def counting_rk4(*args, _rk4=geodesic.rk4):
        steps.append(1)
        return _rk4(*args)

    with monkeypatch.context() as m:
        m.setattr(geodesic, "rk4", counting_rk4)
        with pytest.raises(BaroflowError) as exc:
            fn()
    return (len(steps), type(exc.value), str(exc.value), exc.value.guard), exc.value


class TestRunLoopGuards:
    """Each guard fires at the same step, with the same error, through the
    run loop as through the one-step API, and names itself; the run loop's
    error carries the failed step and the time it started from."""

    def both(self, monkeypatch, state, model, t_end, dt, linearized, v0, setup=lambda m: None):
        out, errors = [], []
        # the run loop stores no sample before the failure, so the guard and
        # not a stored sample's field validation must stop it
        for fn in (lambda: run(linearized, state, model, t_end, dt, 1000, v0),
                   lambda: stepped_run(state, model, t_end, dt, 1,
                                       jacobi.initial_jacobi(v0) if linearized else None)):
            with monkeypatch.context() as m:
                setup(m)
                outcome, exc = guard_outcome(fn, monkeypatch)
                out.append(outcome)
                errors.append(exc)
        assert out[0] == out[1]
        assert out[0][0] > 1  # not on the first step
        run_err, one_step_err = errors
        assert run_err.t == pytest.approx(dt * (run_err.step - 1), rel=1e-12)
        # each one-step call is a one-step loop of its own
        assert (one_step_err.step, one_step_err.t) == (1, 0.0)
        return out[0][:3] + (run_err.guard, run_err.step)

    @pytest.mark.parametrize("linearized", [False, True])
    def test_cfl(self, linearized, monkeypatch):
        # a gas released from rest speeds up, so the CFL bound shrinks
        g = CircleGrid(32)
        model = polytropic(0.5, 2.0)
        state = geodesic.barotropic_initializer(
            VectorField(g, np.zeros((1, 32))), ScalarField(g, 1 + 0.5 * np.cos(g.x)), model)
        dt = 0.98 * geodesic.cfl_dt_max(state, model)
        v0 = VectorField(g, np.cos(g.x)[None])
        steps, err, msg, guard, step = self.both(monkeypatch, state, model, 1.0, dt,
                                                 linearized, v0)
        assert err is StepSizeError and "CFL bound" in msg
        # the bound is checked before the failed step's RK4 begins
        assert guard == "cfl" and step == steps + 1

    @pytest.mark.parametrize("linearized", [False, True])
    def test_nan_stage(self, linearized, monkeypatch):
        state, model, v0 = run_case("circle")

        def setup(m):
            calls = []

            def nan_partials(self, ops, _partials=grids.PeriodicGrid.partials):
                calls.append(1)
                d = _partials(self, ops)
                # the first stage of the fifth step
                return np.full_like(d, np.nan) if len(calls) == 17 else d

            m.setattr(grids.PeriodicGrid, "partials", nan_partials)

        steps, err, msg, guard, step = self.both(monkeypatch, state, model, 0.2, 0.01,
                                                 linearized, v0, setup)
        assert steps == 5
        assert err is ShockError and "working range" in msg
        assert guard == "stage_density" and step == 5

    @pytest.mark.parametrize("linearized", [False, True])
    def test_jacobian_floor(self, linearized, monkeypatch):
        state, g = circle_state(n=32, amp=1.0)
        v0 = VectorField(g, np.cos(g.x)[None])

        def setup(m):
            # a high floor, reached while the flow is well resolved
            m.setattr(geodesic, "SHOCK_JACOBIAN_FLOOR", 0.5)

        steps, err, msg, guard, step = self.both(monkeypatch, state, GAMMA3, 1.0, 0.01,
                                                 linearized, v0, setup)
        assert err is ShockError and msg == "flow map lost monotonicity (shock reached)"
        assert guard == "jacobian_floor" and step == steps

    @pytest.mark.parametrize("case", ["circle", "torus"])
    def test_non_finite_jacobi_rows(self, case, monkeypatch):
        state, model, v0 = run_case(case)
        nc = state.grid.ncomp  # the operands of v and j are rows nc to 3 nc

        def setup(m):
            calls = []

            def nan_jacobi_partials(self, ops, _partials=grids.PeriodicGrid.partials):
                calls.append(1)
                d = _partials(self, ops)
                # the fourth step, in a stage with Jacobi rows (the background
                # alone has 3 nc + 1 operands)
                if len(calls) == 13 and len(ops) > 3 * nc + 1:
                    d[nc:3 * nc] = np.nan
                return d

            m.setattr(grids.PeriodicGrid, "partials", nan_jacobi_partials)

        steps, err, msg, guard, step = self.both(monkeypatch, state, model, 0.2, 0.01,
                                                 True, v0, setup)
        assert steps == 4
        assert err is DomainError and msg == "vector field has non-finite entries"
        assert guard == "jacobi_finite" and step == 4

    @pytest.mark.parametrize("rho_after", [5e-7, 2e6])
    def test_state(self, rho_after, monkeypatch):
        state, model, v0 = run_case("circle")

        def setup(m):
            calls = []

            def leaving_rk4(rhs, y, dt, _rk4=geodesic.rk4):
                calls.append(1)
                out = _rk4(rhs, y, dt)
                if len(calls) == 3:  # the third step lands outside the working range
                    out[1] = rho_after
                return out

            m.setattr(geodesic, "rk4", leaving_rk4)

        steps, err, msg, guard, step = self.both(monkeypatch, state, model, 0.2, 0.01,
                                                 False, v0, setup)
        assert steps == 3
        assert err is ShockError and "working range" in msg
        assert guard == "state" and step == 3

    @pytest.mark.parametrize("linearized", [False, True])
    @pytest.mark.parametrize("row, value, why", [
        (0, np.nan, "vector field has non-finite entries"),
        (2, np.inf, "scalar field has non-finite entries"),
        (1, np.nan, "scalar field has non-finite entries"),
        (1, 0.0, "density must be positive"),
        (1, -1.0, "density must be positive"),
    ])
    def test_state_rows(self, row, value, why, linearized, monkeypatch):
        # the third step lands one entry of u (part 0 of _parts), rho (1) or
        # q (2) bad
        state, model, v0 = run_case("circle")

        def setup(m):
            calls = []

            def landing_rk4(rhs, y, dt, _rk4=geodesic.rk4):
                calls.append(1)
                out = _rk4(rhs, y, dt)
                if len(calls) == 3:
                    geodesic._parts(out, 1)[row].reshape(-1)[5] = value
                return out

            m.setattr(geodesic, "rk4", landing_rk4)

        steps, err, msg, guard, step = self.both(monkeypatch, state, model, 0.2, 0.01,
                                                 linearized, v0, setup)
        assert steps == 3
        assert err is ShockError and msg == f"solution left the smooth regime: {why}"
        assert guard == "state" and step == 3


class TestDensityChecks:
    """The working range is tested in pressure._check_rho alone, once per
    density: the step loop checks the initial density on entry, and each
    step the densities of its three later RK stages (the first stage is the
    state it starts from) and of the state it lands."""

    @staticmethod
    def count_checks(monkeypatch):
        checked = []

        def counting_check(rho, _check=pressure._check_rho):
            checked.append(np.shape(rho))
            return _check(rho)

        monkeypatch.setattr(pressure, "_check_rho", counting_check)
        return checked

    @pytest.mark.parametrize("linearized", [False, True])
    @pytest.mark.parametrize("case", ["circle", "torus"])
    @pytest.mark.parametrize("k", [1, 2, 9])
    def test_a_k_step_run_makes_one_plus_four_k_checks(self, k, case, linearized,
                                                        monkeypatch):
        state, model, v0 = run_case(case)
        checked = self.count_checks(monkeypatch)
        traj = run(linearized, state, model, 0.01 * k, 0.01, 1000, v0)
        assert len(traj.times) == 2
        assert checked == [state.grid.shape] * (1 + 4 * k)

    @pytest.mark.parametrize("linearized", [False, True])
    @pytest.mark.parametrize("rho", [5e-7, 2e6])
    def test_out_of_range_initial_density_is_bad_input(self, rho, linearized):
        state, model, v0 = run_case("circle")
        g = state.grid
        # q = rho, so that the linearized calls see a barotropic background
        bad_rho = ScalarField(g, np.full(g.shape, rho))
        bad = geodesic.FluidState(state.u, bad_rho, bad_rho)
        fm = geodesic.identity_flowmap(bad.rho)

        def one_step():
            if linearized:
                jacobi.linearized_step(jacobi.initial_jacobi(v0), bad, fm, model, 0.25)
            else:
                geodesic.step_geodesic(bad, fm, model, 0.25)

        # dt = 0.25 is past the CFL bound: the entry check comes first
        for fn in (lambda: run(linearized, bad, model, 0.5, 0.25, 1, v0), one_step):
            with pytest.raises(DomainError, match="working range") as exc:
                fn()
            assert not isinstance(exc.value, ShockError)
            assert (exc.value.guard, exc.value.step, exc.value.t) == (None, 1, 0.0)


BAD_DT = [0.0, -0.01, np.nan, np.inf]

# each rule's refusal, in the wording of errors._check_scalar
REFUSALS = {
    "dt must be finite and positive": r"^dt must be a finite real number in \(0, inf\), got ",
    "t_end must be finite and nonnegative":
        r"^t_end must be a finite real number in \[0, inf\), got ",
    "t_end / dt finite": r"must keep t_end / dt finite$",
    "store_every must be a positive integer":
        r"^store_every must be an integer in \[1, inf\), got ",
}


class TestRunInputs:
    """The integrators and the one-step calls reject a bad run length, step
    or storage stride."""

    @pytest.mark.parametrize("linearized", [False, True])
    @pytest.mark.parametrize("t_end, dt, store_every, rule", [
        *((0.1, dt, 1, "dt must be finite and positive") for dt in BAD_DT),
        (1.0, 5e-324, 1, "t_end / dt finite"),
        (np.nan, 0.01, 1, "t_end must be finite and nonnegative"),
        (np.inf, 0.01, 1, "t_end must be finite and nonnegative"),
        (-0.1, 0.01, 1, "t_end must be finite and nonnegative"),
        (0.1, 0.01, 0, "store_every must be a positive integer"),
        (0.1, 0.01, -3, "store_every must be a positive integer"),
        (0.1, 0.01, 2.5, "store_every must be a positive integer"),
    ])
    def test_rejects_bad_input(self, linearized, t_end, dt, store_every, rule):
        state, model, v0 = run_case("circle")
        with pytest.raises(DomainError, match=REFUSALS[rule]):
            run(linearized, state, model, t_end, dt, store_every, v0)

    @pytest.mark.parametrize("linearized", [False, True])
    @pytest.mark.parametrize("dt", BAD_DT)
    def test_one_step_rejects_bad_dt(self, linearized, dt):
        state, model, v0 = run_case("circle")
        fm = geodesic.identity_flowmap(state.rho)
        with pytest.raises(DomainError, match=REFUSALS["dt must be finite and positive"]):
            if linearized:
                jacobi.linearized_step(jacobi.initial_jacobi(v0), state, fm, model, dt)
            else:
                geodesic.step_geodesic(state, fm, model, dt)

    def test_zero_length_run_is_the_start(self):
        state, model, v0 = run_case("circle")
        traj = integrate_geodesic(state, model, 0.0, 0.01)
        assert traj.times == [0.0] and traj.states == [state]


class TestSteadyShearTorus:
    def test_constant_profile_residual_zero(self):
        g = TorusGrid(32, 32)
        m = polytropic(0.5, 2.0)
        st = steady_shear_torus(np.full(32, 0.7), g, m)
        mom, cont = steady_euler_residual(st, m)
        assert mom < 1e-14 and cont < 1e-14

    def test_sine_profile_residuals(self):
        g = TorusGrid(32, 32)
        m = polytropic(0.5, 2.0)
        st = steady_shear_torus(np.sin(g.x), g, m)
        mom, cont = steady_euler_residual(st, m)
        assert mom < 1e-10 and cont < 1e-10

    def test_persistence_under_integration(self):
        g = TorusGrid(32, 32)
        m = polytropic(0.5, 2.0)
        st = steady_shear_torus(np.sin(g.x), g, m)
        traj = integrate_geodesic(st, m, t_end=1.0, dt=0.01)
        drift = np.max(np.abs(traj.states[-1].u.values - st.u.values))
        assert drift < 1e-7


class TestRigidRotationDisc:
    def test_zero_omega_constant_density(self):
        g = DiscGrid(32, 32)
        st = disc_state(DiscBackground(0.0, 1.0, 2.0), g)
        assert np.allclose(st.rho.values, 2.0, atol=1e-14)

    def test_profile_values(self):
        g = DiscGrid(32, 32)
        st = disc_state(DiscBackground(1.0, 1.0, 1.0), g)
        expect = 0.5 + g.r**2 / 2
        assert np.allclose(st.rho.values, expect[:, None], atol=1e-14)
        assert st.rho.values[-1, 0] == pytest.approx(1.0)

    def test_density_slope(self):
        g = DiscGrid(64, 16)
        om, c = 0.8, 1.3
        st = disc_state(DiscBackground(om, c, 2.0), g)
        slope = np.gradient(st.rho.values, g.dr, axis=0, edge_order=2)
        assert np.allclose(slope, (om**2 * g.r / c**2)[:, None], atol=1e-10)

    def test_steady_residual(self):
        g = DiscGrid(64, 16)
        om, c = 0.8, 1.3
        m = polytropic(c**2 / 2, 2.0)
        st = disc_state(DiscBackground(om, c, 2.0), g)
        mom, cont = steady_euler_residual(st, m)
        assert mom < 1e-10 and cont < 1e-10

    def test_vacuum_error(self):
        g = DiscGrid(32, 32)
        with pytest.raises(VacuumError):
            disc_state(DiscBackground(2.0, 1.0, 1.0), g)

    @pytest.mark.parametrize("run", ["geodesic", "linearized", "one_step"])
    def test_stepping_is_refused_at_step_one(self, run):
        # the CFL bound asks the grid for its spacing, which the disc refuses:
        # a bad-input DomainError at step 1, t = 0, that names no guard
        g = DiscGrid(16, 16)
        m = polytropic(0.5, 2.0)
        st = disc_state(DiscBackground(0.5, 1.0, 2.0), g)
        v0 = VectorField(g, np.ones((2,) + g.shape))
        calls = {"geodesic": lambda: integrate_geodesic(st, m, t_end=0.1, dt=0.01),
                 "linearized": lambda: jacobi.integrate_linearized(
                     st, jacobi.initial_jacobi(v0), m, t_end=0.1, dt=0.01),
                 "one_step": lambda: geodesic.step_geodesic(st, None, m, 0.01)}
        with pytest.raises(DomainError, match="supported on periodic grids") as info:
            calls[run]()
        assert type(info.value) is DomainError
        assert (info.value.step, info.value.t, info.value.guard) == (1, 0.0, None)
