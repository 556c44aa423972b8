import tracemalloc

import numpy as np
import pytest

from baroflow import burgers, geodesic, grids, jacobi, pressure
from baroflow.errors import DomainError, StepSizeError
from baroflow.grids import CircleGrid, ScalarField, TorusGrid, VectorField
from baroflow.pressure import polytropic
from oracles import (
    conjugate_G,
    conjugate_j,
    deviation_oracle,
    interp,
    j_along_flow,
    linearization_coefficient,
    random_band_limited_1d,
    steady_shear_torus,
    stored_conjugate_times,
    tuple_rk4,
)

GAMMA3 = polytropic(1 / 3, 3.0)


def constant_background(n=128):
    g = CircleGrid(n)
    return geodesic.barotropic_initializer(
        VectorField(g, np.ones((1, n))), ScalarField(g, np.ones(n)), GAMMA3), g


def sine_background(n=128, amp=0.5):
    g = CircleGrid(n)
    return geodesic.barotropic_initializer(
        VectorField(g, (amp * np.sin(g.x))[None]), ScalarField(g, np.ones(n)), GAMMA3), g


def stage_case(case):
    """(state, flow map, model, v0) for the circle with a flow map
    ("circle64"), the circle without one ("circle64_nomap": the 3- and 7-row
    layouts), a seeded band-limited state on the circle with a flow map
    ("band0") or the torus shear."""
    if case.startswith("band"):
        g = CircleGrid(64)
        r = np.random.default_rng(int(case[len("band"):]))
        u, rho, v0 = (random_band_limited_1d(g, r).values for _ in range(3))
        state = geodesic.barotropic_initializer(
            VectorField(g, 0.05 * u[None]), ScalarField(g, 1.0 + 0.03 * rho), GAMMA3)
        return state, geodesic.identity_flowmap(state.rho), GAMMA3, VectorField(g, v0[None])
    if case.startswith("circle"):
        n, nomap, _ = case[len("circle"):].partition("_nomap")
        state, g = sine_background(int(n))
        fm = None if nomap else geodesic.identity_flowmap(state.rho)
        return state, fm, GAMMA3, VectorField(g, np.cos(2 * g.x)[None])
    g = TorusGrid(16, 16)
    model = polytropic(0.5, 2.0)
    X, Y = g.mesh
    return (steady_shear_torus(0.3 * np.sin(g.x), g, model), None, model,
            VectorField(g, np.stack([np.cos(X + Y), np.sin(2 * Y)])))


def separate_rhs(u, rho, q, eta, jac, g, model):
    """The stage as separate single-operand operators: the geodesic and the
    Jacobi right-hand sides, each with its own transforms and phase matrix."""
    phi = model.phi(rho)
    lam = model.lam(rho)
    du = -(g.covariant_derivative(u, u) + g.grad(q**2 * phi / lam**2) / rho)
    dq = -g.div(q * u)
    drho = -g.div(rho * u)
    out = (du, drho, dq) + (() if eta is None else (interp(u[0], eta),))
    if not jac:
        return out
    v, sigma, j, _ = jac
    hp = linearization_coefficient(model, rho)
    dsig = -(g.div(sigma * u) + g.div(rho * v))
    dv = -(g.covariant_derivative(u, v) + g.covariant_derivative(v, u) + g.grad(hp * sigma))
    dj = v - (g.covariant_derivative(u, j) - g.covariant_derivative(j, u))
    if eta is None:
        return out + (dv, dsig, dj, np.zeros(g.shape))
    gval = 2 * phi * sigma / lam**2 + g.directional(j, rho / lam)
    return out + (dv, dsig, dj, interp(gval, eta))


class TestLinearizedStep:
    def test_zero_perturbation_stays_zero(self):
        state, g = sine_background(64)
        v0 = VectorField(g, np.zeros((1, g.n)))
        traj = jacobi.integrate_linearized(state, jacobi.initial_jacobi(v0),
                                           GAMMA3, t_end=0.5, dt=0.01)
        last = traj.jstates[-1]
        for arr in (last.v.values, last.sigma.values, last.j.values, last.G.values):
            assert np.max(np.abs(arr)) == 0.0

    @pytest.mark.parametrize("n_mode", [1, 2, 3])
    def test_constant_background_closed_forms(self, n_mode):
        state, g = constant_background(128)
        v0 = VectorField(g, np.cos(n_mode * g.x)[None])
        t_end = 2.0
        traj = jacobi.integrate_linearized(state, jacobi.initial_jacobi(v0),
                                           GAMMA3, t_end, dt=0.005)
        last = traj.jstates[-1]
        j_expect = conjugate_j(n_mode, t_end, g.x)
        G_expect = conjugate_G(n_mode, t_end, g.x)
        assert np.max(np.abs(last.j.values[0] - j_expect)) < 1e-6
        assert np.max(np.abs(last.G.values - G_expect)) < 1e-6

    def test_general_background_matches_exact_jacobi(self):
        state, g = sine_background(128, amp=0.5)
        v0_vals = np.cos(2 * g.x) + 0.5 * np.sin(3 * g.x)
        v0 = VectorField(g, v0_vals[None])
        t_end = 1.0  # shock time is 2 for this background
        traj = jacobi.integrate_linearized(state, jacobi.initial_jacobi(v0),
                                           GAMMA3, t_end, dt=0.005)
        exact = burgers.exact_jacobi(ScalarField(g, 0.5 * np.sin(g.x)),
                                     ScalarField(g, np.ones(g.n)),
                                     ScalarField(g, v0_vals), t_end)
        assert np.max(np.abs(traj.jstates[-1].j.values - exact.values)) < 1e-5

    def test_constraint_preservation(self):
        state, g = sine_background(128, amp=0.5)
        v0 = VectorField(g, (np.cos(2 * g.x))[None])
        traj = jacobi.integrate_linearized(state, jacobi.initial_jacobi(v0),
                                           GAMMA3, t_end=1.0, dt=0.005,
                                           store_every=20)
        for js, st in zip(traj.jstates, traj.states):
            assert jacobi.constraint_residual(js, st) < 1e-6

    def test_linearity(self):
        state, g = sine_background(64, amp=0.3)
        v0 = VectorField(g, (np.cos(2 * g.x))[None])
        v0x2 = VectorField(g, 2 * v0.values)
        t1 = jacobi.integrate_linearized(state, jacobi.initial_jacobi(v0),
                                         GAMMA3, 0.8, 0.01, store_every=10)
        t2 = jacobi.integrate_linearized(state, jacobi.initial_jacobi(v0x2),
                                         GAMMA3, 0.8, 0.01, store_every=10)
        for a, b in zip(t1.jstates, t2.jstates):
            for fa, fb in ((a.v, b.v), (a.sigma, b.sigma), (a.j, b.j), (a.G, b.G)):
                scale = np.max(np.abs(fb.values)) + 1e-300
                assert np.max(np.abs(2 * fa.values - fb.values)) / scale < 1e-10

    @pytest.mark.parametrize("case", ["circle_sine", "torus_shear"])
    def test_background_advances_as_step_geodesic(self, case):
        if case == "circle_sine":
            state, g = sine_background(64)
            fm = geodesic.identity_flowmap(state.rho)
            model = GAMMA3
            v0 = VectorField(g, np.cos(2 * g.x)[None])
        else:
            g = TorusGrid(16, 16)
            model = polytropic(0.5, 2.0)
            state = steady_shear_torus(0.3 * np.sin(g.x), g, model)
            fm = None
            X, Y = g.mesh
            v0 = VectorField(g, np.stack([np.cos(X + Y), np.sin(2 * Y)]))
        js, st_lin, fm_lin = jacobi.initial_jacobi(v0), state, fm
        st_geo, fm_geo = state, fm
        for _ in range(5):
            js, st_lin, fm_lin = jacobi.linearized_step(js, st_lin, fm_lin, model, 0.01)
            st_geo, fm_geo = geodesic.step_geodesic(st_geo, fm_geo, model, 0.01)
        for a, b in ((st_lin.u, st_geo.u), (st_lin.rho, st_geo.rho), (st_lin.q, st_geo.q)):
            assert np.array_equal(a.values, b.values)
        if fm is None:
            assert fm_lin is None and fm_geo is None
        else:
            assert np.array_equal(fm_lin.eta, fm_geo.eta)

    @pytest.mark.parametrize("case", ["circle_flowmap", "torus_shear"])
    def test_stages_build_no_fields(self, case, monkeypatch):
        if case == "circle_flowmap":
            state, g = sine_background(64)
            fm = geodesic.identity_flowmap(state.rho)
            model = GAMMA3
            v0 = VectorField(g, np.cos(2 * g.x)[None])
        else:
            g = TorusGrid(16, 16)
            model = polytropic(0.5, 2.0)
            state = steady_shear_torus(0.3 * np.sin(g.x), g, model)
            fm = None
            X, Y = g.mesh
            v0 = VectorField(g, np.stack([np.cos(X + Y), np.sin(2 * Y)]))
        js = jacobi.initial_jacobi(v0)
        built = []
        for cls in (ScalarField, VectorField):
            def counting_init(self, *args, _init=cls.__init__, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counting_init)
        jacobi.linearized_step(js, state, fm, model, 0.01)
        # only the fields of the returned states: (v, sigma, j, G) and (u, rho, q)
        assert len(built) <= 7, built

    @pytest.mark.parametrize("case", ["circle64", "circle128", "circle64_nomap",
                                      "circle128_nomap", "circle96", "circle130",
                                      "band0", "band1", "band2", "torus_shear"])
    def test_fused_stage_matches_separate_formulas(self, case):
        state, fm, model, v0 = stage_case(case)
        g = state.grid
        js = jacobi.initial_jacobi(v0)
        y_lin = (state.u.values, state.rho.values, state.q.values)
        y_lin += (() if fm is None else (fm.eta,))
        y_geo, nb = y_lin, len(y_lin)
        y_lin += (js.v.values, js.sigma.values, js.j.values, js.G.values)

        def rhs(*y):
            return separate_rhs(*y[:3], y[3] if nb == 4 else None, y[nb:], g, model)

        st_lin, fm_lin, st_geo, fm_geo = state, fm, state, fm
        for _ in range(5):
            y_lin, y_geo = tuple_rk4(rhs, y_lin, 0.01), tuple_rk4(rhs, y_geo, 0.01)
            js, st_lin, fm_lin = jacobi.linearized_step(js, st_lin, fm_lin, model, 0.01)
            st_geo, fm_geo = geodesic.step_geodesic(st_geo, fm_geo, model, 0.01)
        got_lin = (st_lin.u, st_lin.rho, st_lin.q) + (() if fm is None else (fm_lin,))
        got_lin += (js.v, js.sigma, js.j, js.G)
        got_geo = (st_geo.u, st_geo.rho, st_geo.q) + (() if fm is None else (fm_geo,))
        for got, want in ((got_lin, y_lin), (got_geo, y_geo)):
            assert len(got) == len(want)
            for k, (a, b) in enumerate(zip(got, want)):
                a = a.eta if isinstance(a, geodesic.FlowMap) else a.values
                assert np.array_equal(a, b), k

    @pytest.mark.parametrize("linearized", [False, True])
    @pytest.mark.parametrize("case", ["circle64", "circle64_nomap", "torus_shear"])
    def test_stage_writes_every_workspace_entry(self, case, linearized, monkeypatch):
        # every array that geodesic and grids take from np.empty/np.empty_like
        # comes back NaN-filled: the stage and the step must not change a bit,
        # and each such array must be fully written by the time they return
        state, fm, model, v0 = stage_case(case)
        g = state.grid
        y = geodesic._pack(state, fm, jacobi.initial_jacobi(v0) if linearized else None)
        want_stage = geodesic._rhs(y, g, model)
        want_step = geodesic._step(y, g, model, 0.01)
        handed_out = []

        class PoisonedNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def empty(self, shape, dtype=float):
                handed_out.append(np.full(shape, np.nan, dtype=dtype))
                return handed_out[-1]

            def empty_like(self, a, **kwargs):
                handed_out.append(np.full_like(a, np.nan, **kwargs))
                return handed_out[-1]

        for module in (geodesic, grids):
            monkeypatch.setattr(module, "np", PoisonedNumpy())
        with np.errstate(all="raise"):
            got_stage = geodesic._rhs(y, g, model)
            got_step = geodesic._step(y, g, model, 0.01)
        assert handed_out
        assert all(np.isfinite(a).all() for a in handed_out)
        for got, want in ((got_stage, want_stage), (got_step, want_step)):
            assert np.isfinite(got).all()
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("step", ["linearized_step", "step_geodesic"])
    def test_stage_makes_one_transform_and_one_phase_build(self, step, monkeypatch):
        state, fm, model, v0 = stage_case("circle64")
        transforms, phase_builds = [], []

        def counting_deriv(values, axis, n, out=None, _deriv=grids._spectral_deriv):
            transforms.append(values.shape)
            return _deriv(values, axis, n, out=out)

        def counting_phases(xq, m, _phases=grids._phases):
            phase_builds.append(len(xq))
            return _phases(xq, m)

        monkeypatch.setattr(grids, "_spectral_deriv", counting_deriv)
        monkeypatch.setattr(grids, "_phases", counting_phases)
        if step == "linearized_step":
            jacobi.linearized_step(jacobi.initial_jacobi(v0), state, fm, model, 0.01)
            n_ops = 10  # u, v, j, rho u, q u, sigma u, rho v, q^2 phi/lambda^2, h' sigma, rho/lambda
        else:
            geodesic.step_geodesic(state, fm, model, 0.01)
            n_ops = 4  # u, rho u, q u, q^2 phi/lambda^2
        # one stacked transform per RK stage, then the flow-map Jacobian's own
        assert transforms == [(n_ops, 64)] * 4 + [(64,)]
        assert phase_builds == [64] * 4

    @pytest.mark.parametrize("step", ["linearized_step", "step_geodesic"])
    def test_stage_makes_one_density_check(self, step, monkeypatch):
        state, fm, model, v0 = stage_case("circle64")
        checked = []

        def counting_check(rho, _check=pressure._check_rho):
            checked.append(np.shape(rho))
            return _check(rho)

        monkeypatch.setattr(pressure, "_check_rho", counting_check)
        if step == "linearized_step":
            jacobi.linearized_step(jacobi.initial_jacobi(v0), state, fm, model, 0.01)
        else:
            geodesic.step_geodesic(state, fm, model, 0.01)
        # the entry check, the three later RK stages (the first is the state
        # itself) and the state the step lands
        assert checked == [(64,)] * 5

    def test_cfl_violation_raises_step_size_error(self):
        state, g = sine_background(64)
        v0 = VectorField(g, np.cos(2 * g.x)[None])
        with pytest.raises(StepSizeError):
            jacobi.integrate_linearized(state, jacobi.initial_jacobi(v0),
                                        GAMMA3, t_end=2.0, dt=1.0)


class TestSharedRunLoop:
    @staticmethod
    def background(case):
        if case == "circle_sine":
            state, g = sine_background(64)
            return state, GAMMA3, VectorField(g, np.cos(2 * g.x)[None])
        g = TorusGrid(16, 16)
        model = polytropic(0.5, 2.0)
        state = steady_shear_torus(0.3 * np.sin(g.x), g, model)
        X, Y = g.mesh
        return state, model, VectorField(g, np.stack([np.cos(X + Y), np.sin(2 * Y)]))

    @pytest.mark.parametrize("case", ["circle_sine", "torus_shear"])
    def test_linearized_run_stores_the_geodesic_run(self, case):
        state, model, v0 = self.background(case)
        geo = geodesic.integrate_geodesic(state, model, t_end=0.73, dt=0.011, store_every=7)
        lin = jacobi.integrate_linearized(state, jacobi.initial_jacobi(v0), model,
                                          t_end=0.73, dt=0.011, store_every=7)
        assert len(geo.times) == 11 and geo.times[-1] == pytest.approx(0.73, abs=1e-14)
        assert lin.times == geo.times
        for a, b in zip(lin.states, geo.states):
            for fa, fb in ((a.u, b.u), (a.rho, b.rho), (a.q, b.q)):
                assert np.array_equal(fa.values, fb.values)
        for a, b in zip(lin.flowmaps, geo.flowmaps):
            if case == "circle_sine":
                assert np.array_equal(a.eta, b.eta)
            else:
                assert a is None and b is None
        assert geo.jstates == [None] * len(geo.times)

    def test_linearized_energies_come_from_the_states(self):
        state, model, v0 = self.background("circle_sine")
        traj = jacobi.integrate_linearized(state, jacobi.initial_jacobi(v0), model,
                                           t_end=0.2, dt=0.01, store_every=5)
        assert traj.energies == [geodesic.energy(s, model) for s in traj.states]


class TestDeviationOracle:
    def test_zero_perturbation(self):
        state, g = sine_background(64, amp=0.3)
        v0 = VectorField(g, np.zeros((1, g.n)))
        times, devs = deviation_oracle(
            VectorField(g, state.u.values), state.rho, v0, GAMMA3,
            s=1e-3, t_end=0.5, dt=0.01)
        assert np.max(np.abs(devs[-1])) == 0.0

    def test_agreement_with_linearized(self):
        state, g = sine_background(128, amp=0.3)
        v0 = VectorField(g, (np.cos(2 * g.x))[None])
        t_end, dt = 0.5, 0.005
        times, devs = deviation_oracle(
            VectorField(g, state.u.values), state.rho, v0, GAMMA3,
            s=1e-3, t_end=t_end, dt=dt)
        traj = jacobi.integrate_linearized(state, jacobi.initial_jacobi(v0),
                                           GAMMA3, t_end, dt)
        j_eta = j_along_flow(traj.jstates[-1], traj.flowmaps[-1])
        err = np.sqrt(np.mean((devs[-1] - j_eta) ** 2))
        assert err < 1e-4

    def test_s_squared_convergence(self):
        state, g = sine_background(128, amp=0.3)
        v0 = VectorField(g, (np.cos(2 * g.x))[None])
        t_end, dt = 0.5, 0.0025
        traj = jacobi.integrate_linearized(state, jacobi.initial_jacobi(v0),
                                           GAMMA3, t_end, dt)
        j_eta = j_along_flow(traj.jstates[-1], traj.flowmaps[-1])
        ss = [1e-2, 1e-3, 1e-4]
        errs = []
        for s in ss:
            _, devs = deviation_oracle(
                VectorField(g, state.u.values), state.rho, v0, GAMMA3,
                s=s, t_end=t_end, dt=dt)
            errs.append(np.sqrt(np.mean((devs[-1] - j_eta) ** 2)))
        slope = np.polyfit(np.log(ss), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.2)


class TestGrowthReport:
    def test_constant_background_mode(self):
        state, g = constant_background(64)
        n_mode = 2
        v0 = VectorField(g, np.cos(n_mode * g.x)[None])
        traj = jacobi.integrate_linearized(state, jacobi.initial_jacobi(v0),
                                           GAMMA3, 3.0, 0.02, store_every=5)
        rep = jacobi.growth_report(traj.times, traj.jstates, v0)
        assert rep.max_ratio <= 1 + 1e-6
        # ||j(t)||_inf = |sin(nt)|/n <= 1/n, far below t except near t=0
        last = traj.jstates[-1]
        t_last = traj.times[-1]
        assert np.max(np.abs(last.j.values)) / t_last < 0.2

    def test_growth_bound_seeded_suite(self):
        n = 64
        g = CircleGrid(n)
        for seed in range(50):
            rng = np.random.Generator(np.random.Philox(key=200, counter=seed))
            u0vals = np.zeros(n)
            v0vals = np.zeros(n)
            for k in range(1, 5):
                a, b, c, d = rng.standard_normal(4)
                u0vals += 0.3 * (a * np.cos(k * g.x) + b * np.sin(k * g.x)) / k
                v0vals += c * np.cos(k * g.x) + d * np.sin(k * g.x)
            u0 = ScalarField(g, u0vals)
            rho0 = ScalarField(g, np.ones(n))
            inv = burgers.riemann_invariants(u0, rho0)
            tshock = min(burgers.shock_time(inv.alpha_plus),
                         burgers.shock_time(inv.alpha_minus))
            state = geodesic.barotropic_initializer(VectorField(g, u0vals[None]), rho0, GAMMA3)
            t_end = 0.8 * min(tshock, 5.0)
            dt = min(0.9 * geodesic.cfl_dt_max(state, GAMMA3), 0.02)
            traj = jacobi.integrate_linearized(
                state, jacobi.initial_jacobi(VectorField(g, v0vals[None])),
                GAMMA3, t_end, dt, store_every=10)
            rep = jacobi.growth_report(traj.times, traj.jstates,
                                       VectorField(g, v0vals[None]))
            assert rep.max_ratio <= 1 + 1e-6, f"seed {seed}"

    def test_zero_v0(self):
        state, g = constant_background(64)
        v0 = VectorField(g, np.zeros((1, g.n)))
        traj = jacobi.integrate_linearized(state, jacobi.initial_jacobi(v0),
                                           GAMMA3, 0.5, 0.02)
        rep = jacobi.growth_report(traj.times, traj.jstates, v0)
        assert rep.max_ratio == 0.0 and rep.growth_rate == 0.0

    def test_empty_series_rejected(self):
        state, g = constant_background(64)
        v0 = VectorField(g, np.zeros((1, g.n)))
        with pytest.raises(DomainError):
            jacobi.growth_report([], [], v0)


class TestConjugateDetection:
    def test_first_zeros_mode2(self):
        state, g = constant_background(64)
        v0 = VectorField(g, np.cos(2 * g.x)[None])
        zeros = jacobi.detect_conjugate_times(state, v0, GAMMA3,
                                              t_max=6.5, dt=0.01)
        expect = burgers.conjugate_times(2, 2)  # pi, 2 pi
        assert len(zeros) >= 2
        for z, e in zip(zeros[:2], expect):
            assert abs(z - e) < 1e-6

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("n_mode", [1, 2, 3])
    def test_streamed_detector_matches_stored_trajectory_bitwise(self, n_mode, n):
        state, g = constant_background(n)
        v0 = VectorField(g, np.cos(n_mode * g.x)[None])
        t_max, dt = 2 * np.pi / n_mode + 0.5, 0.02
        got = jacobi.detect_conjugate_times(state, v0, GAMMA3, t_max, dt)
        want = stored_conjugate_times(state, v0, GAMMA3, t_max, dt)
        assert len(got) == 1
        assert [z.hex() for z in got] == [z.hex() for z in want]

    def test_readme_run_keeps_no_trajectory(self):
        # conjugate --n 2 --m-max 3: n = 128, dt = 0.01, to 3 pi + 0.5; with
        # every step stored, this run peaked at 10.5 MB
        state, g = constant_background(128)
        v0 = VectorField(g, np.cos(2 * g.x)[None])
        tracemalloc.start()
        try:
            zeros = jacobi.detect_conjugate_times(state, v0, GAMMA3,
                                                  t_max=3 * np.pi + 0.5, dt=0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(zeros) == 3
        assert peak < 2e6
