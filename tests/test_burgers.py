import tracemalloc

import numpy as np
import pytest
import scipy.optimize

from baroflow import burgers, grids, pressure
from baroflow.geodesic import FluidState
from baroflow.errors import DomainError, GridMismatchError, ShockError
from baroflow.grids import CircleGrid, ScalarField, VectorField
from oracles import conjugate_G, conjugate_j, forward, interp, interp_deriv, pde_residual

G = CircleGrid(128)


def const(val):
    return ScalarField(G, np.full(G.n, float(val)))


def ensemble_invariants(key, count, n=64):
    """Riemann invariants of `count` seeded band-limited data at n, with
    rho0 = 1, built as the benchmark's ensemble builds u0."""
    g = CircleGrid(n)
    out = []
    for counter in range(count):
        rng = np.random.Generator(np.random.Philox(key=key, counter=counter))
        u0 = np.zeros(n)
        for k in range(1, 5):
            a, b, _, _ = rng.standard_normal(4)
            u0 += 0.3 * (a * np.cos(k * g.x) + b * np.sin(k * g.x)) / k
        inv = burgers.riemann_invariants(ScalarField(g, u0), ScalarField(g, np.ones(n)))
        out += [inv.alpha_plus, inv.alpha_minus]
    return out


def reference_shock_time(alpha0):
    """The shock time as separate slope evaluations on the fine grid and at
    each minimizer point."""
    vals, n = alpha0.values, alpha0.grid.n
    fine = np.linspace(0.0, 2 * np.pi, 8 * n, endpoint=False)
    slope = -interp_deriv(vals, fine)
    k = int(np.argmax(slope))
    lo, hi = fine[k] - 2 * np.pi / (8 * n), fine[k] + 2 * np.pi / (8 * n)
    res = scipy.optimize.minimize_scalar(
        lambda x: float(interp_deriv(vals, x)[0]),
        bounds=(lo, hi), method="bounded", options={"xatol": 1e-13},
    )
    m = max(float(slope[k]), -float(res.fun))
    return float("inf") if m <= 1e-13 else 1.0 / m


def reference_invert(alpha0, t, x):
    """The inversion with a value and a slope circle_interp call per Newton
    iterate, and a safeguard that also bisects a step landing on the
    bracket."""
    vals = alpha0.values
    fine = np.linspace(0.0, 2 * np.pi, 8 * len(vals), endpoint=False)
    afine = interp(vals, fine)
    pad = 1e-2 * float(np.max(afine) - np.min(afine)) + 1e-9
    lo = x - t * (float(np.max(afine)) + pad)
    hi = x - t * (float(np.min(afine)) - pad)
    chi = np.clip(x - t * interp(vals, x), lo, hi)
    for _ in range(100):
        f = chi + t * interp(vals, chi) - x
        lo = np.where(f < 0, chi, lo)
        hi = np.where(f > 0, chi, hi)
        if np.max(np.abs(f)) < 1e-13:
            break
        fp = 1.0 + t * interp_deriv(vals, chi)
        step = np.where(fp > 1e-10, f / np.where(fp > 1e-10, fp, 1.0), 0.0)
        nxt = chi - step
        bad = (nxt <= lo) | (nxt >= hi) | (fp <= 1e-10)
        chi = np.where(bad, 0.5 * (lo + hi), nxt)
    return chi


def count_phase_builds(monkeypatch):
    """Record the points of every grids._phases build, wherever it is bound."""
    builds = []

    def counting_phases(xq, m, _phases=grids._phases):
        builds.append(np.array(xq))
        return _phases(xq, m)

    monkeypatch.setattr(grids, "_phases", counting_phases)
    monkeypatch.setattr(burgers, "_phases", counting_phases)
    return builds


class TestRiemannInvariants:
    def test_constant_state(self):
        data = burgers.riemann_invariants(const(1.0), const(1.0))
        assert np.allclose(data.alpha_plus.values, 2.0)
        assert np.allclose(data.alpha_minus.values, 0.0)

    def test_rest_state(self):
        data = burgers.riemann_invariants(const(0.0), const(1.0))
        assert np.allclose(data.alpha_plus.values, 1.0)
        assert np.allclose(data.alpha_minus.values, -1.0)

    def test_roundtrip(self):
        u0 = ScalarField(G, np.sin(G.x))
        rho0 = ScalarField(G, 1.0 + 0.3 * np.cos(2 * G.x))
        data = burgers.riemann_invariants(u0, rho0)
        ap, am = data.alpha_plus.values, data.alpha_minus.values
        assert np.allclose(0.5 * (ap + am), u0.values, atol=1e-15)
        assert np.allclose(0.5 * (ap - am), rho0.values, atol=1e-15)

    @pytest.mark.parametrize("rho", [0.0, -1.0, -1e-300])
    def test_rejects_nonpositive_density(self, rho):
        # one test, alpha_plus > alpha_minus, which is rho0 > 0
        rho0 = ScalarField(G, np.where(np.arange(G.n) == 5, rho, 1.0))
        for u in (0.0, 2.0):
            with pytest.raises(DomainError, match=r"^density must be positive \(alpha_plus"):
                burgers.riemann_invariants(const(u), rho0)

    def test_positivity_has_one_wording(self):
        # the pressure law, the state and the Riemann data word it alike
        messages = []
        for call in (lambda: pressure._check_rho(np.array([1.0, 0.0])),
                     lambda: FluidState(VectorField(G, np.zeros((1, G.n))), const(-1.0),
                                        const(1.0)),
                     lambda: burgers.riemann_invariants(const(0.0), const(-1.0))):
            with pytest.raises(DomainError) as info:
                call()
            messages.append(str(info.value).split(" (")[0])
        assert messages == ["density must be positive"] * 3


class TestShockTime:
    def test_constant_is_never_shocking(self):
        assert burgers.shock_time(const(2.0)) == np.inf

    def test_sine_plus_constant(self):
        for shift in (1.0, -1.0):
            a0 = ScalarField(G, np.sin(G.x) + shift)
            assert burgers.shock_time(a0) == pytest.approx(1.0, abs=1e-10)

    def test_system_shock_sine(self):
        u0 = ScalarField(G, np.sin(G.x))
        data = burgers.riemann_invariants(u0, const(1.0))
        tp = burgers.shock_time(data.alpha_plus)
        tm = burgers.shock_time(data.alpha_minus)
        assert min(tp, tm) == pytest.approx(1.0, abs=1e-10)

    def test_agrees_with_monotonicity_bisection(self):
        rng = np.random.Generator(np.random.Philox(key=7))
        a0vals = np.zeros(G.n)
        for k in range(1, 6):
            a, b = rng.standard_normal(2)
            a0vals += (a * np.cos(k * G.x) + b * np.sin(k * G.x)) / k
        a0 = ScalarField(G, a0vals)
        tstar = burgers.shock_time(a0)

        fine = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
        slope = interp_deriv(a0vals, fine)

        def monotone(t):
            return np.min(1.0 + t * slope) > 0

        lo, hi = 0.0, 10.0
        assert monotone(lo) and not monotone(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if monotone(mid):
                lo = mid
            else:
                hi = mid
        # the bisection oracle samples finitely, so allow its resolution
        assert tstar == pytest.approx(0.5 * (lo + hi), abs=1e-6)


class TestClosedFormKernels:
    """The flow sums its interpolants from coefficients formed once, and its
    fine-grid values come from one irfft of them."""

    def test_shock_time_matches_separate_interpolations_bitwise(self):
        data = ensemble_invariants(101, 20) + ensemble_invariants(7, 5, n=128)
        for alpha0 in data:
            want = reference_shock_time(alpha0)
            assert burgers.shock_time(alpha0) == want
            assert burgers.CharacteristicFlow(alpha0).shock_time == want

    @pytest.mark.parametrize("n", [64, 128, 512])
    def test_fine_values_match_circle_interp(self, n):
        # the zero-padded irfft against the phase sums on the same 8n points
        fine = np.linspace(0.0, 2 * np.pi, 8 * n, endpoint=False)
        for alpha0 in ensemble_invariants(11, 2, n=n):
            values, minus_slope = burgers.CharacteristicFlow(alpha0)._fine
            for got, want in ((values, interp(alpha0.values, fine)),
                              (-minus_slope, interp_deriv(alpha0.values, fine))):
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_shock_time_keeps_no_dense_table(self):
        # the parent's (8n, n/2 + 1) phase table was 268.7 MB at n = 2048
        alpha0 = ensemble_invariants(13, 1, n=2048)[0]
        tracemalloc.start()
        try:
            tstar = burgers.shock_time(alpha0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < tstar < np.inf
        assert peak < 50e6

    def test_invert_builds_one_phase_matrix_per_iterate(self, monkeypatch):
        builds = count_phase_builds(monkeypatch)
        for alpha0 in ensemble_invariants(101, 5):
            flow = burgers.CharacteristicFlow(alpha0)
            t, x = 0.9 * flow.shock_time, alpha0.grid.x
            builds.clear()
            chi = flow._invert(t, x)[0]
            # one build per Newton iterate, the last at the returned feet:
            # value and slope share it, the fine-grid seed builds no phases,
            # and no two builds are at the same points
            assert len(builds) >= 1
            assert np.array_equal(builds[-1], chi)
            assert all(len(b) == alpha0.grid.n for b in builds)
            assert not any(np.array_equal(b, x) for b in builds)
            assert not any(np.array_equal(a, b)
                           for i, a in enumerate(builds) for b in builds[i + 1:])

    def test_invert_converges_in_few_iterations(self, monkeypatch):
        builds = count_phase_builds(monkeypatch)
        for alpha0 in ensemble_invariants(101, 20) + ensemble_invariants(7, 5, n=128):
            flow = burgers.CharacteristicFlow(alpha0)
            x, tstar = alpha0.grid.x, flow.shock_time
            for t in (0.9 * tstar, 0.99999 * tstar, np.nextafter(tstar, 0)):
                builds.clear()
                chi = flow._invert(t, x)[0]
                assert len(builds) <= 4
                residual = chi + t * interp(alpha0.values, chi) - x
                assert np.max(np.abs(residual)) < 1e-13

    def test_seed_is_the_periodic_interp_bitwise(self, monkeypatch):
        # the seed interpolates the table xi = z + t a mod 2 pi, sorted by
        # one rotation, where np.interp's period option argsorts it: from
        # t = 0 to just below the shock time, at the grid nodes and at points
        # off the period, the seeds must agree bit for bit
        interp, seeds = np.interp, []

        def recording_interp(*args, **kwargs):
            seeds.append(interp(*args, **kwargs))
            return seeds[-1]

        monkeypatch.setattr(np, "interp", recording_interp)
        x_off = np.random.default_rng(0).uniform(-10.0, 10.0, 40)
        data = ensemble_invariants(101, 20) + ensemble_invariants(7, 5, n=128)
        for alpha0 in data + [const(2.0), const(0.0)]:
            flow = burgers.CharacteristicFlow(alpha0)
            afine, tstar = flow._fine[0], flow.shock_time
            z = np.linspace(0.0, 2 * np.pi, len(afine), endpoint=False)
            times = [0.0, 0.7, 3.0] if tstar == np.inf else [
                0.0, 0.2 * tstar, 0.9 * tstar, 0.99999 * tstar, np.nextafter(tstar, 0)]
            for t in times:
                for x in (alpha0.grid.x, x_off):
                    seeds.clear()
                    flow._invert(t, x)
                    want = interp(x, z + t * afine, -t * afine, period=2 * np.pi)
                    assert len(seeds) == 1 and seeds[0].tobytes() == want.tobytes()

    def test_invert_agrees_with_reference_inversion(self):
        for alpha0 in ensemble_invariants(101, 10) + ensemble_invariants(7, 3, n=128):
            flow = burgers.CharacteristicFlow(alpha0)
            x = alpha0.grid.x
            for frac in (0.2, 0.5, 0.9):
                t = frac * flow.shock_time
                want = reference_invert(alpha0, t, x)
                assert np.max(np.abs(flow._invert(t, x)[0] - want)) < 1e-12


class TestInvertFlow:
    def test_constant_alpha_two(self):
        flow = burgers.CharacteristicFlow(const(2.0))
        t = 0.7
        chi = flow._invert(t, G.x)[0]
        assert np.allclose(chi, G.x - 2 * t, atol=1e-12)

    def test_zero_alpha_identity(self):
        flow = burgers.CharacteristicFlow(const(0.0))
        assert np.allclose(flow._invert(0.3, G.x)[0], G.x, atol=1e-14)

    def test_roundtrip_random(self):
        rng = np.random.Generator(np.random.Philox(key=3))
        vals = np.zeros(G.n)
        for k in range(1, 8):
            a, b = rng.standard_normal(2)
            vals += (a * np.cos(k * G.x) + b * np.sin(k * G.x)) / k**2
        flow = burgers.CharacteristicFlow(ScalarField(G, vals))
        t = 0.5 * flow.shock_time
        chi = flow._invert(t, G.x)[0]
        assert np.max(np.abs(forward(flow, t, chi) - G.x)) < 1e-10

    def test_rejects_post_shock(self):
        flow = burgers.CharacteristicFlow(ScalarField(G, np.sin(G.x)))
        with pytest.raises(ShockError):
            flow._invert(1.5, G.x)[0]


class TestExactState:
    def test_constant_data(self):
        s = burgers.exact_state(const(0.3), const(1.2), t=2.0)
        assert np.allclose(s.u.values[0], 0.3, atol=1e-12)
        assert np.allclose(s.rho.values, 1.2, atol=1e-12)

    def test_density_stays_positive(self):
        u0 = ScalarField(G, np.sin(G.x))
        for t in (0.25, 0.5, 0.75, 0.95):
            s = burgers.exact_state(u0, const(1.0), t)
            assert np.min(s.rho.values) > 0

    def test_pde_residual(self):
        u0 = ScalarField(G, np.sin(G.x))
        rho0 = ScalarField(G, 1.0 + 0.2 * np.cos(G.x))
        for t in (0.2, 0.4, 0.6):
            assert pde_residual(u0, rho0, t) < 1e-6

    def test_shock_error(self):
        u0 = ScalarField(G, np.sin(G.x))
        with pytest.raises(ShockError):
            burgers.exact_state(u0, const(1.0), t=1.01)


class TestExactJacobi:
    def test_constant_background_closed_form(self):
        n = 3
        v0 = ScalarField(G, np.cos(n * G.x))
        for t in (0.4, 1.5, 4.0):
            j = burgers.exact_jacobi(const(1.0), const(1.0), v0, t)
            expect = conjugate_j(n, t, G.x)
            assert np.max(np.abs(j.values[0] - expect)) < 1e-12

    def test_zero_perturbation(self):
        j = burgers.exact_jacobi(const(1.0), const(1.0), const(0.0), 0.8)
        assert np.max(np.abs(j.values)) < 1e-14

    def test_growth_bound_random_suite(self):
        for seed in range(50):
            rng = np.random.Generator(np.random.Philox(key=100, counter=seed))
            u0vals = np.zeros(G.n)
            v0vals = np.zeros(G.n)
            for k in range(1, 6):
                a, b, c, d = rng.standard_normal(4)
                u0vals += 0.3 * (a * np.cos(k * G.x) + b * np.sin(k * G.x)) / k
                v0vals += c * np.cos(k * G.x) + d * np.sin(k * G.x)
            u0 = ScalarField(G, u0vals)
            rho0 = const(1.0)
            v0 = ScalarField(G, v0vals)
            inv = burgers.riemann_invariants(u0, rho0)
            tstar = min(burgers.shock_time(inv.alpha_plus),
                        burgers.shock_time(inv.alpha_minus))
            t = 0.9 * min(tstar, 20.0)
            j = burgers.exact_jacobi(u0, rho0, v0, t)
            ratio = np.max(np.abs(j.values)) / (t * np.max(np.abs(v0vals)))
            assert ratio <= 1 + 1e-9

    def test_vector_field_inputs_rejected(self):
        # u0 and v0 are scalars on the circle; a (1, n) vector field is refused
        u0, v0 = VectorField(G, np.zeros((1, G.n))), VectorField(G, np.cos(G.x)[None])
        with pytest.raises(GridMismatchError, match="v0 must be a ScalarField"):
            burgers.exact_jacobi(const(0.0), const(1.0), v0, 0.5)
        for call in (lambda: burgers.riemann_invariants(u0, const(1.0)),
                     lambda: burgers.exact_state(u0, const(1.0), 0.5),
                     lambda: burgers.exact_jacobi(u0, const(1.0), const(1.0), 0.5)):
            with pytest.raises(GridMismatchError, match="scalar values"):
                call()


class TestConjugate:
    def test_times_n2(self):
        assert burgers.conjugate_times(2, 3) == pytest.approx([np.pi, 2 * np.pi, 3 * np.pi])

    def test_first_time_n1(self):
        assert burgers.conjugate_times(1, 1)[0] == pytest.approx(2 * np.pi)

    def test_G_vanishes_at_conjugate_times(self):
        for n in (1, 2, 5):
            for t in burgers.conjugate_times(n, 3):
                assert np.max(np.abs(conjugate_G(n, t, G.x))) < 1e-12
                assert np.max(np.abs(conjugate_j(n, t, G.x))) < 1e-12

    def test_G_peak_value(self):
        n = 4
        assert conjugate_G(n, np.pi / n, np.pi / (2 * n)) == pytest.approx(4 / (3 * n))

    def test_G_zero_at_t0(self):
        assert np.max(np.abs(conjugate_G(3, 0.0, G.x))) == 0.0

    def test_rejects_bad_mode(self):
        with pytest.raises(DomainError):
            burgers.conjugate_times(0, 3)


class TestFlowCache:
    """shock_time, exact_state and exact_jacobi share one CharacteristicFlow
    per datum from a small cache keyed by the grid and the bytes of alpha0."""

    def datum(self, counter, n=64):
        g = CircleGrid(n)
        rng = np.random.Generator(np.random.Philox(key=29, counter=counter))
        u0 = sum(0.3 * (a * np.cos(k * g.x) + b * np.sin(k * g.x)) / k
                 for k, (a, b) in enumerate(rng.standard_normal((4, 2)), 1))
        return ScalarField(g, u0), ScalarField(g, np.ones(n)), ScalarField(g, np.cos(2 * g.x))

    def test_one_refinement_per_invariant_across_times(self, monkeypatch):
        calls = []

        def counting(*args, _minimize=burgers._minimize_bounded):
            calls.append(1)
            return _minimize(*args)

        monkeypatch.setattr(burgers, "_minimize_bounded", counting)
        burgers._cached_flow.cache_clear()
        u0, rho0, v0 = self.datum(0)
        inv = burgers.riemann_invariants(u0, rho0)
        tstar = min(burgers.shock_time(inv.alpha_plus), burgers.shock_time(inv.alpha_minus))
        for t in np.linspace(0.2, 0.9, 4) * tstar:
            burgers.exact_jacobi(u0, rho0, v0, float(t))
            burgers.exact_state(u0, rho0, float(t))
        assert len(calls) == 2

    def test_cached_results_match_fresh_flows_bitwise(self):
        for counter in range(6):
            u0, rho0, v0 = self.datum(counter)
            inv = burgers.riemann_invariants(u0, rho0)
            tstar = min(burgers.shock_time(inv.alpha_plus), burgers.shock_time(inv.alpha_minus))
            for alpha0 in (inv.alpha_plus, inv.alpha_minus):
                cached, fresh = burgers._flow(alpha0), burgers.CharacteristicFlow(alpha0)
                assert cached is not fresh and cached is burgers._flow(alpha0)
                assert cached.shock_time == fresh.shock_time
                for frac in (0.3, 0.9):
                    x = alpha0.grid.x
                    assert np.array_equal(cached._invert(frac * tstar, x)[0],
                                          fresh._invert(frac * tstar, x)[0])
            t = 0.8 * tstar
            warm = burgers.exact_jacobi(u0, rho0, v0, t).values
            burgers._cached_flow.cache_clear()
            assert np.array_equal(burgers.exact_jacobi(u0, rho0, v0, t).values, warm)

    def test_flow_holds_a_read_only_copy(self):
        alpha0 = ensemble_invariants(31, 1)[0]
        original = alpha0.values.copy()
        flow = burgers._flow(alpha0)
        before = flow.shock_time
        assert not flow.alpha0.values.flags.writeable
        assert not np.shares_memory(flow.alpha0.values, alpha0.values)
        alpha0.values[:] = 1.5 * alpha0.values
        changed = burgers._flow(alpha0)
        assert changed is not flow
        assert changed.shock_time == burgers.CharacteristicFlow(alpha0).shock_time
        assert changed.shock_time != before
        assert flow.shock_time == before
        assert np.array_equal(flow.alpha0.values, original)

    def test_cache_is_bounded(self):
        size = burgers._cached_flow.cache_info().maxsize
        assert size is not None
        for alpha0 in ensemble_invariants(37, size):
            burgers.shock_time(alpha0)
        assert burgers._cached_flow.cache_info().currsize == size
