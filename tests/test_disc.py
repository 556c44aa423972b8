import numpy as np
import pytest
import scipy.linalg

from baroflow import disc
from baroflow.errors import DomainError, GridMismatchError, InstabilityFlagError, VacuumError
from baroflow.grids import TorusGrid, VectorField
from oracles import (
    DiscGrid,
    ModeCoefficients,
    ModeSystem,
    ProjectionResidualError,
    direct_mode_integration,
    disc_theta,
    displacement_amplitude,
    evolve_rk4,
    mode_matrix,
    radial_poisson_gradient_mode,
    sturm_liouville_modes,
    synthesize_and_classify,
)

BG = disc.DiscBackground(omega=1.0, c=1.0, rho0=1.0)


class TestBackground:
    def test_profile(self):
        bg = disc.DiscBackground(1.0, 1.0, 1.0)
        r = np.linspace(0, 1, 5)
        assert np.allclose(bg.rho(r), 0.5 + r**2 / 2, atol=1e-15)
        assert bg.rho(1.0) == pytest.approx(1.0)

    def test_zero_omega(self):
        bg = disc.DiscBackground(0.0, 1.0, 2.0)
        assert np.allclose(bg.rho(np.linspace(0, 1, 5)), 2.0)

    def test_vacuum_rejected(self):
        with pytest.raises(VacuumError):
            disc.DiscBackground(2.0, 1.0, 1.0)


class TestSturmLiouville:
    def test_constant_density_limit_matches_bessel(self):
        rho0 = 2.0
        bg = disc.DiscBackground(0.0, 1.0, rho0)
        lam = disc.sturm_liouville_eigs(bg, 0, 1, n_nodes=400)[0]
        c0 = disc.bessel_first_root(0)
        assert lam == pytest.approx(rho0 * c0**2, rel=1e-3)

    def test_eigenvalues_positive_and_increasing(self):
        for n in (0, 1, 3):
            lams = disc.sturm_liouville_eigs(BG, n, 6, n_nodes=300).tolist()
            assert all(l > 0 for l in lams)
            assert all(a < b for a, b in zip(lams, lams[1:]))

    def test_richardson_refinement(self):
        for n in (0, 2):
            lam1 = disc.sturm_liouville_eigs(BG, n, 1, n_nodes=400)[0]
            lam2 = disc.sturm_liouville_eigs(BG, n, 1, n_nodes=800)[0]
            assert abs(lam2 - lam1) / lam1 < 1e-4

    def test_normalization_and_boundary(self):
        pairs = sturm_liouville_modes(BG, 1, 3, n_nodes=200)
        h = 1.0 / 200
        for p in pairs:
            assert p.zeta[-1] == 0.0
            assert np.sum(p.zeta**2 * p.r) * h == pytest.approx(1.0, rel=1e-12)

    def test_k_max_is_bounded_by_the_interior_nodes(self):
        # n_nodes = 16 leaves 15 interior nodes, so 15 eigenpairs at most
        assert [p.k for p in sturm_liouville_modes(BG, 1, 15, n_nodes=16)] == \
            list(range(1, 16))
        for k_max in (16, 0, -1):
            with pytest.raises(DomainError, match=r"^k_max must be an integer in \[1, 15\], got "):
                disc.sturm_liouville_eigs(BG, 1, k_max, n_nodes=16)
        with pytest.raises(DomainError):
            disc.sturm_liouville_eigs(BG, 0, 500, n_nodes=16)

    def test_rejects_fractional_k_max(self, monkeypatch):
        # rejected before the eigensolver runs
        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", None)
        monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", None)
        for solve in (disc.sturm_liouville_eigs, sturm_liouville_modes):
            with pytest.raises(DomainError, match="k_max must be an integer"):
                solve(BG, 1, 2.5)

    @pytest.mark.parametrize("k_max, n_nodes", [(0, 16), (16, 16), (300, 300), (2.0, 16),
                                                (np.float64(3), 200), (1, 15)],
                             ids=["k0", "k16of15", "k300of299", "k2.0", "k3.0np", "nodes15"])
    def test_both_solvers_refuse_alike(self, k_max, n_nodes):
        errors = []
        for solve in (disc.sturm_liouville_eigs, sturm_liouville_modes):
            with pytest.raises(DomainError) as exc:
                solve(BG, 1, k_max, n_nodes=n_nodes)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("bg", [BG, disc.DiscBackground(1.0, 1.0, 0.5 + 1e-3)],
                             ids=["reference", "near_vacuum"])
    @pytest.mark.parametrize("n_nodes", [16, 201, 300, 400])
    def test_values_are_the_modes_lam_bitwise(self, bg, n_nodes):
        # one bisection behind both: the values-only solve that the CLI runs
        # gives the bits of the eigenpairs' lam
        for n in range(17):
            for k_max in (1, 6, 12):
                vals = disc.sturm_liouville_eigs(bg, n, k_max, n_nodes)
                lams = np.array([p.lam for p in sturm_liouville_modes(bg, n, k_max,
                                                                           n_nodes)])
                assert vals.dtype == lams.dtype and vals.tobytes() == lams.tobytes()

    def test_spectrum_depends_on_abs_n(self):
        lp = disc.sturm_liouville_eigs(BG, 2, 2, n_nodes=200)
        lm = disc.sturm_liouville_eigs(BG, -2, 2, n_nodes=200)
        for a, b in zip(lp, lm):
            assert a == pytest.approx(b, rel=1e-13)


class TestCharacteristicRoots:
    def test_n0_structure(self):
        lam = 5.0
        roots = disc.characteristic_roots(lam, 0, 1.0, 1.0)
        p, _ = disc.characteristic_cubic_pq(lam, 0, 1.0, 1.0)
        assert np.allclose(roots, [-np.sqrt(3 * p), 0.0, np.sqrt(3 * p)], atol=1e-12)

    def test_omega_zero_acoustic(self):
        lam, c = 7.3, 1.4
        roots = disc.characteristic_roots(lam, 3, 0.0, c)
        assert np.allclose(roots, [-c * np.sqrt(lam), 0.0, c * np.sqrt(lam)], atol=1e-12)

    def test_distinct_roots_from_eigensolver(self):
        lam = disc.sturm_liouville_eigs(BG, 1, 1, n_nodes=300)[0]
        roots = disc.characteristic_roots(lam, 1, 1.0, 1.0)
        gaps = np.diff(roots)
        assert np.all(gaps > 1e-6)

    def test_vieta(self):
        lam = disc.sturm_liouville_eigs(BG, 2, 1, n_nodes=300)[0]
        p, q = disc.characteristic_cubic_pq(lam, 2, 1.0, 1.0)
        y = disc.characteristic_roots(lam, 2, 1.0, 1.0)
        assert abs(y.sum()) < 1e-9
        assert y[0] * y[1] + y[0] * y[2] + y[1] * y[2] == pytest.approx(-3 * p, abs=1e-9)
        assert y[0] * y[1] * y[2] == pytest.approx(2 * q, abs=1e-9)

    def test_discriminant_failure_flagged(self):
        with pytest.raises(InstabilityFlagError):
            disc.characteristic_roots(0.001, 10, 1.0, 0.01)


class TestBesselRoots:
    def test_order_zero(self):
        assert disc.bessel_first_root(0) == pytest.approx(2.404826, abs=1e-6)

    def test_order_one(self):
        assert disc.bessel_first_root(1) == pytest.approx(3.831706, abs=1e-6)

    def test_monotone_in_order(self):
        roots = [disc.bessel_first_root(n) for n in range(21)]
        assert all(a < b for a, b in zip(roots, roots[1:]))

    def test_matches_besseljzero(self):
        import mpmath

        for n in range(65):
            expect = float(mpmath.besseljzero(n, 1))
            assert disc.bessel_first_root(n) == pytest.approx(expect, rel=1e-15, abs=0)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            disc.bessel_first_root(65)
        with pytest.raises(DomainError):
            disc.bessel_first_root(-1)


def first_eigenvalues(bg, n_max, n_nodes):
    """lam_1n for n = 0..n_max, each from its own one-value solve."""
    return [disc.sturm_liouville_eigs(bg, n, 1, n_nodes)[0] for n in range(n_max + 1)]


class TestRayleighBounds:
    def test_reference_background(self):
        rep = disc.rayleigh_bound_check(BG, first_eigenvalues(BG, n_max=16, n_nodes=400))
        assert rep.all_hold
        assert all(row.rayleigh_margin > 0 for row in rep.rows)
        assert all(row.downstream_margin > 0 for row in rep.rows)
        assert all(row.arithmetic_ok for row in rep.rows)

    def test_n0_reduction(self):
        rep = disc.rayleigh_bound_check(BG, first_eigenvalues(BG, n_max=0, n_nodes=400))
        row = rep.rows[0]
        c0 = disc.bessel_first_root(0)
        assert row.rayleigh_bound == pytest.approx(BG.a * c0**2 + BG.b)

    def test_near_vacuum(self):
        bg = disc.DiscBackground(1.0, 1.0, 0.5 + 1e-3)
        rep = disc.rayleigh_bound_check(bg, first_eigenvalues(bg, n_max=8, n_nodes=400))
        assert rep.all_hold

    @pytest.mark.parametrize("lam1", [[], [[5.0, 6.0]], [5.0, np.nan], [np.inf],
                                      [5.0, 0.0], [-1.0]],
                             ids=["empty", "2d", "nan", "inf", "zero", "negative"])
    def test_rejects_a_lam1_that_is_no_spectrum(self, lam1):
        with pytest.raises(DomainError, match="lam1"):
            disc.rayleigh_bound_check(BG, lam1)

    def test_a_nan_background_is_refused(self):
        # its margins would all be NaN, which no comparison flags
        with pytest.raises(DomainError, match="^omega must be a finite real number"):
            disc.rayleigh_bound_check(disc.DiscBackground(np.nan, 1.0, 1.0), [1.0, 2.0])

    def test_a_nan_margin_is_a_falsification(self, monkeypatch):
        monkeypatch.setattr(disc, "bessel_first_root", lambda n: np.nan)
        rep = disc.rayleigh_bound_check(BG, [10.0, 20.0])
        assert not rep.all_hold
        assert [f.split(":")[0] for f in rep.falsifications] == ["n=0", "n=1"]
        assert all("below Rayleigh bound nan" in f for f in rep.falsifications)


class TestModeEvolution:
    def test_zero_stays_zero(self):
        out = ModeSystem(5.0, 1, 1.0, 1.0).evolve(ModeCoefficients(0, 0, 0), 10.0)
        assert abs(out.sigma) + abs(out.F) + abs(out.G) == 0.0

    def test_eig_vs_rk4(self):
        lam = disc.sturm_liouville_eigs(BG, 1, 1, n_nodes=200)[0]
        sys = ModeSystem(lam, 1, 1.0, 1.0)
        c0 = ModeCoefficients(0.3, -0.2 + 0.1j, 0.7)
        exact = sys.evolve(c0, 10.0)
        rk = evolve_rk4(sys, c0, 10.0, dt=5e-4)
        gap = max(abs(exact.sigma - rk.sigma), abs(exact.F - rk.F), abs(exact.G - rk.G))
        assert gap < 1e-8

    def test_n0_sigma_bounded(self):
        lam = disc.sturm_liouville_eigs(BG, 0, 1, n_nodes=200)[0]
        sys = ModeSystem(lam, 0, 1.0, 1.0)
        c0 = ModeCoefficients(1.0, 0.0, 0.0)
        sigmas = [abs(sys.evolve(c0, t).sigma) for t in np.linspace(0, 50, 200)]
        assert max(sigmas) < 10.0

    def test_no_secular_growth_nonzero_n(self):
        for n in (1, 3):
            lam = disc.sturm_liouville_eigs(BG, n, 1, n_nodes=200)[0]
            sys = ModeSystem(lam, n, 1.0, 1.0)
            c0 = ModeCoefficients(0.0, 1.0, 0.5j)
            e0 = None
            for t in np.linspace(0.0, 100.0, 101):
                out = sys.evolve(c0, t)
                e = abs(out.sigma) ** 2 + (abs(out.F) ** 2 + abs(out.G) ** 2) / (1.0 + lam)
                if e0 is None:
                    e0 = max(e, 1e-30)
                assert e < 50 * e0

    def test_displacement_bounded_iff_no_zero_frequency(self):
        lam = disc.sturm_liouville_eigs(BG, 1, 1, n_nodes=200)[0]
        sys = ModeSystem(lam, 1, 1.0, 1.0)
        c0 = ModeCoefficients(0.0, 1.0, 0.0)
        amp_early = displacement_amplitude(sys, c0, 50.0)
        amp_late = displacement_amplitude(sys, c0, 500.0)
        assert amp_late < 10 * max(amp_early, 1e-3)

        lam0 = disc.sturm_liouville_eigs(BG, 0, 1, n_nodes=200)[0]
        sys0 = ModeSystem(lam0, 0, 1.0, 1.0)
        # put weight on the zero-frequency eigenvector
        vals, vecs = np.linalg.eig(mode_matrix(lam0, 0, 1.0, 1.0))
        vec0 = vecs[:, np.argmin(np.abs(vals))]
        czero = ModeCoefficients(*vec0)
        a1 = displacement_amplitude(sys0, czero, 100.0)
        a2 = displacement_amplitude(sys0, czero, 200.0)
        assert a2 == pytest.approx(2 * a1, rel=1e-6)


def gradient_mode_field(bg, grid, n, k):
    pairs = sturm_liouville_modes(bg, n, k, n_nodes=grid.n_r)
    pair = pairs[-1]
    f, a, b = radial_poisson_gradient_mode(bg, pair)
    rho = bg.rho(grid.r)
    phase = np.exp(1j * n * disc_theta(grid))[None, :]
    vr = np.real(a[:, None] * phase) / rho[:, None]
    vt = np.real(b[:, None] * phase) / rho[:, None]
    return VectorField(grid, np.stack([vr, vt])), pair


class TestSynthesizeAndClassify:
    def test_pure_gradient_bounded(self):
        grid = DiscGrid(200, 16)
        v0, pair = gradient_mode_field(BG, grid, 2, 1)
        cls = synthesize_and_classify(v0, BG, k_max=8, n_max=4)
        assert cls.bounded
        assert cls.projection_residual < 1e-6
        assert cls.modes
        for m in cls.modes:
            assert not m.has_zero_frequency
            assert np.all(np.abs(m.frequencies) > 1e-8)

    def test_rotational_n0_grows(self):
        grid = DiscGrid(200, 16)
        rho = BG.rho(grid.r)[:, None]
        # rho v0 = sgrad(1 - r^2) = 2 d/dtheta
        v0 = VectorField(grid, np.stack([np.zeros(grid.shape),
                                         2.0 / rho * np.ones(grid.shape)]))
        cls = synthesize_and_classify(v0, BG, k_max=8, n_max=2)
        assert not cls.bounded
        assert cls.criterion_value > 1.0
        zero_modes = [m for m in cls.modes if m.has_zero_frequency]
        assert zero_modes and all(m.n == 0 for m in zero_modes)
        m = zero_modes[0]
        sys = ModeSystem(m.lam, m.n, BG.omega, BG.c)
        a1 = displacement_amplitude(sys, m.coeffs, 100.0)
        a2 = displacement_amplitude(sys, m.coeffs, 200.0)
        assert a2 > 1.5 * a1

    def test_incompatible_data_flagged(self):
        grid = DiscGrid(200, 16)
        rho = BG.rho(grid.r)[:, None]
        # rho v0 = grad(r^2 cos(theta)): div has a boundary-incompatible profile
        fvals = (grid.r**2)[:, None] * np.cos(disc_theta(grid))[None, :]
        from baroflow.grids import ScalarField, grad
        P = grad(ScalarField(grid, fvals))
        v0 = VectorField(grid, P.values / rho)
        with pytest.raises(ProjectionResidualError):
            synthesize_and_classify(v0, BG, k_max=8, n_max=4)

    def test_off_disc_field_is_a_grid_mismatch(self):
        # the grid operators refuse a field on the wrong grid the same way
        g = TorusGrid(16, 16)
        v0 = VectorField(g, np.stack([np.sin(g.mesh[1]), np.zeros(g.shape)]))
        with pytest.raises(GridMismatchError, match="disc field"):
            synthesize_and_classify(v0, BG, k_max=8, n_max=4)

    def test_reconstruction_vs_direct_integration(self):
        grid = DiscGrid(200, 16)
        n, k = 2, 1
        v0, pair = gradient_mode_field(BG, grid, n, k)
        f, a, b = radial_poisson_gradient_mode(BG, pair)
        rho = BG.rho(pair.r)
        t_end = 5.0
        sig, _, _ = direct_mode_integration(
            BG, n, np.zeros(len(pair.r), dtype=complex), a / rho, b / rho,
            t_end, dt=1e-3)
        sys = ModeSystem(pair.lam, n, BG.omega, BG.c)
        coeff = sys.evolve(ModeCoefficients(0.0, 1.0, 0.0), t_end)
        recon = coeff.sigma * np.exp(-1j * n * BG.omega * t_end) * pair.zeta
        num = np.sqrt(np.sum(np.abs(sig - recon) ** 2 * pair.r))
        den = np.sqrt(np.sum(np.abs(recon) ** 2 * pair.r)) + 1e-300
        assert num / den < 1e-3
