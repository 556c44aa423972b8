"""Spectral stability machinery for the rigidly rotating disc with pressure
p(rho) = c^2 rho^2 / 2: the weighted Sturm-Liouville eigenproblem on the
radial profile, the characteristic cubic for the mode frequencies, Bessel-root
Rayleigh bounds, exact 3x3 mode evolution, and the boundedness criterion for
Jacobi displacements.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy

from . import grids
from .errors import (
    DomainError,
    GridMismatchError,
    InstabilityFlagError,
    ProjectionResidualError,
    VacuumError,
)
from .grids import DiscGrid, VectorField, _radial_nodes

BESSEL_MAX_ORDER = 64  # the largest order that bessel_first_root takes
RAYLEIGH_TOL = 1e-9  # how far lam_1n may fall below its Rayleigh bound by rounding
RESIDUAL_TOL = 1e-6  # the largest relative remainder of v0 outside the eigenbasis


@dataclass(frozen=True)
class DiscBackground:
    """Rigidly rotating disc: u = omega d/dtheta with the balancing density
    rho(r) = a + b r^2, a = rho0 - omega^2/2c^2, b = omega^2/2c^2."""

    omega: float
    c: float
    rho0: float

    def __post_init__(self):
        if self.c <= 0:
            raise DomainError("sound speed must be positive")
        if self.rho0 <= self.omega**2 / (2 * self.c**2):
            raise VacuumError(
                f"rho0={self.rho0} must exceed omega^2/(2c^2)="
                f"{self.omega**2 / (2 * self.c**2)}")

    @property
    def a(self) -> float:
        return self.rho0 - self.omega**2 / (2 * self.c**2)

    @property
    def b(self) -> float:
        return self.omega**2 / (2 * self.c**2)

    def rho(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return self.a + self.b * r**2


@dataclass(frozen=True)
class EigenPair:
    """Eigenpair of Lambda sigma = div(rho grad sigma) restricted to the
    azimuthal mode n: radial profile zeta with zeta(1)=0, eigenvalue lam > 0,
    normalized to unit L^2 norm with weight r dr."""

    n: int
    k: int
    lam: float
    r: np.ndarray
    zeta: np.ndarray


def _sturm_liouville_matrix(background: DiscBackground, n: int, k_max: int,
                            n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The symmetric tridiagonal (diagonal, off-diagonal) whose k_max smallest
    eigenvalues the two solvers take, after checking n_nodes and k_max."""
    if n_nodes < 16:
        raise DomainError("radial resolution too coarse")
    h = 1.0 / n_nodes
    ri = _radial_nodes(n_nodes)[:-1]  # interior nodes, Dirichlet at r=1
    m = len(ri)
    if not (isinstance(k_max, numbers.Integral) and 1 <= k_max <= m):
        raise DomainError(f"k_max must be an integer between 1 and the {m} interior nodes, "
                          f"got {k_max}")
    r_half_lo = ri - h / 2
    r_half_hi = ri + h / 2
    flux_lo = r_half_lo * background.rho(r_half_lo) / h**2
    flux_hi = r_half_hi * background.rho(r_half_hi) / h**2
    diag = flux_lo + flux_hi + n**2 * background.rho(ri) / ri
    if n == 0:
        diag[0] -= flux_lo[0]  # zero flux through the origin
    off = -flux_hi[:-1]
    # similarity by diag(sqrt(r)) symmetrizes the weight
    return diag / ri, off / np.sqrt(ri[:-1] * ri[1:])


def sturm_liouville_eigs(background: DiscBackground, n: int, k_max: int,
                         n_nodes: int = 400) -> np.ndarray:
    """The k_max smallest eigenvalues, ascending, of -(1/r)(r rho zeta')' +
    n^2 rho zeta / r^2 = lam zeta on (0,1) with zeta(1) = 0, by a
    symmetrized second-order finite-difference scheme.

    Multiplying by r gives the generalized symmetric problem A zeta =
    lam R zeta with A = -d/dr(r rho d/dr) + n^2 rho / r and R = diag(r);
    the similarity transform by R^{1/2} reduces it to an ordinary symmetric
    tridiagonal eigenproblem, so the computed spectrum is real by
    construction.  Regularity at the origin: zero flux through r=0 for n=0
    (the profile is even), homogeneous Dirichlet proxy for |n| >= 1
    (zeta ~ r^{|n|}).  The n_nodes - 1 interior nodes carry at most that
    many eigenvalues.  The values come from the bisection (LAPACK stebz)
    that sturm_liouville_modes runs too, so both give the same bits."""
    diag, off = _sturm_liouville_matrix(background, n, k_max, n_nodes)
    return scipy.linalg.eigvalsh_tridiagonal(diag, off, select="i",
                                             select_range=(0, k_max - 1))


def sturm_liouville_modes(background: DiscBackground, n: int, k_max: int,
                          n_nodes: int = 400) -> list[EigenPair]:
    """The eigenpairs of sturm_liouville_eigs' problem, each radial profile
    on the nodes r = j/n_nodes, j = 1..n_nodes, with unit L^2 norm in the
    weight r dr and its largest entry positive."""
    diag, off = _sturm_liouville_matrix(background, n, k_max, n_nodes)
    vals, vecs = scipy.linalg.eigh_tridiagonal(diag, off, select="i",
                                               select_range=(0, k_max - 1))
    h = 1.0 / n_nodes
    r = _radial_nodes(n_nodes)
    pairs = []
    for k in range(k_max):
        zt = vecs[:, k] / np.sqrt(r[:-1])  # undo the similarity scaling
        zeta = np.concatenate([zt, [0.0]])
        norm = np.sqrt(np.sum(zeta**2 * r) * h)
        zeta = zeta / norm
        if zeta[np.argmax(np.abs(zeta))] < 0:
            zeta = -zeta
        pairs.append(EigenPair(n, k + 1, float(vals[k]), r, zeta))
    return pairs


# ---------------------------------------------------------------------------
# Characteristic cubic


def characteristic_cubic_pq(lam: float, n: int, omega: float, c: float):
    p = (c**2 * lam + 4 * omega**2) / 3.0
    q = n * omega**3
    return p, q


def characteristic_roots(lam: float, n: int, omega: float, c: float) -> np.ndarray:
    """Real roots of y^3 - 3 p y - 2 q = 0 with p = (c^2 lam + 4 omega^2)/3,
    q = n omega^3, by the trigonometric method; the discriminant condition
    q^2 < p^3 (three distinct real roots) is asserted."""
    if lam <= 0:
        raise DomainError("eigenvalue must be positive")
    p, q = characteristic_cubic_pq(lam, n, omega, c)
    if p <= 0 or q**2 >= p**3:
        raise InstabilityFlagError(
            f"discriminant failure: q^2={q**2:.6g} >= p^3={p**3:.6g} "
            f"(lam={lam}, n={n})")
    theta = np.arccos(q / p**1.5)
    ks = np.array([0.0, 1.0, 2.0])
    roots = 2 * np.sqrt(p) * np.cos((theta - 2 * np.pi * ks) / 3.0)
    return np.sort(roots)


# ---------------------------------------------------------------------------
# Bessel roots


def bessel_first_root(n: int) -> float:
    """First positive zero of the order-n Bessel function of the first kind
    (scipy.special.jn_zeros, after Zhang & Jin, Computation of Special
    Functions, 1996), for n in [0, BESSEL_MAX_ORDER]."""
    if not 0 <= n <= BESSEL_MAX_ORDER:
        raise DomainError(f"order must be in [0, {BESSEL_MAX_ORDER}], got {n}")
    return float(scipy.special.jn_zeros(n, 1)[0])


# ---------------------------------------------------------------------------
# Rayleigh bounds


@dataclass(frozen=True)
class BoundRow:
    n: int
    lam1: float
    rayleigh_bound: float
    rayleigh_margin: float
    downstream_margin: float
    arithmetic_ok: bool


@dataclass(frozen=True)
class BoundReport:
    rows: list[BoundRow]
    falsifications: list[str]

    @property
    def all_hold(self) -> bool:
        return not self.falsifications


def rayleigh_bound_check(background: DiscBackground, lam1) -> BoundReport:
    """Check lam_{1n} >= a c_n^2 + b(n^2+1) (to RAYLEIGH_TOL) and the downstream
    inequality c^2 lam_{1n} > omega^2 (3 n^{2/3} - 4), plus the arithmetic
    fact n^2 + 7 > 6 n^{2/3}, for the first eigenvalues lam1[n] of
    n = 0..len(lam1) - 1 (sturm_liouville_eigs' first values)."""
    lam1 = np.asarray(lam1, dtype=float)
    if lam1.ndim != 1 or not lam1.size or not np.all(np.isfinite(lam1) & (lam1 > 0)):
        raise DomainError("lam1 must be a nonempty 1-D array of finite positive eigenvalues")
    a, b, c, om = background.a, background.b, background.c, background.omega
    rows, bad = [], []
    for n, lam in enumerate(lam1.tolist()):
        cn = bessel_first_root(n)
        bound = a * cn**2 + b * (n**2 + 1)
        margin = lam - bound
        down = c**2 * lam - om**2 * (3 * n ** (2 / 3) - 4)
        arith = n**2 + 7 > 6 * n ** (2 / 3)
        rows.append(BoundRow(n, lam, bound, margin, down, arith))
        if margin < -RAYLEIGH_TOL:
            bad.append(f"n={n}: lam1={lam:.6g} below Rayleigh bound {bound:.6g}")
        if down <= 0:
            bad.append(f"n={n}: c^2 lam1 fails the downstream inequality")
        if not arith:
            bad.append(f"n={n}: arithmetic inequality n^2+7 > 6n^(2/3) fails")
    return BoundReport(rows, bad)


# ---------------------------------------------------------------------------
# Mode evolution


@dataclass(frozen=True)
class ModeCoefficients:
    """Amplitudes of (sigma, F, G) for one (k, n) mode in the rotating frame
    e^{in(theta - omega t)}."""

    sigma: complex
    F: complex
    G: complex


def mode_matrix(lam: float, n: int, omega: float, c: float) -> np.ndarray:
    """d/dt (sigma, F, G) = M (sigma, F, G) for sigma' + F = 0,
    F' + 2 omega G - c^2 lam sigma = 0, G' - 2 omega F - i n omega^2 sigma = 0.

    The sign of the i n omega^2 coupling follows from taking the curl of the
    momentum equation with the orientation G = -curl(rho v); the tests verify
    it against a direct method-of-lines integration of the primitive
    linearized equations (direct_mode_integration in tests/oracles.py)."""
    return np.array([
        [0.0, -1.0, 0.0],
        [c**2 * lam, 0.0, -2 * omega],
        [1j * n * omega**2, 2 * omega, 0.0],
    ], dtype=complex)


@dataclass(frozen=True)
class ModeSystem:
    lam: float
    n: int
    omega: float
    c: float

    @cached_property
    def frequencies(self) -> np.ndarray:
        """Oscillation frequencies iy of the mode matrix; these are the
        negatives of the characteristic cubic roots (the cubic is stated for
        the reflected mode -n)."""
        return np.sort(-characteristic_roots(self.lam, self.n, self.omega, self.c))

    @cached_property
    def _eig(self):
        M = mode_matrix(self.lam, self.n, self.omega, self.c)
        vals, vecs = np.linalg.eig(M)
        ys = np.sort(np.imag(vals))
        if np.max(np.abs(ys - self.frequencies)) > 1e-8 * max(1.0, np.max(np.abs(ys))):
            raise InstabilityFlagError("matrix spectrum disagrees with the cubic")
        if np.linalg.cond(vecs) > 1e8:
            raise DomainError("mode system is numerically defective")
        return vals, vecs, np.linalg.inv(vecs)

    def evolve(self, coeffs0: ModeCoefficients, t: float) -> ModeCoefficients:
        vals, vecs, inv = self._eig
        y0 = np.array([coeffs0.sigma, coeffs0.F, coeffs0.G], dtype=complex)
        yt = vecs @ (np.exp(vals * t) * (inv @ y0))
        return ModeCoefficients(yt[0], yt[1], yt[2])


# ---------------------------------------------------------------------------
# Synthesis and classification


@dataclass(frozen=True)
class ModeEntry:
    n: int
    k: int
    lam: float
    frequencies: np.ndarray
    coeffs: ModeCoefficients
    has_zero_frequency: bool


@dataclass(frozen=True)
class Classification:
    bounded: bool
    criterion_value: float
    projection_residual: float
    modes: list[ModeEntry]


def _project_profiles(background: DiscBackground, profiles: np.ndarray, n: int,
                      k_max: int, n_nodes: int):
    """Coefficients (one row per profile) of radial profiles in the (weight r)
    orthonormal eigenbasis of one eigensolve, plus each one's unexplained L^2
    remainder over interior nodes (the basis enforces the boundary at r=1)."""
    pairs = sturm_liouville_modes(background, n, k_max, n_nodes)
    h = 1.0 / n_nodes
    r = _radial_nodes(n_nodes)
    zeta = np.array([p.zeta for p in pairs])
    coeffs = np.sum(profiles[:, None] * zeta * r, axis=-1) * h
    resid = np.sqrt(np.sum((np.abs(profiles - coeffs @ zeta) ** 2 * r)[:, :-1], axis=-1) * h)
    return pairs, coeffs, resid


def synthesize_and_classify(v0: VectorField, background: DiscBackground,
                            k_max: int = 12, n_max: int = 16) -> Classification:
    """Project rho v0 = grad f + sgrad g onto the eigenbasis via F = div(rho v0)
    and G = -curl(rho v0) (the sgrad orientation used here satisfies
    curl(sgrad g) = -Delta g), evolve each mode exactly, and classify; a
    relative remainder above RESIDUAL_TOL is a ProjectionResidualError.

    The displacement is bounded iff the azimuthal average of curl(rho v0)
    vanishes at every radius: a zero frequency occurs only at n = 0, and the
    n = 0 rotational component rides it."""
    g = v0.grid
    if not isinstance(g, DiscGrid):
        raise GridMismatchError("disc classification needs a disc field")
    n_nodes = g.n_r
    rho = background.rho(g.r)[:, None]
    P = VectorField(g, rho * v0.values)
    F0 = grids.div(P).values
    G0 = -grids.curl(P).values
    FG_hat = np.fft.fft(np.stack([F0, G0]), axis=-1) / g.n_theta
    F_hat, G_hat = FG_hat

    # boundedness criterion: n=0 azimuthal average of curl(rho v0)
    crit = float(np.max(np.abs(G_hat[:, 0])))
    scale = float(np.max(np.abs(G0))) + float(np.max(np.abs(F0))) + 1e-300
    bounded = crit < 1e-10 * max(scale, 1.0)

    total_sq = float(np.sum((np.abs(F_hat) ** 2 + np.abs(G_hat) ** 2)
                            * g.r[:, None]) / n_nodes)
    resid_sq = 0.0
    modes = []
    for n in range(-n_max, n_max + 1):
        profiles = FG_hat[:, :, n % g.n_theta]
        if np.max(np.abs(profiles[0])) + np.max(np.abs(profiles[1])) < 1e-14 * max(scale, 1.0):
            continue
        pairs, (fc, gc), (fres, gres) = _project_profiles(background, profiles, n, k_max, n_nodes)
        resid_sq += fres**2
        if n != 0:
            # the n=0 rotational profile rides the zero frequency and is
            # handled in closed form by the curl criterion, not the basis
            resid_sq += gres**2
        for pair, fck, gck in zip(pairs, fc, gc):
            if abs(fck) + abs(gck) < 1e-12 * max(scale, 1.0):
                continue
            sys = ModeSystem(pair.lam, n, background.omega, background.c)
            ys = sys.frequencies
            has_zero = bool(np.any(np.abs(ys) < 1e-12))
            modes.append(ModeEntry(n, pair.k, pair.lam, ys,
                                   ModeCoefficients(0.0, fck, gck), has_zero))
    residual = float(np.sqrt(resid_sq / (total_sq + 1e-300)))
    if total_sq > 0 and residual > RESIDUAL_TOL:
        raise ProjectionResidualError(
            f"initial data leaves relative residual {residual:.3e} outside the "
            f"truncated eigenbasis (boundary-incompatible or under-resolved)")
    return Classification(bounded, crit, residual, modes)
