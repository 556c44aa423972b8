"""Spectral stability machinery for the rigidly rotating disc with pressure
p(rho) = c^2 rho^2 / 2: the weighted Sturm-Liouville eigenproblem on the
radial profile, the characteristic cubic for the mode frequencies, and the
Bessel-root Rayleigh bounds.  The eigenpairs, the exact 3x3 mode evolution
and the boundedness classification of Jacobi displacements are oracles of
the tests (tests/oracles.py), which no experiment runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy

from .errors import DomainError, InstabilityFlagError, VacuumError, _check_scalar

BESSEL_MAX_ORDER = 64  # the largest order that bessel_first_root takes
RAYLEIGH_TOL = 1e-9  # how far lam_1n may fall below its Rayleigh bound by rounding


@dataclass(frozen=True)
class DiscBackground:
    """Rigidly rotating disc: u = omega d/dtheta with the balancing density
    rho(r) = a + b r^2, a = rho0 - omega^2/2c^2, b = omega^2/2c^2."""

    omega: float
    c: float
    rho0: float

    def __post_init__(self):
        _check_scalar("omega", self.omega)
        _check_scalar("c", self.c, 0)
        if _check_scalar("rho0", self.rho0) <= self.omega**2 / (2 * self.c**2):
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


def _sturm_liouville_matrix(background: DiscBackground, n: int, k_max: int,
                            n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The symmetric tridiagonal (diagonal, off-diagonal) whose k_max smallest
    eigenvalues the solvers take, after checking n, n_nodes and k_max."""
    _check_scalar("n", n, integer=True)
    _check_scalar("n_nodes", n_nodes, 16, integer=True)
    _check_scalar("k_max", k_max, 1, n_nodes - 1, integer=True)
    h = 1.0 / n_nodes
    ri = np.arange(1, n_nodes) / n_nodes  # interior nodes, Dirichlet at r=1
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
    that scipy.linalg.eigh_tridiagonal runs for the eigenpairs too, so the
    tests' eigenpair oracle on this matrix gets the same bits."""
    diag, off = _sturm_liouville_matrix(background, n, k_max, n_nodes)
    return scipy.linalg.eigvalsh_tridiagonal(diag, off, select="i",
                                             select_range=(0, k_max - 1))


# ---------------------------------------------------------------------------
# Characteristic cubic


def characteristic_cubic_pq(lam: float, n: int, omega: float, c: float):
    _check_scalar("lam", lam, 0)
    _check_scalar("n", n, integer=True)
    _check_scalar("omega", omega)
    _check_scalar("c", c, 0)
    p = (c**2 * lam + 4 * omega**2) / 3.0
    q = n * omega**3
    return p, q


def characteristic_roots(lam: float, n: int, omega: float, c: float) -> np.ndarray:
    """Real roots of y^3 - 3 p y - 2 q = 0 with p = (c^2 lam + 4 omega^2)/3,
    q = n omega^3, by the trigonometric method; the discriminant condition
    q^2 < p^3 (three distinct real roots) is asserted."""
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
    _check_scalar("order", n, 0, BESSEL_MAX_ORDER, integer=True)
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
        if not margin >= -RAYLEIGH_TOL:  # a NaN margin falsifies too
            bad.append(f"n={n}: lam1={lam:.6g} below Rayleigh bound {bound:.6g}")
        if not down > 0:
            bad.append(f"n={n}: c^2 lam1 fails the downstream inequality")
        if not arith:
            bad.append(f"n={n}: arithmetic inequality n^2+7 > 6n^(2/3) fails")
    return BoundReport(rows, bad)
