"""The benchmark's three workloads and their analytic oracles.

Each workload is a closed loop with one caller: the next op starts when the
previous one returns.  `run_pass` runs one pass and returns its ops; every op
carries the checks that compare its output with a closed form from the paper
(arXiv 1302.5071).  An op that raises a `BaroflowError`, or whose CLI call
exits nonzero, or that misses a check, is a failed op; it is never dropped.

A check passes when its measured quantity q is at most its limit L.  For an
equality check q is the deviation from the closed form and L the tolerance;
for a bound check q is the bounded quantity and L the bound.  The pass's
oracle error ratio is the largest q/L over its toleranced checks (0 when every
q is on the good side of zero), so a pass needs a ratio of at most 1.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from baroflow import burgers, cli, geodesic, jacobi
from baroflow.errors import BaroflowError
from baroflow.grids import CircleGrid, ScalarField, VectorField
from baroflow.pressure import polytropic


@dataclass(frozen=True)
class Check:
    """q <= limit passes.  Verdicts (yes/no checks) take no part in the
    oracle error ratio."""

    label: str
    q: float
    limit: float
    toleranced: bool = True

    @property
    def ok(self) -> bool:
        return bool(self.q <= self.limit)

    @property
    def ratio(self) -> float:
        return max(0.0, self.q / self.limit)


def verdict(label: str, ok: bool) -> Check:
    return Check(label, 0.0 if ok else 1.0, 0.0, toleranced=False)


@dataclass
class Op:
    label: str
    latency_s: float
    checks: list[Check] = field(default_factory=list)
    error: str | None = None
    kind: str = ""  # ops of one kind repeat in every pass

    @property
    def ok(self) -> bool:
        return self.error is None and all(c.ok for c in self.checks)

    @property
    def err_ratio(self) -> float:
        return max((c.ratio for c in self.checks if c.toleranced), default=0.0)

    def failure(self) -> str:
        if self.error is not None:
            return f"{self.label}: {self.error}"
        bad = [f"{c.label} (q={c.q:.6g}, limit={c.limit:.6g})"
               for c in self.checks if not c.ok]
        return f"{self.label}: missed " + "; ".join(bad)


def _cli_call(argv: list[str], out_dir: str):
    """Run one CLI experiment in this process.  Returns (seconds, exit code,
    stderr text, csv rows, manifest); rows and manifest are None on failure."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--output-dir", out_dir])
    seconds = time.perf_counter() - t0
    if code != 0:
        return seconds, code, err.getvalue().strip(), None, None
    name = argv[0]
    with open(os.path.join(out_dir, f"{name}.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(os.path.join(out_dir, f"{name}_manifest.json")) as fh:
        manifest = json.load(fh)
    return seconds, code, "", rows, manifest


class Workload:
    """Base: `sizes` maps a size name to the workload's parameters.  The
    "tiny" size is the warm-up pass and the size the tests run."""

    name = ""
    sizes: dict[str, dict] = {}
    # percentile reported as op_tail_s: fixed, and low enough to keep at
    # least ten op latencies beyond it even in a slow full-size run on a
    # 2-core box; the maximum where a run has too few ops for that
    tail_percentile = 100.0

    def __init__(self, seed: int, out_dir: str, size: str = "full"):
        self.seed = seed
        self.out_dir = out_dir
        self.params = self.sizes[size]
        self.tracer = None  # set while a traced pass runs

    def start_op(self, op_id: int) -> None:
        """Tag the spans that follow with the op they belong to."""
        if self.tracer is not None:
            self.tracer.op = op_id

    def warm_up(self) -> None:
        tiny = type(self)(self.seed, self.out_dir, "tiny")
        failed = [op.failure() for op in tiny.run_pass(0, tiny.inputs(0)) if not op.ok]
        if failed:
            raise RuntimeError("warm-up pass failed: " + " | ".join(failed))

    def inputs(self, index: int):
        """Inputs of pass `index`, built before the pass is timed."""
        return None

    def run_pass(self, index: int, inputs) -> list[Op]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# conjugate: the longest CLI experiment, at its README configuration


def check_conjugate(rows, n_detected: int, n_mode: int, m_max: int,
                    tol: float = 1e-6) -> list[list[Check]]:
    """Checks per conjugate time m = 1..m_max: the detected time lies within
    tol of 2 pi m / n, and the detector found exactly m_max times."""
    detected = {int(r["m"]): float(r["t_detected"]) for r in rows}
    per_time = []
    for m in range(1, m_max + 1):
        t_m = 2 * math.pi * m / n_mode
        gap = abs(detected[m] - t_m) if m in detected else math.inf
        per_time.append([
            Check(f"|t_{m} - 2 pi {m}/{n_mode}|", gap, tol),
            verdict(f"{m_max} conjugate times detected (got {n_detected})",
                    n_detected == m_max),
        ])
    return per_time


class Conjugate(Workload):
    """`baroflow conjugate --n 2 --m-max 3` through `cli.main`.  One op is one
    conjugate time; the detector finds all of a call's times in one
    integration, so each op is given an equal share of the call's time.  The
    seed does not change this workload: its input is fixed by the paper's
    constant geodesic."""

    name = "conjugate"
    sizes = {
        "full": {"n_mode": 2, "m_max": 3, "extra": []},
        "tiny": {"n_mode": 2, "m_max": 1,
                 "extra": ["--n-grid", "16", "--dt", "0.0125"]},
    }

    def run_pass(self, index: int, inputs) -> list[Op]:
        p = self.params
        argv = ["conjugate", "--n", str(p["n_mode"]), "--m-max", str(p["m_max"])]
        self.start_op(0)
        with tempfile.TemporaryDirectory(dir=self.out_dir) as out:
            seconds, code, err, rows, manifest = _cli_call(argv + p["extra"], out)
        share = seconds / p["m_max"]
        labels = [f"conjugate pass {index} t_{m}" for m in range(1, p["m_max"] + 1)]
        if code != 0:
            return [Op(label, share, error=f"exit {code}: {err}", kind="conjugate")
                    for label in labels]
        checks = check_conjugate(rows, manifest["summary"]["n_detected"],
                                 p["n_mode"], p["m_max"])
        return [Op(label, share, c, kind="conjugate") for label, c in zip(labels, checks)]


# ---------------------------------------------------------------------------
# ensemble: many short library runs of unequal length at n = 64

GAMMA3 = polytropic(1.0 / 3.0, 3.0)
GROWTH_LIMIT = 1 + 1e-6
# sup|j_num - j_exact| / (t sup|v0|) at 0.9 of the shock time: about 0.05 at
# worst over 250 data at n = 64, from under-resolving the steepening profile
J_MATCH_TOL = 0.1


def ensemble_datum(key: int, counter: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Band-limited (u0, v0) from Philox(key, counter), built as in the
    acceptance suite's growth-bound test."""
    rng = np.random.Generator(np.random.Philox(key=key, counter=counter))
    x = 2 * np.pi * np.arange(n) / n
    u0 = np.zeros(n)
    v0 = np.zeros(n)
    for k in range(1, 5):
        a, b, c, d = rng.standard_normal(4)
        u0 += 0.3 * (a * np.cos(k * x) + b * np.sin(k * x)) / k
        v0 += c * np.cos(k * x) + d * np.sin(k * x)
    return u0, v0


def check_growth(label: str, ratio: float) -> Check:
    """Pre-shock bound sup|j(t)| <= t sup|v0|, as a ratio."""
    return Check(f"{label} growth ratio", ratio, GROWTH_LIMIT)


def ensemble_op(label: str, n: int, u0v: np.ndarray, v0v: np.ndarray) -> Op:
    """exact_jacobi at 4 times, then integrate_linearized to 0.9 min(T*, 5)."""
    t0 = time.perf_counter()
    try:
        g = CircleGrid(n)
        rho0 = ScalarField(g, np.ones(n))
        u0 = ScalarField(g, u0v)
        inv = burgers.riemann_invariants(u0, rho0)
        tshock = min(burgers.shock_time(inv.alpha_plus),
                     burgers.shock_time(inv.alpha_minus))
        t_end = 0.9 * min(tshock, 5.0)
        v0s = ScalarField(g, v0v)
        exact = [(float(t), burgers.exact_jacobi(u0, rho0, v0s, float(t)))
                 for t in np.linspace(0.2 * t_end, t_end, 4)]
        state = geodesic.barotropic_initializer(VectorField(g, u0v[None]), rho0, GAMMA3)
        dt = min(0.9 * geodesic.cfl_dt_max(state, GAMMA3), 0.02)
        v0 = VectorField(g, v0v[None])
        traj = jacobi.integrate_linearized(state, jacobi.initial_jacobi(v0), GAMMA3,
                                           t_end, dt, store_every=10)
        rep = jacobi.growth_report(traj.times, traj.jstates, v0)
    except BaroflowError as exc:
        return Op(label, time.perf_counter() - t0,
                  error=f"{type(exc).__name__}: {exc}")
    latency = time.perf_counter() - t0
    sup_v0 = float(np.max(np.abs(v0v)))
    closed = max(float(np.max(np.abs(j.values))) / (t * sup_v0) for t, j in exact)
    j_gap = float(np.max(np.abs(traj.jstates[-1].j.values - exact[-1][1].values)))
    return Op(label, latency, [
        check_growth("closed-form", closed),
        check_growth("integrator", rep.max_ratio),
        Check("integrator vs exact_jacobi at t_end", j_gap / (t_end * sup_v0), J_MATCH_TOL),
    ])


def shock_time_estimate(u0: np.ndarray) -> float:
    """1/max(-u0') from u0' sampled 16 times finer than the grid.  With rho0 = 1
    both Riemann invariants have slope u0', so this approximates the shock
    time; it only orders candidate data."""
    n = len(u0)
    slope = np.fft.irfft(1j * np.arange(n // 2 + 1) * np.fft.rfft(u0), 16 * n) * 16
    steepest = -float(np.min(slope))
    return 1.0 / steepest if steepest > 0 else math.inf


class Ensemble(Workload):
    """Seeded random band-limited data at n = 64 (Philox, key = seed, counter
    = stream index).  Pass i draws the next per_pass * CANDIDATES data from
    the stream, orders them by shock time and keeps every CANDIDATES-th, the
    middle one of each slice.  Every pass thus holds one datum from each
    twentieth of the shock-time distribution: op lengths still vary with the
    shock time, but the mix of short and long ops, and so the pass's work, is
    nearly the same in every pass and for every seed."""

    name = "ensemble"
    sizes = {"full": {"n": 64, "per_pass": 20}, "tiny": {"n": 64, "per_pass": 2}}
    tail_percentile = 75.0
    CANDIDATES = 10

    def inputs(self, index: int) -> list[tuple[int, np.ndarray, np.ndarray]]:
        n, k = self.params["n"], self.CANDIDATES
        block = self.params["per_pass"] * k
        first = index * block
        data = [(c, *ensemble_datum(self.seed, c, n)) for c in range(first, first + block)]
        data.sort(key=lambda d: shock_time_estimate(d[1]))
        return data[k // 2::k]

    def run_pass(self, index: int, inputs) -> list[Op]:
        n = self.params["n"]
        ops = []
        for op_id, (counter, u0v, v0v) in enumerate(inputs):
            self.start_op(op_id)
            ops.append(ensemble_op(f"ensemble datum {counter}", n, u0v, v0v))
        return ops


# ---------------------------------------------------------------------------
# spectra: disc spectrum, curvature scans and torus modes; nothing time-steps


def check_disc(rows, manifest) -> list[Check]:
    """Rayleigh bounds lam_1n >= a c_n^2 + b(n^2 + 1), recomputed here with
    scipy's Bessel zeros, and the characteristic cubic y^3 - 3py - 2q = 0
    satisfied by each reported root."""
    par, summary = manifest["parameters"], manifest["summary"]
    omega, c = par["omega"], par["c"]
    b = omega**2 / (2 * c**2)
    a = par["rho0"] - b
    checks = [verdict("library reports all Rayleigh bounds hold",
                      summary["all_bounds_hold"] and not summary["falsifications"])]
    for r in rows:
        n, lam = int(r["n"]), float(r["lam"])
        if int(r["k"]) == 1:
            c_n = float(special.jn_zeros(n, 1)[0])
            checks.append(Check(f"Rayleigh bound n={n}",
                                a * c_n**2 + b * (n**2 + 1), lam + 1e-9))
        p = (c**2 * lam + 4 * omega**2) / 3.0
        q = n * omega**3
        scale = (2 * math.sqrt(p)) ** 3  # the roots lie in [-2 sqrt(p), 2 sqrt(p)]
        for key in ("y1", "y2", "y3"):
            y = float(r[key])
            checks.append(Check(f"cubic residual n={n} k={r['k']} {key}",
                                abs(y**3 - 3 * p * y - 2 * q), 1e-12 * scale))
    return checks


def check_curvature(rows, manifest) -> list[Check]:
    """Total curvature >= -1e-10 on every trial for gamma <= 3."""
    totals = [float(r["total"]) for r in rows]
    return [Check("min_total >= -1e-10", -min(totals), 1e-10),
            verdict("manifest min_total matches the CSV",
                    manifest["summary"]["min_total"] == min(totals))]


def check_torus(rows, manifest) -> list[Check]:
    """Gradient data stay below the series bound; divergence-free data
    (-sin y, 0) grow as t sup_i |sin(y_i - omega t)| exactly."""
    par, summary = manifest["parameters"], manifest["summary"]
    kind, n_grid, omega = par["kind"], par["n_grid"], par["omega"]
    t = np.array([float(r["t"]) for r in rows])
    sup_j = np.array([float(r["sup_j"]) for r in rows])
    if kind == "gradient":
        return [verdict("gradient data classified bounded", summary["bounded"] is True),
                Check("sup|j| <= series bound", float(np.max(sup_j)),
                      summary["series_bound"] * (1 + 1e-12))]
    y = 2 * np.pi * np.arange(n_grid) / n_grid
    expect = t * np.max(np.abs(np.sin(y[None, :] - omega * t[:, None])), axis=1)
    return [verdict("divergence-free data classified unbounded", summary["bounded"] is False),
            Check("sup|j| = t sup|sin(y - omega t)|", float(np.max(np.abs(sup_j - expect))),
                  1e-12 * max(1.0, float(np.max(t))))]


class Spectra(Workload):
    """disc-spectrum, curvature-scan at gamma = 2 and 3 (seed = workload
    seed), and torus-modes with gradient and divergence-free data, all
    through `cli.main`.  One op is one CLI call."""

    name = "spectra"
    sizes = {
        "full": {"disc": ["--n-max", "16", "--k-max", "12"],
                 "scan": ["--trials", "200"], "torus_grid": 128},
        "tiny": {"disc": ["--n-max", "2", "--k-max", "2", "--n-nodes", "40"],
                 "scan": ["--trials", "4", "--n-grid", "16"], "torus_grid": 16},
    }
    tail_percentile = 65.0

    def _calls(self):
        p = self.params
        torus = ["--n-grid", str(p["torus_grid"])]
        yield ["disc-spectrum"] + p["disc"], check_disc
        for gamma in ("2", "3"):
            argv = ["curvature-scan", "--gamma", gamma, "--seed", str(self.seed)]
            yield argv + p["scan"], check_curvature
        for kind in ("gradient", "divfree"):
            yield ["torus-modes", "--kind", kind] + torus, check_torus

    def run_pass(self, index: int, inputs) -> list[Op]:
        ops = []
        for op_id, (argv, check) in enumerate(self._calls()):
            self.start_op(op_id)
            kind = " ".join(argv[:3])
            label = f"spectra pass {index} {kind}"
            with tempfile.TemporaryDirectory(dir=self.out_dir) as out:
                seconds, code, err, rows, manifest = _cli_call(argv, out)
            if code != 0:
                ops.append(Op(label, seconds, error=f"exit {code}: {err}", kind=kind))
            else:
                ops.append(Op(label, seconds, check(rows, manifest), kind=kind))
        return ops


WORKLOADS = {w.name: w for w in (Conjugate, Ensemble, Spectra)}
