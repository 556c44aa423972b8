"""Batch experiment runner: named experiments over the library modules with
key=value config files, flag overrides, and CSV + JSON manifest outputs.

Seeded experiments use the counter-based Philox generator (numpy
np.random.Philox, key=seed, counter=trial index), so streams are reproducible
across runs and portable to other Philox implementations.  Exit codes: 0 on
success, 1 on numerical failure (shock reached, instability flag, vacuum), 2
on usage or validation errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import time
from decimal import Decimal, InvalidOperation
from typing import Callable, NamedTuple

import numpy as np
import scipy

from . import __version__, burgers, disc, geodesic, geometry, jacobi, torus
from .errors import BaroflowError, DomainError, _check_scalar
from .grids import CircleGrid, ScalarField, TorusGrid, VectorField, grad, inner, integrate
from .pressure import polytropic


class ValidationError(Exception):
    """Invalid experiment parameters; carries the violated bound."""


def integer(text: str) -> int:
    """Parse an integer flag or config value exactly: "3", "3.0" and "1e3"
    parse; a fraction, "inf", "nan", "1/2" and a number of more than 4300
    digits (Python's own cap on int(str)) raise ValueError."""
    try:
        number = Decimal(text)
    except InvalidOperation:
        raise ValueError(f"not a number: {text!r}") from None
    if not number.is_finite() or number.adjusted() > 4300 \
            or number != number.to_integral_value():
        raise ValueError(f"not an integer: {text!r}")
    return int(number)


class Param(NamedTuple):
    """One value an experiment run can be given: its parser (float, integer
    or str) for flags and config values, default, --help text, and bounds.
    An integer lies in [low, high]; a float is finite and lies in
    (low, high]."""

    parse: Callable[[str], object]
    default: object
    help: str
    low: float | None = None
    high: float | None = None


# Each integer that sizes an array or a loop, and the mode number (which must
# convert to a float), is capped far above every README and preset value, so
# that a huge value is rejected before anything is allocated.
PARAMS = {
    "gamma": Param(float, 3.0, "adiabatic exponent", low=1),
    "a_coeff": Param(float, 1.0 / 3.0, "polytropic coefficient A in p = A rho^gamma", low=0),
    "omega": Param(float, 1.0, "background angular velocity"),
    "c": Param(float, 1.0, "sound speed scale", low=0),
    "rho0": Param(float, 1.0, "background density", low=0),
    "n_grid": Param(integer, 128, "grid points per period", 8, 2048),
    "n_nodes": Param(integer, 400, "radial nodes on the disc", 16, 100_000),
    "n_mode": Param(integer, 2, "azimuthal or Fourier mode number n", -1000, 1000),
    "m_max": Param(integer, 2, "number of conjugate times to report", 1, 100),
    "k_max": Param(integer, 12, "radial eigenmodes per azimuthal mode", 1),
    "n_max": Param(integer, 16, "largest azimuthal mode", 0, disc.BESSEL_MAX_ORDER),
    "amplitude": Param(float, 0.5, "initial data amplitude"),
    "trials": Param(integer, 200, "number of random trials", 1, 100_000),
    "dt": Param(float, 0.01, "time step", low=0),
    "t_end": Param(float, 1.0, "final time", low=0),
    "n_samples": Param(integer, 50, "number of output samples", 1, 10_000),
    "seed": Param(integer, 0, "64-bit unsigned RNG seed", 0, 2**64 - 1),
    "kind": Param(str, "gradient", "torus perturbation kind: gradient | divfree | mixed"),
    "output_dir": Param(str, ".", "output directory, made if missing"),
}

# Steps per run (run time / dt): a longer run would never finish, so never exit.
# The largest README or preset run takes 1,985; conjugate --n 1 --m-max 100, 62,882.
MAX_STEPS = 10**6


class ExperimentConfig:
    """Everything an experiment run needs: one attribute per PARAMS entry,
    at its default unless given."""

    def __init__(self, experiment: str, **values):
        self.experiment = experiment
        for key, param in PARAMS.items():
            setattr(self, key, values.pop(key, param.default))
        if values:
            raise TypeError(f"ExperimentConfig has no parameters {sorted(values)}")

    def validate(self) -> None:
        if self.kind not in ("gradient", "divfree", "mixed"):
            raise ValidationError(f"kind must be gradient, divfree, or mixed, got {self.kind!r}")
        try:
            for key, param in PARAMS.items():  # not `is integer`: a tracer may wrap it
                if param.parse is not str:
                    _check_scalar(key.replace("_", "-"), getattr(self, key), param.low,
                                  param.high, integer=param.parse is not float)
            if self.n_grid % 2:
                raise ValidationError(f"n-grid must be even, got {self.n_grid}")
            _check_scalar("k-max", self.k_max, 1, self.n_nodes - 1, integer=True)
            # v0 = cos(n x) must lie below the Nyquist mode n-grid / 2, which
            # has no derivative; a conjugate time needs n >= 1
            nyquist = self.n_grid // 2
            if self.experiment in ("conjugate", "jacobi"):
                low = 1 if self.experiment == "conjugate" else 1 - nyquist
                _check_scalar("n-mode", self.n_mode, low, nyquist - 1, integer=True)
            if self.experiment in ("geodesic", "jacobi", "conjugate"):
                _check_scalar("run time / dt", self.run_time / self.dt, 0, MAX_STEPS)
        except DomainError as exc:
            raise ValidationError(str(exc)) from None

    def params(self) -> dict:
        """The parameters this experiment reads, by name."""
        return {k: getattr(self, k) for k in EXPERIMENTS[self.experiment].params}

    @property
    def run_time(self) -> float:
        """t-end, or for conjugate 0.5 past the last conjugate time it looks for."""
        return (burgers.conjugate_times(self.n_mode, self.m_max)[-1] + 0.5
                if self.experiment == "conjugate" else self.t_end)


def parse_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc.reason}") from exc
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if key in values:
            raise ValidationError(f"{path}:{lineno}: parameter {key!r} given twice")
        values[key] = val.strip()
    return values


def _failure(exc: BaroflowError, experiment: str) -> dict:
    """A numerical failure's exit-1 JSON, which a failed manifest keeps too."""
    return {"error": type(exc).__name__, "message": str(exc), "experiment": experiment,
            "t": exc.t, "step": exc.step, "guard": exc.guard}


def write_outputs(cfg: ExperimentConfig, run, t0: tuple[float, float]) -> tuple[str, str]:
    """The one writer: the rows of the experiment's generator `run` (header
    first, summary returned) go to <experiment>.csv as they come, then the
    manifest.  What ends a run before its header opens no file; a BaroflowError
    after it keeps the rows, writes a failed manifest and is raised again."""
    header = next(run)
    base = os.path.join(cfg.output_dir, cfg.experiment)
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
        manifest_fh, fh = open(base + "_manifest.json", "w"), open(base + ".csv", "w", newline="")
    except OSError as exc:
        raise ValidationError(f"cannot write output {exc.filename}: {exc.strerror}") from exc
    failure = None
    with fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        try:
            while True:
                writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in next(run)])
        except StopIteration as done:
            # JSON has no NaN or infinity: a summary value that does not exist
            # (no conjugate time detected, no shock) is written as null
            outcome = {"status": "ok", "summary": {
                k: None if isinstance(v, float) and not math.isfinite(v) else v
                for k, v in done.value.items()}}
        except BaroflowError as exc:
            failure, outcome = exc, {"status": "failed", "error": _failure(exc, cfg.experiment)}
    manifest = {
        "experiment": cfg.experiment,
        "parameters": cfg.params(),
        "versions": {"baroflow": __version__, "numpy": np.__version__,
                     "python": sys.version.split()[0], "scipy": scipy.__version__},
        **outcome,
        "cpu_time_s": time.process_time() - t0[1],
        "wall_time_s": time.perf_counter() - t0[0],
    }
    if "seed" in manifest["parameters"]:  # only a seeded experiment draws
        manifest["rng"] = "Philox (counter-based; key=seed, counter=trial index)"
    with manifest_fh:
        json.dump(manifest, manifest_fh, indent=2, sort_keys=True, allow_nan=False)
        manifest_fh.write("\n")
    if failure is not None:
        raise failure
    return fh.name, manifest_fh.name


# ---------------------------------------------------------------------------
# Experiments.  Each runner is a generator: its usage checks and inputs, then
# its CSV header, then each row as soon as it exists; it returns its summary.


def _sine_background(cfg: ExperimentConfig):
    model = polytropic(cfg.a_coeff, cfg.gamma)
    g = CircleGrid(cfg.n_grid)
    u0 = VectorField(g, (cfg.amplitude * np.sin(g.x))[None])
    state = geodesic.barotropic_initializer(u0, ScalarField(g, np.full(g.n, cfg.rho0)), model)
    _check_dt(cfg, state, model)
    return state, g, model, max(1, int(np.ceil(cfg.t_end / cfg.dt)) // cfg.n_samples)


def _check_dt(cfg: ExperimentConfig, state, model) -> None:
    """A --dt above the CFL bound of the initial state is a usage error."""
    bound = geodesic.cfl_dt_max(state, model)
    if cfg.dt > bound:
        raise ValidationError(f"dt must not exceed the CFL bound {bound:.6g} of the "
                              f"initial state, got {cfg.dt}")


def run_geodesic(cfg: ExperimentConfig):
    state, g, model, store = _sine_background(cfg)
    yield ["t", "energy", "min_rho", "max_speed", "min_jacobian"]
    energies = []
    for t, st, fm, _ in geodesic._samples(state, model, cfg.t_end, cfg.dt, store):
        energies.append(geodesic.energy(st, model))
        yield [t, energies[-1], float(np.min(st.rho.values)),
               float(np.max(np.abs(st.u.values))),
               float(np.min(np.asarray(fm.jacobian())))]
    return {"energy_drift": geodesic.energy_drift(energies), "final_time": t,
            "n_rows": len(energies)}


def run_jacobi(cfg: ExperimentConfig):
    state, g, model, store = _sine_background(cfg)
    v0 = VectorField(g, np.cos(cfg.n_mode * g.x)[None])
    yield ["t", "sup_j", "l2_j", "constraint_residual"]
    times, jstates = [], []
    for t, st, _, js in geodesic._samples(state, model, cfg.t_end, cfg.dt, store,
                                          jacobi.initial_jacobi(v0)):
        times.append(t)
        jstates.append(js)
        yield [t, float(np.max(np.abs(js.j.values))),
               float(np.sqrt(integrate(inner(js.j, js.j)))),
               jacobi.constraint_residual(js, st)]
    rep = jacobi.growth_report(times, jstates, v0)
    return {"max_growth_ratio": rep.max_ratio, "growth_rate": rep.growth_rate,
            "n_rows": len(times)}


def run_burgers_exact(cfg: ExperimentConfig):
    g = CircleGrid(cfg.n_grid)
    u0 = ScalarField(g, cfg.amplitude * np.sin(g.x))
    rho0 = ScalarField(g, np.full(g.n, cfg.rho0))
    yield ["t", "x", "u", "rho"]
    inv = burgers.riemann_invariants(u0, rho0)
    tshock = min(burgers.shock_time(inv.alpha_plus), burgers.shock_time(inv.alpha_minus))
    t_end = min(cfg.t_end, 0.95 * tshock)
    for t in np.linspace(0.0, t_end, cfg.n_samples):
        st = burgers.exact_state(u0, rho0, float(t))
        for x, uv, rv in zip(g.x, st.u.values[0], st.rho.values):
            yield [float(t), float(x), float(uv), float(rv)]
    return {"shock_time": tshock, "sampled_until": t_end}


def run_conjugate(cfg: ExperimentConfig):
    model = polytropic(1.0 / 3.0, 3.0)
    g = CircleGrid(cfg.n_grid)
    state = geodesic.barotropic_initializer(
        VectorField(g, np.ones((1, g.n))), ScalarField(g, np.ones(g.n)), model)
    _check_dt(cfg, state, model)
    v0 = VectorField(g, np.cos(cfg.n_mode * g.x)[None])
    yield ["m", "t_theory", "t_detected", "gap"]
    expect = burgers.conjugate_times(cfg.n_mode, cfg.m_max)
    zeros = jacobi.detect_conjugate_times(state, v0, model, t_max=cfg.run_time, dt=cfg.dt)
    gaps = []
    for m, t_theory in enumerate(expect, 1):
        detected = min(zeros, key=lambda z: abs(z - t_theory)) if zeros else float("nan")
        gaps.append(abs(detected - t_theory))
        yield [m, t_theory, detected, gaps[-1]]
    return {"max_gap": max(gaps), "n_detected": len(zeros)}


def run_curvature_scan(cfg: ExperimentConfig):
    model = polytropic(cfg.a_coeff, cfg.gamma)
    yield ["trial", "total", "term_div", "term_Q", "term_grad"]
    least, n_negative, coef_min = (math.inf, 0), 0, math.inf  # least: (total, trial)
    for start, terms, block_coef_min in geometry.curvature_sign_scan_1d(
            model, cfg.trials, cfg.seed, n=cfg.n_grid):
        k = int(np.argmin(terms[:, 3]))
        least = min(least, (float(terms[k, 3]), start + k))  # a tie keeps the first trial
        n_negative += int(np.sum(terms[:, 3] < 0))
        coef_min = min(coef_min, block_coef_min)
        for i, (term_div, term_Q, term_grad, total) in enumerate(terms.tolist(), start):
            yield [i, total, term_div, term_Q, term_grad]
    return {"min_total": least[0], "argmin": least[1], "n_negative": n_negative,
            "coef_min": coef_min, "gamma": cfg.gamma}


def _torus_perturbation(cfg: ExperimentConfig) -> VectorField:
    g = TorusGrid(cfg.n_grid, cfg.n_grid)
    X, Y = g.mesh
    gradient = grad(ScalarField(g, np.sin(2 * X) + np.cos(3 * Y))).values
    divfree = np.stack([-np.sin(Y), np.zeros(g.shape)])
    if cfg.kind == "gradient":
        return VectorField(g, gradient)
    if cfg.kind == "divfree":
        return VectorField(g, divfree)
    return VectorField(g, gradient + cfg.amplitude * divfree)


def run_torus_modes(cfg: ExperimentConfig):
    yield ["t", "sup_j"]
    # v0 and its parts go once synthesized: the sample loop holds only the
    # solution and its half-spectrum cache
    sol = torus.synthesize(_torus_perturbation(cfg), cfg.omega, cfg.c)
    rep = torus.classify_boundedness(sol)
    for t in np.linspace(0.0, cfg.t_end, cfg.n_samples):
        jx, jy = sol.j_at(float(t)).values
        sq = np.max(jx**2 + jy**2)  # may overflow where |j| does not
        yield [float(t), float(np.sqrt(sq) if np.isfinite(sq) else np.max(np.hypot(jx, jy)))]
    return {"bounded": rep.bounded, "w_norm": rep.w_norm, "series_bound": rep.series_bound}


def run_disc_spectrum(cfg: ExperimentConfig):
    bg = disc.DiscBackground(cfg.omega, cfg.c, cfg.rho0)
    yield ["n", "k", "lam", "y1", "y2", "y3", "discriminant_margin"]
    lam1, margins = [], []
    for n in range(0, cfg.n_max + 1):
        lams = disc.sturm_liouville_eigs(bg, n, cfg.k_max, cfg.n_nodes).tolist()
        lam1.append(lams[0])
        for k, lam in enumerate(lams, 1):
            p, q = disc.characteristic_cubic_pq(lam, n, cfg.omega, cfg.c)
            margins.append(p**3 - q**2)  # finite: characteristic_cubic_pq checks it
            yield [n, k, lam, *disc.characteristic_roots(lam, n, cfg.omega, cfg.c), margins[-1]]
    bounds = disc.rayleigh_bound_check(bg, lam1)
    return {"all_bounds_hold": bounds.all_hold, "falsifications": bounds.falsifications,
            "min_discriminant_margin": min(margins)}


class Experiment(NamedTuple):
    """An experiment's runner and the ExperimentConfig fields it reads: the
    only flags and config keys it accepts, and the manifest's parameters."""

    run: Callable
    params: tuple[str, ...]


_SINE = ("gamma", "a_coeff", "rho0", "n_grid", "amplitude", "dt", "t_end", "n_samples")

EXPERIMENTS = {
    "geodesic": Experiment(run_geodesic, _SINE),
    "jacobi": Experiment(run_jacobi, _SINE + ("n_mode",)),
    "burgers-exact": Experiment(run_burgers_exact,
                                ("rho0", "n_grid", "amplitude", "t_end", "n_samples")),
    "conjugate": Experiment(run_conjugate, ("n_grid", "n_mode", "m_max", "dt")),
    "curvature-scan": Experiment(run_curvature_scan,
                                 ("gamma", "a_coeff", "n_grid", "trials", "seed")),
    "torus-modes": Experiment(run_torus_modes, ("omega", "c", "n_grid", "amplitude",
                                                "t_end", "n_samples", "kind")),
    "disc-spectrum": Experiment(run_disc_spectrum,
                                ("omega", "c", "rho0", "n_nodes", "k_max", "n_max")),
}


# ---------------------------------------------------------------------------
# Argument handling


def _report_error(payload: dict, code: int) -> int:
    """Write one JSON object to stderr; return the exit code."""
    json.dump(payload, sys.stderr)
    sys.stderr.write("\n")
    return code


class _JsonArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as one JSON object on stderr, exit code 2."""

    def error(self, message):
        sys.exit(_report_error({"error": "usage", "message": f"{self.prog}: {message}"}, 2))


class _Once(argparse.Action):
    """Stores a flag's value; a second flag for the same value is a usage error."""

    def __call__(self, parser, namespace, value, option_string=None):
        if getattr(namespace, self.dest) is not None:
            parser.error(f"argument {'/'.join(self.option_strings)}: given twice")
        setattr(namespace, self.dest, value)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: every call returns the
    same parser, which keeps no state between parses."""
    parser = _JsonArgumentParser(
        prog="baroflow",
        description="Batch experiments for barotropic-flow geometry.")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, experiment in EXPERIMENTS.items():
        # no abbreviations: --n must not silently become --n-grid where
        # the experiment has no mode number
        p = sub.add_parser(name, help=f"run the {name} experiment", allow_abbrev=False)
        p.add_argument("--config", help="key=value config file; flags override it", action=_Once)
        for key in ("output_dir",) + experiment.params:
            flags = ["--" + key.replace("_", "-")] + (["--n"] if key == "n_mode" else [])
            p.add_argument(*flags, dest=key, type=PARAMS[key].parse, help=PARAMS[key].help,
                           action=_Once)
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    accepted = ("output_dir",) + EXPERIMENTS[args.experiment].params
    given = {}
    if args.config:
        for key, text in parse_config_file(args.config).items():
            if key not in accepted:
                raise ValidationError(f"{args.config}: {args.experiment} has no "
                                      f"parameter {key!r}")
            try:
                given[key] = PARAMS[key].parse(text)
            except ValueError as exc:
                raise ValidationError(f"cannot parse {key}={text!r} as "
                                      f"{PARAMS[key].parse.__name__}") from exc
    given.update((key, getattr(args, key)) for key in accepted
                 if getattr(args, key) is not None)
    cfg = ExperimentConfig(args.experiment, **given)
    cfg.validate()
    # torus-modes reads the amplitude only to scale the divergence-free part
    # of mixed data; anywhere else a given amplitude would be ignored
    if cfg.experiment == "torus-modes" and "amplitude" in given and cfg.kind != "mixed":
        raise ValidationError(f"amplitude applies to kind 'mixed' only, got kind {cfg.kind!r}")
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter(), time.process_time()
    try:
        # the guards test finiteness: numpy's warnings would only print noise
        with np.errstate(all="ignore"):
            cfg = config_from_args(args)
            csv_path, json_path = write_outputs(cfg, EXPERIMENTS[cfg.experiment].run(cfg), t0)
    except ValidationError as exc:
        return _report_error({"error": "validation", "message": str(exc)}, 2)
    except BaroflowError as exc:
        return _report_error(_failure(exc, args.experiment), 1)
    print(f"wrote {csv_path} and {json_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
