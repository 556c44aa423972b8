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
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__, burgers, disc, geodesic, geometry, jacobi, torus
from .errors import BaroflowError
from .grids import CircleGrid, ScalarField, TorusGrid, VectorField, grad, inner, integrate
from .pressure import polytropic

OUTPUT_DIR_ENV = "BAROFLOW_OUTPUT_DIR"


class ValidationError(Exception):
    """Invalid experiment parameters; carries the violated bound."""


@dataclass
class ExperimentConfig:
    """Everything an experiment run needs; unset fields keep their defaults."""

    experiment: str
    gamma: float = 3.0
    a_coeff: float = 1.0 / 3.0
    omega: float = 1.0
    c: float = 1.0
    rho0: float = 1.0
    n_grid: int = 128
    n_nodes: int = 400
    n_mode: int = 2
    m_max: int = 2
    k_max: int = 12
    n_max: int = 16
    amplitude: float = 0.5
    trials: int = 200
    dt: float = 0.01
    t_end: float = 1.0
    n_samples: int = 50
    seed: int = 0
    kind: str = "gradient"
    output_dir: str = "."

    def validate(self) -> None:
        for key, value in self.__dict__.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValidationError(f"{key.replace('_', '-')} must be finite, got {value}")
        checks = [
            (self.gamma > 1.0, f"gamma must exceed 1, got {self.gamma}"),
            (self.a_coeff > 0, f"a-coeff must be positive, got {self.a_coeff}"),
            (self.c > 0, f"c must be positive, got {self.c}"),
            (self.rho0 > 0, f"rho0 must be positive, got {self.rho0}"),
            (self.n_grid >= 8, f"n-grid must be at least 8, got {self.n_grid}"),
            (self.n_grid % 2 == 0, f"n-grid must be even, got {self.n_grid}"),
            (self.n_nodes >= 16, f"n-nodes must be at least 16, got {self.n_nodes}"),
            (self.m_max >= 1, f"m-max must be at least 1, got {self.m_max}"),
            (self.k_max >= 1, f"k-max must be at least 1, got {self.k_max}"),
            (self.n_max >= 0, f"n-max must be nonnegative, got {self.n_max}"),
            (self.trials >= 1, f"trials must be at least 1, got {self.trials}"),
            (self.dt > 0, f"dt must be positive, got {self.dt}"),
            (self.t_end > 0, f"t-end must be positive, got {self.t_end}"),
            (self.n_samples >= 1, f"n-samples must be at least 1, got {self.n_samples}"),
            (0 <= self.seed < 2**64, f"seed must be a 64-bit unsigned integer, got {self.seed}"),
            (self.kind in ("gradient", "divfree", "mixed"),
             f"kind must be gradient, divfree, or mixed, got {self.kind!r}"),
        ]
        for ok, message in checks:
            if not ok:
                raise ValidationError(message)

    def params(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "output_dir"}


def parse_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _coerce(name: str, value, target):
    if isinstance(value, str) and not isinstance(target, str):
        try:
            value = type(target)(float(value)) if isinstance(target, int) else type(target)(value)
        except (ValueError, OverflowError) as exc:
            raise ValidationError(f"cannot parse {name}={value!r}") from exc
    return value


def write_outputs(cfg: ExperimentConfig, header: list[str], rows: list[list],
                  summary: dict, t0: float) -> tuple[str, str]:
    out_dir = os.environ.get(OUTPUT_DIR_ENV, cfg.output_dir)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{cfg.experiment}.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
    manifest = {
        "experiment": cfg.experiment,
        "parameters": cfg.params(),
        "rng": "Philox (counter-based; key=seed, counter=trial index)",
        "versions": {
            "baroflow": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "summary": summary,
        "wall_time_s": time.perf_counter() - t0,
    }
    json_path = os.path.join(out_dir, f"{cfg.experiment}_manifest.json")
    with open(json_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path


# ---------------------------------------------------------------------------
# Experiments


def _sine_background(cfg: ExperimentConfig):
    model = polytropic(cfg.a_coeff, cfg.gamma)
    g = CircleGrid(cfg.n_grid)
    u0 = VectorField(g, (cfg.amplitude * np.sin(g.x))[None])
    rho0 = ScalarField(g, np.full(g.n, cfg.rho0))
    return geodesic.barotropic_initializer(u0, rho0, model), g, model


def run_geodesic(cfg: ExperimentConfig):
    state, g, model = _sine_background(cfg)
    store = max(1, int(np.ceil(cfg.t_end / cfg.dt)) // cfg.n_samples)
    traj = geodesic.integrate_geodesic(state, model, cfg.t_end, cfg.dt,
                                       store_every=store)
    rows = []
    for t, st, fm, en in zip(traj.times, traj.states, traj.flowmaps, traj.energies):
        rows.append([t, en, float(np.min(st.rho.values)),
                     float(np.max(np.abs(st.u.values))),
                     float(np.min(np.asarray(fm.jacobian())))])
    summary = {"energy_drift": traj.energy_drift(),
               "final_time": traj.times[-1]}
    return ["t", "energy", "min_rho", "max_speed", "min_jacobian"], rows, summary


def run_jacobi(cfg: ExperimentConfig):
    state, g, model = _sine_background(cfg)
    v0 = VectorField(g, np.cos(cfg.n_mode * g.x)[None])
    store = max(1, int(np.ceil(cfg.t_end / cfg.dt)) // cfg.n_samples)
    traj = jacobi.integrate_linearized(state, jacobi.initial_jacobi(v0), model,
                                       cfg.t_end, cfg.dt, store_every=store)
    rep = jacobi.growth_report(traj.times, traj.jstates, v0)
    rows = []
    for t, js, st in zip(traj.times, traj.jstates, traj.states):
        sup = float(np.max(np.abs(js.j.values)))
        l2 = float(np.sqrt(integrate(inner(js.j, js.j))))
        rows.append([t, sup, l2, jacobi.constraint_residual(js, st)])
    summary = {"max_growth_ratio": rep.max_ratio, "growth_rate": rep.growth_rate}
    return ["t", "sup_j", "l2_j", "constraint_residual"], rows, summary


def run_burgers_exact(cfg: ExperimentConfig):
    g = CircleGrid(cfg.n_grid)
    u0 = ScalarField(g, cfg.amplitude * np.sin(g.x))
    rho0 = ScalarField(g, np.full(g.n, cfg.rho0))
    inv = burgers.riemann_invariants(u0, rho0)
    tshock = min(burgers.shock_time(inv.alpha_plus),
                 burgers.shock_time(inv.alpha_minus))
    t_end = min(cfg.t_end, 0.95 * tshock)
    rows = []
    for t in np.linspace(0.0, t_end, cfg.n_samples):
        st = burgers.exact_state(u0, rho0, float(t))
        for x, uv, rv in zip(g.x, st.u.values[0], st.rho.values):
            rows.append([float(t), float(x), float(uv), float(rv)])
    summary = {"shock_time": tshock, "sampled_until": t_end}
    return ["t", "x", "u", "rho"], rows, summary


def run_conjugate(cfg: ExperimentConfig):
    model = polytropic(1.0 / 3.0, 3.0)
    g = CircleGrid(cfg.n_grid)
    state = geodesic.barotropic_initializer(
        VectorField(g, np.ones((1, g.n))), ScalarField(g, np.ones(g.n)), model)
    v0 = VectorField(g, np.cos(cfg.n_mode * g.x)[None])
    expect = burgers.conjugate_times(cfg.n_mode, cfg.m_max)
    t_max = expect[-1] + 0.5
    zeros = jacobi.detect_conjugate_times(state, v0, model, t_max=t_max, dt=cfg.dt)
    rows = []
    gaps = []
    for m, t_theory in enumerate(expect, 1):
        detected = min(zeros, key=lambda z: abs(z - t_theory)) if zeros else float("nan")
        gap = abs(detected - t_theory)
        gaps.append(gap)
        rows.append([m, t_theory, detected, gap])
    summary = {"max_gap": max(gaps), "n_detected": len(zeros)}
    return ["m", "t_theory", "t_detected", "gap"], rows, summary


def run_curvature_scan(cfg: ExperimentConfig):
    model = polytropic(cfg.a_coeff, cfg.gamma)
    report = geometry.curvature_sign_scan_1d(model, cfg.trials, cfg.seed,
                                             n=cfg.n_grid)
    rows = [[tr.index, tr.total, tr.term_div, tr.term_Q, tr.term_grad]
            for tr in report.trials]
    summary = {"min_total": report.min_total,
               "argmin": report.argmin,
               "n_negative": int(sum(tr.total < 0 for tr in report.trials)),
               "gamma": cfg.gamma}
    return ["trial", "total", "term_div", "term_Q", "term_grad"], rows, summary


def run_torus_modes(cfg: ExperimentConfig):
    g = TorusGrid(cfg.n_grid, cfg.n_grid)
    X, Y = g.mesh
    gradient = grad(ScalarField(g, np.sin(2 * X) + np.cos(3 * Y))).values
    divfree = np.stack([-np.sin(Y), np.zeros(g.shape)])
    if cfg.kind == "gradient":
        vals = gradient
    elif cfg.kind == "divfree":
        vals = divfree
    else:
        vals = gradient + cfg.amplitude * divfree
    v0 = VectorField(g, vals)
    rep = torus.classify_boundedness(v0, c=cfg.c)
    sol = torus.synthesize(v0, cfg.omega, cfg.c)
    rows = []
    for t in np.linspace(0.0, cfg.t_end, cfg.n_samples):
        jt = sol.j_at(float(t))
        rows.append([float(t), float(np.max(np.sqrt(np.sum(jt.values**2, axis=0))))])
    summary = {"bounded": rep.bounded, "w_norm": rep.w_norm,
               "series_bound": rep.series_bound}
    return ["t", "sup_j"], rows, summary


def run_disc_spectrum(cfg: ExperimentConfig):
    bg = disc.DiscBackground(cfg.omega, cfg.c, cfg.rho0)
    rows = []
    min_margin = float("inf")
    for n in range(0, cfg.n_max + 1):
        pairs = disc.sturm_liouville_eigs(bg, n, cfg.k_max, cfg.n_nodes)
        for pair in pairs:
            p, q = disc.characteristic_cubic_pq(pair.lam, n, cfg.omega, cfg.c)
            roots = disc.characteristic_roots(pair.lam, n, cfg.omega, cfg.c)
            margin = p**3 - q**2
            min_margin = min(min_margin, margin)
            rows.append([n, pair.k, pair.lam, roots[0], roots[1], roots[2], margin])
    bounds = disc.rayleigh_bound_check(bg, cfg.n_max, cfg.n_nodes)
    summary = {"all_bounds_hold": bounds.all_hold,
               "falsifications": bounds.falsifications,
               "min_discriminant_margin": min_margin}
    return ["n", "k", "lam", "y1", "y2", "y3", "discriminant_margin"], rows, summary


EXPERIMENTS = {
    "geodesic": run_geodesic,
    "jacobi": run_jacobi,
    "burgers-exact": run_burgers_exact,
    "conjugate": run_conjugate,
    "curvature-scan": run_curvature_scan,
    "torus-modes": run_torus_modes,
    "disc-spectrum": run_disc_spectrum,
}


# ---------------------------------------------------------------------------
# Argument handling


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="baroflow",
        description="Batch experiments for barotropic-flow geometry.")
    sub = parser.add_subparsers(dest="experiment", required=True)
    flag_specs = {
        "gamma": (float, "adiabatic exponent"),
        "a_coeff": (float, "polytropic coefficient A in p = A rho^gamma"),
        "omega": (float, "background angular velocity"),
        "c": (float, "sound speed scale"),
        "rho0": (float, "background density"),
        "n_grid": (int, "grid points per period"),
        "n_nodes": (int, "radial nodes on the disc"),
        "n_mode": (int, "azimuthal or Fourier mode number n"),
        "m_max": (int, "number of conjugate times to report"),
        "k_max": (int, "radial eigenmodes per azimuthal mode"),
        "n_max": (int, "largest azimuthal mode"),
        "amplitude": (float, "initial data amplitude"),
        "trials": (int, "number of random trials"),
        "dt": (float, "time step"),
        "t_end": (float, "final time"),
        "n_samples": (int, "number of output samples"),
        "seed": (int, "64-bit unsigned RNG seed"),
        "kind": (str, "torus perturbation kind: gradient | divfree | mixed"),
    }
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="key=value config file; flags override it")
        p.add_argument("--output-dir", dest="output_dir", default=None,
                       help=f"output directory (overridden by ${OUTPUT_DIR_ENV})")
        for key, (typ, help_text) in flag_specs.items():
            flag = "--" + key.replace("_", "-")
            if key == "n_mode":
                p.add_argument(flag, "--n", dest=key, type=typ, default=None,
                               help=help_text)
            else:
                p.add_argument(flag, dest=key, type=typ, default=None, help=help_text)
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig(experiment=args.experiment)
    if args.config:
        for key, val in parse_config_file(args.config).items():
            if key not in cfg.__dict__ or key == "experiment":
                raise ValidationError(f"{args.config}: unknown key {key!r}")
            setattr(cfg, key, _coerce(key, val, getattr(cfg, key)))
    for key in cfg.__dict__:
        flag_val = getattr(args, key, None)
        if flag_val is not None and key != "experiment":
            setattr(cfg, key, flag_val)
    cfg.validate()
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        cfg = config_from_args(args)
    except ValidationError as exc:
        json.dump({"error": "validation", "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    try:
        header, rows, summary = EXPERIMENTS[cfg.experiment](cfg)
    except BaroflowError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc),
                   "experiment": cfg.experiment}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    csv_path, json_path = write_outputs(cfg, header, rows, summary, t0)
    print(f"wrote {csv_path} and {json_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
