"""baroflow benchmark: time to a verified result on one workload.

    python3 perfbench/run.py --workload conjugate --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  With ``--trace 0`` the end-to-end metrics are measured,
the pass time as a multiple of a reference kernel timed during the pass
(see `Yardstick`); with ``--trace 1`` the same passes run alternately
untraced and traced, and the per-layer metrics come from the first traced
pass.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every op met its oracle; failed ops are named on standard error.  Results, the environment
and (traced) the spans are written to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def seed_arg(text: str) -> int:
    seed = int(text)
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("conjugate", "ensemble", "spectra"))
    parser.add_argument("--seed", type=seed_arg, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Measurement


def tail(latencies: list[float], percentile: float) -> tuple[float, int]:
    """The given percentile of the latencies and how many lie beyond it."""
    import numpy as np  # not at module level: main() times the first import

    value = float(np.percentile(latencies, percentile))
    return value, sum(x > value for x in latencies)


def run_passes(seconds: float, body) -> list:
    """Call body(index) for passes 0, 1, ... while another pass of median
    length still fits in `seconds`; at least one pass always runs."""
    results, walls = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(body(len(results)))
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return results


# On a shared 2-vCPU VM, CPU speed drifts with the host's load, by up to a
# third from one run to the next.  So the bounded timing is a pass's wall
# time over that of a fixed reference kernel, timed every REF_PERIOD seconds
# while the pass runs.  The kernel calls no baroflow code: a change to the
# library moves the ratio by its own share, the VM's drift cancels.
REF_POINTS = 128
REF_LOOPS = 200
REF_PERIOD = 0.1


def reference_block() -> float:
    """Seconds for REF_LOOPS rounds of the library's typical small-array work:
    a spectral derivative and a few elementwise ops on 128 points, called
    from a Python loop."""
    import numpy as np

    x = np.linspace(0.0, 2 * np.pi, REF_POINTS, endpoint=False)
    ik = 1j * np.arange(REF_POINTS // 2 + 1)
    u = np.sin(x) + 0.5 * np.cos(3 * x)
    t0 = time.perf_counter()
    for _ in range(REF_LOOPS):
        du = np.fft.irfft(ik * np.fft.rfft(u), REF_POINTS)
        _ = u * du + np.tanh(du)
    return time.perf_counter() - t0


class Yardstick:
    """Runs the reference kernel every REF_PERIOD seconds from a SIGALRM
    handler while the `with` block runs.  The handler runs between two
    bytecodes of the pass, so the kernel samples the box's speed over the
    whole pass, however long its calls.  `wall` is the time spent in the
    `with` block, less the handler's."""

    def __init__(self):
        self.blocks: list[float] = []
        self.spent = 0.0
        self.wall = 0.0
        self._armed = False

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.blocks.append(reference_block())
        self.spent += time.perf_counter() - t0
        if self._armed:  # one-shot timer: a tick never nests in another
            signal.setitimer(signal.ITIMER_REAL, REF_PERIOD)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._armed = True
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD)
        return self

    def __exit__(self, *exc):
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall = time.perf_counter() - self._t0 - self.spent
        signal.signal(signal.SIGALRM, self._previous)
        return False


def measure(workload, seconds: float) -> dict:
    """Untraced passes over fresh inputs, each under a Yardstick: the
    end-to-end metrics."""
    def one_pass(index):
        inputs = workload.inputs(index)
        with Yardstick() as stick:
            ops = workload.run_pass(index, inputs)
        if not stick.blocks:  # a pass shorter than REF_PERIOD
            stick.blocks.append(reference_block())
        return stick.wall, ops, stick.blocks

    passes = run_passes(seconds, one_pass)
    ops = [op for _, pass_ops, _ in passes for op in pass_ops]
    latencies = [op.latency_s for op in ops]
    walls = [w for w, _, _ in passes]
    blocks = [b for _, _, pass_blocks in passes for b in pass_blocks]
    tail_s, beyond = tail(latencies, workload.tail_percentile)
    by_kind: dict[str, list[float]] = {}
    for op in ops:
        if op.kind:
            by_kind.setdefault(op.kind, []).append(op.latency_s)
    return {
        "ops": ops,
        "metrics": {
            "pass_ref_ratio": statistics.fmean(walls) / statistics.fmean(blocks),
            "oracle_err_ratio": statistics.median(
                max(op.err_ratio for op in pass_ops) for _, pass_ops, _ in passes),
        },
        # printed with the metrics, but they follow the box's speed, which
        # drifts by more than any allowed bound, so they are not bounded
        "unbounded": {
            "wall_s": statistics.fmean(walls),
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail_s,
        },
        "detail": {
            "wall_s": {"min": min(walls), "median": statistics.median(walls),
                       "n_passes": len(walls)},
            "reference_block_s": {"min": min(blocks), "median": statistics.median(blocks),
                                  "n_blocks": len(blocks)},
            "op_latency": {"min": min(latencies), "n_ops": len(latencies),
                           "tail_percentile": workload.tail_percentile,
                           "n_beyond_tail": beyond},
            "tightest_check": max(((c.ratio, c.label) for op in ops for c in op.checks
                                   if c.toleranced), default=(0.0, "")),
            "op_median_s_by_kind": {k: statistics.median(v) for k, v in by_kind.items()},
        },
    }


def measure_traced(workload, seconds: float, out_dir: str, stem: str) -> dict:
    """Pass 0 run alternately untraced and traced.  Per-layer metrics come
    from the first traced pass; later traced passes must repeat its counts."""
    from perfbench.tracer import Tracer

    inputs = workload.inputs(0)

    def pair(index):
        t0 = time.perf_counter()
        plain = workload.run_pass(0, inputs)
        t1 = time.perf_counter()
        with Tracer() as tracer:
            workload.tracer = tracer
            try:
                traced = workload.run_pass(0, inputs)
            finally:
                workload.tracer = None
        t2 = time.perf_counter()
        # keep the spans of the first traced pass only
        kept = tracer if index == 0 else tracer.summary().calls.tolist()
        return t1 - t0, t2 - t1, plain + traced, kept

    pairs = run_passes(seconds, pair)
    first = pairs[0][3]
    first.save(os.path.join(out_dir, f"{stem}-spans.npz"))
    summary = first.summary()
    counts = summary.calls.tolist()
    repeat_errors = [f"traced pass {i} repeated pass 0 with other call counts"
                     for i, (_, _, _, later) in enumerate(pairs[1:], 1)
                     if later != counts]
    metrics = layer_metrics(first, summary)
    metrics["trace.overhead_ratio"] = (statistics.median(p[1] for p in pairs)
                                       / statistics.median(p[0] for p in pairs))
    metrics["trace.coverage"] = summary.root_s / pairs[0][1]
    return {"ops": [op for p in pairs for op in p[2]], "metrics": metrics,
            "detail": {"n_pairs": len(pairs), "n_spans": len(first.start)},
            "errors": repeat_errors}


def layer_metrics(tracer, s) -> dict:
    from perfbench.tracer import DIFF_OPS, FIELDS, LAYERS

    pressure = s.with_prefix("pressure.PressureModel.")
    linearized = s.count("jacobi.linearized_step")
    stored = s.calls_under("jacobi.linearized_step", "jacobi.integrate_linearized")
    m = {
        "grids.circle_interp.calls": s.count("grids.circle_interp"),
        "grids.circle_interp.self_s": s.self_time("grids.circle_interp"),
        "grids.circle_interp.phase_bytes": tracer.phase_bytes,
        "grids.diff_ops.calls": s.count(*DIFF_OPS),
        "grids.diff_ops.self_s": s.self_time(*DIFF_OPS),
        "grids.fields.constructed": s.count(*FIELDS),
        "grids.fields.self_s": s.self_time(*FIELDS),
        "pressure.calls": s.count(*pressure),
        "pressure.self_s": s.self_time(*pressure),
        "geodesic.step_geodesic.calls": s.count("geodesic.step_geodesic"),
        "geodesic.step_geodesic.self_s": s.self_time("geodesic.step_geodesic"),
        "geodesic.step_geodesic.calls_in_linearized": s.calls_under(
            "geodesic.step_geodesic", "jacobi.linearized_step"),
        "jacobi.linearized_step.calls": linearized,
        "jacobi.linearized_step.self_s": s.self_time("jacobi.linearized_step"),
        "jacobi.detect_conjugate_times.self_s": s.self_time("jacobi.detect_conjugate_times"),
        "jacobi.refine.useful_ratio": stored / linearized if linearized else 0.0,
    }
    for layer, names in (("burgers", ("exact_jacobi", "shock_time")),
                         ("geometry", ("sectional_curvature",)),
                         ("disc", ("bessel_first_root", "sturm_liouville_eigs")),
                         ("torus", ("synthesize", "TorusModeSolution.j_at"))):
        for name in names:
            key = f"{layer}.{name.rsplit('.', 1)[-1]}"
            m[f"{key}.calls"] = s.count(f"{layer}.{name}")
            m[f"{key}.self_s"] = s.self_time(f"{layer}.{name}")
    m["cli.write_outputs.calls"] = s.count("cli.write_outputs")
    m["cli.write_outputs.self_s"] = s.self_time("cli.write_outputs")
    m["cli.write_outputs.bytes"] = tracer.write_bytes
    for layer in LAYERS:
        m[f"{layer}.errors"] = tracer.errors[layer]
    return m


# ---------------------------------------------------------------------------
# Environment


def environment(seed: int) -> dict:
    import baroflow
    import mpmath
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "baroflow": baroflow.__version__, "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(), "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# Entry point

UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
         "pass_ref_ratio": "ratio", "oracle_err_ratio": "ratio", "peak_rss_mb": "MB",
         "failed_frac": "ratio"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("self_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("ratio", "coverage")):
        return "ratio"
    return "count"


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out_dir: str, size: str = "full", import_s: float = 0.0) -> dict:
    """Set up SETUP_REPEATS times, then measure.  Returns the result record."""
    from perfbench.workloads import WORKLOADS

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = WORKLOADS[name](seed, out_dir, size)
        workload.warm_up()
        setup_times.append(time.perf_counter() - t0)
    stem = f"{name}-seed{seed}"
    if trace:
        res = measure_traced(workload, seconds, out_dir, stem)
    else:
        res = measure(workload, seconds)
        res["metrics"]["setup_s"] = import_s + statistics.median(setup_times)
        res["metrics"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        res["detail"]["setup_s"] = {"import_s": import_s, "build_and_warm_up_s": setup_times}
    attempted, failed, failures = tally(res.pop("ops"))
    failures += res.pop("errors", [])
    res.setdefault("unbounded", {})["failed_frac"] = failed / attempted
    res.update({
        "workload": name, "trace": int(trace), "size": size,
        "attempted": attempted, "failed": failed,
        "failures": failures, "correct": not failures,
    })
    return res


def tally(ops) -> tuple[int, int, list[str]]:
    """Ops attempted, ops failed, and a description naming each failed op."""
    failures = [op.failure() for op in ops if not op.ok]
    return len(ops), len(failures), failures


def report(res: dict, env: dict, out=sys.stdout) -> None:
    """Human-readable lines, then the one-line JSON result."""
    print(f"perfbench {res['workload']} trace={res['trace']} seed={env['seed']} "
          f"attempted={res['attempted']} failed={res['failed']}", file=out)
    for key, value in {**res["metrics"], **res["unbounded"]}.items():
        print(f"  {key} = {value:.6g} {unit_of(key)}", file=out)
    print("  detail: " + json.dumps(res["detail"], sort_keys=True), file=out)
    print("  env: " + json.dumps(env, sort_keys=True), file=out)
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in res["metrics"].items()},
    }), file=out)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "baroflow" / "__init__.py").is_file():
        print(f"perfbench: no baroflow sources at {ROOT / 'src' / 'baroflow'}; "
              "run from a source checkout", file=sys.stderr)
        return 2
    # the library runs one Python thread with small BLAS calls; a second BLAS
    # thread mostly spins, and on a 2-core box that slowed the run it serves
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    # the benchmark decides where CLI outputs go
    os.environ.pop("BAROFLOW_OUTPUT_DIR", None)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    t0 = time.perf_counter()
    import baroflow.cli  # noqa: F401  (numpy, scipy and mpmath come with it)
    import_s = time.perf_counter() - t0

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                       str(out_dir), import_s=import_s)
    env = environment(args.seed)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump({**res, "env": env}, fh, indent=2, sort_keys=True)
    for failure in res["failures"]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    report(res, env)
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
