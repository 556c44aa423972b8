"""Tests of the benchmark itself, at the "tiny" workload size."""

import io
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import run
from perfbench.workloads import Op, check_conjugate, check_growth

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_tiny(workload, trace, tmp_path):
    res = run.run_workload(workload, seed=5, seconds=0.0, trace=trace,
                           out_dir=str(tmp_path), size="tiny")
    out = io.StringIO()
    run.report(res, {"seed": 5}, out=out)
    lines = out.getvalue().splitlines()
    return res, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["conjugate", "ensemble", "spectra"])
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_prints_every_metric_with_unit(workload, trace, tmp_path):
    res, lines, result = _run_tiny(workload, trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    printed = [(m["name"], m["unit"]) for m in wanted] + [("failed_frac", "ratio")]
    if not trace:
        printed += [("wall_s", "s"), ("op_p50_s", "s"), ("op_tail_s", "s")]
    for name, unit in printed:
        assert any(line.strip().startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines), name
    if trace and workload == "conjugate":
        assert result["metrics"]["grids.circle_interp.calls"]["value"] > 0
    if trace and workload == "spectra":
        assert result["metrics"]["grids.circle_interp.calls"]["value"] == 0


def test_checker_counts_wrong_time_and_growth_as_failed():
    good = check_conjugate([{"m": "1", "t_detected": repr(3.141592653)}],
                           n_detected=1, n_mode=2, m_max=1)[0]
    wrong = check_conjugate([{"m": "1", "t_detected": "3.1416"}],
                            n_detected=1, n_mode=2, m_max=1)[0]
    ops = [Op("good time", 1.0, good), Op("wrong time", 1.0, wrong),
           Op("growth", 1.0, [check_growth("integrator", 1.001)])]
    attempted, failed, failures = run.tally(ops)
    assert (attempted, failed) == (3, 2)
    assert failures[0].startswith("wrong time: missed")
    assert failures[1].startswith("growth: missed integrator growth ratio")


def test_yardstick_times_the_reference_during_a_pass():
    before = signal.getsignal(signal.SIGALRM)
    with run.Yardstick() as stick:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 5 * run.REF_PERIOD:
            pass
    assert len(stick.blocks) >= 3
    assert stick.spent == pytest.approx(sum(stick.blocks), rel=0.2)
    assert 0 < stick.wall < time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is before


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectra", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
