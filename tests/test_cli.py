import functools
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import event, given, settings
from hypothesis import strategies as st

from baroflow import cli, disc, jacobi
from oracles import stored_conjugate_times

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ROOT / "presets"
# the environment of a fresh CLI process on this source tree
SRC_ENV = {k: v for k, v in os.environ.items() if k != cli.OUTPUT_DIR_ENV}
SRC_ENV["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
HUGE = "1" + "0" * 400  # a 401-digit integer

# the ExperimentConfig fields each experiment reads: its only flags and
# config keys, and the keys of its manifest's parameters
_SINE = {"gamma", "a_coeff", "rho0", "n_grid", "amplitude", "dt", "t_end", "n_samples"}
READS = {
    "geodesic": _SINE,
    "jacobi": _SINE | {"n_mode"},
    "burgers-exact": {"rho0", "n_grid", "amplitude", "t_end", "n_samples"},
    "conjugate": {"n_grid", "n_mode", "m_max", "dt"},
    "curvature-scan": {"gamma", "a_coeff", "n_grid", "trials", "seed"},
    "torus-modes": {"omega", "c", "n_grid", "amplitude", "t_end", "n_samples", "kind"},
    "disc-spectrum": {"omega", "c", "rho0", "n_nodes", "k_max", "n_max"},
}
PARAMETERS = sorted(set().union(*READS.values()))
# one small run of each experiment
TINY_RUNS = [
    ["geodesic", "--n-grid", "16", "--t-end", "0.1", "--dt", "0.05"],
    ["jacobi", "--n-grid", "16", "--t-end", "0.1", "--dt", "0.05"],
    ["burgers-exact", "--n-grid", "16", "--t-end", "0.2", "--n-samples", "2"],
    ["conjugate", "--n-grid", "16", "--dt", "0.05", "--m-max", "1"],
    ["curvature-scan", "--n-grid", "16", "--trials", "2"],
    ["torus-modes", "--n-grid", "16", "--n-samples", "2"],
    ["disc-spectrum", "--n-max", "1", "--k-max", "1", "--n-nodes", "32"],
]


def flag(key):
    return "--" + key.replace("_", "-")


def run(argv, tmp_path, monkeypatch, env_dir=None):
    if env_dir is not None:
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(env_dir))
    else:
        monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    return cli.main(argv + ["--output-dir", str(tmp_path)])


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def read_outputs(directory, name):
    """The CSV bytes and the manifest, parsed as strict JSON (no NaN or
    Infinity), so every manifest a test reads is checked to be JSON."""
    csv_text = (directory / f"{name}.csv").read_bytes()
    manifest = json.loads((directory / f"{name}_manifest.json").read_text(),
                          parse_constant=refuse_constant)
    return csv_text, manifest


class TestPlumbing:
    def test_unknown_experiment_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["no-such-experiment"])
        assert exc.value.code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage"
        assert "no-such-experiment" in err["message"]

    def test_non_integer_flag_exits_2_with_json(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["geodesic", "--n-grid", "abc"])
        assert exc.value.code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage"
        assert "--n-grid" in err["message"]

    def test_validation_error_exits_2(self, tmp_path, monkeypatch, capsys):
        rc = run(["curvature-scan", "--gamma", "0.5"], tmp_path, monkeypatch)
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert "gamma" in err["message"]

    @pytest.mark.parametrize("argv, config, key", [
        (["geodesic", "--n-grid", "9"], None, "n-grid"),
        (["geodesic", "--t-end", "inf"], None, "t-end"),
        (["geodesic", "--amplitude", "nan"], None, "amplitude"),
        (["geodesic"], "t-end = inf\n", "t-end"),
        (["geodesic"], "n-grid = inf\n", "n_grid"),
        (["curvature-scan"], "trials = 3\ngama = 2\n", "gama"),
        (["curvature-scan"], "trials = 3.7\n", "trials"),
        (["geodesic", "--config", "no-such-dir/missing.conf"], None, "missing.conf"),
        (["conjugate"], "gamma = 2\n", "gamma"),
        (["disc-spectrum", "--k-max", "500", "--n-nodes", "16"], None, "k-max"),
        (["disc-spectrum", "--n-nodes", "16"], "k-max = 16\n", "k-max"),
        (["disc-spectrum", "--n-max", "65"], None, "n-max"),
        (["geodesic"], "n-grid = 1e400\n", "n-grid"),
        (["curvature-scan", "--trials", HUGE], None, "trials"),
        (["jacobi"], "n-mode = 1e400\n", "n-mode"),
        (["conjugate", "--m-max", HUGE], None, "m-max"),
        (["conjugate", "--n", "4", "--m-max", "2", "--n-grid", "8", "--dt", "0.1"], None,
         "n-mode"),
        (["conjugate", "--n", "0"], None, "n-mode"),
        (["conjugate", "--n", "-2"], None, "n-mode"),
        (["jacobi", "--n", "-4", "--n-grid", "8", "--dt", "0.05"], None, "n-mode"),
        (["jacobi", "--n-grid", "8", "--dt", "0.05"], "n-mode = 4\n", "n-mode"),
        (["torus-modes", "--kind", "gradient", "--amplitude", "7", "--n-grid", "16"], None,
         "amplitude"),
        (["torus-modes", "--kind", "divfree", "--n-grid", "16"], "amplitude = 0.5\n",
         "amplitude"),
    ], ids=["odd_grid", "inf_flag", "nan_amplitude", "inf_config", "inf_int_config",
            "unknown_key", "fractional_int_config", "missing_config",
            "config_key_not_read", "k_max_above_nodes", "k_max_above_nodes_config",
            "n_max_above_bessel_range", "huge_grid_config", "huge_trials_flag",
            "huge_mode_config", "huge_m_max_flag", "conjugate_nyquist_mode",
            "conjugate_zero_mode", "conjugate_negative_mode", "jacobi_nyquist_mode",
            "jacobi_nyquist_mode_config", "torus_amplitude_without_mixed",
            "torus_amplitude_without_mixed_config"])
    def test_bad_input_exits_2_with_json(self, argv, config, key, tmp_path,
                                         monkeypatch, capsys):
        if config is not None:
            conf = tmp_path / "run.conf"
            conf.write_text(config)
            argv = argv + ["--config", str(conf)]
        rc = run(argv, tmp_path, monkeypatch)
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert key in err["message"]

    def test_numerical_failure_exits_1(self, tmp_path, monkeypatch, capsys):
        rc = run(["geodesic", "--t-end", "3.0", "--dt", "0.005",
                  "--n-grid", "128"], tmp_path, monkeypatch)
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ShockError"
        assert err["guard"] == "stage_density"
        assert err["step"] >= 1 and err["t"] == pytest.approx(0.005 * (err["step"] - 1))

    def test_shock_portrait_past_the_shock_says_where(self, tmp_path, monkeypatch, capsys):
        rc = run(["geodesic", "--config", str(PRESETS / "shock-portrait.conf"),
                  "--t-end", "2.5"], tmp_path, monkeypatch)
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ShockError"
        # t is the time the failed step started from: step - 1 steps of dt
        assert (err["guard"], err["step"]) == ("stage_density", 601)
        assert err["t"] == pytest.approx(0.004 * 600)

    def test_failure_outside_the_step_loop_has_null_location(self, tmp_path, monkeypatch,
                                                             capsys):
        rc = run(["disc-spectrum", "--omega", "10"], tmp_path, monkeypatch)
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "VacuumError"
        assert (err["t"], err["step"], err["guard"]) == (None, None, None)

    @pytest.mark.parametrize("experiment", ["geodesic", "jacobi", "conjugate"])
    def test_dt_over_cfl_bound_at_start_exits_2(self, experiment, tmp_path, monkeypatch,
                                                capsys):
        rc = run([experiment, "--dt", "1.0"], tmp_path, monkeypatch)
        assert rc == 2
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        err = json.loads(err_lines[0])
        assert err["error"] == "validation"
        assert "CFL bound" in err["message"] and "1.0" in err["message"]
        assert not list(tmp_path.iterdir())  # stopped before the first step

    def test_config_file_and_flag_override(self, tmp_path, monkeypatch):
        conf = tmp_path / "run.conf"
        conf.write_text("trials = 5\ngamma = 2.0\nseed = 3\nn-grid = 32\n")
        rc = run(["curvature-scan", "--config", str(conf), "--trials", "7"],
                 tmp_path, monkeypatch)
        assert rc == 0
        _, manifest = read_outputs(tmp_path, "curvature-scan")
        assert manifest["parameters"]["trials"] == 7  # flag wins
        assert manifest["parameters"]["gamma"] == 2.0  # from config
        assert manifest["parameters"]["seed"] == 3

    @pytest.mark.parametrize("experiment, lines", [
        ("geodesic", ["n-grid = 64", "n_grid = 32"]),
        ("geodesic", ["n_grid = 64", "# the same value again", "n-grid = 64"]),
        ("conjugate", ["n-mode = 2", "dt = 0.01", "n_mode = 1"])])
    def test_config_key_given_twice_is_a_validation_error(self, experiment, lines, tmp_path,
                                                          monkeypatch, capsys):
        # the last value does not silently win
        conf = tmp_path / "twice.conf"
        conf.write_text("\n".join(lines) + "\n")
        assert run([experiment, "--config", str(conf)], tmp_path, monkeypatch) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert err["message"].startswith(f"{conf}:{len(lines)}: parameter ")
        assert err["message"].endswith(" given twice")
        assert not (tmp_path / f"{experiment}.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["geodesic", "--n-grid", "64", "--n-grid", "32"],
        ["geodesic", "--n-grid", "32", "--t-end", "0.1", "--n-grid", "32"],
        ["conjugate", "--n", "2", "--n-mode", "1"],
        ["conjugate", "--n-mode", "1", "--n", "1"],
        ["jacobi", "--n", "1", "--n", "2"],
        ["curvature-scan", "--config", "a.conf", "--config", "b.conf"],
        ["curvature-scan", "--output-dir", "elsewhere"]])  # run() gives --output-dir again
    def test_flag_given_twice_is_a_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv, tmp_path, monkeypatch)
        assert exc.value.code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage"
        assert err["message"].endswith(": given twice")
        assert not list(tmp_path.iterdir())

    def test_integer_config_values_are_exact(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("seed = 9007199254740993\ntrials = 1e2\n")
        args = cli.build_parser().parse_args(["curvature-scan", "--config", str(conf)])
        cfg = cli.config_from_args(args)
        assert (cfg.seed, cfg.trials) == (2**53 + 1, 100)

    @pytest.mark.parametrize("text, trials", [
        ("1e2", 100), ("100.0", 100), ("+7", 7), ("2.5", None), ("1/2", None),
        ("1/0", None), ("inf", None), ("nan", None), ("abc", None),
        ("1e999999999", None)])  # a billion-digit integer, refused unexpanded
    def test_flags_and_config_files_parse_integers_alike(self, text, trials, tmp_path,
                                                          monkeypatch, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text(f"trials = {text}\n")
        for source, argv in [("flag", ["--trials", text]), ("config", ["--config", str(conf)])]:
            out = tmp_path / source
            try:
                code = run(["curvature-scan", "--n-grid", "16"] + argv, out, monkeypatch)
            except SystemExit as exc:
                code = exc.code
            if trials is not None:
                assert code == 0
                assert read_outputs(out, "curvature-scan")[1]["parameters"]["trials"] == trials
                continue
            assert code == 2
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == ("usage" if source == "flag" else "validation")
            assert ("--trials" if source == "flag" else "trials") in err["message"]
            assert "0x" not in err["message"]

    def test_parser_is_built_once_and_each_parse_is_fresh(self, tmp_path, monkeypatch,
                                                          capsys):
        assert cli.build_parser() is cli.build_parser()
        fresh = cli.build_parser.__wrapped__()
        argvs = [["curvature-scan", "--trials", "3", "--seed", "5", "--n-grid", "16"],
                 ["conjugate", "--n", "1", "--n-grid", "16", "--dt", "0.05", "--m-max", "1"],
                 ["curvature-scan", "--trials", "2", "--n-grid", "16"]]
        for argv in argvs:
            assert vars(cli.build_parser().parse_args(argv)) == vars(fresh.parse_args(argv))
        assert run(argvs[0], tmp_path / "a", monkeypatch) == 0
        assert run(argvs[1], tmp_path / "b", monkeypatch) == 0
        with pytest.raises(SystemExit) as exc:
            run(["curvature-scan", "--seed", "x"], tmp_path / "c", monkeypatch)
        assert exc.value.code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "usage"
        assert run(argvs[2], tmp_path / "d", monkeypatch) == 0
        # the seed of the first run and the bad one leave no trace
        _, manifest = read_outputs(tmp_path / "d", "curvature-scan")
        assert manifest["parameters"] == {"gamma": 3.0, "a_coeff": 1.0 / 3.0, "n_grid": 16,
                                          "trials": 2, "seed": 0}

    def test_malformed_config_rejected(self, tmp_path, monkeypatch, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("gamma 2.0\n")
        rc = run(["curvature-scan", "--config", str(conf)], tmp_path, monkeypatch)
        assert rc == 2

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env_out"
        rc = run(["curvature-scan", "--trials", "3", "--n-grid", "32"],
                 tmp_path, monkeypatch, env_dir=env_dir)
        assert rc == 0
        assert (env_dir / "curvature-scan.csv").exists()
        assert not (tmp_path / "curvature-scan.csv").exists()

    def test_determinism(self, tmp_path, monkeypatch):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            rc = cli.main(["curvature-scan", "--trials", "10", "--seed", "42",
                           "--n-grid", "32", "--output-dir", str(d)])
            assert rc == 0
        csv1, man1 = read_outputs(d1, "curvature-scan")
        csv2, man2 = read_outputs(d2, "curvature-scan")
        assert csv1 == csv2
        for man in (man1, man2):
            man.pop("wall_time_s")
            man.pop("cpu_time_s")
        assert man1 == man2

    def test_import_leaves_scipy_submodules_unloaded(self):
        # only disc-spectrum needs scipy.linalg and scipy.special, and no
        # experiment needs scipy.optimize
        out = subprocess.run(
            [sys.executable, "-c", "import sys, baroflow.cli; print(sorted(m for m in "
             "('scipy.linalg', 'scipy.optimize', 'scipy.special') if m in sys.modules))"],
            capture_output=True, text=True, check=True, env=SRC_ENV)
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("preset, first, want", [(None, "", "1"), ("3", "", "3"),
                                                     (None, "import numpy; ", "None")],
                             ids=["unset", "user_set", "numpy_first"])
    def test_import_pins_blas_threads_unless_set_or_numpy_first(self, preset, first, want):
        # baroflow as the process's first numpy user pins OpenBLAS to one
        # thread; a count the user set wins, and a process that loaded numpy
        # first keeps its own pool
        env = {k: v for k, v in SRC_ENV.items() if k != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        out = subprocess.run(
            [sys.executable, "-c", first + "import os, baroflow.cli; "
             "print(os.environ.get('OPENBLAS_NUM_THREADS'))"],
            capture_output=True, text=True, check=True, env=env)
        assert out.stdout.strip() == want

    @pytest.mark.parametrize("argv", [a for a in TINY_RUNS if a[0] in
                                      ("burgers-exact", "conjugate", "geodesic", "jacobi")],
                             ids=lambda argv: argv[0])
    def test_run_leaves_scipy_submodules_unloaded(self, argv, tmp_path):
        # the shock-time and conjugate-time refinements use the library's own
        # bounded minimizer; the tiny conjugate run refines one time
        script = ("import sys, baroflow.cli; rc = baroflow.cli.main(sys.argv[1:]); "
                  "print(rc, sorted(m for m in ('scipy.linalg', 'scipy.optimize', "
                  "'scipy.special') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", script, *argv, "--output-dir", str(tmp_path)],
                             capture_output=True, text=True, check=True, env=SRC_ENV)
        assert out.stdout.splitlines()[-1] == "0 []"

    def test_disc_spectrum_loads_scipy_at_call_time(self, tmp_path, monkeypatch):
        # this process has loaded scipy.linalg already; a fresh one has not
        argv = ["disc-spectrum", "--n-max", "2", "--k-max", "2", "--n-nodes", "40"]
        out = subprocess.run(
            [sys.executable, "-m", "baroflow.cli", *argv, "--output-dir", str(tmp_path / "a")],
            capture_output=True, text=True, env=SRC_ENV)
        assert out.returncode == 0, out.stderr
        assert run(argv, tmp_path / "b", monkeypatch) == 0
        csvs = [read_outputs(tmp_path / side, argv[0])[0] for side in "ab"]
        assert csvs[0] == csvs[1]

    def test_manifest_records_library_versions(self, tmp_path, monkeypatch):
        import scipy

        rc = run(["curvature-scan", "--trials", "3", "--n-grid", "32"], tmp_path, monkeypatch)
        assert rc == 0
        _, manifest = read_outputs(tmp_path, "curvature-scan")
        versions = manifest["versions"]
        assert versions["numpy"] == np.__version__
        assert versions["scipy"] == scipy.__version__
        assert set(versions) == {"baroflow", "numpy", "python", "scipy"}

    @pytest.mark.parametrize("argv", [["conjugate", "--gamma", "2"],
                                      ["disc-spectrum", "--dt", "5"],
                                      ["curvature-scan", "--n", "64"]],
                             ids=["conjugate_gamma", "disc_dt", "no_abbreviation"])
    def test_flag_the_experiment_does_not_read_exits_2(self, argv, tmp_path,
                                                       monkeypatch, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv, tmp_path, monkeypatch)
        assert exc.value.code == 2
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        err = json.loads(err_lines[0])
        assert err["error"] == "usage"
        assert argv[1] in err["message"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("experiment", sorted(READS))
    def test_only_read_parameters_have_flags(self, experiment, capsys):
        parser = cli.build_parser()
        accepted = set()
        for key in PARAMETERS:
            try:
                parser.parse_args([experiment, flag(key), "1"])
                accepted.add(key)
            except SystemExit:
                pass
        capsys.readouterr()
        assert accepted == READS[experiment]
        assert set(cli.EXPERIMENTS[experiment].params) == READS[experiment]


class TestExperiments:
    def test_conjugate_example(self, tmp_path, monkeypatch):
        rc = run(["conjugate", "--n", "2", "--m-max", "2", "--n-grid", "64",
                  "--dt", "0.02"], tmp_path, monkeypatch)
        assert rc == 0
        csv_text, manifest = read_outputs(tmp_path, "conjugate")
        rows = csv_text.decode().strip().splitlines()[1:]
        theory = [float(r.split(",")[1]) for r in rows]
        assert theory == pytest.approx([np.pi, 2 * np.pi], rel=1e-12)
        assert manifest["summary"]["max_gap"] < 1e-4

    def test_curvature_scan_nonnegative(self, tmp_path, monkeypatch):
        rc = run(["curvature-scan", "--gamma", "2", "--trials", "20",
                  "--seed", "7", "--n-grid", "64"], tmp_path, monkeypatch)
        assert rc == 0
        _, manifest = read_outputs(tmp_path, "curvature-scan")
        assert manifest["summary"]["min_total"] >= -1e-10

    @pytest.mark.parametrize("gamma, a_coeff", [("1.4", ["--a-coeff", "1"]),
                                                 ("2", ["--a-coeff", "1"]), ("3", []),
                                                 ("4", ["--a-coeff", "1"])])
    def test_curvature_scan_reports_the_predicted_sign(self, gamma, a_coeff, tmp_path,
                                                       monkeypatch):
        # coef_min is the minimum of x phi'(x) + phi(x)^2 / lambda(x) over the
        # sampled densities: it predicts the sign that n_negative counts (the
        # default a_coeff 1/3 at gamma = 3)
        rc = run(["curvature-scan", "--gamma", gamma, "--trials", "200", "--seed", "9",
                  "--n-grid", "64"] + a_coeff, tmp_path, monkeypatch)
        assert rc == 0
        csv_text, manifest = read_outputs(tmp_path, "curvature-scan")
        summary = manifest["summary"]
        assert csv_text.decode().splitlines()[0] == "trial,total,term_div,term_Q,term_grad"
        if gamma == "4":
            assert summary["coef_min"] < 0 and summary["n_negative"] > 0
        else:
            assert summary["coef_min"] >= -1e-12 and summary["n_negative"] == 0

    def test_geodesic_energy_column(self, tmp_path, monkeypatch):
        rc = run(["geodesic", "--t-end", "0.5", "--dt", "0.005",
                  "--n-grid", "64"], tmp_path, monkeypatch)
        assert rc == 0
        csv_text, manifest = read_outputs(tmp_path, "geodesic")
        header = csv_text.decode().splitlines()[0].split(",")
        assert header == ["t", "energy", "min_rho", "max_speed", "min_jacobian"]
        assert manifest["summary"]["energy_drift"] < 1e-8

    def test_torus_modes_mixed_unbounded(self, tmp_path, monkeypatch):
        rc = run(["torus-modes", "--n-grid", "32", "--t-end", "10",
                  "--kind", "mixed", "--amplitude", "0.01"],
                 tmp_path, monkeypatch)
        assert rc == 0
        _, manifest = read_outputs(tmp_path, "torus-modes")
        assert manifest["summary"]["bounded"] is False

    def test_disc_spectrum_bounds(self, tmp_path, monkeypatch):
        rc = run(["disc-spectrum", "--n-max", "4", "--k-max", "4",
                  "--n-nodes", "200"], tmp_path, monkeypatch)
        assert rc == 0
        _, manifest = read_outputs(tmp_path, "disc-spectrum")
        assert manifest["summary"]["all_bounds_hold"] is True
        assert manifest["summary"]["min_discriminant_margin"] > 0

    def test_disc_spectrum_solves_each_mode_once(self, tmp_path, monkeypatch):
        # one values-only solve per azimuthal mode, whose first value is the
        # lam_1n that the bound check reads
        calls = {"eigvalsh_tridiagonal": 0, "eigh_tridiagonal": 0}
        for name in calls:
            def counted(*args, _name=name, _solve=getattr(scipy.linalg, name), **kwargs):
                calls[_name] += 1
                return _solve(*args, **kwargs)
            monkeypatch.setattr(scipy.linalg, name, counted)
        checked, bound_check = [], disc.rayleigh_bound_check
        def check(bg, lam1):
            checked.append(np.array(lam1))
            return bound_check(bg, lam1)
        monkeypatch.setattr(disc, "rayleigh_bound_check", check)
        assert run(["disc-spectrum", "--n-max", "16", "--k-max", "12"],
                   tmp_path, monkeypatch) == 0
        assert calls == {"eigvalsh_tridiagonal": 17, "eigh_tridiagonal": 0}
        csv_text, manifest = read_outputs(tmp_path, "disc-spectrum")
        rows = [r.split(",") for r in csv_text.decode().strip().splitlines()[1:]]
        lam1 = np.array([float(r[2]) for r in rows if r[1] == "1"])
        assert len(checked) == 1 and checked[0].tobytes() == lam1.tobytes()
        par = manifest["parameters"]
        report = bound_check(
            disc.DiscBackground(par["omega"], par["c"], par["rho0"]), lam1)
        assert manifest["summary"]["all_bounds_hold"] is report.all_hold
        assert manifest["summary"]["falsifications"] == report.falsifications

    @pytest.mark.parametrize("argv", TINY_RUNS, ids=lambda argv: argv[0])
    def test_manifest_parameters_are_the_ones_read(self, argv, tmp_path, monkeypatch):
        rc = run(argv, tmp_path, monkeypatch)
        assert rc == 0
        _, manifest = read_outputs(tmp_path, argv[0])
        assert set(manifest["parameters"]) == READS[argv[0]]
        for name, value in zip(argv[1::2], argv[2::2]):
            assert manifest["parameters"][name[2:].replace("-", "_")] == float(value)

    @pytest.mark.parametrize("argv", TINY_RUNS, ids=lambda argv: argv[0])
    def test_manifest_records_process_cpu_time(self, argv, tmp_path, monkeypatch):
        assert run(argv, tmp_path, monkeypatch) == 0
        cpu = read_outputs(tmp_path, argv[0])[1]["cpu_time_s"]
        assert isinstance(cpu, float) and np.isfinite(cpu) and cpu >= 0

    def test_missing_conjugate_time_is_null(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.jacobi, "detect_conjugate_times", lambda *a, **k: [])
        assert run(["conjugate", "--n-grid", "16", "--dt", "0.05", "--m-max", "2"],
                   tmp_path, monkeypatch) == 0
        _, manifest = read_outputs(tmp_path, "conjugate")
        assert manifest["summary"] == {"max_gap": None, "n_detected": 0}

    def test_burgers_without_shock_is_null(self, tmp_path, monkeypatch):
        assert run(["burgers-exact", "--n-grid", "16", "--amplitude", "0",
                    "--n-samples", "2"], tmp_path, monkeypatch) == 0
        _, manifest = read_outputs(tmp_path, "burgers-exact")
        assert manifest["summary"]["shock_time"] is None

    def test_conjugate_readme_csv_matches_stored_trajectory_oracle(self, tmp_path,
                                                                 monkeypatch):
        csvs = []
        for detector in (jacobi.detect_conjugate_times, stored_conjugate_times):
            monkeypatch.setattr(cli.jacobi, "detect_conjugate_times", detector)
            out = tmp_path / detector.__name__
            assert run(["conjugate", "--n", "2", "--m-max", "3"], out, monkeypatch) == 0
            csvs.append(read_outputs(out, "conjugate")[0])
        assert len(csvs[0].splitlines()) == 4
        assert csvs[0] == csvs[1]

    def test_disc_spectrum_k_max_at_node_limit(self, tmp_path, monkeypatch):
        rc = run(["disc-spectrum", "--n-max", "1", "--k-max", "15", "--n-nodes", "16"],
                 tmp_path, monkeypatch)
        assert rc == 0
        csv_text, _ = read_outputs(tmp_path, "disc-spectrum")
        rows = [r.split(",") for r in csv_text.decode().strip().splitlines()[1:]]
        assert [(int(r[0]), int(r[1])) for r in rows] == \
            [(n, k) for n in (0, 1) for k in range(1, 16)]

    def test_burgers_exact_columns(self, tmp_path, monkeypatch):
        rc = run(["burgers-exact", "--t-end", "0.8", "--n-samples", "3",
                  "--n-grid", "32"], tmp_path, monkeypatch)
        assert rc == 0
        csv_text, manifest = read_outputs(tmp_path, "burgers-exact")
        assert csv_text.decode().splitlines()[0] == "t,x,u,rho"
        assert manifest["summary"]["shock_time"] == pytest.approx(2.0, rel=1e-6)


# each preset's experiment and the values it sets
PRESET_VALUES = {
    "conjugate": ("conjugate", {"n_mode": 2, "m_max": 3, "n_grid": 128, "dt": 0.005}),
    "curvature-scan": ("curvature-scan", {"gamma": 2.0, "trials": 200, "seed": 7}),
    "disc-spectrum": ("disc-spectrum", {"n_max": 16, "k_max": 12, "n_nodes": 400}),
    "shock-portrait": ("geodesic", {"n_grid": 256, "dt": 0.004, "t_end": 1.9}),
    "torus-modes": ("torus-modes", {"n_grid": 32, "t_end": 60.0, "n_samples": 300,
                                    "kind": "gradient"}),
}


def test_presets_are_the_listed_ones():
    assert sorted(p.stem for p in PRESETS.glob("*.conf")) == sorted(PRESET_VALUES)


@pytest.mark.parametrize("preset", sorted(PRESET_VALUES))
def test_preset_loads_and_validates(preset):
    experiment, expect = PRESET_VALUES[preset]
    path = str(PRESETS / f"{preset}.conf")
    assert set(cli.parse_config_file(path)) == set(expect)
    cfg = cli.config_from_args(cli.build_parser().parse_args([experiment, "--config", path]))
    got = {key: getattr(cfg, key) for key in expect}
    assert got == expect
    assert all(type(got[key]) is type(expect[key]) for key in expect)


@pytest.mark.parametrize("experiment, valid", [("conjugate", range(1, 4)),
                                               ("jacobi", range(-3, 4))])
def test_mode_bounds_are_the_modes_below_nyquist(experiment, valid):
    for n_mode in range(-5, 6):
        cfg = cli.ExperimentConfig(experiment, n_grid=8, n_mode=n_mode)
        if n_mode in valid:
            cfg.validate()
        else:
            with pytest.raises(cli.ValidationError, match="n-mode must"):
                cfg.validate()


@pytest.mark.parametrize("key", sorted(key for key, param in cli.PARAMS.items()
                                        if param.parse is cli.integer and param.high))
def test_integer_bounds_are_inclusive(key):
    bound = cli.PARAMS[key].high
    cli.ExperimentConfig("geodesic", **{key: bound}).validate()
    # bound + 2 keeps n-grid even, so only its bound can reject it
    name, low = key.replace("_", "-"), cli.PARAMS[key].low
    with pytest.raises(cli.ValidationError, match=re.escape(
            f"{name} must be an integer in [{low}, {bound}], got {bound + 2}")):
        cli.ExperimentConfig("geodesic", **{key: bound + 2}).validate()


def test_validation_holds_with_the_integer_parser_wrapped(tmp_path, monkeypatch, capsys):
    # the benchmark's tracer rebinds cli.integer to a wrapper: every integer
    # bound still holds (n-grid 4 is below 8), and seed 0 is still in range
    original = cli.integer
    monkeypatch.setattr(cli, "integer", functools.wraps(original)(lambda text: original(text)))
    assert run(["geodesic", "--n-grid", "4"], tmp_path, monkeypatch) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "validation",
                   "message": "n-grid must be an integer in [8, 2048], got 4"}
    assert run(["curvature-scan", "--seed", "0", "--trials", "2", "--n-grid", "16"],
               tmp_path, monkeypatch) == 0


def test_readme_commands_validate(monkeypatch):
    """Every `baroflow ...` line in the README passes validation, so each
    integer bound lies above the values it shows."""
    monkeypatch.chdir(ROOT)
    lines = [line.split("#", 1)[0].split()[1:]
             for line in (ROOT / "README.md").read_text().splitlines()
             if line.startswith("baroflow ")]
    assert len(lines) >= 10
    for argv in lines:
        cli.config_from_args(cli.build_parser().parse_args(argv))


# Property test over CLI inputs.  Every parameter an experiment reads gets a
# good value, chosen so that each run stays cheap (small grids, few steps and
# trials), and then up to two entries are drawn from the bad values:
# fractional integers, nan/inf, odd or tiny grids and garbage.  Keys that the
# experiment does not read, keys that name no parameter, malformed config
# lines and a missing config file are drawn too.
GOOD = {
    "gamma": ["3", "2", "1.4"], "a_coeff": ["0.5", "0.25"], "omega": ["1", "0.5", "0"],
    "c": ["1", "0.5"], "rho0": ["1", "2"], "n_grid": ["16", "8", "10"],
    "n_nodes": ["32", "16"], "n_mode": ["2", "1"], "m_max": ["1"], "k_max": ["2", "1"],
    "n_max": ["2", "0"], "amplitude": ["0.5", "0", "5"], "trials": ["3", "1"],
    "dt": ["0.05"], "t_end": ["0.2", "0.5"], "n_samples": ["3", "1"],
    "seed": ["7", "0"], "kind": ["divfree", "gradient", "mixed"],
}
BAD = {
    "gamma": ["1", "nan", "x"], "a_coeff": ["0", "-inf"], "omega": ["nan"],
    "c": ["0", "inf"], "rho0": ["0", "-1"],
    "n_grid": ["9", "6", "0", "12.5", "inf", "1e400", HUGE],
    "n_nodes": ["15", "24.5", "1e400", HUGE],
    "n_mode": ["0", "-1", "1.5", "1e400", HUGE], "m_max": ["0", "1.5", "1e400", HUGE],
    "k_max": ["0", "40"], "n_max": ["-1", "65"], "amplitude": ["nan"],
    "trials": ["0", "2.5", "1e400", HUGE],
    "dt": ["0", "-0.1", "5", "nan"], "t_end": ["0", "inf"],
    "n_samples": ["0", "1.5", "1e400", HUGE],
    "seed": ["-1", "18446744073709551616", "3.5"], "kind": ["spiral"],
}
JUNK_KEYS = ["gama", "n_grids", "experiment"]
JUNK_LINES = ["gamma 2", "# a comment", "= 3"]


@st.composite
def cli_inputs(draw):
    """(experiment, flags, config lines, config kind: none, file or missing)."""
    experiment = draw(st.sampled_from(sorted(READS)))
    items = [(key, draw(st.sampled_from(GOOD[key]))) for key in sorted(READS[experiment])]
    if experiment == "torus-modes" and dict(items)["kind"] != "mixed":
        # a good torus-modes run gives an amplitude with mixed data only
        items = [(key, value) for key, value in items if key != "amplitude"]
    for key in draw(st.lists(st.sampled_from(PARAMETERS + JUNK_KEYS), max_size=2)):
        items.append((key, draw(st.sampled_from(GOOD.get(key, ["2"]) + BAD.get(key, [])))))
    config = draw(st.sampled_from(["none", "none", "file", "file", "missing"]))
    flags, lines = [], []
    for key, value in items:
        if config == "file" and draw(st.booleans()):
            lines.append(f"{key.replace('_', '-')} = {value}")
        else:
            name = "--n" if key == "n_mode" and draw(st.booleans()) else flag(key)
            flags += [name, value]
    if config == "file":
        lines += draw(st.lists(st.sampled_from(JUNK_LINES), max_size=1))
    return experiment, flags, lines, config


@settings(max_examples=200, derandomize=True, deadline=None)
@given(cli_inputs())
def test_any_input_exits_0_1_or_2_without_traceback(inputs):
    experiment, flags, lines, config = inputs
    with tempfile.TemporaryDirectory() as tmp:
        argv = [experiment] + flags + ["--output-dir", tmp]
        if config == "file":
            path = Path(tmp) / "run.conf"
            path.write_text("\n".join(lines) + "\n")
            argv += ["--config", str(path)]
        elif config == "missing":
            argv += ["--config", str(Path(tmp) / "missing.conf")]
        err = io.StringIO()
        with mock.patch.dict(os.environ), redirect_stdout(io.StringIO()), \
                redirect_stderr(err):
            os.environ.pop(cli.OUTPUT_DIR_ENV, None)
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    event(f"exit {code}")
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code:
        err_lines = err.getvalue().splitlines()
        assert len(err_lines) == 1
        assert isinstance(json.loads(err_lines[0]), dict)
