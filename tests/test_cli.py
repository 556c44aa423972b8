import json
from pathlib import Path

import numpy as np
import pytest

from baroflow import cli

PRESETS = Path(__file__).resolve().parent.parent / "presets"


def run(argv, tmp_path, monkeypatch, env_dir=None):
    if env_dir is not None:
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(env_dir))
    else:
        monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    return cli.main(argv + ["--output-dir", str(tmp_path)])


def read_outputs(directory, name):
    csv_text = (directory / f"{name}.csv").read_bytes()
    manifest = json.loads((directory / f"{name}_manifest.json").read_text())
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
    ], ids=["odd_grid", "inf_flag", "nan_amplitude", "inf_config", "inf_int_config",
            "unknown_key", "fractional_int_config"])
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

    def test_integer_config_values_are_exact(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("seed = 9007199254740993\ntrials = 1e2\n")
        args = cli.build_parser().parse_args(["curvature-scan", "--config", str(conf)])
        cfg = cli.config_from_args(args)
        assert (cfg.seed, cfg.trials) == (2**53 + 1, 100)

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
        man1.pop("wall_time_s")
        man2.pop("wall_time_s")
        assert man1 == man2

    def test_manifest_records_library_versions(self, tmp_path, monkeypatch):
        import mpmath
        import scipy

        rc = run(["curvature-scan", "--trials", "3", "--n-grid", "32"], tmp_path, monkeypatch)
        assert rc == 0
        _, manifest = read_outputs(tmp_path, "curvature-scan")
        versions = manifest["versions"]
        assert versions["numpy"] == np.__version__
        assert versions["scipy"] == scipy.__version__
        assert versions["mpmath"] == mpmath.__version__
        assert set(versions) == {"baroflow", "mpmath", "numpy", "python", "scipy"}


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
