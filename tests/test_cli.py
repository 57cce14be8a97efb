import json
import warnings

import numpy as np
import pytest

import mhdbayes.cli as cli
from mhdbayes.cli import build_parser, main, resolve_config, validate_config
from mhdbayes.datasets import load_dataset


class TestDatasets:
    def test_bundled_newcomb(self):
        ds = load_dataset("bundled:newcomb")
        assert len(ds) == 66
        assert ds.values.min() == -44.0
        assert int(np.sum(ds.values < 0)) == 2

    def test_plain_csv(self, tmp_path):
        p = tmp_path / "vals.csv"
        p.write_text("1.0\n2.0\n")
        assert np.array_equal(load_dataset(str(p)).values, [1.0, 2.0])

    def test_header_is_skipped(self, tmp_path):
        p = tmp_path / "vals.csv"
        p.write_text("value\n3.5\n4.5\n")
        assert np.array_equal(load_dataset(str(p)).values, [3.5, 4.5])

    def test_malformed_line_cites_number(self, tmp_path):
        p = tmp_path / "vals.csv"
        p.write_text("1.0\n2.0\nabc\n")
        with pytest.raises(ValueError, match="line 3"):
            load_dataset(str(p))

    def test_empty_file(self, tmp_path):
        p = tmp_path / "vals.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="no numeric"):
            load_dataset(str(p))

    def test_unknown_bundle(self):
        with pytest.raises(ValueError, match="unknown bundled"):
            load_dataset("bundled:nope")


def fit_args(tmp_path, *extra):
    out = tmp_path / "report.json"
    return ["fit", "--data", "bundled:newcomb", "--estimator", "mhb",
            "--n-boot", "0", "--seed", "7", "--out", str(out), *extra], out


def forbidden(*args, **kwargs):
    raise AssertionError("computation started before the config was checked")


class TestConfig:
    def test_round_trip_is_idempotent(self):
        args = build_parser().parse_args(
            ["fit", "--data", "bundled:newcomb", "--seed", "3"])
        config = resolve_config(args)
        clone = json.loads(json.dumps(config))
        assert validate_config(clone) == config

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="invalid configuration"):
            validate_config({"command": "fit", "family": "gaussian",
                             "prior": {"mode": "fixed", "alpha": 0.07},
                             "seed": 0, "bogus": 1})

    def test_rejects_missing_data(self):
        with pytest.raises(ValueError, match="invalid configuration"):
            validate_config({"command": "fit", "family": "gaussian",
                             "prior": {"mode": "fixed", "alpha": 0.07}, "seed": 0})

    def test_workers_default_comes_from_environment(self, monkeypatch):
        monkeypatch.setenv("MHDBAYES_WORKERS", "4")
        args = build_parser().parse_args(["fit", "--data", "bundled:newcomb"])
        assert resolve_config(args)["workers"] == 4
        args = build_parser().parse_args(
            ["fit", "--data", "bundled:newcomb", "--workers", "2"])
        assert resolve_config(args)["workers"] == 2


class TestRunFit:
    def test_mhb_fit_writes_report(self, tmp_path, capsys):
        argv, out = fit_args(tmp_path)
        assert main(argv) == 0
        report = json.loads(out.read_text())
        assert report["schema_version"] == 1
        assert report["config"]["seed"] == 7
        theta = report["results"]["mhb"]["theta_hat"]
        assert theta[0] == pytest.approx(27.79, abs=0.05)
        assert theta[1] == pytest.approx(4.96, abs=0.05)

    def test_deterministic_modulo_timestamp(self, tmp_path):
        argv1, out1 = fit_args(tmp_path, "--alpha", "0.07")
        main(argv1)
        first = json.loads(out1.read_text())
        argv2, out2 = fit_args(tmp_path, "--alpha", "0.07")
        main(argv2)
        second = json.loads(out2.read_text())
        first.pop("timestamp"), second.pop("timestamp")
        assert first == second

    def test_bmh_results_do_not_depend_on_workers(self, tmp_path):
        results = []
        for workers in ("1", "2"):
            argv, out = fit_args(tmp_path, "--workers", workers)
            argv[argv.index("mhb")] = "bmh"
            assert main(argv + ["--n-samples", "100"]) == 0
            results.append(json.loads(out.read_text())["results"])
        assert results[0] == results[1]

    def test_infeasible_sigma_bounds_exit_2(self, tmp_path, capsys):
        argv, _ = fit_args(tmp_path, "--sigma-bounds", "0.001,0.01")
        assert main(argv) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_missing_file_exit_1(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = ["fit", "--data", str(tmp_path / "nope.csv"), "--n-boot", "0",
                "--out", str(out)]
        assert main(argv) == 1

    def test_malformed_csv_exit_1(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("1.0\n2.0\nabc\n")
        argv = ["fit", "--data", str(p), "--n-boot", "0"]
        assert main(argv) == 1
        assert "line 3" in capsys.readouterr().err

    def test_usage_error_maps_to_exit_1(self, capsys):
        assert main(["fit", "--data", "bundled:newcomb", "--estimator", "nope"]) == 1

    def test_fit_csv_rejected_before_fitting(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "load_dataset", forbidden)
        argv, out = fit_args(tmp_path, "--format", "csv")
        assert main(argv) == 1
        assert "error: invalid configuration: format: 'csv'" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "load_dataset", forbidden)
        argv, _ = fit_args(tmp_path)
        argv[argv.index("--out") + 1] = str(tmp_path / "missing" / "r.json")
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_range_overflowing_float64_exit_1(self, tmp_path, capsys):
        p = tmp_path / "huge.csv"
        p.write_text("-1e308\n0\n1e308\n")
        assert main(["fit", "--data", str(p), "--n-boot", "0"]) == 1
        err = capsys.readouterr().err
        assert "data range [-1e+308, 1e+308]" in err
        assert "overflows float64" in err


NORMAL_200 = np.random.default_rng(5).standard_normal(200)

EDGE_INPUTS = {
    "n=3": np.array([0.3, -1.2, 2.5]),
    "40-ties-plus-one": np.array([7.0] * 40 + [8.0]),
    "three-level-ties": np.repeat([1.0, 2.0, 3.0], 30),
    "scale-1e-12": NORMAL_200 * 1e-12,
    "offset-1e12": NORMAL_200 + 1e12,
}


def run_edge_fit(tmp_path, values, estimator):
    """CLI fit of ``values``; returns the exit code and the estimate, None
    unless the run exits 0."""
    data, out = tmp_path / "edge.csv", tmp_path / "edge.json"
    data.write_text("\n".join(repr(float(v)) for v in values) + "\n")
    code = main(["fit", "--data", str(data), "--estimator", estimator, "--n-boot", "0",
                 "--n-samples", "200", "--seed", "3", "--out", str(out)])
    if code != 0:
        return code, None
    result = json.loads(out.read_text())["results"][estimator]
    return code, result


class TestEdgeInputs:
    @pytest.mark.parametrize("estimator", ["mhb", "bmh"])
    @pytest.mark.parametrize("case", sorted(EDGE_INPUTS))
    def test_exits_cleanly(self, tmp_path, case, estimator):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            code, result = run_edge_fit(tmp_path, EDGE_INPUTS[case], estimator)
        assert code in (0, 1, 2)
        if code == 0 and estimator == "mhb":
            assert result["diagnostics"]["converged"] is True
        if code == 0:
            estimate = result["theta_hat" if estimator == "mhb" else "eap"]
            assert np.all(np.isfinite(estimate)) and estimate[1] > 0

    @staticmethod
    def estimates(tmp_path, values):
        out = {}
        for estimator, key in (("mhb", "theta_hat"), ("bmh", "eap")):
            code, result = run_edge_fit(tmp_path, values, estimator)
            assert code == 0
            out[estimator] = np.asarray(result[key])
        return out

    def test_tiny_scale_matches_unscaled_fit(self, tmp_path):
        base = self.estimates(tmp_path, NORMAL_200)
        tiny = self.estimates(tmp_path, EDGE_INPUTS["scale-1e-12"])
        for estimator in base:
            np.testing.assert_allclose(tiny[estimator] * 1e12, base[estimator], rtol=1e-9)

    def test_large_offset_matches_unshifted_fit(self, tmp_path):
        # at 1e12 the input itself is rounded to about 1.2e-4
        base = self.estimates(tmp_path, NORMAL_200)
        shifted = self.estimates(tmp_path, EDGE_INPUTS["offset-1e12"])
        for estimator in base:
            sigma = base[estimator][1]
            assert abs(shifted[estimator][0] - 1e12 - base[estimator][0]) < 0.01 * sigma
            assert abs(shifted[estimator][1] - sigma) < 0.01 * sigma


class TestRunStudiesAndDump:
    @pytest.mark.parametrize("command, runner", [("robustness", "robustness_sweep"),
                                                 ("efficiency", "efficiency_study")])
    def test_nonpositive_theta0_scale_exit_1(self, command, runner, capsys, monkeypatch):
        monkeypatch.setattr(cli, runner, forbidden)
        for scale in ("-1", "0"):
            assert main([command, "--theta0", f"0,{scale}"]) == 1
            assert "error: invalid configuration: theta0[1]" in capsys.readouterr().err

    def test_posterior_dump_csv(self, tmp_path):
        out = tmp_path / "samples.csv"
        argv = ["posterior-dump", "--data", "bundled:newcomb",
                "--n-samples", "100", "--seed", "3", "--format", "csv",
                "--out", str(out)]
        assert main(argv) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "index,mu,sigma"
        assert len(lines) == 101

    def test_robustness_study_csv(self, tmp_path):
        out = tmp_path / "rob.csv"
        argv = ["robustness", "--reps", "2", "--n", "120", "--z-grid", "10,30",
                "--estimators", "mle", "--seed", "5", "--format", "csv",
                "--k", "30", "--out", str(out)]
        assert main(argv) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2 * 1

    def test_bvm_json_to_stdout(self, tmp_path, capsys):
        data = np.random.default_rng(0).normal(0, 1, 300)
        p = tmp_path / "d.csv"
        p.write_text("\n".join(str(v) for v in data) + "\n")
        argv = ["bvm", "--data", str(p), "--n-samples", "150", "--seed", "2",
                "--k", "40"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["study"] == "bvm"
        assert len(report["results"]["rows"]) == 2
