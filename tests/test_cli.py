import argparse
import copy
import json
import re
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mhdbayes.cli as cli
import mhdbayes.experiments as experiments
from mhdbayes.cli import build_parser, main, resolve_config, validate_config
from mhdbayes.datasets import Dataset, load_dataset
from mhdbayes.experiments import efficiency_study
from mhdbayes.posterior import HistogramPrior


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

    def test_byte_order_mark_is_not_a_header(self, tmp_path):
        # a UTF-8 file saved with a byte-order mark keeps its first value
        p = tmp_path / "vals.csv"
        p.write_bytes(b"\xef\xbb\xbf1.5\n2.5\n3.5\n4.0\n")
        assert np.array_equal(load_dataset(str(p)).values, [1.5, 2.5, 3.5, 4.0])

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

    @pytest.mark.parametrize("text", ["1.0\n\n2.0\n", "1.0\n  ,\n2.0\n"],
                             ids=["blank", "empty-cell"])
    def test_blank_lines_are_skipped(self, tmp_path, text):
        p = tmp_path / "vals.csv"
        p.write_text(text)
        assert np.array_equal(load_dataset(str(p)).values, [1.0, 2.0])

    @pytest.mark.parametrize("values, message", [([], "at least one value"),
                                                 ([[1.0, 2.0]], "at least one value"),
                                                 ([1.0, np.nan], "non-finite")],
                             ids=["empty", "2-d", "nan"])
    def test_dataset_checks_its_values(self, values, message):
        with pytest.raises(ValueError, match=message):
            Dataset(values=values, name="x")


def fit_args(tmp_path, *extra):
    out = tmp_path / "report.json"
    return ["fit", "--data", "bundled:newcomb", "--estimator", "mhb",
            "--n-boot", "0", "--seed", "7", "--out", str(out), *extra], out


def forbidden(*args, **kwargs):
    raise AssertionError("computation started before the config was checked")


def _no_constant(name):
    raise ValueError(f"report holds {name}, which is not JSON")


def strict_json(text):
    """A report parsed as strict JSON: NaN and Infinity, which
    ``json.dumps`` writes by default, are refused."""
    return json.loads(text, parse_constant=_no_constant)


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

    def test_robustness_n_samples_below_minimum_exit_1(self, capsys, monkeypatch):
        # rejected as fit --estimator bmh rejects it, not raised to 100
        monkeypatch.setattr(cli, "robustness_sweep", forbidden)
        assert main(["robustness", "--n-samples", "50"]) == 1
        assert "n_samples: 50 is less than the minimum of 100" in capsys.readouterr().err

    @pytest.mark.parametrize("n_boot", ["10", "49", "-1"])
    def test_n_boot_not_zero_or_at_least_50_exit_1(self, n_boot, tmp_path, capsys,
                                                   monkeypatch):
        # rejected before the point fit, not by the bootstrap after it
        monkeypatch.setattr(cli, "load_dataset", forbidden)
        argv, _ = fit_args(tmp_path)
        argv[argv.index("--n-boot") + 1] = n_boot
        assert main(argv) == 1
        assert (f"invalid configuration: n_boot: {n_boot} is less than the minimum of"
                in capsys.readouterr().err)

    def test_negative_workers_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "load_dataset", forbidden)
        argv, _ = fit_args(tmp_path, "--workers", "-3")
        assert main(argv) == 1
        assert ("invalid configuration: workers: -3 is less than the minimum of 0"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["efficiency", "bvm", "posterior-dump"])
    def test_workers_flag_only_where_it_has_an_owner(self, command, capsys, monkeypatch):
        for name in ("load_dataset", "efficiency_study", "bvm_diagnostic", "bmh_fit"):
            monkeypatch.setattr(cli, name, forbidden)
        data = [] if command == "efficiency" else ["--data", "bundled:newcomb"]
        assert main([command, *data, "--workers", "2"]) == 1
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        args = build_parser().parse_args([command, *data])
        assert "workers" not in resolve_config(args)

    @pytest.mark.parametrize("argv", [
        ["fit", "--data", "bundled:newcomb", "--estimator", "mhb", "--n-boot", "50"],
        ["robustness", "--estimators", "mhb,mle", "--z-grid", "5,50", "--n", "120",
         "--reps", "2"],
    ], ids=["fit", "robustness"])
    def test_reports_ignore_the_environment(self, argv, tmp_path, monkeypatch):
        # the worker count comes from the flag alone, never from the environment
        monkeypatch.delenv("MHDBAYES_WORKERS", raising=False)
        reports = []
        for env in (None, "2"):
            if env:
                monkeypatch.setenv("MHDBAYES_WORKERS", env)
            out = tmp_path / "report.json"
            assert main(argv + ["--seed", "5", "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            report.pop("timestamp")
            reports.append(report)
        assert reports[0] == reports[1]
        assert reports[0]["config"]["workers"] == 1


COMMON_KEYS = {"command", "family", "prior", "seed", "padding", "out", "format"}
COMMAND_KEYS = {
    "fit": {"data", "estimator", "n_samples", "n_boot", "levels", "mu_bounds",
            "sigma_bounds", "workers"},
    "robustness": {"theta0", "contamination", "z_grid", "epsilon", "n", "reps",
                   "estimators", "n_samples", "workers"},
    "efficiency": {"theta0", "n", "reps"},
    "bvm": {"data", "n_samples"},
    "posterior-dump": {"data", "n_samples"},
}


def valid_config(command, prior_mode):
    data = ["--data", "bundled:newcomb"] if "data" in COMMAND_KEYS[command] else []
    return resolve_config(build_parser().parse_args([command, *data, "--prior-mode", prior_mode]))


VALID_CONFIGS = [valid_config(command, mode) for command in sorted(COMMAND_KEYS)
                 for mode in ("fixed", "random")]
SCHEMA = cli.config_schema()
ORACLE = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)
PRIOR_KEYS = sorted(SCHEMA["properties"]["prior"]["properties"])

# every JSON type: numbers on and next to the schema's bounds, integral
# floats, bools, None, words of its enums, short lists and dicts
SCALARS = (st.sampled_from([None, True, False, -1, 0, 1, 2, 3, 49, 50, 99, 100, -0.5, 0.0,
                            0.5, 1.0, 2.0, 50.0, 100.0, "fit", "robustness", "bvm",
                            "fixed", "random", "json", "csv", "mhb", "mle", "gaussian",
                            "bundled:newcomb", ""])
           | st.integers() | st.floats(allow_nan=False, allow_infinity=False))
LISTS = st.lists(SCALARS, max_size=3)
JSON_VALUES = (SCALARS | LISTS
               | st.dictionaries(st.sampled_from([*PRIOR_KEYS, "x"]), SCALARS | LISTS,
                                 max_size=4))


@st.composite
def mutated_configs(draw):
    """A valid config of some subcommand and prior mode with up to three of
    its keys, at the top level or under ``prior``, replaced, deleted or
    added."""
    config = copy.deepcopy(draw(st.sampled_from(VALID_CONFIGS)))
    for _ in range(draw(st.integers(0, 3))):
        nested = isinstance(config.get("prior"), dict) and draw(st.booleans())
        target, known = ((config["prior"], PRIOR_KEYS) if nested
                         else (config, sorted(SCHEMA["properties"])))
        key = draw(st.sampled_from(sorted({*target, *known, "bogus"})))
        if draw(st.booleans()):
            target.pop(key, None)
        else:
            target[key] = draw(JSON_VALUES)
    return config


class TestSchemaReader:
    @settings(max_examples=2000, deadline=None)
    @given(mutated_configs())
    def test_reports_the_error_jsonschema_best_match_picks(self, config):
        best = jsonschema.exceptions.best_match(ORACLE.iter_errors(config))
        expected = None if best is None else (tuple(best.absolute_path), best.message)
        assert cli._schema_error(config) == expected

    def test_shipped_schema_is_valid_and_fully_read(self):
        ORACLE.check_schema(SCHEMA)
        cli._check_schema(SCHEMA)

    @pytest.mark.parametrize("schema, keyword", [
        ({"type": "object", "properties": {"n": {"type": "integer", "maximum": 3}}},
         "maximum"),
        ({"allOf": [{"if": {"const": 1}, "then": {}, "else": {}}]}, "else"),
        ({"items": {"pattern": "x"}}, "pattern"),
        ({"additionalProperties": {"type": "string"}}, "additionalProperties"),
    ], ids=["maximum", "else", "pattern", "schema-valued-additionalProperties"])
    def test_unknown_keyword_raises(self, schema, keyword):
        with pytest.raises(ValueError, match=rf"keyword\(s\) \['{keyword}'\] not supported"):
            cli._check_schema(schema)

    def test_run_refuses_a_schema_it_cannot_read(self, capsys, monkeypatch):
        schema = copy.deepcopy(SCHEMA)
        schema["properties"]["seed"]["maximum"] = 10
        monkeypatch.setattr(cli, "config_schema", lambda: schema)
        monkeypatch.setattr(cli, "_schema", cli._schema.__wrapped__)
        monkeypatch.setattr(cli, "efficiency_study", forbidden)
        assert main(["efficiency"]) == 1
        assert "config schema: keyword(s) ['maximum'] not supported" in capsys.readouterr().err


class TestReadme:
    def test_every_long_option_is_documented(self):
        # each flag of each subcommand, argparse's own --help aside, is
        # named in the README's "Flags:" paragraph as a whole word; the
        # example commands do not count
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        start = readme.index("\nFlags:")
        readme = readme[start:readme.index("\n\n", start)]
        (commands,) = [a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        missing = [(name, option) for name, parser in commands.choices.items()
                   for action in parser._actions
                   if not isinstance(action, argparse._HelpAction)
                   for option in action.option_strings if option.startswith("--")
                   and not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", readme)]
        assert missing == []


class TestConfigKeys:
    @pytest.mark.parametrize("command", sorted(COMMAND_KEYS))
    @pytest.mark.parametrize("prior_mode, prior_keys", [
        ("fixed", {"mode", "alpha", "k"}), ("random", {"mode", "alpha", "lambda"})])
    def test_exact_key_set(self, command, prior_mode, prior_keys):
        config = valid_config(command, prior_mode)
        assert set(config) == COMMON_KEYS | COMMAND_KEYS[command]
        assert set(config["prior"]) == prior_keys
        assert validate_config(config) is config

    def test_estimators_flag_is_a_list(self):
        args = build_parser().parse_args(["robustness", "--estimators", "mhb, mle"])
        assert resolve_config(args)["estimators"] == ["mhb", "mle"]
        args = build_parser().parse_args(["robustness"])
        assert resolve_config(args)["estimators"] == ["mhb", "bmh", "mle"]

    def test_run_is_the_one_validation(self, tmp_path, capsys, monkeypatch):
        # main validates a config once, in run, before the runner starts
        calls = []
        validate = cli.validate_config

        def counting(config):
            calls.append(config["command"])
            return validate(config)

        monkeypatch.setattr(cli, "validate_config", counting)
        monkeypatch.setitem(cli._RUNNERS, "fit", lambda config: ({}, None))
        argv, out = fit_args(tmp_path)
        assert main(argv) == 0
        assert json.loads(out.read_text())["results"] == {}
        assert calls == ["fit"]
        monkeypatch.setitem(cli._RUNNERS, "fit", forbidden)
        argv, _ = fit_args(tmp_path, "--k", "0")
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: invalid configuration: prior.k")
        assert calls == ["fit", "fit"]


class TestRunFit:
    def test_mhb_fit_writes_report(self, tmp_path, capsys):
        argv, out = fit_args(tmp_path)
        assert main(argv) == 0
        report = strict_json(out.read_text())
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

    @pytest.mark.parametrize("flag, bounds", [("--sigma-bounds", "0.1,10"),
                                              ("--mu-bounds", "9999990,10000010")])
    def test_one_bound_flag_keeps_the_other_default_box(self, tmp_path, flag, bounds):
        # data near 1e7: the parameter without a flag keeps its unit-scale
        # default box, so the flag changes nothing for an interior estimate
        data = tmp_path / "offset.csv"
        values = np.random.default_rng(0).normal(1e7, 2.0, 200)
        data.write_text("\n".join(repr(float(v)) for v in values) + "\n")
        thetas = []
        for extra in ([], [flag, bounds]):
            argv, out = fit_args(tmp_path, *extra)
            argv[argv.index("--data") + 1] = str(data)
            assert main(argv) == 0
            thetas.append(json.loads(out.read_text())["results"]["mhb"]["theta_hat"])
        assert thetas[0] == thetas[1]
        assert abs(thetas[0][0] - 1e7) < 1.0

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

    @pytest.mark.parametrize("flag", ["--mu-bounds", "--sigma-bounds"])
    @pytest.mark.parametrize("text", ["1,2,3", "1"])
    def test_bounds_flag_needs_two_values_exit_1(self, flag, text, capsys, monkeypatch):
        monkeypatch.setattr(cli, "load_dataset", forbidden)
        assert main(["fit", "--data", "bundled:newcomb", flag, text]) == 1
        assert "expected 'lo,hi'" in capsys.readouterr().err

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

    def test_out_naming_a_directory_exit_1(self, tmp_path, capsys, monkeypatch):
        # rejected before any data are loaded, not when the report is written
        monkeypatch.setattr(cli, "load_dataset", forbidden)
        argv, _ = fit_args(tmp_path)
        argv[argv.index("--out") + 1] = str(tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: invalid configuration: out: {str(tmp_path)!r} is a directory\n")

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


# 40 values whose sum, and the squares of whose deviations, overflow float64
# while their padded range does not
NEAR_MAX = 1.5e308 + np.random.default_rng(0).uniform(0.0, 1e307, 40)


def overflowing(config):
    raise OverflowError("math range error")


class TestFloat64Extremes:
    """Finite inputs whose moments overflow: no traceback, and every report
    is strict JSON."""

    @pytest.mark.parametrize("extra", [
        ["--estimator", "mhb", "--n-boot", "0"],
        ["--estimator", "bmh", "--n-samples", "200"],
        ["--estimator", "both", "--n-boot", "50", "--n-samples", "100"],
    ], ids=["mhb", "bmh", "both"])
    def test_fit_near_the_largest_double(self, tmp_path, extra):
        data, out = tmp_path / "huge.csv", tmp_path / "huge.json"
        data.write_text("\n".join(repr(float(v)) for v in NEAR_MAX) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # the prior-mass warning
            assert main(["fit", "--data", str(data), "--seed", "3", "--out", str(out),
                         *extra]) == 0
        for result in strict_json(out.read_text())["results"].values():
            if "estimator" in result:
                mu, sigma = result["theta_hat" if result["estimator"] == "mhb" else "eap"]
                assert NEAR_MAX.min() <= mu <= NEAR_MAX.max() and 0 < sigma < np.inf

    @pytest.mark.parametrize("values, reason", [
        (NEAR_MAX, "has no finite plausible support"),
        (1.5e308 * (1.0 + np.random.default_rng(0).uniform(0.0, 1e-3, 40)),
         "whose squared width, the scale of its asymptotic variance, overflows"),
    ], ids=["overflowing-support", "underflowing-curvature"])
    def test_bvm_near_the_largest_double_names_the_data_range(self, tmp_path, values, reason,
                                                              capsys, monkeypatch):
        # refused after all the draws and before the variance: the fitted
        # model's support overflows, or its sigma (about 1e305) would
        # underflow the influence-function quadrature
        monkeypatch.setattr(experiments, "asymptotic_variance",
                            lambda *args: pytest.fail("the variance was computed"))
        data = tmp_path / "huge.csv"
        data.write_text("\n".join(repr(float(v)) for v in values) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # the prior-mass warning
            assert main(["bvm", "--data", str(data), "--seed", "1"]) == 1
        captured = capsys.readouterr()
        span = f"[{float(values.min())!r}, {float(values.max())!r}]"
        assert captured.out == "" and captured.err.startswith(
            f"error: the model fit to data in {span} ")
        assert reason in captured.err

    @pytest.mark.parametrize("extra, far", [
        (["--estimators", "mhb,mle", "--z-grid", "5,1e308"], 1e308),
        (["--estimators", "mle", "--z-grid", "5,1e308"], 1e308),
        (["--estimators", "mhb,mle", "--epsilon", "1e308"], None),
    ], ids=["mhb-mle-far-z", "mle-far-z", "huge-epsilon"])
    def test_robustness_non_finite_mle_is_an_error_row(self, tmp_path, extra, far):
        out = tmp_path / "rob.json"
        argv = ["robustness", "--n", "50", "--reps", "2", "--seed", "0", "--out", str(out),
                *extra]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)   # the MLE's overflowing sums
            assert main(argv) == 0
        rows = strict_json(out.read_text())["results"]["rows"]
        mle = [row for row in rows
               if row["estimator"] == "mle" and (far is None or row["z"] == far)]
        assert mle and all(re.fullmatch(r"mle estimate \[.*\] is not finite", row["error"])
                           and "theta_hat" not in row for row in mle)

    @pytest.mark.parametrize("failure", [
        overflowing,
        lambda config: ({"estimate": [float("nan"), 1.0]}, None),
    ], ids=["overflow", "nan-in-report"])
    def test_numerical_failures_exit_2(self, failure, capsys, monkeypatch):
        # any ArithmeticError is a numerical failure, and a report is never
        # written with a NaN or an infinite number
        monkeypatch.setitem(cli._RUNNERS, "fit", failure)
        assert main(["fit", "--data", "bundled:newcomb"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("numerical failure: ")

    def test_singular_matrix_exits_2(self, capsys):
        # numpy's LinAlgError is a ValueError, yet a numerical failure; the
        # Fisher information at sigma 1e300 underflows to a zero matrix
        assert main(["efficiency", "--theta0", "0,1e300", "--n", "50", "--reps", "100"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "numerical failure: Singular matrix\n"


class TestRunStudiesAndDump:
    @pytest.mark.parametrize("command, runner", [("robustness", "robustness_sweep"),
                                                 ("efficiency", "efficiency_study")])
    def test_nonpositive_theta0_scale_exit_1(self, command, runner, capsys, monkeypatch):
        monkeypatch.setattr(cli, runner, forbidden)
        for scale in ("-1", "0"):
            assert main([command, "--theta0", f"0,{scale}"]) == 1
            assert "error: invalid configuration: theta0[1]" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, key", [
        (["robustness", "--epsilon", "nan"], "epsilon: nan"),
        (["fit", "--data", "bundled:newcomb", "--sigma-bounds", "1,inf"], "sigma_bounds[1]: inf"),
        (["fit", "--data", "bundled:newcomb", "--prior-mode", "random", "--lambda", "nan"],
         "prior.lambda: nan"),
        (["fit", "--data", "bundled:newcomb", "--mu-bounds", "nan,30"], "mu_bounds[0]: nan"),
    ], ids=["epsilon", "sigma-bounds", "lambda", "mu-bounds"])
    def test_non_finite_numbers_exit_1_before_any_data_load(self, argv, key, capsys,
                                                            monkeypatch):
        # JSON Schema passes NaN through every bound, and json.dumps would
        # write NaN or Infinity into a report that is then not JSON
        for name in ("load_dataset", "robustness_sweep"):
            monkeypatch.setattr(cli, name, forbidden)
        assert main(argv) == 1
        assert capsys.readouterr().err == (f"error: invalid configuration: {key} "
                                           "is not a finite number\n")

    def test_posterior_dump_csv(self, tmp_path):
        out = tmp_path / "samples.csv"
        argv = ["posterior-dump", "--data", "bundled:newcomb",
                "--n-samples", "100", "--seed", "3", "--format", "csv",
                "--out", str(out)]
        assert main(argv) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "index,mu,sigma"
        assert len(lines) == 101
        # the JSON report of the same run holds the same draws
        json_out = tmp_path / "samples.json"
        assert main(argv[:-4] + ["--out", str(json_out)]) == 0
        rows = strict_json(json_out.read_text())["results"]["theta_samples"]
        assert [f"{r['index']},{r['mu']!r},{r['sigma']!r}" for r in rows] == lines[1:]

    def test_robustness_study_csv(self, tmp_path):
        out = tmp_path / "rob.csv"
        argv = ["robustness", "--reps", "2", "--n", "120", "--z-grid", "10,30",
                "--estimators", "mle", "--seed", "5", "--format", "csv",
                "--k", "30", "--out", str(out)]
        assert main(argv) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2 * 1

    def test_robustness_workers_0_uses_every_core(self, tmp_path, monkeypatch):
        # 0 is recorded as given and means one process per core (two here)
        pools, map_tasks = [], experiments._map_tasks

        def recording(fn, tasks, workers):
            pools.append(workers)
            return map_tasks(fn, tasks, workers)

        monkeypatch.setattr(experiments, "_map_tasks", recording)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        results = []
        for workers in ("0", "1"):
            out = tmp_path / "rob.json"
            argv = ["robustness", "--reps", "2", "--n", "120", "--z-grid", "10,30",
                    "--estimators", "mhb,mle", "--seed", "5", "--k", "30",
                    "--workers", workers, "--out", str(out)]
            assert main(argv) == 0
            report = json.loads(out.read_text())
            assert report["config"]["workers"] == int(workers)
            results.append(report["results"]["rows"])
        assert pools == [2, 1]
        assert results[0] == results[1]

    def test_robustness_integral_float_workers_reach_the_pool_as_int(self, tmp_path,
                                                                     monkeypatch, capsys):
        # the schema's integer takes 2.0, and a pool of 2.0 workers raises
        # TypeError; the replicates run serially here, so no pool starts
        pools = []

        def serial(fn, tasks, workers):
            pools.append(workers)
            return [fn(t) for t in tasks]

        monkeypatch.setattr(experiments, "_map_tasks", serial)
        config = resolve_config(build_parser().parse_args(
            ["robustness", "--reps", "2", "--n", "120", "--z-grid", "10,30",
             "--estimators", "mle", "--seed", "5", "--out", str(tmp_path / "rob.json")]))
        assert cli.run({**config, "workers": 2.0}) == 0, capsys.readouterr().err
        assert pools == [2] and type(pools[0]) is int

    def test_efficiency_with_random_k_is_the_library_study(self, tmp_path):
        # the efficiency subcommand, on the Poisson prior of --prior-mode random
        out = tmp_path / "eff.json"
        argv = ["efficiency", "--reps", "100", "--n", "200", "--seed", "4",
                "--prior-mode", "random", "--lambda", "8", "--alpha", "0.5",
                "--out", str(out)]
        assert main(argv) == 0
        report = strict_json(out.read_text())
        assert report["config"]["prior"] == {"mode": "random", "lambda": 8.0, "alpha": 0.5}
        study = efficiency_study(n=200, reps=100, rng=4,
                                 prior=HistogramPrior.poisson(8.0, alpha=0.5))
        assert report["results"] == json.loads(json.dumps(study.to_json()))
        assert report["results"]["summary"]["mhb_failures"] == 0

    def test_robustness_failed_fit_is_an_error_row(self, tmp_path, monkeypatch):
        # an MHB fit that raises at the far z becomes that cell's error row;
        # the study still runs to its report
        from mhdbayes import experiments

        mhb_finish = experiments._mhb_finish

        def failing_far(setup, data, *args, **kwargs):
            if data.max() > 20.0:
                raise RuntimeError("minimum-distance fit did not converge")
            return mhb_finish(setup, data, *args, **kwargs)

        monkeypatch.setattr(experiments, "_mhb_finish", failing_far)
        out = tmp_path / "rob.json"
        argv = ["robustness", "--reps", "2", "--n", "120", "--z-grid", "10,30",
                "--estimators", "mhb,mle", "--seed", "5", "--k", "30", "--out", str(out)]
        assert main(argv) == 0
        # cells with no estimate are null, not NaN
        results = strict_json(out.read_text())["results"]
        far = [row for row in results["rows"] if row["z"] == 30.0 and row["estimator"] == "mhb"]
        assert far == [{"rep": r, "z": 30.0, "estimator": "mhb",
                        "error": "minimum-distance fit did not converge"} for r in range(2)]
        assert all("error" not in row for row in results["rows"] if row not in far)
        cell = results["summary"]["cells"]["mhb@z=30"]
        assert cell["n_failed"] == 2 and cell["median_location_error"] is None
        assert results["summary"]["cells"]["mhb@z=10"]["n_failed"] == 0
        assert results["checks"]["mhb_location_at_far_z"] is False

    def test_bvm_json_to_stdout(self, tmp_path, capsys):
        data = np.random.default_rng(0).normal(0, 1, 300)
        p = tmp_path / "d.csv"
        p.write_text("\n".join(str(v) for v in data) + "\n")
        argv = ["bvm", "--data", str(p), "--n-samples", "150", "--seed", "2",
                "--k", "40"]
        assert main(argv) == 0
        report = strict_json(capsys.readouterr().out)
        assert report["results"]["study"] == "bvm"
        assert len(report["results"]["rows"]) == 2
