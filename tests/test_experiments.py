import json
import math
import re

import numpy as np
import pytest
import scipy.stats

from _helpers import (
    ContaminationSpec,
    box_of,
    contaminated_density,
    count_histogram_bc_rows,
    sample_contaminated,
)
from mhdbayes.densities import GaussianFamily
from mhdbayes.estimators import mhb_fit
from mhdbayes.functional import mhd_rows
from mhdbayes.experiments import (
    RATIO_BAND,
    _ks_normal,
    bvm_diagnostic,
    efficiency_study,
    robustness_sweep,
)
from mhdbayes.numerics import composite_nodes, worker_rng
from mhdbayes.posterior import HistogramPrior

PRIOR_SMALL = HistogramPrior.fixed(40, alpha=0.07)


class TestContaminationSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ContaminationSpec(theta=(0, 1), alpha=1.0, z=5.0, epsilon=0.01)
        with pytest.raises(ValueError):
            ContaminationSpec(theta=(0, 1), alpha=0.1, z=5.0, epsilon=0.0)


class TestContaminatedDensity:
    fam = GaussianFamily()

    def test_alpha_zero_is_clean_model(self):
        spec = ContaminationSpec(theta=(0.0, 1.0), alpha=0.0, z=30.0, epsilon=0.01)
        mix = contaminated_density(spec, self.fam)
        x = np.linspace(-4, 4, 33)
        assert np.allclose(mix.pdf(x), self.fam.pdf((0.0, 1.0), x), atol=1e-15)

    def test_mass_splits_between_components(self):
        # narrow clean component far from the blip: half the mass each side
        spec = ContaminationSpec(theta=(0.0, 0.05), alpha=0.5, z=10.0, epsilon=0.05)
        mix = contaminated_density(spec, self.fam)
        x, w = composite_nodes(np.linspace(-1.0, 1.0, 257))
        near = np.dot(w, mix.pdf(x))
        edges = np.unique(np.concatenate([np.linspace(9.0, 11.0, 65),
                                          mix.breakpoints()]))
        x2, w2 = composite_nodes(edges[(edges >= 9.0) & (edges <= 11.0)])
        far = np.dot(w2, mix.pdf(x2))
        assert near == pytest.approx(0.5, abs=1e-8)
        assert far == pytest.approx(0.5, abs=1e-8)

    def test_integrates_to_one_random_specs(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            theta = (rng.uniform(-2, 2), rng.uniform(0.3, 2.0))
            spec = ContaminationSpec(theta=theta, alpha=rng.uniform(0, 0.5),
                                     z=rng.uniform(5, 40), epsilon=rng.uniform(0.005, 0.1))
            mix = contaminated_density(spec, self.fam)
            lo = theta[0] - 10 * theta[1]
            hi = spec.z + 1.0
            edges = np.unique(np.concatenate([np.linspace(lo, hi, 257),
                                              mix.breakpoints()]))
            x, w = composite_nodes(edges)
            assert np.dot(w, mix.pdf(x)) == pytest.approx(1.0, abs=1e-8)


class TestSampleContaminated:
    fam = GaussianFamily()

    def test_exact_outlier_count(self):
        spec = ContaminationSpec(theta=(0.0, 1.0), alpha=0.1, z=50.0, epsilon=0.01)
        data = sample_contaminated(spec, self.fam, 503, np.random.default_rng(0))
        assert len(data) == 503
        assert int(np.sum(data > 25.0)) == int(np.ceil(0.1 * 503))

    def test_alpha_zero_matches_clean_stream(self):
        spec = ContaminationSpec(theta=(0.0, 1.0), alpha=0.0, z=50.0, epsilon=0.01)
        a = sample_contaminated(spec, self.fam, 100, np.random.default_rng(7))
        b = self.fam.sample((0.0, 1.0), 100, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestRobustnessSweep:
    def test_smoke_and_determinism(self):
        kwargs = dict(theta=(0.0, 1.0), alpha=0.1, z_grid=(8.0, 30.0), n=150,
                      reps=3, rng=5, prior=PRIOR_SMALL,
                      estimators=("mhb", "mle"))
        r1 = robustness_sweep(**kwargs)
        r2 = robustness_sweep(**kwargs)
        assert r1.rows == r2.rows
        assert len(r1.rows) == 3 * 2 * 2
        assert all("abs_location_error" in row or "error" in row for row in r1.rows)
        assert "mhb@z=30" in r1.summary["cells"]
        assert set(r1.checks) >= {"mhb_location_at_far_z", "mle_biased_at_far_z"}

    def test_far_outlier_rep_fits_like_its_neighbours(self):
        # the clean data fill about one bin here; no fit may settle on a spike
        # at the sigma bound, which the quadrature no longer resolves
        rows = robustness_sweep(estimators=("mhb",), z_grid=(1000,), reps=7,
                                n=500, rng=101, workers=1).rows
        assert "error" not in rows[6]
        others = np.asarray([row["theta_hat"] for row in rows[:6]])
        assert np.all(others.min(axis=0) <= rows[6]["theta_hat"])
        assert np.all(rows[6]["theta_hat"] <= others.max(axis=0))

    def test_far_outlier_rep_converges_from_the_seed_grid(self):
        # Nelder-Mead from the moment start walked this rep to an unresolved
        # spike at the sigma bound ("did not converge"); the seeded Newton
        # converges
        rows = robustness_sweep(estimators=("mhb",), z_grid=(1000,), reps=8,
                                n=500, rng=208, workers=1).rows
        assert "error" not in rows[7]

    def test_bad_z_grid(self):
        with pytest.raises(ValueError, match="ascending"):
            robustness_sweep(z_grid=(10.0, 5.0), reps=1, rng=0)

    @pytest.mark.parametrize("kwargs, match", [
        (dict(estimators=("mhb", "MLE")), r"got \['mhb', 'MLE'\]"),
        (dict(estimators=()), r"got \[\]"),
        (dict(z_grid=()), "z_grid must be non-empty"),
        (dict(z_grid=(5.0, math.nan, 50.0)), "z_grid must be non-empty, finite and strictly"),
        (dict(z_grid=(math.nan,)), "z_grid must be non-empty, finite and strictly"),
        (dict(z_grid=(5.0, math.inf)), "z_grid must be non-empty, finite and strictly"),
        (dict(theta=(math.nan, 1.0)), "finite mu and a finite sigma > 0"),
        (dict(theta=(math.inf, 1.0)), "finite mu and a finite sigma > 0"),
        (dict(theta=(0.0, -1.0)), "finite mu and a finite sigma > 0"),
        (dict(theta=(0.0, math.nan)), "finite mu and a finite sigma > 0"),
    ], ids=["unknown-estimator", "no-estimator", "empty-z-grid", "nan-inside-z-grid",
            "nan-z-grid", "inf-z-grid", "nan-mu", "inf-mu", "negative-sigma", "nan-sigma"])
    def test_bad_sweep_inputs_fail_before_any_fit(self, kwargs, match, monkeypatch):
        from mhdbayes import experiments

        def forbidden(*args, **kwargs):
            raise AssertionError("a replicate ran before the inputs were checked")

        monkeypatch.setattr(experiments, "_map_tasks", forbidden)
        monkeypatch.setattr(experiments, "_robustness_rep", forbidden)
        with pytest.raises(ValueError, match=match):
            robustness_sweep(reps=1, rng=0, **kwargs)

    @pytest.mark.parametrize("alpha, epsilon, message", [
        (1.0, 0.01, r"alpha must lie in \[0, 1\)"),
        (-0.1, 0.01, r"alpha must lie in \[0, 1\)"),
        (float("nan"), 0.01, r"alpha must lie in \[0, 1\)"),
        (0.1, 0.0, "epsilon must be positive"),
        (0.1, float("nan"), "epsilon must be positive"),
        (0.1, float("inf"), "epsilon must be positive and finite"),
    ])
    def test_bad_contamination_fails_before_any_fit(self, alpha, epsilon, message,
                                                    monkeypatch):
        from mhdbayes import experiments

        def forbidden(*args, **kwargs):
            raise AssertionError("a replicate ran before the contamination was checked")

        monkeypatch.setattr(experiments, "_map_tasks", forbidden)
        with pytest.raises(ValueError, match=message):
            robustness_sweep(alpha=alpha, epsilon=epsilon, reps=1, rng=0)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(reps=0), r"need at least 1 replicate, got reps=0"),
        (dict(n=0, estimators=("mle",)), r"observations per replicate, got n=0"),
        (dict(n=1, estimators=("mle",)), r"need at least 3 observations per replicate, got n=1"),
        (dict(n_samples_bmh=99), r"needs n_samples_bmh >= 100, got 99"),
    ], ids=["no-replicate", "empty-sample", "one-point-sample", "few-bmh-draws"])
    def test_sizes_the_schema_rejects_fail_before_any_fit(self, kwargs, message,
                                                          monkeypatch):
        # reps=0 gave a report of None cells, n=0 NaN medians, n=1 a passing
        # study whose lone point is the blip, and 99 draws a BMH error row
        # in every cell
        from mhdbayes import experiments

        def forbidden(*args, **kwargs):
            raise AssertionError("a replicate ran before the sizes were checked")

        monkeypatch.setattr(experiments, "_map_tasks", forbidden)
        monkeypatch.setattr(experiments, "_robustness_rep", forbidden)
        with pytest.raises(ValueError, match=message):
            robustness_sweep(**{"reps": 1, "rng": 0, **kwargs})

    def test_includes_bmh_when_requested(self):
        report = robustness_sweep(theta=(0.0, 1.0), alpha=0.1, z_grid=(20.0,),
                                  n=120, reps=1, rng=3, prior=PRIOR_SMALL,
                                  estimators=("bmh",), n_samples_bmh=100)
        assert "bmh@z=20" in report.summary["cells"]
        err = report.summary["cells"]["bmh@z=20"]["median_location_error"]
        assert err is not None and err < 0.5

    def test_csv_shape(self):
        report = robustness_sweep(theta=(0.0, 1.0), alpha=0.0, z_grid=(10.0,),
                                  n=100, reps=2, rng=1, prior=PRIOR_SMALL,
                                  estimators=("mle",))
        text = report.to_csv()
        lines = text.strip().split("\r\n")
        assert len(lines) == 1 + 2
        assert "estimator" in lines[0]


class TestEfficiencyStudy:
    def test_requires_100_reps(self):
        with pytest.raises(ValueError, match="reps"):
            efficiency_study(reps=10, rng=0)

    @pytest.mark.parametrize("theta0", [(math.nan, 1.0), (math.inf, 1.0), (0.0, 0.0), (0.0, -1.0),
                                        (0.0, math.nan), (0.0, math.inf)],
                             ids=["nan-mu", "inf-mu", "zero-sigma", "negative-sigma",
                                  "nan-sigma", "inf-sigma"])
    def test_bad_truth_fails_before_any_fit(self, theta0, monkeypatch):
        from mhdbayes import experiments

        def forbidden(*args, **kwargs):
            raise AssertionError("a replicate ran before the true parameter was checked")

        monkeypatch.setattr(experiments, "_mhb_many", forbidden)
        with pytest.raises(ValueError, match="finite mu and a finite sigma > 0"):
            efficiency_study(theta0=theta0, n=50, reps=100, rng=0)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_too_few_observations_fail_before_any_replicate(self, n, monkeypatch):
        # below the family's dimension + 1 every MHB fit would fail
        from mhdbayes import experiments

        def forbidden(*args, **kwargs):
            raise AssertionError("a replicate ran before n was checked")

        monkeypatch.setattr(experiments, "worker_rng", forbidden)
        monkeypatch.setattr(experiments, "_mhb_many", forbidden)
        with pytest.raises(ValueError, match=rf"need at least 3 observations per replicate, "
                                             rf"got n={n}$"):
            efficiency_study(n=n, reps=100, rng=0)

    @pytest.mark.parametrize("theta0, support", [((0.0, 1e308), "[-inf, inf]"),
                                                 ((1e308, 1.0), "[1e+308, 1e+308]")],
                             ids=["overflowing-sigma", "vanishing-width"])
    def test_theta0_without_finite_support_fails_before_any_sample(self, theta0, support,
                                                                   monkeypatch):
        # the Cramer-Rao target is formed first, so no replicate is drawn
        family = GaussianFamily()

        def forbidden(*args, **kwargs):
            raise AssertionError("a replicate was sampled before theta0's support was checked")

        monkeypatch.setattr(family, "sample", forbidden)
        message = f"theta0 {list(theta0)} has no finite plausible support (got {support})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            efficiency_study(family=family, theta0=theta0, n=50, reps=100, rng=0)

    def test_singular_fisher_information_fails_before_any_sample(self, monkeypatch):
        # sigma = 1e300 underflows every sqrt-density gradient to 0
        family = GaussianFamily()
        monkeypatch.setattr(family, "sample", lambda *args: pytest.fail("sampled a replicate"))
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            efficiency_study(family=family, theta0=(0.0, 1e300), n=50, reps=100, rng=0)

    def test_non_finite_estimate_is_the_row_error(self, monkeypatch):
        # an MLE whose sum overflows leaves that estimate out of its row
        family = GaussianFamily()
        mle = family.mle
        monkeypatch.setattr(family, "mle", lambda data: (
            np.array([np.inf, np.nan]) if data[0] > 0 else mle(data)))
        report = efficiency_study(family=family, n=100, reps=100, rng=2, prior=PRIOR_SMALL)
        bad = [row for row in report.rows if "mle" not in row]
        assert bad and all(row["error"] == "mle estimate [inf, nan] is not finite"
                           and "mhb" in row for row in bad)
        assert report.summary["mle_failures"] == len(bad)
        json.dumps(report.to_json(), allow_nan=False)

    def test_smoke_ratios_near_one(self):
        report = efficiency_study(theta0=(0.0, 1.0), n=400, reps=100, rng=1,
                                  prior=PRIOR_SMALL)
        ratios = report.summary["mhb_var_ratio"]
        assert len(ratios) == 2
        assert 0.5 < ratios[0] < 1.6
        assert 0.5 < ratios[1] < 1.6
        assert report.summary["mhb_failures"] == 0
        assert report.summary["crlb_diag"] == pytest.approx([1.0, 0.5], abs=1e-6)

    @pytest.mark.parametrize("prior", [PRIOR_SMALL, HistogramPrior.poisson()],
                             ids=["fixed-k", "random-k"])
    def test_rows_match_per_replicate_mhb_fit(self, prior):
        # the oracle: one quadrature mhb_fit per replicate, on the same streams
        report = efficiency_study(n=400, reps=100, rng=3, prior=prior)
        family = GaussianFamily()
        for r, row in enumerate(report.rows):
            data = family.sample(np.array([0.0, 1.0]), 400, worker_rng(3, r))
            expected = mhb_fit(data, prior=prior).theta_hat
            assert row["rep"] == r and "error" not in row
            assert np.all(np.abs(row["mhb"] - expected) <= 1e-12 * np.linalg.norm(expected))
            assert row["mle"] == [float(v) for v in family.mle(data)]

    def test_bounded_rows_are_one_call(self, monkeypatch):
        # a data-scale box gives each replicate its own unit-scale box; the
        # replicates are still the rows of one mhd_rows call, and each
        # matches its own quadrature mhb_fit
        from mhdbayes import estimators

        calls = []

        def counting(weights, *args):
            calls.append(len(weights))
            return mhd_rows(weights, *args)

        monkeypatch.setattr(estimators, "mhd_rows", counting)
        family = GaussianFamily(bounds=((-5, 5), (0.1, 2)))
        report = efficiency_study(family=family, n=400, reps=100, rng=1)
        assert calls == [100]
        for r, row in enumerate(report.rows):
            data = family.sample(np.array([0.0, 1.0]), 400, worker_rng(1, r))
            expected = mhb_fit(data, family=family).theta_hat
            assert "error" not in row
            assert np.all(np.abs(row["mhb"] - expected) <= 1e-12 * np.linalg.norm(expected))

    def test_empty_unit_box_is_refused_by_name(self):
        # a sigma ceiling below the unit_box floor of 1e-12 leaves every
        # replicate's unit box empty
        family = GaussianFamily(bounds=(None, (1e-20, 1e-15)))
        with pytest.raises(ValueError, match=r"^parameter box coordinate 1 of row 0 needs "
                                             r"finite lo < hi, got \[1e-12, "):
            efficiency_study(family=family, n=200, reps=100, rng=1)

    def test_random_k_rows_are_one_call(self, monkeypatch):
        # replicates whose random-k EAPs lie on different grids are the rows
        # of one mhd_rows call on the union of those grids
        from mhdbayes import estimators

        calls = []

        def counting(weights, edges, *args):
            calls.append((len(weights), np.shape(edges)))
            return mhd_rows(weights, edges, *args)

        monkeypatch.setattr(estimators, "mhd_rows", counting)
        report = efficiency_study(n=400, reps=100, rng=3, prior=HistogramPrior.poisson())
        assert len(calls) == 1 and calls[0][0] == 100 and len(calls[0][1]) == 1
        assert report.summary["mhb_failures"] == 0

    def test_unconverged_row_is_its_own_error_row(self, monkeypatch):
        from mhdbayes import estimators

        kwargs = dict(n=400, reps=100, rng=1, prior=PRIOR_SMALL)
        clean = efficiency_study(**kwargs)

        def row_7_unconverged(weights, *args):
            theta, converged = mhd_rows(weights, *args)
            if len(weights) == 100:
                converged[7] = False
            return theta, converged

        monkeypatch.setattr(estimators, "mhd_rows", row_7_unconverged)
        report = efficiency_study(**kwargs)
        assert report.summary["mhb_failures"] == 1
        assert report.summary["mle_failures"] == 0
        assert set(report.rows[7]) == {"rep", "n", "error", "mle"}
        assert report.rows[7]["error"].startswith(
            "minimum-distance fit did not converge at theta=[")
        assert report.rows[7]["mle"] == clean.rows[7]["mle"]
        assert report.rows[:7] + report.rows[8:] == clean.rows[:7] + clean.rows[8:]

    def test_no_converged_fit_fails_every_ratio_check(self, monkeypatch):
        from mhdbayes import estimators

        def none_converged(weights, *args):
            theta, converged = mhd_rows(weights, *args)
            return theta, np.zeros_like(converged)

        monkeypatch.setattr(estimators, "mhd_rows", none_converged)
        report = efficiency_study(n=400, reps=100, rng=1, prior=PRIOR_SMALL)
        assert all("error" in row for row in report.rows)
        assert report.summary["mhb_failures"] == 100
        assert report.summary["mle_failures"] == 0
        assert "mhb_var_ratio" not in report.summary
        assert report.checks == {"mhb_var_ratio_0_in_band": False,
                                 "mhb_var_ratio_1_in_band": False}
        assert report.to_json()["passed"] is False

    def test_out_of_box_rows_stop_without_a_line_search(self, monkeypatch):
        # the data's location lies below the box mu in [5, 6]: every row's
        # clipped Newton direction lowers its coefficient, so each solve
        # stops at its start instead of spending its step halvings
        rows = count_histogram_bc_rows(monkeypatch)
        report = efficiency_study(family=GaussianFamily(bounds=((5, 6), (0.1, 2))),
                                  n=400, reps=100, rng=1)
        assert report.summary["mhb_failures"] == 100
        assert all(row["error"].startswith("minimum-distance fit did not converge at "
                                           "theta=[5.0, ") for row in report.rows)
        assert sum(rows) < 30 * 100

    def test_random_k_ratios_in_band(self):
        # the paper's random-histogram prior: MHB fits on union-grid EAPs
        report = efficiency_study(n=2000, reps=200, rng=1, prior=HistogramPrior.poisson())
        for ratio in report.summary["mhb_var_ratio"]:
            assert RATIO_BAND[0] <= ratio <= RATIO_BAND[1]


# each study at a small size, run with the given rng
STUDIES = {
    "efficiency": lambda rng: efficiency_study(n=200, reps=100, rng=rng, prior=PRIOR_SMALL),
    "robustness": lambda rng: robustness_sweep(estimators=("mle",), z_grid=(5.0, 50.0),
                                               n=100, reps=4, rng=rng),
}


class TestGeneratorSeed:
    @pytest.mark.parametrize("study", list(STUDIES))
    def test_report_embeds_an_int_seed_that_reproduces_it(self, study):
        # a Generator draws the study's seed; the report keys on that int,
        # and running the study from it gives the same rows
        run = STUDIES[study]
        report = run(np.random.default_rng(11))
        assert type(report.seed) is int
        assert run(np.random.default_rng(11)).seed == report.seed
        assert run(report.seed).rows == report.rows
        assert run(np.random.default_rng(12)).seed != report.seed


class TestWorkers:
    def test_negative_workers_fail_before_any_fit(self, monkeypatch):
        from mhdbayes import experiments

        def forbidden(*args, **kwargs):
            raise AssertionError("a replicate ran before the worker count was checked")

        monkeypatch.setattr(experiments, "_map_tasks", forbidden)
        monkeypatch.setattr(experiments, "_robustness_rep", forbidden)
        with pytest.raises(ValueError, match="worker count must be >= 0, got -1"):
            robustness_sweep(workers=-1, reps=1, rng=0)

    @pytest.mark.parametrize("study, kwargs", [
        (robustness_sweep, dict(theta=(0.0, 1.0), alpha=0.1, z_grid=(25.0,), n=120,
                                reps=4, rng=11, prior=PRIOR_SMALL, estimators=("mhb",))),
    ], ids=["robustness"])
    def test_parallel_matches_serial(self, study, kwargs):
        # the whole report is byte-identical across worker counts
        reports = []
        for workers in (1, 2):
            report = study(workers=workers, **kwargs).to_json()
            reports.append(json.dumps(report, sort_keys=True))
        assert reports[0] == reports[1]


class TestFunctionalRobustnessOracle:
    def test_mhd_on_analytic_contaminated_density(self):
        # the functional itself, applied to the exact gross-error mixture
        # with the blip 50 sigma away, stays at the clean parameter
        from mhdbayes.functional import mhd

        fam = GaussianFamily(bounds=((-5.0, 60.0), (0.05, 30.0)))
        spec = ContaminationSpec(theta=(0.0, 1.0), alpha=0.1, z=50.0, epsilon=0.01)
        mix = contaminated_density(spec, fam)
        res = mhd(mix, fam, (0.3, 1.3), *box_of(fam))
        assert res.converged
        assert abs(res.theta_hat[0]) < 0.01
        assert abs(res.theta_hat[1] - 1.0) < 0.02

    def test_mle_bias_matches_mixture_mean(self):
        # mixture mean is (1 - alpha) mu + alpha z = 5.0 for these settings
        fam = GaussianFamily()
        spec = ContaminationSpec(theta=(0.0, 1.0), alpha=0.1, z=50.0, epsilon=0.01)
        rng = np.random.default_rng(3)
        data = sample_contaminated(spec, fam, 20_000, rng)
        assert fam.mle(data)[0] == pytest.approx(5.0, abs=0.1)


class TestCrossover:
    def test_mhb_matches_mle_on_clean_data(self):
        # no contamination: the systematic MHB-MLE gap stays within twice
        # the estimators' own Monte-Carlo standard error (a small
        # finite-sample histogram bias of order 2% in sigma remains and is
        # well inside that band)
        fam = GaussianFamily()
        prior = HistogramPrior.fixed(60, alpha=0.07)
        mhb, mle = [], []
        for rep in range(20):
            data = fam.sample((0.0, 1.0), 500, np.random.default_rng(500 + rep))
            mhb.append(mhb_fit_theta(data, prior))
            mle.append(fam.mle(data))
        mhb, mle = np.asarray(mhb), np.asarray(mle)
        gap = np.abs(mhb.mean(axis=0) - mle.mean(axis=0))
        estimator_se = mle.std(axis=0, ddof=1)
        assert np.all(gap <= 2.0 * estimator_se)

    def test_mhb_error_under_20_percent_of_mle_at_20_sigma(self):
        report = robustness_sweep(theta=(0.0, 1.0), alpha=0.1, z_grid=(20.0,),
                                  n=500, reps=20, rng=6,
                                  estimators=("mhb", "mle"))
        cells = report.summary["cells"]
        mhb = cells["mhb@z=20"]["median_location_error"]
        mle = cells["mle@z=20"]["median_location_error"]
        assert mhb < 0.2 * mle


def mhb_fit_theta(data, prior):
    return mhb_fit(data, prior=prior).theta_hat


class TestKsNormal:
    @pytest.mark.parametrize("x, sd", [
        ([0.3], 1.0),                                            # n = 1
        ([-0.5, 0.2, 0.2, 0.2, 1.1, 1.1], 0.8),                  # ties
        (np.zeros(7), 2.0),                                      # all tied at the centre
        (np.random.default_rng(1).normal(0.0, 1.0, 150), 1.0),
        (np.random.default_rng(2).normal(0.3, 2.0, 400), 1.7),   # off-centre, wider
        (np.round(np.random.default_rng(3).normal(0.0, 1.0, 300), 1), 1.0),
        (np.random.default_rng(4).standard_t(3, 2000), 0.9),
    ])
    def test_matches_scipy_kstest(self, x, sd):
        expected = scipy.stats.kstest(x, "norm", args=(0.0, sd)).statistic
        assert abs(_ks_normal(x, sd) - expected) <= 1e-15


class TestBvmDiagnostic:
    def test_smoke_on_simulated_gaussian(self):
        data = GaussianFamily().sample((0.0, 1.0), 500, np.random.default_rng(3))
        report = bvm_diagnostic(data, prior=PRIOR_SMALL, n_samples=200, rng=7)
        assert set(report.checks) == {"sd_ratio_0_in_band", "ks_0_below_threshold",
                                      "sd_ratio_1_in_band", "ks_1_below_threshold"}
        for row in report.rows:
            assert not row["degenerate"]
            assert 0.5 < row["sd_ratio"] < 2.0
            assert row["ks_stat"] < 0.25

    def test_report_round_trips_to_json(self):
        data = GaussianFamily().sample((0.0, 1.0), 300, np.random.default_rng(9))
        report = bvm_diagnostic(data, prior=PRIOR_SMALL, n_samples=150, rng=2)
        payload = report.to_json()
        assert payload["study"] == "bvm"
        assert "summary" in payload and "rows" in payload

    def test_sd_ratios_do_not_depend_on_the_data_scale(self):
        # the singular-curvature test is relative to the largest singular
        # value, so a wide data scale is not mistaken for a singular one
        z = np.random.default_rng(1).standard_normal(200)
        ratios = {s: [row["sd_ratio"] for row in bvm_diagnostic(s * z, n_samples=100,
                                                                 rng=1).rows]
                  for s in (1.0, 1e6, 1e50, 1e150)}
        for s in (1e6, 1e50, 1e150):
            np.testing.assert_allclose(ratios[s], ratios[1.0], rtol=1e-9, atol=0.0)
        # the squared support width of the fit overflows only beyond
        with pytest.raises(ValueError, match="squared width"):
            bvm_diagnostic(1e153 * z, n_samples=100, rng=1)

    @pytest.mark.parametrize("v_diag", [[1.0, 0.0], [-1.0, 1.0], [np.nan, 1.0]])
    def test_singular_variance_is_a_numerical_failure(self, v_diag, monkeypatch):
        # no fit reaches a V without a positive diagonal, so fake the
        # influence-norm variance; a NaN diagonal fails the check too
        from mhdbayes import experiments
        from mhdbayes.functional import AsymptoticVariance

        monkeypatch.setattr(experiments, "asymptotic_variance",
                            lambda *a, **k: AsymptoticVariance(V=np.diag(v_diag)))
        data = GaussianFamily().sample((0.0, 1.0), 200, np.random.default_rng(0))
        with pytest.raises(RuntimeError, match="influence-norm variance matrix is singular"):
            bvm_diagnostic(data, prior=PRIOR_SMALL, n_samples=150, rng=1)

    def test_point_mass_posterior_reported_degenerate(self, monkeypatch):
        # exact-zero posterior sd cannot arise from real draws, so fake the
        # BMH fit to exercise the degenerate branch
        from mhdbayes import experiments
        from mhdbayes.densities import SupportTransform
        from mhdbayes.estimators import BmhPosterior
        from mhdbayes.functional import MhdResult

        theta = np.array([0.1, 1.2])
        samples = np.tile(theta, (150, 1))
        fake = BmhPosterior(
            theta_samples=samples, eap=theta, post_sd=np.zeros(2),
            intervals={0.95: np.column_stack([theta, theta])}, n_failed=0,
            mhd_meta=MhdResult(theta_hat=theta, h_min=0.0, converged=True,
                               n_evals=1, first_order_norm=0.0),
            transform=SupportTransform(-5.0, 5.0))
        monkeypatch.setattr(experiments, "bmh_fit", lambda *a, **k: fake)
        data = GaussianFamily().sample((0.1, 1.2), 200, np.random.default_rng(0))
        report = bvm_diagnostic(data, n_samples=150, rng=1)
        assert report.summary["degenerate"] is True
        assert all(row["degenerate"] for row in report.rows)
        assert report.checks == {}

    def test_newcomb_posterior_sd_tracks_influence_reference(self):
        # posterior sd over sqrt(V/n) stays within [0.8, 1.2] on the
        # bundled light-speed data
        from mhdbayes.datasets import load_dataset
        data = load_dataset("bundled:newcomb").values
        report = bvm_diagnostic(data, n_samples=400, rng=7)
        for row in report.rows:
            assert 0.8 <= row["sd_ratio"] <= 1.2
