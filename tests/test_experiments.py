import json

import numpy as np
import pytest

from mhdbayes.densities import GaussianFamily
from mhdbayes.experiments import (
    ContaminationSpec,
    contaminated_density,
    bvm_diagnostic,
    efficiency_study,
    resolve_workers,
    robustness_sweep,
    sample_contaminated,
)
from mhdbayes.numerics import composite_nodes
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

    def test_bad_z_grid(self):
        with pytest.raises(ValueError, match="ascending"):
            robustness_sweep(z_grid=(10.0, 5.0), reps=1, rng=0)

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

    def test_smoke_ratios_near_one(self):
        report = efficiency_study(theta0=(0.0, 1.0), n=400, reps=100, rng=1,
                                  prior=PRIOR_SMALL)
        ratios = report.summary["mhb_var_ratio"]
        assert len(ratios) == 2
        assert 0.5 < ratios[0] < 1.6
        assert 0.5 < ratios[1] < 1.6
        assert report.summary["mhb_failures"] == 0
        assert report.summary["crlb_diag"] == pytest.approx([1.0, 0.5], abs=1e-6)


class TestWorkers:
    def test_resolve_workers_env(self, monkeypatch):
        monkeypatch.setenv("MHDBAYES_WORKERS", "3")
        assert resolve_workers(None) == 3
        monkeypatch.setenv("MHDBAYES_WORKERS", "0")
        assert resolve_workers(None) >= 1
        assert resolve_workers(2) == 2

    @pytest.mark.parametrize("study, kwargs", [
        (robustness_sweep, dict(theta=(0.0, 1.0), alpha=0.1, z_grid=(25.0,), n=120,
                                reps=4, rng=11, prior=PRIOR_SMALL, estimators=("mhb",))),
        (efficiency_study, dict(n=400, reps=100, rng=1, prior=PRIOR_SMALL)),
    ], ids=["robustness", "efficiency"])
    def test_parallel_matches_serial(self, study, kwargs):
        # the whole report is byte-identical across worker counts; only the
        # wall time may differ
        reports = []
        for workers in (1, 2):
            report = study(workers=workers, **kwargs).to_json()
            del report["wall_time_s"]
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
        res = mhd(mix, fam, x0=(0.3, 1.3), support=(-10.0, 51.0))
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
    from mhdbayes.estimators import mhb_fit
    return mhb_fit(data, prior=prior).theta_hat


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
