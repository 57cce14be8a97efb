import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _helpers import (
    QuadratureGaussianFamily,
    count_histogram_bc_rows,
    mhb_many_oracle,
    quadrature_histogram_bc,
)
import mhdbayes.estimators as estimators
from mhdbayes.datasets import load_dataset
from mhdbayes.densities import GaussianFamily, HistogramDensity, SupportTransform, grid_edges
from mhdbayes.estimators import bmh_fit, mhb_bootstrap_se, mhb_fit
from mhdbayes.functional import mhd, mhd_rows
from mhdbayes.posterior import HistogramPrior, fit_posterior

PRIOR_SMALL = HistogramPrior.fixed(40, alpha=0.07)


def gaussian_data(n, seed, mu=0.0, sg=1.0):
    return np.random.default_rng(seed).normal(mu, sg, n)


class TestMhbFit:
    def test_degenerate_data_is_error(self):
        with pytest.raises(ValueError, match="degenerate"):
            mhb_fit(np.full(30, 7.0))

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least"):
            mhb_fit([1.0, 2.0])

    @pytest.mark.parametrize("data, message", [(np.ones((10, 2)), "1-d"),
                                               (np.ones((10, 1)), "1-d"),
                                               ([1.0, 2.0, np.inf, 3.0], "non-finite")],
                             ids=["2-d", "column", "inf"])
    def test_data_checks(self, data, message):
        with pytest.raises(ValueError, match=message):
            mhb_fit(data)

    def test_recovers_gaussian(self):
        data = gaussian_data(3000, 42)
        est = mhb_fit(data, prior=HistogramPrior.fixed(100, alpha=0.07))
        assert est.mhd_meta.converged
        assert np.allclose(est.theta_hat, [0.0, 1.0], atol=3.0 / np.sqrt(3000) * 2)

    def test_affine_equivariance_shift(self):
        data = gaussian_data(400, 3, mu=2.0, sg=1.5)
        base = mhb_fit(data, prior=PRIOR_SMALL).theta_hat
        shifted = mhb_fit(data + 100.0, prior=PRIOR_SMALL).theta_hat
        assert shifted[0] - base[0] == pytest.approx(100.0, abs=1e-3)
        assert shifted[1] == pytest.approx(base[1], abs=1e-3)

    def test_permutation_invariance_exact(self):
        data = gaussian_data(200, 9)
        permuted = np.random.default_rng(1).permutation(data)
        a = mhb_fit(data, prior=PRIOR_SMALL).theta_hat
        b = mhb_fit(permuted, prior=PRIOR_SMALL).theta_hat
        assert np.array_equal(a, b)

    def test_newcomb_fit_takes_one_sqrt_pdf_pass_per_evaluation(self, monkeypatch):
        # GaussianFamily.node_bc gets the coefficient, gradient and Hessian
        # from one sqrt_pdf pass; sqrt_grad and sqrt_hess are not called
        calls = {name: 0 for name in ("sqrt_pdf", "sqrt_grad", "sqrt_hess")}
        for name in calls:
            def counting(self, *args, name=name, hook=getattr(GaussianFamily, name)):
                calls[name] += 1
                return hook(self, *args)

            monkeypatch.setattr(GaussianFamily, name, counting)
        est = mhb_fit(load_dataset("bundled:newcomb").values)
        assert est.mhd_meta.n_evals == 4
        assert calls == {"sqrt_pdf": 4, "sqrt_grad": 0, "sqrt_hess": 0}

    def test_report_shape(self):
        est = mhb_fit(gaussian_data(150, 4), prior=PRIOR_SMALL)
        report = est.to_report()
        assert report["estimator"] == "mhb"
        assert len(report["theta_hat"]) == 2
        assert report["diagnostics"]["converged"] is True


class TestBootstrap:
    def test_requires_50_resamples(self):
        with pytest.raises(ValueError, match="n_boot"):
            mhb_bootstrap_se(gaussian_data(100, 0), n_boot=10)

    @pytest.mark.parametrize("fit", [mhb_fit, mhb_bootstrap_se])
    def test_count_that_is_not_an_integer_is_refused(self, fit):
        # 60.7 once drew 60 resamples and counted 0.7 phantom failures
        with pytest.raises(ValueError, match=r"^n_boot must be an integer, got 60\.7$"):
            fit(load_dataset("bundled:newcomb").values, n_boot=60.7, rng=1)

    def test_numpy_and_integral_float_counts_are_accepted(self):
        data = gaussian_data(150, 13)
        want = mhb_fit(data, prior=PRIOR_SMALL, n_boot=60, rng=3)
        for n_boot in (np.int32(60), 60.0):
            est = mhb_fit(data, prior=PRIOR_SMALL, n_boot=n_boot, rng=3)
            assert type(est.n_boot) is int and est.n_boot == 60
            assert np.array_equal(est.se, want.se)

    def test_deterministic_given_seed(self):
        data = gaussian_data(120, 5)
        a = mhb_bootstrap_se(data, prior=PRIOR_SMALL, n_boot=50, rng=7)
        b = mhb_bootstrap_se(data, prior=PRIOR_SMALL, n_boot=50, rng=7)
        assert np.array_equal(a, b)

    def test_doubling_stability(self):
        data = gaussian_data(300, 11)
        se1 = mhb_bootstrap_se(data, prior=PRIOR_SMALL, n_boot=100, rng=2)
        se2 = mhb_bootstrap_se(data, prior=PRIOR_SMALL, n_boot=200, rng=2)
        assert np.all(np.abs(se2 - se1) / se1 < 0.10)

    def test_attached_by_mhb_fit(self):
        data = gaussian_data(150, 13)
        est = mhb_fit(data, prior=PRIOR_SMALL, n_boot=60, rng=3)
        assert est.se is not None and est.n_boot == 60
        assert np.all(est.se > 0)

    def test_family_subclass_keeps_its_hooks_on_the_unit_scale(self, monkeypatch):
        # the unit-scale family must be the caller's class, or the fits run
        # on GaussianFamily's closed form instead of the subclass's hooks
        calls = []

        def counting(self, *args):
            calls.append(1)
            return quadrature_histogram_bc(self, *args)

        monkeypatch.setattr(QuadratureGaussianFamily, "histogram_bc", counting)
        mhb_bootstrap_se(load_dataset("bundled:newcomb").values, n_boot=50, rng=31,
                         family=QuadratureGaussianFamily())
        assert len(calls) >= 1


class TestBmhFit:
    def test_requires_100_samples(self):
        with pytest.raises(ValueError, match="n_samples"):
            bmh_fit(gaussian_data(100, 0), n_samples=50)

    def test_count_that_is_not_an_integer_is_refused(self):
        # 150.5 once returned 150 draws
        with pytest.raises(ValueError, match=r"^n_samples must be an integer, got 150\.5$"):
            bmh_fit(load_dataset("bundled:newcomb").values, n_samples=150.5)

    def test_numpy_integer_count_is_accepted(self):
        data = gaussian_data(150, 21)
        fit = bmh_fit(data, prior=PRIOR_SMALL, n_samples=np.int64(120), rng=31)
        want = bmh_fit(data, prior=PRIOR_SMALL, n_samples=120, rng=31)
        assert np.array_equal(fit.theta_samples, want.theta_samples)

    def test_deterministic_given_seed(self):
        data = gaussian_data(150, 21)
        a = bmh_fit(data, prior=PRIOR_SMALL, n_samples=120, rng=31)
        b = bmh_fit(data, prior=PRIOR_SMALL, n_samples=120, rng=31)
        assert np.array_equal(a.theta_samples, b.theta_samples)

    def test_eap_is_sample_mean_and_intervals_ordered(self):
        fit = bmh_fit(gaussian_data(200, 2), prior=PRIOR_SMALL, n_samples=150,
                      rng=5, levels=(0.5, 0.9))
        assert np.allclose(fit.eap, fit.theta_samples.mean(axis=0), atol=1e-12)
        for level, box in fit.intervals.items():
            assert np.all(box[:, 0] <= box[:, 1])
        assert np.all(fit.intervals[0.9][:, 0] <= fit.intervals[0.5][:, 0])
        assert np.all(fit.intervals[0.5][:, 1] <= fit.intervals[0.9][:, 1])

    def test_agrees_with_mhb_within_two_posterior_sd(self):
        data = gaussian_data(2000, 17)
        prior = HistogramPrior.fixed(100, alpha=0.07)
        point = mhb_fit(data, prior=prior)
        post = bmh_fit(data, prior=prior, n_samples=200, rng=23)
        assert np.all(np.abs(post.eap - point.theta_hat) <= 2.0 * post.post_sd)

    def test_collapsed_posterior_gives_point_mass(self):
        # a prior that swamps the data collapses the density posterior, so
        # every draw maps to the same parameter
        data = gaussian_data(120, 8)
        with pytest.warns(UserWarning, match="sqrt"):
            fit = bmh_fit(data, prior=HistogramPrior.fixed(20, alpha=1e7),
                          n_samples=100, rng=1)
        assert np.all(fit.post_sd < 1e-3 * np.abs(fit.eap[1]))

    def test_posterior_sd_shrinks_with_n(self):
        prior = HistogramPrior.fixed(60, alpha=0.07)
        sds = []
        for n in (200, 800, 3200):
            reps = []
            for rep in range(4):
                data = gaussian_data(n, 100 * n + rep)
                fit = bmh_fit(data, prior=prior, n_samples=120, rng=rep)
                reps.append(fit.post_sd)
            sds.append(np.mean(reps, axis=0))
        sds = np.asarray(sds)
        for j in range(2):
            assert sds[2, j] < sds[0, j]
            inversions = sum(sds[i + 1, j] >= sds[i, j] for i in range(2))
            assert inversions <= 1

    def test_infeasible_bounds_error(self):
        # sigma box excludes the truth: every per-draw fit pins at the
        # boundary and the 5% failure budget trips
        data = gaussian_data(150, 3)
        family = GaussianFamily(bounds=((-10.0, 10.0), (4.0, 8.0)))
        with pytest.raises(RuntimeError, match="failed to converge"):
            bmh_fit(data, prior=PRIOR_SMALL, family=family, n_samples=100, rng=2)

    def test_report_shape(self):
        fit = bmh_fit(gaussian_data(150, 6), prior=PRIOR_SMALL, n_samples=100, rng=4)
        report = fit.to_report()
        assert report["estimator"] == "bmh"
        assert "0.95" in report["intervals"]
        assert report["diagnostics"]["n_failed"] == 0


class TestBmhAffineEquivariance:
    def test_shift_moves_location_only(self):
        data = gaussian_data(250, 41, mu=1.0)
        a = bmh_fit(data, prior=PRIOR_SMALL, n_samples=120, rng=9)
        b = bmh_fit(data + 50.0, prior=PRIOR_SMALL, n_samples=120, rng=9)
        assert b.eap[0] - a.eap[0] == pytest.approx(50.0, abs=1e-3)
        assert b.eap[1] == pytest.approx(a.eap[1], abs=1e-3)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), n=st.integers(60, 200),
           log_a=st.floats(-3.0, 3.0), b=st.floats(-100.0, 100.0))
    def test_rows_map_affinely(self, seed, n, log_a, b):
        # every posterior row follows x -> a x + b as (a mu + b, a sigma);
        # the data are standard normal, so a is also the scale of the fit
        a = 10.0 ** log_a
        data = gaussian_data(n, seed)
        base = bmh_fit(data, prior=PRIOR_SMALL, n_samples=100, rng=seed)
        moved = bmh_fit(a * data + b, prior=PRIOR_SMALL, n_samples=100, rng=seed)
        expected = base.theta_samples * a + [b, 0.0]
        assert moved.theta_samples.shape == expected.shape
        np.testing.assert_allclose(moved.theta_samples, expected, rtol=1e-9, atol=1e-9 * a)


class TestInvariances:
    """The invariances of the MHB and BMH estimates the paper relies on."""

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), n=st.integers(60, 200),
           log_a=st.floats(-3.0, 3.0), reflect=st.booleans(), b=st.floats(-100.0, 100.0))
    def test_mhb_affine_including_reflection(self, seed, n, log_a, reflect, b):
        # x -> a x + b maps (mu, sigma) to (a mu + b, |a| sigma) for a of either sign
        a = -(10.0 ** log_a) if reflect else 10.0 ** log_a
        data = gaussian_data(n, seed)
        mu, sg = mhb_fit(data, prior=PRIOR_SMALL).theta_hat
        moved = mhb_fit(a * data + b, prior=PRIOR_SMALL).theta_hat
        np.testing.assert_allclose(moved, [a * mu + b, abs(a) * sg],
                                   rtol=1e-9, atol=1e-9 * abs(a))

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), n=st.integers(60, 200))
    @example(seed=648, n=74)
    @example(seed=9044, n=157)
    def test_shuffled_data_give_the_same_fits(self, seed, n):
        # the pinned examples moved by an ulp while the moment start summed
        # the data in their given order
        data = gaussian_data(n, seed)
        shuffled = np.random.default_rng(seed).permutation(data)
        assert np.array_equal(mhb_fit(shuffled, prior=PRIOR_SMALL).theta_hat,
                              mhb_fit(data, prior=PRIOR_SMALL).theta_hat)
        assert np.array_equal(
            bmh_fit(shuffled, prior=PRIOR_SMALL, n_samples=100, rng=seed).theta_samples,
            bmh_fit(data, prior=PRIOR_SMALL, n_samples=100, rng=seed).theta_samples)


class TestBmhRows:
    """The batched solver against the per-draw oracle, and row independence."""

    @staticmethod
    def oracle(data, prior, n_samples, seed):
        """Per-draw ``mhd`` fits from the anchor of the histograms ``draws``
        gives from the same seed, in draw order."""
        family = GaussianFamily()
        transform = SupportTransform.from_data(data)
        post = fit_posterior(transform.to_unit(data), prior)
        box = family.unit_box(transform)
        x0 = family.theta_to_unit(family.initial_theta(data), transform)
        anchor = mhd(post.eap(), family, x0, *box).theta_hat
        draws = [None] * n_samples
        for _, rows, weights in post.draws(np.random.default_rng(seed), n_samples):
            for r, w in zip(rows, weights):
                draws[r] = HistogramDensity(w)
        fits = [mhd(g, family, anchor, *box) for g in draws]
        assert all(f.converged for f in fits)
        return draws, np.asarray([family.theta_from_unit(f.theta_hat, transform)
                                  for f in fits])

    @pytest.mark.parametrize("prior", [PRIOR_SMALL, HistogramPrior.poisson(lam=5.0)],
                             ids=["fixed-k", "random-k"])
    def test_matches_per_draw_mhd(self, prior):
        data = gaussian_data(150, 27)
        fit = bmh_fit(data, prior=prior, n_samples=100, rng=13)
        draws, expected = self.oracle(data, prior, 100, 13)
        if prior.mode == "poisson":
            assert len({g.k for g in draws}) > 1
        assert fit.n_failed == 0
        assert np.max(np.abs(fit.theta_samples - expected)) < 1e-9

    def test_random_k_draws_are_one_call_per_bin_count(self, monkeypatch):
        # the draws of each bin count are the rows of one mhd_rows call on
        # that bin count's own grid; the oracle fits each bin count's draws
        # alone
        data, prior = gaussian_data(150, 27), HistogramPrior.poisson(lam=5.0)
        calls = []

        def counting(weights, edges, *args):
            calls.append((len(weights), edges))
            return mhd_rows(weights, edges, *args)

        monkeypatch.setattr(estimators, "mhd_rows", counting)
        fit = bmh_fit(data, prior=prior, n_samples=300, rng=13)
        assert fit.n_failed == 0
        family, transform = GaussianFamily(), SupportTransform.from_data(data)
        post = fit_posterior(transform.to_unit(data), prior)
        expected, groups = np.empty((300, 2)), post.draws(np.random.default_rng(13), 300)
        assert len(groups) > 1 and len(calls) == len(groups)
        for (rows, edges), (i, group, weights) in zip(calls, groups):
            assert rows == len(group) and edges is grid_edges(int(post.k_support[i]))
            expected[group] = mhd_rows(weights, grid_edges(weights.shape[1]), family,
                                       fit.mhd_meta.theta_hat, *family.unit_box(transform))[0]
        expected = family.theta_from_unit(expected.T, transform).T
        assert np.array_equal(fit.theta_samples, expected)

    def test_rows_do_not_depend_on_later_draws(self):
        data = gaussian_data(200, 12)
        short = bmh_fit(data, prior=PRIOR_SMALL, n_samples=100, rng=3)
        long = bmh_fit(data, prior=PRIOR_SMALL, n_samples=300, rng=3)
        assert np.array_equal(long.theta_samples[:100], short.theta_samples)

    def test_random_k_rows_do_not_depend_on_later_draws(self, monkeypatch):
        # the Gammas of each bin count come from that bin count's own stream,
        # so later draws of other bin counts do not shift them; the later
        # draws here reach a wider grid than the first 100
        data = gaussian_data(500, 12)
        prior = HistogramPrior.poisson(lam=8.0)
        post = fit_posterior(SupportTransform.from_data(data).to_unit(data), prior)
        widest = [max(w.shape[1] for _, _, w in post.draws(np.random.default_rng(1), m))
                  for m in (100, 300)]
        assert widest[0] < widest[1]
        calls = []

        def recording(weights, edges, *args):
            calls[-1][len(edges) - 1] = weights
            return mhd_rows(weights, edges, *args)

        monkeypatch.setattr(estimators, "mhd_rows", recording)
        fits = []
        for m in (100, 300):
            calls.append({})
            fits.append(bmh_fit(data, prior=prior, n_samples=m, rng=1))
        (short, long), (w_short, w_long) = fits, calls
        assert max(w_short) == widest[0] and max(w_long) == widest[1]
        for k, w in w_short.items():
            assert np.array_equal(w_long[k][:len(w)], w)
        assert np.array_equal(long.theta_samples[:100], short.theta_samples)

    def test_bad_level_fails_before_any_minimization(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("minimization started before levels were checked")

        monkeypatch.setattr(estimators, "fit_posterior", forbidden)
        monkeypatch.setattr(estimators, "mhd", forbidden)
        monkeypatch.setattr(estimators, "mhd_rows", forbidden)
        with pytest.raises(ValueError, match="credible level"):
            bmh_fit(gaussian_data(150, 6), prior=PRIOR_SMALL, n_samples=100,
                    rng=1, levels=(0.5, 1.5))

    def test_newcomb_draws_take_at_most_7_evaluations(self, monkeypatch):
        # one histogram_bc row per Newton start and trial step, each giving
        # the coefficient, gradient and Hessian at once
        rows = count_histogram_bc_rows(monkeypatch)
        fit = bmh_fit(load_dataset("bundled:newcomb").values, n_samples=2000, rng=1)
        assert fit.n_failed == 0
        assert sum(rows) <= 7 * 2000

    def test_rows_started_on_a_plateau_converge_inside_mhd_rows(self):
        # f_theta at the start underflows on all of [0, 1], so Newton cannot
        # move any row from it; mhd_rows re-seeds them all from the grid
        data = gaussian_data(150, 21)
        transform = SupportTransform.from_data(data)
        post = fit_posterior(transform.to_unit(data), PRIOR_SMALL)
        family = GaussianFamily()
        box = family.unit_box(transform)
        rng = np.random.default_rng(31)
        draws = [post.sample(rng) for _ in range(20)]
        plateau = (-0.9, 1e-3)
        theta, converged = mhd_rows(np.stack([g.weights for g in draws]), draws[0].edges,
                                    family, plateau, *box)
        assert np.all(converged)
        for t, g in zip(theta, draws):
            expected = mhd(g, family, plateau, *box)
            assert expected.converged
            assert np.allclose(t, expected.theta_hat, atol=1e-9)


class TestBootstrapRows:
    """The bootstrap's batched fits against a per-resample ``mhd`` oracle."""

    WARM = np.array([0.1, 1.1])

    @staticmethod
    def data():
        # three gross errors make the random-k EAP edges vary by resample
        data = gaussian_data(150, 27, mu=0.1, sg=1.1)
        data[:3] += 8.0
        return data

    @staticmethod
    def oracle(data, prior, family, n_boot, seed, warm_theta):
        """Per-resample ``mhd`` fits from the warm start on the same
        ``rng.spawn`` stream, and the number of distinct EAP edge grids."""
        fits, groups = [], set()
        for child in np.random.default_rng(seed).spawn(n_boot):
            resample = data[child.integers(0, len(data), len(data))]
            transform = SupportTransform.from_data(resample)
            g = fit_posterior(transform.to_unit(resample), prior).eap()
            fit = mhd(g, family, family.theta_to_unit(warm_theta, transform),
                      *family.unit_box(transform))
            assert fit.converged
            fits.append(family.theta_from_unit(fit.theta_hat, transform))
            groups.add(g.edges.tobytes())
        return np.asarray(fits), len(groups)

    @staticmethod
    def batched(monkeypatch, data, prior, family, n_boot, seed, warm_theta):
        """The bootstrap's per-resample estimates, its SE and its ``mhd_rows``
        calls, each as the lower bounds of its rows' boxes."""
        mhb_many, rows_calls, out = estimators._mhb_many, [], {}

        def recording_mhb_many(*args, **kwargs):
            fits = mhb_many(*args, **kwargs)
            out["estimates"] = np.array([fit for fit in fits if not isinstance(fit, str)])
            return fits

        def counting_rows(weights, edges, family, theta0, lo, hi):
            rows_calls.append(np.broadcast_to(lo, (len(weights), family.dim)))
            return mhd_rows(weights, edges, family, theta0, lo, hi)

        monkeypatch.setattr(estimators, "_mhb_many", recording_mhb_many)
        monkeypatch.setattr(estimators, "mhd_rows", counting_rows)
        se = mhb_bootstrap_se(data, prior=prior, family=family, n_boot=n_boot, rng=seed,
                              warm_theta=warm_theta)
        return out["estimates"], se, rows_calls

    @pytest.mark.parametrize("prior", [PRIOR_SMALL, HistogramPrior.poisson(lam=5.0)],
                             ids=["fixed-k", "random-k"])
    def test_matches_per_resample_mhd(self, prior, monkeypatch):
        data = self.data()
        warm = mhb_fit(data, prior=prior).theta_hat
        expected, n_groups = self.oracle(data, prior, GaussianFamily(), 50, 13, warm)
        estimates, se, rows_calls = self.batched(monkeypatch, data, prior, GaussianFamily(),
                                                 50, 13, warm)
        # one mhd_rows call, whatever the number of distinct EAP grids
        assert len(rows_calls) == 1 and len(rows_calls[0]) == 50
        assert n_groups > 1 if prior.mode == "poisson" else n_groups == 1
        assert np.max(np.abs(estimates - expected)) < 1e-9
        np.testing.assert_allclose(se, np.std(expected, axis=0, ddof=1), rtol=1e-9)

    def test_bounded_family_gives_one_box_per_transform(self, monkeypatch):
        # a data-scale box maps to a unit-scale box per resample transform;
        # the rows of one mhd_rows call each keep their own
        data = self.data()
        family = GaussianFamily(bounds=((-5.0, 5.0), (0.2, 5.0)))
        warm = mhb_fit(data, prior=PRIOR_SMALL, family=family).theta_hat
        expected, n_groups = self.oracle(data, PRIOR_SMALL, family, 50, 13, warm)
        estimates, _, rows_calls = self.batched(monkeypatch, data, PRIOR_SMALL, family,
                                                50, 13, warm)
        assert n_groups == len(rows_calls) == 1 and len(rows_calls[0]) == 50
        assert len(np.unique(rows_calls[0], axis=0)) > 1
        assert np.max(np.abs(estimates - expected)) < 1e-9

    @pytest.mark.parametrize("n_bad", [5, 6])
    def test_failure_budget(self, n_bad, monkeypatch):
        # 5 failed resamples of 50 are within the 10% budget, 6 are not
        def first_rows_unconverged(weights, *args):
            theta, converged = mhd_rows(weights, *args)
            converged[:n_bad] = False
            return theta, converged

        monkeypatch.setattr(estimators, "mhd_rows", first_rows_unconverged)
        data = gaussian_data(150, 21)
        if n_bad == 5:
            se = mhb_bootstrap_se(data, prior=PRIOR_SMALL, n_boot=50, rng=31,
                                  warm_theta=self.WARM)
            assert np.all(se > 0)
        else:
            with pytest.raises(RuntimeError, match="more than 5 of 50 bootstrap refits failed"):
                mhb_bootstrap_se(data, prior=PRIOR_SMALL, n_boot=50, rng=31,
                                 warm_theta=self.WARM)

    def test_empty_unit_box_is_refused_by_name(self):
        # a sigma ceiling below the unit_box floor of 1e-12 leaves every
        # resample's unit box empty
        family = GaussianFamily(bounds=(None, (1e-20, 1e-15)))
        with pytest.raises(ValueError, match=r"^parameter box coordinate 1 of row 0 needs "
                                             r"finite lo < hi, got \[1e-12, "):
            mhb_bootstrap_se(load_dataset("bundled:newcomb").values, family=family, n_boot=50,
                             warm_theta=[27.0, 5.0])

    def test_dataset_that_fails_its_setup_is_its_own_error(self):
        # a degenerate and a non-finite dataset among two good ones: each
        # bad one is reported by its reason, and the good rows are fit as
        # they are without them
        good = [gaussian_data(120, s) for s in (1, 2)]
        bad = [np.full(120, 7.0), gaussian_data(120, 3)]
        bad[1][5] = np.nan
        fits = estimators._mhb_many(np.array([good[0], bad[0], good[1], bad[1]]), PRIOR_SMALL,
                                    GaussianFamily(), estimators.DEFAULT_PADDING)
        assert "degenerate" in fits[1]
        assert fits[3] == "data contains non-finite values"
        alone = estimators._mhb_many(np.array(good), PRIOR_SMALL, GaussianFamily(),
                                     estimators.DEFAULT_PADDING)
        assert np.array_equal(fits[0], alone[0]) and np.array_equal(fits[2], alone[1])

    def test_prior_with_no_bin_count_fails_every_row(self):
        # the row-wise update raises once; each row keeps the reason its own
        # update gave
        data = np.array([gaussian_data(60, s) for s in (1, 2)])
        prior = HistogramPrior.poisson(k_max=0)
        fits = estimators._mhb_many(data, prior, GaussianFamily(), estimators.DEFAULT_PADDING)
        assert fits == mhb_many_oracle(data, prior, GaussianFamily(),
                                       estimators.DEFAULT_PADDING)
        assert fits == ["empty bin-count support"] * 2

    @pytest.mark.filterwarnings("ignore:total prior mass")
    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 6), n=st.integers(3, 90), seed=st.integers(0, 2 ** 32 - 1),
           prior=st.sampled_from([PRIOR_SMALL, HistogramPrior.poisson(lam=5.0)]),
           family=st.sampled_from([GaussianFamily(),
                                   GaussianFamily(bounds=((-3.0, 3.0), (0.3, 4.0))),
                                   QuadratureGaussianFamily()]),
           warm=st.booleans(), bad=st.lists(st.sampled_from(["constant", "nan"]), max_size=2))
    @example(d=3, n=3, seed=1, prior=PRIOR_SMALL, family=GaussianFamily(), warm=False,
             bad=["constant", "nan"])
    def test_matrix_setup_equals_the_per_dataset_oracle(self, d, n, seed, prior, family,
                                                        warm, bad):
        # heavy tails vary the random-k EAP edges from row to row; a bad
        # row replaces a good one at a drawn position.  Fixed k matches the
        # oracle bit for bit.  Random k fits every row on the union
        # of the rows' grids, the oracle each row on its own, so they agree
        # to rounding; a batch on per-row grids padded to one width did not
        # match bit for bit either once n is large (35 of 60 N(0, 1) rows at
        # n=2000 differed from their own-grid fits, by up to 8.9e-16)
        rng = np.random.default_rng(seed)
        data = rng.standard_t(3.0, (d, n)) * rng.uniform(0.5, 3.0, (d, 1))
        for kind in bad:
            r = int(rng.integers(d))
            if kind == "constant":
                data[r] = data[r, 0]
            else:
                data[r, rng.integers(n)] = np.nan
        start = np.array([0.1, 1.2]) if warm else None
        fits = estimators._mhb_many(data, prior, family, estimators.DEFAULT_PADDING, start)
        expected = mhb_many_oracle(data, prior, family, estimators.DEFAULT_PADDING, start)
        assert len(fits) == len(expected) == d
        for fit, want in zip(fits, expected):
            if isinstance(want, str):
                assert fit == want
            elif prior.mode == "fixed":
                assert not isinstance(fit, str) and np.array_equal(fit, want)
            else:
                assert not isinstance(fit, str)
                assert np.max(np.abs(fit - want)) <= 1e-12 * max(1.0, np.linalg.norm(want))