"""Acceptance suite.

Each test checks one release criterion at its stated tolerance and records
a pass/fail line that pytest prints in the terminal summary.  Reference
values for the bundled light-speed dataset are published benchmark
results; see the README for the one known deviation (the BMH scale EAP).
"""

import math
import time
from functools import lru_cache

import numpy as np
import pytest
import scipy.stats

import mhdbayes as m
from conftest import record_criterion

WALL = {}


def timed(key, fn):
    t0 = time.perf_counter()
    out = fn()
    WALL[key] = time.perf_counter() - t0
    return out


@lru_cache(maxsize=None)
def newcomb():
    return m.load_dataset("bundled:newcomb").values


@lru_cache(maxsize=None)
def newcomb_mhb():
    return timed("mhb", lambda: m.mhb_fit(newcomb()))


@lru_cache(maxsize=None)
def newcomb_boot_se():
    return timed("boot", lambda: m.mhb_bootstrap_se(newcomb(), n_boot=200, rng=13))


@lru_cache(maxsize=None)
def newcomb_bmh():
    return timed("bmh", lambda: m.bmh_fit(newcomb(), n_samples=2000, rng=7))


@lru_cache(maxsize=None)
def newcomb_posterior():
    data = newcomb()
    transform = m.SupportTransform.from_data(data)
    return m.fit_posterior(transform.to_unit(data), m.HistogramPrior.fixed())


class TestCriterion1Newcomb:
    """Reproduction of the light-speed benchmark with fixed k=100 defaults."""

    def test_1a_mhb_point_estimate(self):
        theta = newcomb_mhb().theta_hat
        ok = abs(theta[0] - 27.72) <= 0.10 and abs(theta[1] - 5.07) <= 0.15
        record_criterion("1a", ok,
                         f"MHB point ({theta[0]:.3f}, {theta[1]:.3f}) "
                         "vs (27.72+-0.10, 5.07+-0.15)")
        assert abs(theta[0] - 27.72) <= 0.10
        assert abs(theta[1] - 5.07) <= 0.15

    def test_1b_bootstrap_se(self):
        se = newcomb_boot_se()
        ok = abs(se[0] - 0.64) <= 0.15 and abs(se[1] - 0.46) <= 0.15
        record_criterion("1b", ok,
                         f"bootstrap se ({se[0]:.3f}, {se[1]:.3f}) "
                         "vs (0.64+-0.15, 0.46+-0.15), n_boot=200")
        assert abs(se[0] - 0.64) <= 0.15
        assert abs(se[1] - 0.46) <= 0.15

    def test_1c_bmh_location(self):
        eap = newcomb_bmh().eap
        ok = abs(eap[0] - 27.73) <= 0.10
        record_criterion("1c", ok, f"BMH location EAP {eap[0]:.3f} vs 27.73+-0.10")
        assert abs(eap[0] - 27.73) <= 0.10

    def test_1d_bmh_scale(self):
        # Known deviation: with unsmoothed histogram draws at k=100 and
        # n=66, per-draw scale minimizers settle near 4.36 (see README,
        # "Known limitations"); the reference window is asserted as stated.
        eap = newcomb_bmh().eap
        ok = abs(eap[1] - 5.00) <= 0.15
        record_criterion("1d", ok, f"BMH scale EAP {eap[1]:.3f} vs 5.00+-0.15 "
                                   "(known deviation, see README)")
        assert abs(eap[1] - 5.00) <= 0.15, (
            f"BMH scale EAP {eap[1]:.4f} outside 5.00+-0.15: posterior draws "
            "are spikier than the posterior-mean density at k=100, n=66, and "
            "square-root geometry shrinks per-draw scale fits; documented as "
            "a known limitation in the README")

    def test_1e_bmh_posterior_sd(self):
        sd = newcomb_bmh().post_sd
        ok = abs(sd[0] - 0.63) <= 0.15 and abs(sd[1] - 0.47) <= 0.15
        record_criterion("1e", ok,
                         f"BMH posterior sd ({sd[0]:.3f}, {sd[1]:.3f}) "
                         "vs (0.63+-0.15, 0.47+-0.15), n_samples=2000")
        assert abs(sd[0] - 0.63) <= 0.15
        assert abs(sd[1] - 0.47) <= 0.15

    def test_1f_runtime_budget(self):
        newcomb_mhb(), newcomb_boot_se(), newcomb_bmh()
        total = WALL["mhb"] + WALL["boot"] + WALL["bmh"]
        record_criterion("1f", total < 300.0,
                         f"single-threaded runtime {total:.1f}s < 300s")
        assert total < 300.0


class TestCriterion2Hellinger:
    def test_2a_gaussian_closed_form(self):
        fam = m.GaussianFamily()
        h = m.hellinger(fam.density((0.0, 1.0)), fam.density((1.0, 1.0)),
                        support=(-9.0, 10.0))
        expected = math.sqrt(2.0 - 2.0 * math.exp(-0.125))
        ok = abs(h - expected) < 1e-6
        record_criterion("2a", ok, f"h(N(0,1), N(1,1)) = {h:.8f}, "
                                   f"closed form {expected:.8f}, tol 1e-6")
        assert abs(h - expected) < 1e-6

    def test_2b_affine_invariance_100_maps(self):
        rng = np.random.default_rng(2024)
        fam = m.GaussianFamily()
        g = m.fit_posterior(rng.uniform(size=300), m.HistogramPrior.fixed(25)).eap()
        f = fam.density((0.45, 0.17))
        base = m.hellinger(f, g, support=(0.0, 1.0))
        worst = 0.0
        for _ in range(100):
            a = rng.uniform(-1000.0, 1000.0)
            b = a + rng.uniform(1e-2, 2000.0)
            t = m.SupportTransform(a, b)
            h = m.hellinger(m.transform_density(f, t), m.transform_density(g, t),
                            support=(a, b))
            worst = max(worst, abs(h - base))
        ok = worst < 1e-9
        record_criterion("2b", ok, f"affine invariance over 100 maps, "
                                   f"max |dh| = {worst:.2e} < 1e-9")
        assert worst < 1e-9


class TestCriterion3Efficiency:
    def test_3_sampling_variance_matches_crlb(self):
        report = timed("eff", lambda: m.efficiency_study(
            theta0=(0.0, 1.0), n=2000, reps=200, rng=1))
        var = report.summary["mhb_var"]
        ok = 0.85 <= var[0] <= 1.15 and 0.42 <= var[1] <= 0.58
        record_criterion("3", ok,
                         f"var sqrt(n)(theta-theta0) = ({var[0]:.3f}, {var[1]:.3f}) "
                         "vs bands [0.85,1.15], [0.42,0.58]; "
                         f"runtime {WALL['eff']:.1f}s < 900s")
        assert 0.85 <= var[0] <= 1.15
        assert 0.42 <= var[1] <= 0.58
        assert WALL["eff"] < 900.0


class TestCriterion4EfficiencyIdentity:
    def test_4_influence_norm_times_information_is_identity(self):
        rng = np.random.default_rng(7)
        fam = m.GaussianFamily()
        worst = 0.0
        for _ in range(10):
            theta = (rng.uniform(-3.0, 3.0), rng.uniform(0.3, 4.0))
            av = m.asymptotic_variance(fam, theta)
            prod = av.V @ m.fisher_information(fam, theta)
            worst = max(worst, float(np.max(np.abs(prod - np.eye(2)))))
        ok = worst < 1e-3
        record_criterion("4", ok, f"max |V*I - eye| over 10 thetas = {worst:.2e} < 1e-3")
        assert worst < 1e-3


class TestCriterion5Robustness:
    def test_5_gross_error_rejection(self):
        report = timed("rob", lambda: m.robustness_sweep(
            theta=(0.0, 1.0), alpha=0.1, z_grid=(5.0, 50.0), n=500, reps=50,
            rng=1, estimators=("mhb", "mle")))
        cells = report.summary["cells"]
        mhb_far = cells["mhb@z=50"]["median_location_error"]
        mhb_near = cells["mhb@z=5"]["median_location_error"]
        mle_far = cells["mle@z=50"]["median_location_error"]
        ok = mhb_far < 0.05 and mle_far > 4.5 and mhb_far < mhb_near
        record_criterion("5", ok,
                         f"MHB median |err| {mhb_far:.4f} < 0.05 at z=50; "
                         f"MLE {mle_far:.3f} > 4.5; "
                         f"far {mhb_far:.4f} < near {mhb_near:.4f}")
        assert mhb_far < 0.05
        assert mle_far > 4.5
        assert mhb_far < mhb_near


class TestCriterion6Bvm:
    def test_6_posterior_matches_reference_normal(self):
        data = m.GaussianFamily().sample((0.0, 1.0), 2000, np.random.default_rng(4))
        report = timed("bvm", lambda: m.bvm_diagnostic(data, n_samples=2000, rng=4))
        rows = {r["coord"]: r for r in report.rows}
        ratios = (rows[0]["sd_ratio"], rows[1]["sd_ratio"])
        ks = (rows[0]["ks_stat"], rows[1]["ks_stat"])
        ok = all(0.9 <= r <= 1.1 for r in ratios) and all(k < 0.05 for k in ks)
        record_criterion("6", ok,
                         f"sd ratios ({ratios[0]:.3f}, {ratios[1]:.3f}) in [0.9,1.1]; "
                         f"KS ({ks[0]:.4f}, {ks[1]:.4f}) < 0.05")
        for r in ratios:
            assert 0.9 <= r <= 1.1
        for k in ks:
            assert k < 0.05


class TestCriterion7ExactPosterior:
    def test_7a_conjugacy_order_independence(self):
        rng = np.random.default_rng(0)
        base, extra = rng.uniform(size=50), rng.uniform(size=20)
        prior = m.HistogramPrior.fixed(30, alpha=0.07)
        joint = m.fit_posterior(np.concatenate([base, extra]), prior)
        swapped = m.fit_posterior(np.concatenate([extra, base]), prior)
        ok = (np.array_equal(joint.dirichlet_params[0], swapped.dirichlet_params[0])
              and np.array_equal(joint.log_post_k, swapped.log_post_k))
        record_criterion("7a", ok, "conjugate update is order-independent "
                                   "to machine precision")
        assert ok

    def test_7b_eap_matches_monte_carlo(self):
        post = newcomb_posterior()
        rng = np.random.default_rng(42)
        acc = np.zeros(post.dirichlet_params[0].shape)
        n_draws = 100_000
        for _ in range(n_draws // 10_000):
            ((_, _, weights),) = post.draws(rng, 10_000)
            acc += weights.sum(axis=0)
        l1 = float(np.abs(acc / n_draws - post.eap().weights).sum())
        ok = l1 < 0.01
        record_criterion("7b", ok, f"EAP vs 1e5-draw Monte-Carlo average, "
                                   f"L1 = {l1:.5f} < 0.01")
        assert l1 < 0.01

    def test_7c_random_k_odds_vs_hand_computed_beta_ratio(self):
        lam = 2.0
        prior = m.HistogramPrior.poisson(lam=lam, alpha=1.0, k_max=2)
        post = m.fit_posterior([0.1, 0.2, 0.3], prior)
        odds = math.exp(post.log_post_k[1] - post.log_post_k[0])

        def log_beta(v):
            return sum(math.lgamma(x) for x in v) - math.lgamma(sum(v))

        expected = (lam / 2.0) * math.exp(
            3.0 * math.log(2.0) + log_beta([4.0, 1.0]) - log_beta([1.0, 1.0]))
        ok = abs(odds - expected) <= 1e-10 * expected
        record_criterion("7c", ok, f"posterior odds k=2:k=1 = {odds:.12f} "
                                   f"vs hand-computed {expected:.12f}, rtol 1e-10")
        assert odds == pytest.approx(expected, rel=1e-10)


class TestCriterion8ConsistencyTrend:
    def test_8_posterior_hellinger_decreases_with_n(self):
        prior = m.HistogramPrior.poisson(lam=20.0)

        class BetaTruth:
            support = (0.0, 1.0)

            def pdf(self, x):
                return scipy.stats.beta.pdf(x, 3.0, 5.0)

            def breakpoints(self):
                return np.array([])

        truth = BetaTruth()
        means = []
        for n in (100, 400, 1600):
            per_rep = []
            for rep in range(50):
                rng = m.worker_rng(12, 1000 * n + rep)
                y = rng.beta(3.0, 5.0, n)
                post = m.fit_posterior(y, prior)
                per_rep.append(np.mean([m.hellinger(post.sample(rng), truth)
                                        for _ in range(25)]))
            means.append(float(np.mean(per_rep)))
        drops = [means[i + 1] < means[i] for i in range(2)]
        inversions = drops.count(False)
        ok = means[2] < means[0] and inversions <= 1
        record_criterion("8", ok,
                         "avg posterior Hellinger over n=(100,400,1600): "
                         f"({means[0]:.4f}, {means[1]:.4f}, {means[2]:.4f}), "
                         f"{inversions} inversion(s) allowed <= 1")
        assert means[2] < means[0]
        assert inversions <= 1
