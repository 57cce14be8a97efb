import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (
    MixtureDensity,
    concentration_radius,
    fixed_root_n,
    project_to_histogram,
    root_n_bin_count,
)
from mhdbayes.densities import (
    HistogramDensity,
    SupportTransform,
    bin_index,
    grid_edges,
    normalized_weights,
)
from mhdbayes.numerics import worker_rng
from mhdbayes.posterior import (
    HistogramPrior,
    RandomHistogramPosterior,
    _log_beta,
    _normalized,
    _prior_log_betas,
    _union_grid,
    bin_counts,
    fit_posterior,
    max_bin_count,
)

NEWCOMB = None


def newcomb_unit():
    global NEWCOMB
    if NEWCOMB is None:
        from mhdbayes.datasets import load_dataset
        data = load_dataset("bundled:newcomb").values
        NEWCOMB = SupportTransform.from_data(data).to_unit(data)
    return NEWCOMB


class TestBinCounts:
    def test_two_points(self):
        assert np.array_equal(bin_counts([0.1, 0.6], 2), [1, 1])

    @pytest.mark.parametrize("k", [0, -3])
    def test_bin_count_must_be_positive(self, k):
        with pytest.raises(ValueError, match="bin count k must be a positive integer"):
            bin_counts([0.1, 0.6], k)

    def test_boundary_closure(self):
        assert np.array_equal(bin_counts([1.0], 4), [0, 0, 0, 1])

    def test_out_of_range_reports_index(self):
        with pytest.raises(ValueError, match=r"^datum 1\.5 at index 2 is outside"):
            bin_counts([0.5, 0.2, 1.5], 3)
        for bad in (float("nan"), float("inf"), -float("inf"), -0.1):
            with pytest.raises(ValueError, match=rf"^datum {bad!r} at index 1 is outside"):
                bin_counts([0.5, bad, 0.2], 3)

    def test_datum_on_an_edge_is_counted_where_the_density_places_it(self):
        # floor(x * k) misplaces 748 of these floats, e.g. int((15/22)*22) == 14
        for k in range(1, 200):
            h = HistogramDensity(np.arange(1, k + 1) / (k * (k + 1) / 2))
            edges = h.breakpoints()
            mids = (edges[:-1] + edges[1:]) / 2
            assert np.array_equal(bin_counts(edges[:-1], k), np.ones(k))
            assert np.array_equal(h.bin_index(edges[:-1]), np.arange(k))
            assert np.array_equal(h.pdf(edges[:-1]), h.pdf(mids))

    def test_newcomb_counts_match_direct_scan(self):
        y = newcomb_unit()
        counts = bin_counts(y, 100)
        assert counts.sum() == 66
        # independent recount, one datum at a time: the last edge j/100 at
        # or below it
        manual = [0] * 100
        for v in y:
            j = max(i for i in range(100) if i / 100 <= v)
            manual[j] += 1
        assert np.array_equal(counts, manual)

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 60),
           inner=st.lists(st.floats(0.0, 1.0), max_size=40),
           on_edges=st.lists(st.integers(0, 60), max_size=20))
    def test_sorted_count_matches_bin_index(self, k, inner, on_edges):
        # the one-sort count against the binning rule, with points exactly
        # on grid edges and at 1.0
        edges = grid_edges(k)
        data = np.array(inner + [float(edges[min(j, k)]) for j in on_edges] + [1.0])
        np.random.default_rng(k).shuffle(data)
        expected = np.bincount(bin_index(edges, data), minlength=k)
        assert np.array_equal(bin_counts(data, k), expected)

    @settings(max_examples=30, deadline=None)
    @given(data=st.lists(st.floats(0.0, 1.0), min_size=20, max_size=200),
           on_edges=st.lists(st.tuples(st.integers(0, 25), st.integers(1, 25)), max_size=20),
           lam=st.floats(1.0, 30.0))
    def test_posterior_parameters_are_alpha_plus_counts(self, data, on_edges, lam):
        # every candidate k of a random-k posterior, counted from one sort
        data = np.array(data + [float(grid_edges(k)[min(j, k)]) for j, k in on_edges]
                        + [1.0])
        prior = HistogramPrior.poisson(lam=lam, k_max=25, alpha=0.1)
        post = fit_posterior(data, prior)
        assert list(post.k_support) == list(range(1, 26))
        for k, params in zip(post.k_support, post.dirichlet_params):
            assert np.array_equal(params, 0.1 + bin_counts(data, int(k)))
            oracle = np.bincount(bin_index(grid_edges(int(k)), data), minlength=int(k))
            assert np.array_equal(params, 0.1 + oracle)


class TestHistogramPrior:
    def test_fixed_support(self):
        assert np.array_equal(HistogramPrior.fixed(5).k_values(100), [5])

    def test_poisson_support_truncation(self):
        prior = HistogramPrior.poisson(lam=5.0)
        ks = prior.k_values(400)
        assert ks[0] == 1 and ks[-1] == max_bin_count(400)
        logp = prior.log_prior_k(ks)
        assert np.exp(logp).sum() == pytest.approx(1.0, abs=1e-12)

    def test_max_bin_count_formula(self):
        assert max_bin_count(400) == int(400 / math.log(400) ** 2)
        assert max_bin_count(1) == 1

    def test_root_n_preset(self):
        n = 10_000
        assert root_n_bin_count(n) == math.ceil(math.sqrt(n) / math.log(n) ** 2)
        assert fixed_root_n(n).k == root_n_bin_count(n)

    def test_total_mass_warning(self):
        # alpha=1 with k=100 exceeds sqrt(66): the consistency condition
        # warning must fire, but fitting still proceeds
        with pytest.warns(UserWarning, match="sqrt"):
            fit_posterior(newcomb_unit(), HistogramPrior.fixed(100, alpha=1.0))

    @pytest.mark.parametrize("make, message", [
        (lambda: HistogramPrior.fixed(5, alpha=0.0), "alpha must be positive"),
        (lambda: HistogramPrior.poisson(alpha=-1.0), "alpha must be positive"),
        (lambda: HistogramPrior.fixed(0), "fixed bin count k must be positive"),
        (lambda: HistogramPrior.poisson(lam=0.0), "poisson rate must be positive"),
        (lambda: HistogramPrior.poisson(lam=-2.0), "poisson rate must be positive"),
        (lambda: HistogramPrior.fixed(alpha=np.nan), "alpha must be positive"),
        (lambda: HistogramPrior.poisson(lam=np.nan), "poisson rate must be positive"),
        # an infinite alpha or rate would fail only later, in the fit
        (lambda: HistogramPrior.fixed(alpha=np.inf), "alpha must be positive and finite, got inf"),
        (lambda: HistogramPrior.poisson(alpha=np.inf),
         "alpha must be positive and finite, got inf"),
        (lambda: HistogramPrior(alpha=np.inf), "alpha must be positive and finite, got inf"),
        (lambda: HistogramPrior(mode="poisson", alpha=np.inf),
         "alpha must be positive and finite, got inf"),
        (lambda: HistogramPrior.poisson(lam=np.inf),
         "poisson rate must be positive and finite, got inf"),
        (lambda: HistogramPrior(mode="poisson", lam=np.inf),
         "poisson rate must be positive and finite, got inf"),
    ], ids=["fixed-alpha", "poisson-alpha", "fixed-k", "lam-zero", "lam-negative",
            "alpha-nan", "lam-nan", "fixed-alpha-inf", "poisson-alpha-inf",
            "constructor-fixed-alpha-inf", "constructor-poisson-alpha-inf", "lam-inf",
            "constructor-lam-inf"])
    def test_parameters_are_checked(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_empty_poisson_support(self):
        with pytest.raises(ValueError, match="empty bin-count support"):
            HistogramPrior.poisson(k_max=0).k_values(400)

    @pytest.mark.parametrize("ks", [[7], [1, 2, 3]])
    def test_fixed_prior_puts_log_mass_zero_on_every_k(self, ks):
        logp = HistogramPrior.fixed(7).log_prior_k(ks)
        assert np.array_equal(logp, np.zeros(len(ks)))

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            HistogramPrior(mode="gamma")


class TestFitPosterior:
    def test_single_datum_single_bin(self):
        post = fit_posterior([0.4], HistogramPrior.fixed(1, alpha=0.3))
        assert post.post_k()[0] == pytest.approx(1.0)
        assert np.allclose(post.dirichlet_params[0], [1.3])

    def test_symmetric_data(self):
        post = fit_posterior([0.25, 0.75], HistogramPrior.fixed(2, alpha=1.0))
        assert np.allclose(post.dirichlet_params[0], [2.0, 2.0])
        assert np.allclose(post.eap().weights, [0.5, 0.5])

    def test_three_point_odds_vs_hand_computed_beta_ratio(self):
        # data {0.1, 0.2, 0.3} all fall in the first of two bins; the
        # posterior odds for k=2 against k=1 are
        # p(2)/p(1) * 2^3 * B(1+3, 1) / B(1, 1)
        lam = 2.0
        prior = HistogramPrior.poisson(lam=lam, alpha=1.0, k_max=2)
        post = fit_posterior([0.1, 0.2, 0.3], prior)
        odds = math.exp(post.log_post_k[1] - post.log_post_k[0])

        def log_beta(v):
            return sum(math.lgamma(x) for x in v) - math.lgamma(sum(v))

        prior_odds = (lam ** 2 / math.factorial(2)) / (lam ** 1 / math.factorial(1))
        expected = prior_odds * math.exp(
            3 * math.log(2) + log_beta([4.0, 1.0]) - log_beta([1.0, 1.0]))
        assert odds == pytest.approx(expected, abs=1e-10 * expected)

    def test_conjugacy_is_order_independent_and_additive(self):
        rng = np.random.default_rng(0)
        base = rng.uniform(size=40)
        extra = rng.uniform(size=10)
        prior = HistogramPrior.fixed(8, alpha=0.5)
        joint = fit_posterior(np.concatenate([base, extra]), prior)
        permuted = fit_posterior(np.concatenate([extra, base]), prior)
        assert np.array_equal(joint.dirichlet_params[0], permuted.dirichlet_params[0])
        assert np.array_equal(joint.log_post_k, permuted.log_post_k)

    def test_posterior_masses_sum_to_one(self):
        post = fit_posterior(newcomb_unit(), HistogramPrior.poisson(lam=3.0))
        assert post.post_k().sum() == pytest.approx(1.0, abs=1e-12)
        assert all(np.all(p > 0) for p in post.dirichlet_params)

    def test_masses_match_a_logsumexp_oracle(self):
        from scipy.special import gammaln, logsumexp

        def log_beta(v):
            return float(np.sum(gammaln(v)) - gammaln(np.sum(v)))

        y = newcomb_unit()
        for prior in (HistogramPrior.poisson(lam=3.0), HistogramPrior.poisson(k_max=40)):
            post = fit_posterior(y, prior)
            ks = post.k_support
            log_prior = ks * math.log(prior.lam) - gammaln(ks + 1.0)
            log_post = log_prior - logsumexp(log_prior) + [
                len(y) * math.log(k) + log_beta(prior.alpha + bin_counts(y, k))
                - log_beta(np.full(k, prior.alpha)) for k in ks]
            expected = log_post - logsumexp(log_post)
            assert np.max(np.abs(post.log_post_k - expected)) <= 1e-14
            assert np.max(np.abs(post.post_k() - np.exp(expected))) <= 1e-14
        fixed = fit_posterior(y, HistogramPrior.fixed(100))
        assert fixed.log_post_k.tolist() == [0.0]

    def test_empty_data(self):
        with pytest.raises(ValueError):
            fit_posterior([], HistogramPrior.fixed(2))

    def test_log_post_k_equals_the_per_k_loop(self):
        # the batched posterior terms and the cached prior terms give the
        # per-k loop's log marginals exactly, so log_post_k keeps every bit
        from scipy.special import gammaln

        def log_beta(v):
            return float(np.sum(gammaln(v)) - gammaln(np.sum(v)))

        y = newcomb_unit()
        for prior in (HistogramPrior.poisson(lam=3.0),
                      HistogramPrior.poisson(alpha=0.5, k_max=40)):
            for _ in range(2):   # the second fit reads the cached prior terms
                post = fit_posterior(y, prior)
                log_marg = [len(y) * math.log(k) + log_beta(prior.alpha + bin_counts(y, k))
                            - log_beta(np.full(k, prior.alpha)) for k in post.k_support]
                expected = _normalized(prior.log_prior_k(post.k_support) + log_marg)
                assert post.log_post_k.tolist() == expected.tolist()

    @pytest.mark.parametrize("prior", [HistogramPrior.fixed(30), HistogramPrior.poisson(lam=4.0)],
                             ids=["fixed-k", "random-k"])
    def test_one_dataset_is_its_row_of_a_two_row_update(self, prior):
        rows = np.random.default_rng(5).beta(2.0, 5.0, (2, 200))
        both = fit_posterior(rows, prior)
        assert both.log_post_k.shape == (2, len(both.k_support))
        for d, x in enumerate(rows):
            one, row = fit_posterior(x, prior), both.row(d)
            assert np.array_equal(one.k_support, row.k_support)
            assert one.log_post_k.tolist() == row.log_post_k.tolist()
            assert len(one.dirichlet_params) == len(row.dirichlet_params)
            for p, q in zip(one.dirichlet_params, row.dirichlet_params):
                assert p.tolist() == q.tolist()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_rows=st.integers(1, 5),
           k_max=st.integers(1, 40), fixed=st.booleans(),
           on_edges=st.lists(st.tuples(st.integers(0, 40), st.integers(1, 40)), max_size=20))
    def test_rows_are_counted_by_the_binning_rule(self, seed, n_rows, k_max, fixed, on_edges):
        # all rows of each k from one count over the union of the grids,
        # against bin_index row by row: a single grid (k=1 has no interior
        # edge) or the union of the grids of 1..k_max, whose edges coincide
        # across k (1/3 = 2/6), with points exactly on grid edges j/k, on
        # the shared edge 2/6 and at 0.0 and 1.0
        rng = np.random.default_rng(seed)
        ties = [float(grid_edges(k)[min(j, k)]) for j, k in on_edges]
        ties += [float(grid_edges(6)[2]), 0.0, 1.0]
        rows = np.stack([rng.permutation(np.concatenate([rng.uniform(size=30),
                                                         rng.choice(ties, 10)]))
                         for _ in range(n_rows)])
        prior = (HistogramPrior.fixed(k_max, alpha=0.1) if fixed
                 else HistogramPrior.poisson(k_max=k_max, alpha=0.1))
        post = fit_posterior(rows, prior)
        assert list(post.k_support) == ([k_max] if fixed else list(range(1, k_max + 1)))
        for k, params in zip(post.k_support, post.dirichlet_params):
            oracle = [np.bincount(bin_index(grid_edges(int(k)), x), minlength=int(k))
                      for x in rows]
            assert np.array_equal(params, 0.1 + np.array(oracle))

    @pytest.mark.parametrize("prior, bound_mib", [(HistogramPrior.fixed(100), 46),
                                                  (HistogramPrior.poisson(), 110)],
                             ids=["fixed-k", "random-k"])
    def test_large_update_peak_memory_is_bounded(self, prior, bound_mib):
        # a (200, 20,000) update holds the sorted copy, the counts below
        # each union edge and the posterior, and no per-datum key: the
        # fixed-k bound is 1.5x the data's 30.5 MiB
        import tracemalloc
        rows = np.random.default_rng(8).beta(2.0, 5.0, (200, 20_000))
        tracemalloc.start()
        try:
            fit_posterior(rows, prior)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2 ** 20

    def test_rows_name_the_datum_outside_the_unit_interval(self):
        rows = np.full((2, 3), 0.5)
        rows[1, 2] = 1.5
        with pytest.raises(ValueError, match=r"^datum 1\.5 at index \(1, 2\) is outside"):
            fit_posterior(rows, HistogramPrior.fixed(3))

    def test_batched_log_beta_equals_one_vector_log_beta(self):
        # one gammaln over all rows, summed per row, gives each row's own
        # value bit for bit, at lengths that take numpy's pairwise sum
        # through its unrolled and recursive branches
        from scipy.special import gammaln
        rng = np.random.default_rng(6)
        matrices = [0.07 + rng.integers(0, 60, size=(3, k)) for k in (1, 3, 8, 9, 127, 129, 300)]
        matrices.append(np.full((2, 40), 0.07))
        for rows in matrices:
            expected = [np.sum(gammaln(v)) - gammaln(np.sum(v)) for v in rows]
            assert _log_beta(rows).tolist() == expected
            assert [_log_beta(v) for v in rows] == expected

    def test_union_grid_is_shared_and_read_only(self):
        ks = (3, 6, 7)
        edges, positions = _union_grid(ks)
        assert _union_grid(ks)[0] is edges
        # 1/3 = 2/6 and 2/3 = 4/6 appear once
        assert np.array_equal(edges, np.union1d(grid_edges(6), grid_edges(7)))
        assert len(edges) == 13
        for k, pos in zip(ks, positions):
            assert np.array_equal(edges[pos], grid_edges(k))
        assert not any(a.flags.writeable for a in (edges, *positions))
        assert not _prior_log_betas(0.07, ks).flags.writeable


class TestSampling:
    def test_same_seed_same_sample(self):
        post = fit_posterior(newcomb_unit(), HistogramPrior.fixed(10, alpha=0.5))
        a = post.sample(rng=123)
        b = post.sample(rng=123)
        assert np.array_equal(a.weights, b.weights)

    def test_draws_follow_the_choice_and_gamma_stream(self):
        # replayed one draw at a time: a single bin count takes its Gammas
        # straight from the stream; several take a seed, one choice variate
        # per draw, then each bin count's Gammas from its own worker stream
        data = np.random.default_rng(5).normal(3.0, 2.0, 400)
        unit = SupportTransform.from_data(data).to_unit(data)
        n = 5000
        fixed = fit_posterior(unit, HistogramPrior.fixed(30))
        ((i, rows, weights),) = fixed.draws(np.random.default_rng(17), n)
        ref = np.random.default_rng(17)
        assert i == 0 and np.array_equal(rows, np.arange(n))
        for w in weights:
            g = ref.gamma(fixed.dirichlet_params[0])
            assert np.array_equal(w, g / g.sum())

        post = fit_posterior(unit, HistogramPrior.poisson(lam=5.0))
        groups = post.draws(np.random.default_rng(17), n)
        ref = np.random.default_rng(17)
        seed = int(ref.integers(2 ** 63))
        picks = ref.choice(len(post.k_support), size=n, p=post.post_k())
        assert [i for i, _, _ in groups] == sorted(set(picks.tolist()))
        assert len(groups) > 1
        for i, rows, weights in groups:
            assert np.array_equal(rows, np.flatnonzero(picks == i))
            stream = worker_rng(seed, i)
            for w in weights:
                g = stream.gamma(post.dirichlet_params[i])
                assert np.array_equal(w, g / g.sum())

    def test_the_largest_uniform_picks_a_bin_count_beyond_the_eap_support(self):
        # draws pick bin counts monotonically in their uniform, and the
        # largest uniform below 1 picks the widest bin count a draw can have:
        # the tail beyond every k of EAP mass can still be drawn, up to k_max
        class TopUniform:
            def integers(self, high):
                return 0

            def random(self, n):
                return np.full(n, np.nextafter(1.0, 0.0))

        data = np.random.default_rng(1).normal(0.0, 1.0, 80)
        unit = SupportTransform.from_data(data).to_unit(data)
        post = fit_posterior(unit, HistogramPrior.poisson(lam=8.0, k_max=40))
        ((i, _, _),) = post.draws(TopUniform(), 3)
        assert post.k_support[post.post_k() > 1e-12].max() < post.k_support[i] < 40

    def test_sample_is_the_first_of_draws(self):
        for prior in (HistogramPrior.fixed(10, alpha=0.5), HistogramPrior.poisson(lam=3.0)):
            post = fit_posterior(newcomb_unit(), prior)
            for seed in range(5):
                ((_, _, weights),) = post.draws(np.random.default_rng(seed), 1)
                expected = HistogramDensity(weights[0])
                assert np.array_equal(post.sample(rng=seed).weights, expected.weights)
                assert np.allclose(expected.weights, weights[0], rtol=1e-15, atol=0.0)

    def test_all_zero_gamma_row_is_an_error(self):
        post = RandomHistogramPosterior(
            k_support=np.array([2]), log_post_k=np.array([0.0]),
            dirichlet_params=[np.array([1e-300, 1e-300])])
        with pytest.raises(RuntimeError, match="all-zero Gamma"):
            post.draws(np.random.default_rng(0), 10)

    def test_dirichlet_moments(self):
        # Dir(2, 2): mean 1/2, variance 1/20
        post = RandomHistogramPosterior(
            k_support=np.array([2]), log_post_k=np.array([0.0]),
            dirichlet_params=[np.array([2.0, 2.0])])
        rng = np.random.default_rng(99)
        first = np.concatenate([post.draws(rng, 10_000)[0][2][:, 0] for _ in range(10)])
        assert len(first) == 100_000
        assert first.mean() == pytest.approx(0.5, abs=0.005)
        assert first.var() == pytest.approx(0.05, abs=0.002)

    def test_concentrated_dirichlet_collapses(self):
        post = RandomHistogramPosterior(
            k_support=np.array([2]), log_post_k=np.array([0.0]),
            dirichlet_params=[np.array([1e6, 3e6])])
        rng = np.random.default_rng(5)
        draws = np.array([post.sample(rng).weights[0] for _ in range(200)])
        assert draws.var() < 1e-3
        assert draws.mean() == pytest.approx(0.25, abs=0.01)


class TestEapDensity:
    def test_fixed_k_eap_rows_are_each_rows_eap(self):
        # one shared grid, and per row the Dirichlet mean, which each row's
        # eap() histogram stores renormalized
        rows = np.random.default_rng(8).beta(2.0, 5.0, (3, 150))
        post = fit_posterior(rows, HistogramPrior.fixed(40))
        edges, weights = post.eap_rows()
        assert edges is grid_edges(40)
        assert weights.shape == (3, 40)
        for d in range(3):
            (p,) = post.row(d).dirichlet_params
            assert weights[d].tolist() == (p / p.sum()).tolist()
            stored = post.row(d).eap().weights
            assert normalized_weights(weights[d]).tolist() == stored.tolist()
            assert stored.tolist() == HistogramDensity(p / p.sum()).weights.tolist()

    def test_random_k_eap_rows_share_the_union_grid(self):
        # rows of different spread put their k-mass on different bin counts;
        # all share the union of the grids of every k active in any row,
        # and each row has its own eap() height on every cell of it
        rng = np.random.default_rng(9)
        rows = np.stack([rng.beta(a, a, 120) for a in (0.6, 2.0, 8.0, 30.0)])
        post = fit_posterior(rows, HistogramPrior.poisson(lam=6.0, k_max=30))
        cached = _union_grid.cache_info().currsize
        edges, weights = post.eap_rows()
        # the union of the active k is data-dependent, so it is not cached
        assert _union_grid.cache_info().currsize == cached
        active = post.k_support[(post.post_k() > 1e-12).any(axis=0)]
        assert edges.tolist() == np.unique(np.concatenate(
            [grid_edges(int(k)) for k in active])).tolist()
        assert weights.shape == (4, len(edges) - 1) and np.all(weights > 0.0)
        grids = [post.row(d).eap() for d in range(4)]
        assert len({g.k for g in grids}) > 1 and min(g.k for g in grids) < weights.shape[1]
        for d, g in enumerate(grids):
            np.testing.assert_allclose(weights[d] / np.diff(edges),
                                       g.heights[g.bin_index(edges[:-1])], rtol=1e-14, atol=0.0)

    def test_prior_mean_without_data_counts(self):
        post = RandomHistogramPosterior(
            k_support=np.array([2]), log_post_k=np.array([0.0]),
            dirichlet_params=[np.array([1.0, 1.0])])
        assert np.allclose(post.eap().weights, [0.5, 0.5])

    def test_posterior_mean_with_counts(self):
        post = RandomHistogramPosterior(
            k_support=np.array([2]), log_post_k=np.array([0.0]),
            dirichlet_params=[np.array([9.0, 1.0])])
        assert np.allclose(post.eap().weights, [0.9, 0.1])

    def test_eap_integrates_to_one(self):
        post = fit_posterior(newcomb_unit(), HistogramPrior.poisson(lam=3.0))
        assert post.eap().weights.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k_max", [9, 34])
    def test_random_k_eap_is_histogram_on_union_grid(self, k_max):
        # oracle: the posterior-weighted mixture of the per-k EAP histograms
        rng = np.random.default_rng(k_max)
        data = np.concatenate([rng.beta(2.0, 5.0, 150), rng.uniform(size=50)])
        post = fit_posterior(data, HistogramPrior.poisson(k_max=k_max))
        masses = post.post_k()
        assert np.count_nonzero(masses > 1e-12) > 1
        g = post.eap()
        assert isinstance(g, HistogramDensity)
        active = masses > 1e-12
        union = np.unique(np.concatenate(
            [np.arange(k + 1) / k for k in post.k_support[active]]))
        assert np.array_equal(g.breakpoints(), union)
        mix = MixtureDensity([(w, HistogramDensity(p / p.sum()))
                              for w, p, keep in zip(masses / masses[active].sum(),
                                                    post.dirichlet_params, active)
                              if keep])
        x = rng.uniform(size=10_000)
        assert np.allclose(g.pdf(x), mix.pdf(x), rtol=0.0, atol=1e-13)
        mass = np.dot(np.diff(g.edges), g.pdf(g.edges[:-1]))
        assert mass == pytest.approx(1.0, abs=1e-12)

    def test_eap_matches_monte_carlo_average(self):
        post = fit_posterior(newcomb_unit(), HistogramPrior.fixed(20, alpha=0.5))
        rng = np.random.default_rng(11)
        acc = np.zeros(20)
        n_draws = 20_000
        for _ in range(n_draws):
            acc += post.sample(rng).weights
        l1 = np.abs(acc / n_draws - post.eap().weights).sum()
        assert l1 < 0.01


class TestConcentrationRadius:
    def test_formula(self):
        assert concentration_radius(1, 8) == pytest.approx(math.sqrt(math.log(8) / 8))
        assert concentration_radius(100, 10_000) == pytest.approx(0.3035, abs=5e-4)

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            concentration_radius(5, 1)

    def test_posterior_draws_stay_inside_neighborhood(self):
        # draws rarely leave the M * sqrt(k log n / n) ball around the
        # grid projection of the truth (M = 5, well under a 5% miss rate)
        import scipy.stats
        from mhdbayes.densities import hellinger

        class BetaTruth:
            support = (0.0, 1.0)

            def pdf(self, x):
                return scipy.stats.beta.pdf(x, 3.0, 5.0)

        n, k = 2000, 30
        rng = np.random.default_rng(19)
        data = rng.beta(3.0, 5.0, n)
        post = fit_posterior(data, HistogramPrior.fixed(k, alpha=0.07))
        truth_k = project_to_histogram(BetaTruth(), k)
        radius = 5.0 * concentration_radius(k, n)
        misses = sum(hellinger(post.sample(rng), truth_k) > radius
                     for _ in range(200))
        assert misses / 200 < 0.05

