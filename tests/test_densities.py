import importlib
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from _helpers import (
    MixtureDensity,
    QuadratureGaussianFamily,
    ReferenceGaussianFamily,
    UniformDensity,
    einsum_node_bc,
    finite_diff_grad,
    integrate_over_cells,
    project_to_histogram,
)
from fit_normal_tail import fit_coefficients
from mhdbayes import densities
from mhdbayes.densities import (
    _MIN_PANEL_WIDTH,
    GaussianFamily,
    HistogramDensity,
    ParametricFamily,
    SupportTransform,
    _normal_tail,
    grid_edges,
    grid_widths,
    hellinger,
    integration_edges,
    padded_ranges,
    transform_density,
)
from mhdbayes.numerics import composite_nodes


def random_histogram(rng, k):
    w = rng.gamma(1.0, size=k)
    return HistogramDensity(w / w.sum())


class TestSupportTransform:
    def test_round_trip(self):
        t = SupportTransform(-3.5, 12.0)
        x = np.linspace(-3.5, 12.0, 7)
        assert np.all(np.abs(t.from_unit(t.to_unit(x)) - x) < 1e-12)

    def test_from_data_padding(self):
        t = SupportTransform.from_data([0.0, 10.0], padding=0.05)
        assert t.a == pytest.approx(-0.5)
        assert t.b == pytest.approx(10.5)

    def test_degenerate_data(self):
        with pytest.raises(ValueError, match="degenerate"):
            SupportTransform.from_data([2.0, 2.0, 2.0])

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            SupportTransform(1.0, 1.0)
        with pytest.raises(ValueError, match="finite"):
            SupportTransform(-1e308, 1e308)

    @pytest.mark.parametrize("padding", [np.nan, -0.1, np.inf])
    def test_padding_must_be_finite_and_non_negative(self, padding):
        with pytest.raises(ValueError, match=f"padding must be a finite fraction >= 0, "
                                             f"got {padding!r}"):
            SupportTransform.from_data([0.0, 10.0], padding=padding)

    @pytest.mark.parametrize("data, padding, message", [
        ([1.0, np.nan, 3.0], 0.09, "data contains non-finite values"),
        ([1.0, np.inf, 3.0], 0.09, "data contains non-finite values"),
        ([-np.inf, np.inf], 0.09, "data contains non-finite values"),
        ([1.0, np.nan, 3.0], -0.1, "data contains non-finite values"),
        ([], 0.09, "data is empty"),
        ([], np.nan, "data is empty"),
        ([[1.0, 2.0], [3.0, 4.0]], 0.09, "data must be a 1-d array"),
        (2.0, 0.09, "data must be a 1-d array")],
        ids=["nan", "inf", "infinite-range", "nan-before-padding", "empty",
             "empty-before-padding", "2-d", "scalar"])
    def test_bad_data_is_named_as_the_estimators_name_it(self, data, padding, message):
        # non-finite data and no data are named before the padding is read,
        # no range or numpy reduction message stands in for them, and data
        # that are not one row get no transform over all their values
        with pytest.raises(ValueError, match=f"^{message}$"):
            SupportTransform.from_data(data, padding=padding)

    def test_padded_range_overflowing_float64(self):
        with pytest.raises(ValueError, match=r"data range \[-1e\+308, 1e\+308\]"):
            SupportTransform.from_data([-1e308, 0.0, 1e308])

    @pytest.mark.parametrize("padding", [0.0, 0.09, 0.3])
    def test_row_ranges_are_each_rows_transform(self, padding):
        # each row of the matrix gets what it gets alone: from_data's ends or its
        # error message
        rng = np.random.default_rng(4)
        rows = rng.normal(3.0, 2.0, (6, 5))
        rows[1] = 2.0
        rows[2, :2] = -1e308, 1e308
        rows[3, 4] = np.nan
        rows[4, 0] = np.inf
        a, b, reasons = padded_ranges(rows, padding)
        for row, lo, hi, reason in zip(rows, a, b, reasons):
            try:
                t = SupportTransform.from_data(row, padding=padding)
            except ValueError as exc:
                assert reason == str(exc)
            else:
                assert reason is None and (t.a, t.b) == (lo, hi)
        assert reasons[0] is None and reasons[5] is None and "degenerate" in reasons[1]


class TestHistogramDensity:
    def test_uniform_weights(self):
        h = HistogramDensity(np.full(4, 0.25))
        x = np.array([0.0, 0.1, 0.5, 0.99, 1.0])
        assert np.allclose(h.pdf(x), 1.0)

    def test_density_is_k_times_weight(self):
        h = HistogramDensity([0.25, 0.75])
        assert h.pdf(np.array([0.1]))[0] == pytest.approx(0.5)
        assert h.pdf(np.array([0.7]))[0] == pytest.approx(1.5)

    def test_right_continuous_at_edges(self):
        h = HistogramDensity([0.25, 0.75])
        assert h.pdf(np.array([0.5]))[0] == pytest.approx(1.5)  # second bin
        assert h.pdf(np.array([1.0]))[0] == pytest.approx(1.5)  # closure

    @pytest.mark.parametrize("k", [1, 3, 7, 40, 100])
    def test_default_grid_heights_divide_by_the_cached_widths(self, k):
        w = np.random.default_rng(k).gamma(1.0, size=k)
        h = HistogramDensity(w / w.sum())
        assert h.heights.tolist() == (h.weights / np.diff(grid_edges(k))).tolist()
        assert grid_widths(k) is grid_widths(k) and not grid_widths(k).flags.writeable

    def test_zero_outside_unit_interval(self):
        h = HistogramDensity([1.0])
        assert np.all(h.pdf(np.array([-0.1, 1.1])) == 0.0)

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            HistogramDensity([0.5, 0.6])
        with pytest.raises(ValueError):
            HistogramDensity([1.5, -0.5])
        with pytest.raises(ValueError):
            HistogramDensity([])

    @pytest.mark.parametrize("weights", [[np.nan, 1.0], [np.nan, np.nan], [0.5, 0.5, np.nan]])
    def test_nan_weights_are_rejected(self, weights):
        # a NaN sum fails the sum test instead of slipping through it
        with pytest.raises(ValueError, match="weights must sum to 1, got nan"):
            HistogramDensity(weights)

    def test_default_edges_are_the_regular_grid(self):
        h = HistogramDensity(np.full(5, 0.2))
        assert np.array_equal(h.breakpoints(), np.arange(6) / 5)
        assert h.k == 5

    def test_density_is_weight_over_width_on_explicit_edges(self):
        h = HistogramDensity([0.5, 0.25, 0.25], edges=[0.0, 0.1, 0.6, 1.0])
        assert np.allclose(h.pdf(np.array([0.05, 0.1, 0.3, 0.6, 1.0])),
                           [5.0, 0.5, 0.5, 0.625, 0.625], rtol=1e-15)
        assert np.array_equal(h.breakpoints(), [0.0, 0.1, 0.6, 1.0])
        assert h.k == 3

    @pytest.mark.parametrize("k, edges", [(3, None), (100, None), (49, None),
                                          (3, [0.0, 0.1, 0.6, 1.0])])
    def test_heights_are_weight_over_width_on_every_grid(self, k, edges):
        # one height rule, the one mhd_rows forms from the same weights and
        # edges; on the regular grid k * weights would miss it by an ulp
        w = np.random.default_rng(k).dirichlet(np.ones(k))
        h = HistogramDensity(w, edges=edges)
        assert np.array_equal(h.heights, h.weights / np.diff(h.edges))

    def test_unsorted_edges(self):
        with pytest.raises(ValueError, match="increasing"):
            HistogramDensity([0.5, 0.25, 0.25], edges=[0.0, 0.6, 0.1, 1.0])
        with pytest.raises(ValueError, match="increasing"):
            HistogramDensity([0.5, 0.25, 0.25], edges=[0.0, 0.5, 0.5, 1.0])

    @pytest.mark.parametrize("edges", [[0.0, np.nan, 1.0], [0.0, 0.5, np.nan, 1.0]])
    def test_nan_edges_are_rejected(self, edges):
        # a NaN width fails the increasing test instead of slipping through it
        with pytest.raises(ValueError, match="strictly increasing"):
            HistogramDensity(np.full(len(edges) - 1, 1.0 / (len(edges) - 1)), edges=edges)

    def test_edges_must_span_unit_interval(self):
        with pytest.raises(ValueError, match="from 0 to 1"):
            HistogramDensity([0.5, 0.5], edges=[0.1, 0.5, 1.0])
        with pytest.raises(ValueError, match="from 0 to 1"):
            HistogramDensity([0.5, 0.5], edges=[0.0, 0.5, 1.2])

    def test_cells_below_quadrature_resolution_are_rejected(self):
        # quadrature drops a panel this narrow, and with it the cell's mass
        with pytest.raises(ValueError, match="width 1e-15"):
            HistogramDensity([0.4, 0.6], edges=[0.0, 1e-15, 1.0])

    def test_edge_count_must_match_weights(self):
        with pytest.raises(ValueError, match="need 3 edges"):
            HistogramDensity([0.5, 0.5], edges=[0.0, 0.25, 0.5, 1.0])
        with pytest.raises(ValueError, match="need 3 edges"):
            HistogramDensity([0.5, 0.5], edges=[[0.0, 0.5, 1.0]])

    @settings(max_examples=50, deadline=None)
    @given(cuts=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                         max_size=30, unique=True),
           seed=st.integers(0, 2 ** 32 - 1),
           k=st.integers(1, 60))
    def test_edges_bin_where_they_start_and_project_with_unit_mass(self, cuts, seed, k):
        edges = np.concatenate([[0.0], np.sort(cuts), [1.0]])
        # cells narrower than the quadrature's float resolution are out of scope
        assume(np.diff(edges).min() > 1e-9)
        w = np.random.default_rng(seed).gamma(1.0, size=len(edges) - 1)
        h = HistogramDensity(w / w.sum(), edges=edges)
        # every edge opens the bin that starts there; 1.0 closes the last one
        assert np.array_equal(h.bin_index(edges), np.append(np.arange(h.k), h.k - 1))
        assert np.array_equal(h.pdf(edges[:-1]), h.weights / np.diff(edges))
        p = project_to_histogram(h, k)
        assert p.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p.weights >= 0.0)


class TestIntegrationEdges:
    @pytest.mark.parametrize("support", [(1.0, 1.0), (1.0, 0.0), (0.0, np.nan)])
    def test_window_must_be_ordered(self, support):
        with pytest.raises(ValueError, match="need a < b"):
            integration_edges(support)

    @pytest.mark.parametrize("support", [(0.0, 1.0), (-0.3, 0.7), (0.2, 1.4)])
    def test_an_edge_array_refines_like_the_histogram_on_it(self, support):
        edges = np.union1d(np.arange(31) / 30, np.arange(38) / 37)
        g = HistogramDensity(np.diff(edges), edges=edges)
        assert np.array_equal(integration_edges(support, (edges,)),
                              integration_edges(support, (g,)))


class TestHellinger:
    def test_identity(self):
        g = random_histogram(np.random.default_rng(0), 16)
        assert hellinger(g, g) < 1e-10

    def test_nonfinite_density_names_a_plain_abscissa(self):
        bad = lambda x: np.where(x > 0.5, np.inf, 1.0)
        with pytest.raises(ValueError, match=r"'f' is non-finite at x = 0\.5\d*$"):
            hellinger(bad, UniformDensity(0.0, 1.0), support=(0.0, 1.0))

    def test_bare_callables_need_a_support(self):
        with pytest.raises(ValueError, match="support must be given"):
            hellinger(np.ones_like, np.ones_like)

    def test_disjoint_supports(self):
        f = UniformDensity(0.0, 1.0)
        g = UniformDensity(2.0, 3.0)
        assert hellinger(f, g, support=(0.0, 3.0)) == pytest.approx(math.sqrt(2), abs=1e-10)

    def test_gaussian_closed_form(self):
        # Bhattacharyya coefficient of N(0,1) vs N(1,1) is exp(-1/8)
        fam = GaussianFamily()
        h = hellinger(fam.density((0.0, 1.0)), fam.density((1.0, 1.0)), support=(-9.0, 10.0))
        assert abs(h - math.sqrt(2.0 - 2.0 * math.exp(-0.125))) < 1e-6

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            f = random_histogram(rng, 8)
            g = random_histogram(rng, 12)
            assert hellinger(f, g) == pytest.approx(hellinger(g, f), abs=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            f, g, q = (random_histogram(rng, 10) for _ in range(3))
            assert hellinger(f, g) <= hellinger(f, q) + hellinger(q, g) + 1e-12

    def test_l1_sandwich(self):
        # h^2 <= L1 and L1 <= h * sqrt(4 - h^2) (Cauchy-Schwarz), with the
        # L1 distance exact for same-grid histograms
        rng = np.random.default_rng(5)
        for _ in range(10):
            f = random_histogram(rng, 20)
            g = random_histogram(rng, 20)
            l1 = np.abs(f.weights - g.weights).sum()
            h = hellinger(f, g)
            assert h ** 2 <= l1 + 1e-10
            assert l1 <= h * math.sqrt(4.0 - h ** 2) + 1e-10

    def test_affine_invariance(self):
        rng = np.random.default_rng(11)
        fam = GaussianFamily()
        g = random_histogram(rng, 25)
        f_unit = fam.density((0.55, 0.12))
        base = hellinger(f_unit, g, support=(0.0, 1.0))
        for _ in range(5):
            a = rng.uniform(-50, 50)
            b = a + rng.uniform(0.1, 100)
            t = SupportTransform(a, b)
            h = hellinger(transform_density(f_unit, t), transform_density(g, t),
                          support=(a, b))
            assert abs(h - base) < 1e-9

    def test_negative_density_is_named(self):
        f = UniformDensity(0.0, 1.0)
        bad = lambda x: np.where(x > 0.5, -1.0, 1.0)
        with pytest.raises(ValueError, match="'g'.*negative|negative.*'g'"):
            hellinger(f, bad, support=(0.0, 1.0))

    def test_range_is_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            h = hellinger(random_histogram(rng, 6), random_histogram(rng, 9))
            assert 0.0 <= h <= math.sqrt(2) + 1e-12


class TestProjectToHistogram:
    def test_uniform(self):
        h = project_to_histogram(UniformDensity(0.0, 1.0), 8)
        assert np.allclose(h.weights, 1.0 / 8.0, atol=1e-12)

    def test_idempotent_on_grid(self):
        g = random_histogram(np.random.default_rng(9), 6)
        p = project_to_histogram(g, 6)
        assert np.allclose(p.weights, g.weights, atol=1e-12)

    def test_truncated_gaussian_masses_match_cdf(self):
        loc, scale = 0.5, 0.1
        z = scipy.stats.norm.cdf(1.0, loc, scale) - scipy.stats.norm.cdf(0.0, loc, scale)

        class TruncGauss:
            support = (0.0, 1.0)

            def pdf(self, x):
                return scipy.stats.norm.pdf(x, loc, scale) / z

        h = project_to_histogram(TruncGauss(), 4)
        edges = np.arange(5) / 4.0
        expected = np.diff(scipy.stats.norm.cdf(edges, loc, scale)) / z
        assert np.allclose(h.weights, expected, atol=1e-10)

    def test_l2_projection_orthogonality(self):
        # (f - f_[k]) is orthogonal to every piecewise-constant q on the grid
        rng = np.random.default_rng(13)
        loc, scale = 0.4, 0.2
        z = scipy.stats.norm.cdf(1.0, loc, scale) - scipy.stats.norm.cdf(0.0, loc, scale)

        class TruncGauss:
            support = (0.0, 1.0)

            def pdf(self, x):
                return scipy.stats.norm.pdf(x, loc, scale) / z

        f = TruncGauss()
        k = 5
        fk = project_to_histogram(f, k)
        q = random_histogram(rng, k)
        edges = np.arange(k + 1) / k
        refined = np.unique(np.concatenate([edges, np.linspace(0, 1, 65)]))
        x, w = composite_nodes(refined)
        resid = np.dot(w, (f.pdf(x) - fk.pdf(x)) * q.pdf(x))
        assert abs(resid) < 1e-9

    def test_k_zero_is_error(self):
        with pytest.raises(ValueError):
            project_to_histogram(UniformDensity(0.0, 1.0), 0)


class TestTransformDensity:
    def test_identity_transform(self):
        g = random_histogram(np.random.default_rng(1), 4)
        t = SupportTransform(0.0, 1.0)
        moved = transform_density(g, t)
        x = np.linspace(0, 1, 17)
        assert np.allclose(moved.pdf(x), g.pdf(x), atol=1e-14)

    def test_uniform_rescale(self):
        moved = transform_density(UniformDensity(0.0, 1.0), SupportTransform(10.0, 20.0))
        assert moved.pdf(np.array([15.0]))[0] == pytest.approx(0.1)
        assert moved.pdf(np.array([25.0]))[0] == 0.0

    def test_integrates_to_one(self):
        g = random_histogram(np.random.default_rng(4), 7)
        t = SupportTransform(-5.0, 3.0)
        moved = transform_density(g, t)
        val = integrate_over_cells(moved.pdf, moved.breakpoints())
        assert val == pytest.approx(1.0, abs=1e-12)


class TestMixtureDensity:
    def test_pdf_is_convex_combination(self):
        f = UniformDensity(0.0, 1.0)
        g = UniformDensity(0.0, 2.0)
        mix = MixtureDensity([(0.25, f), (0.75, g)])
        assert mix.pdf(np.array([0.5]))[0] == pytest.approx(0.25 + 0.75 * 0.5)
        assert mix.pdf(np.array([1.5]))[0] == pytest.approx(0.375)

    def test_breakpoints_are_merged(self):
        mix = MixtureDensity([(0.5, UniformDensity(0.0, 1.0)),
                              (0.5, UniformDensity(0.5, 2.0))])
        assert set(np.round(mix.breakpoints(), 12)) == {0.0, 0.5, 1.0, 2.0}

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MixtureDensity([(0.5, UniformDensity(0, 1)), (0.2, UniformDensity(0, 1))])


class TestGaussianFamily:
    fam = GaussianFamily()
    ref = ReferenceGaussianFamily()

    def test_sqrt_hess_is_the_default_one(self, monkeypatch):
        # no program path takes a Gaussian sqrt-density Hessian, so only the
        # tests' reference family defines one; the benchmark's tracer wraps
        # GaussianFamily.sqrt_hess by name and restores what it found
        assert GaussianFamily.sqrt_hess is ParametricFamily.sqrt_hess
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        with importlib.import_module("spans").Tracer().installed():
            pass
        assert GaussianFamily.sqrt_hess is ParametricFamily.sqrt_hess

    def test_pdf_normalization(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            theta = (rng.uniform(-3, 3), rng.uniform(0.2, 4.0))
            lo, hi = self.fam.plausible_support(theta)
            x, w = composite_nodes(np.linspace(lo, hi, 65))
            assert np.dot(w, self.fam.pdf(theta, x)) == pytest.approx(1.0, abs=1e-8)

    def test_sqrt_grad_matches_finite_differences(self):
        theta = np.array([0.3, 1.7])
        xs = np.array([-2.0, -0.5, 0.3, 1.1, 4.0])
        grads = self.fam.sqrt_grad(theta, xs)
        h = 1e-6
        for j in range(2):
            step = np.zeros(2)
            step[j] = h
            fd = (self.fam.sqrt_pdf(theta + step, xs)
                  - self.fam.sqrt_pdf(theta - step, xs)) / (2 * h)
            assert np.allclose(grads[:, j], fd, atol=1e-8)

    def test_sqrt_hess_matches_finite_differences(self):
        theta = np.array([-0.4, 0.9])
        xs = np.array([-1.5, 0.0, 0.7, 2.2])
        hess = self.ref.sqrt_hess(theta, xs)
        h = 1e-5
        for j in range(2):
            step = np.zeros(2)
            step[j] = h
            fd = (self.ref.sqrt_grad(theta + step, xs)
                  - self.ref.sqrt_grad(theta - step, xs)) / (2 * h)
            assert np.allclose(hess[:, :, j], fd, atol=1e-6)

    def test_column_thetas_broadcast_row_by_row(self):
        rng = np.random.default_rng(5)
        thetas = np.column_stack([rng.uniform(-1, 1, 6), rng.uniform(0.2, 2.0, 6)])
        xs = np.linspace(-3.0, 3.0, 11)
        cols = thetas.T[:, :, None]
        for method in ("sqrt_pdf", "sqrt_grad", "sqrt_hess"):
            batched = getattr(self.ref, method)(cols, xs)
            rows = np.stack([getattr(self.ref, method)(t, xs) for t in thetas])
            assert batched.shape == rows.shape
            assert np.array_equal(batched, rows)

    def test_unit_box_maps_bounds(self):
        fam = GaussianFamily(bounds=((-10.0, 10.0), (0.5, 8.0)))
        t = SupportTransform(-20.0, 20.0)
        (mu_lo, sg_lo), (mu_hi, sg_hi) = fam.unit_box(t)
        assert (mu_lo, mu_hi) == pytest.approx((0.25, 0.75))
        assert (sg_lo, sg_hi) == pytest.approx((0.0125, 0.2))

    def test_theta_round_trip(self):
        t = SupportTransform(-3.0, 9.0)
        theta = np.array([2.5, 1.2])
        back = self.fam.theta_from_unit(self.fam.theta_to_unit(theta, t), t)
        assert np.allclose(back, theta, atol=1e-12)

    def test_theta_from_unit_maps_columns_like_rows(self):
        # BMH maps all its rows back with one call on the parameter columns
        t = SupportTransform(-3.0, 9.0)
        rows = np.random.default_rng(5).uniform(0.01, 1.0, (50, 2))
        one_call = self.fam.theta_from_unit(rows.T, t).T
        assert np.array_equal(one_call, [self.fam.theta_from_unit(r, t) for r in rows])

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            GaussianFamily(bounds=((-1.0, 1.0), (-0.5, 2.0)))

    @pytest.mark.parametrize("bounds, match", [
        ((None, (0.0, 2.0)), "sigma lower bound must be positive"),
        ((None, (-0.5, 2.0)), "sigma lower bound must be positive"),
        ((None, (2.0, 0.5)), "well ordered"),
        (((1.0, -1.0), None), "well ordered"),
        (((1.0, 1.0), None), "well ordered"),
        (((np.nan, 1.0), None), "well ordered"),
        ((None, (0.1, np.nan)), "well ordered"),
        ((None, (np.nan, 1.0)), "sigma lower bound must be positive"),
    ])
    def test_bad_bounds_beside_an_open_parameter(self, bounds, match):
        with pytest.raises(ValueError, match=match):
            GaussianFamily(bounds=bounds)

    def test_unit_box_opens_only_unbounded_parameters(self):
        from mhdbayes.densities import _UNIT_BOUNDS

        t = SupportTransform(-20.0, 20.0)
        assert GaussianFamily(bounds=(None, None)).bounds is None
        assert np.array_equal(GaussianFamily().unit_box(t).T, _UNIT_BOUNDS)
        (mu_lo, mu_hi), sg_b = GaussianFamily(bounds=((-10.0, 10.0), None)).unit_box(t).T
        assert (mu_lo, mu_hi) == pytest.approx((0.25, 0.75))
        assert tuple(sg_b) == _UNIT_BOUNDS[1]
        mu_b, (sg_lo, sg_hi) = GaussianFamily(bounds=(None, (0.5, 8.0))).unit_box(t).T
        assert tuple(mu_b) == _UNIT_BOUNDS[0]
        assert (sg_lo, sg_hi) == pytest.approx((0.0125, 0.2))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 3000),
           loc=st.floats(-1e6, 1e6), scale=st.floats(1e-6, 1e6))
    def test_moment_start_equals_the_sum_over_numpy_scalars(self, seed, n, loc, scale):
        # fsum over a list of Python floats gives the same bits as fsum over
        # the array's numpy scalars
        data = np.random.default_rng(seed).normal(loc, scale, n)
        mean = math.fsum(data) / n
        sd = math.sqrt(math.fsum((data - mean) ** 2) / n)
        assert np.array_equal(self.fam.initial_theta(data), [mean, sd if sd > 0 else 1.0])

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 3000),
           loc=st.floats(-1e6, 1e6), scale=st.floats(1e-6, 1e6), shift=st.integers(450, 1000))
    def test_moment_start_scales_exactly_by_powers_of_two(self, seed, n, loc, scale, shift):
        # past about 1e154 the squares overflow and near 1e308 the sums do;
        # the start is then that of the data scaled into [-1, 1], scaled
        # back, and a power of two still scales it exactly
        data = np.random.default_rng(seed).normal(loc, scale, n)
        big = np.ldexp(data, shift)
        assume(np.all(np.isfinite(big)))
        assert np.array_equal(self.fam.initial_theta(big),
                              np.ldexp(self.fam.initial_theta(data), shift))

    @pytest.mark.parametrize("data", [
        1.5e308 + np.random.default_rng(0).uniform(0.0, 1e307, 40),
        np.array([1.7976931348623157e308] * 3 + [1.7e308]),
        np.array([-1.7976931348623157e308, 1.7976931348623157e308]),
    ], ids=["shifted-uniform", "at-the-largest-double", "both-ends"])
    def test_moment_start_does_not_overflow(self, data):
        # the sum or the squares of the deviations overflow float64 on each
        mean, sd = self.fam.initial_theta(data)
        assert data.min() <= mean <= data.max()
        scaled = data / 2.0 ** 520
        assert mean == pytest.approx(math.fsum(scaled.tolist()) / len(data) * 2.0 ** 520,
                                     rel=1e-15)
        assert sd == pytest.approx(scaled.std() * 2.0 ** 520, rel=1e-12)

    def test_unit_box_is_a_declared_hook(self):
        with pytest.raises(NotImplementedError, match=r"^ParametricFamily does not declare unit_box$"):
            ParametricFamily().unit_box(SupportTransform(0.0, 1.0))

    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(-1e6, 1e6), width=st.floats(1e-3, 1e9),
           mu=st.one_of(st.none(), st.tuples(st.floats(-1e6, 1e6), st.floats(1e-3, 1e6))),
           sigma=st.one_of(st.none(), st.tuples(st.floats(1e-9, 1e3), st.floats(1e-3, 1e6))))
    def test_unit_box_is_the_unit_image_of_the_box_corners(self, a, width, mu, sigma):
        # bounds open on both parameters, on one only, or on neither: each
        # bounded parameter's unit-scale box is theta_to_unit of the lower
        # and the upper corner, bit for bit, the sigma floor of 1e-12 apart;
        # an open one gets its _UNIT_BOUNDS pair
        from mhdbayes.densities import _UNIT_BOUNDS

        bounds = tuple(None if b is None else (b[0], b[0] + b[1]) for b in (mu, sigma))
        assume(all(b is None or b[0] < b[1] for b in bounds))
        t = SupportTransform(a, a + width)
        fam = GaussianFamily(bounds=bounds)
        lo, hi = (fam.theta_to_unit([0.0 if b is None else b[i] for b in bounds], t)
                  for i in (0, 1))
        lo[1] = max(lo[1], 1e-12)
        for j, b in enumerate(bounds):
            if b is None:
                lo[j], hi[j] = _UNIT_BOUNDS[j]
        assert np.array_equal(fam.unit_box(t), [lo, hi])


def mhd_nodes(g):
    """The Gauss-Legendre nodes ``mhd`` integrates a histogram ``g`` on, and
    the weights times sqrt(g)."""
    x, w = composite_nodes(integration_edges((0.0, 1.0), (g,)))
    return x, w * np.sqrt(g.pdf(x))


class TestNodeBc:
    """The Gaussian one-pass node sums against ``einsum_node_bc``'s sums of
    ``sqrt_pdf``, ``sqrt_grad`` and ``sqrt_hess``."""

    fam = ReferenceGaussianFamily()

    def assert_matches_default(self, theta, x, wg):
        # 1e-12 relative, with a floor of 1e-12 times the sum of the
        # absolute node terms, the scale of the oracle's own rounding.
        #
        # Each scale also gets an absolute floor of 2^-1074 sum_n |P_n| over
        # the nodes with s = sqrt_pdf > 0, P_n being the node's factor
        # sqrt_grad / s (or sqrt_hess / s; 1 for the coefficient).  Below
        # 2^-1022 doubles are spaced 2^-1074 apart, so a subnormal product
        # rounds with an absolute error of up to 2^-1075 however small it
        # is, and the two evaluations round different ones: wg s here,
        # s u / (2 sigma) and the like in the oracle.  The one-pass sums
        # carry the error of wg s through the power sums' factors, which
        # match |P_n| up to a factor 1 + 16 / u^2, and wg s is subnormal
        # only far out (|u| > 50 for the |wg| ~ 1e-3 of mhd's nodes).  The
        # later subnormal roundings of either side are carried by at most
        # about |P_n| / |u|.  So a node moves the gap by a little over
        # 2^-1075 |P_n|, and the floor allows twice that.
        one_pass = self.fam.node_bc(theta, x, wg)
        default = einsum_node_bc(self.fam, theta, x, wg)
        s = self.fam.sqrt_pdf(theta, x)
        grad, hess = self.fam.sqrt_grad(theta, x), self.fam.sqrt_hess(theta, x)
        scales = (np.einsum("...n,...n->...", np.abs(wg), s),
                  np.einsum("...n,...np->...p", np.abs(wg), np.abs(grad)),
                  np.einsum("...n,...npq->...pq", np.abs(wg), np.abs(hess)))
        for got, want, scale, d in zip(one_pass, default, scales, (s, grad, hess)):
            s_n = s.reshape(s.shape + (1,) * (d.ndim - s.ndim))
            p_n = np.divide(np.abs(d), s_n, out=np.zeros(d.shape), where=s_n > 0)
            floor = 2.0 ** -1074 * p_n.sum(axis=s.ndim - 1)
            assert got.shape == want.shape
            assert np.all(np.isfinite(got))
            assert np.all(np.abs(got - want) <= 1e-12 * (np.abs(want) + scale) + floor)
        return one_pass

    @pytest.mark.parametrize("theta", [(0.3, 0.2), (0.5, 1.7), (-0.4, 0.05), (1.6, 2.0),
                                       (0.41, 1e-3), (0.41, 1e-5), (0.7, 2e-4)])
    def test_scalar_theta_on_mhd_nodes(self, theta):
        # the last three sigmas lie below the node spacing of about 4e-3
        x, wg = mhd_nodes(random_histogram(np.random.default_rng(3), 40))
        self.assert_matches_default(theta, x, wg)

    @pytest.mark.parametrize("shared", [True, False], ids=["one-wg-row", "row-stacked-wg"])
    def test_column_thetas_on_mhd_nodes(self, shared):
        rng = np.random.default_rng(8)
        thetas = np.column_stack([rng.uniform(-1.0, 2.0, 6), rng.uniform(1e-3, 2.0, 6)])
        # histograms on one grid share mhd's nodes; each row gets its own
        x, wg = zip(*(mhd_nodes(random_histogram(rng, 25)) for _ in range(6)))
        x, wg = x[0], np.stack(wg[:1] if shared else wg)
        bc, grad, hess = self.assert_matches_default(thetas.T[:, :, None], x, wg)
        assert (bc.shape, grad.shape, hess.shape) == ((6,), (6, 2), (6, 2, 2))
        rows = [self.fam.node_bc(t, x, wg[0 if shared else i]) for i, t in enumerate(thetas)]
        for got, row in zip((bc, grad, hess), zip(*rows)):
            assert np.allclose(got, np.stack(row), rtol=1e-14, atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 60),
           mu=st.floats(-1.0, 2.0), sg=st.floats(1e-5, 2.0))
    # one node's sqrt_pdf is subnormal (8e-317), and the gradients differ
    # in their fifth digit at 2e-313: the absolute floor's case
    @example(seed=0, k=36, mu=1e-5, sg=1e-5)
    def test_matches_default_in_the_unit_box(self, seed, k, mu, sg):
        x, wg = mhd_nodes(random_histogram(np.random.default_rng(seed), k))
        self.assert_matches_default((mu, sg), x, wg)

    @pytest.mark.parametrize("theta", [(-0.9, 1e-3), (1.9, 1e-3), (-1.0, 1e-5), (2.0, 1e-5)])
    def test_underflow_gives_zeros_not_nan(self, theta):
        # sqrt(f_theta) underflows on every node, and u^4 stays finite
        x, wg = mhd_nodes(random_histogram(np.random.default_rng(4), 10))
        bc, grad, hess = self.fam.node_bc(theta, x, wg)
        assert bc == 0.0
        assert np.all(grad == 0.0)
        assert np.all(hess == 0.0)


class TestNormalTail:
    """The numpy tail Phi(-|a|) against scipy's ``ndtr``."""

    grid = np.linspace(0.0, 37.67, 400_001)

    def test_matches_ndtr(self):
        # 1e-14 relative wherever ndtr(-a) is a normal double (a <= 37.5).
        # Beyond, doubles are spaced a fixed 2^-1074 apart, and ndtr's last
        # steps (its quotient and its halving) and the tail's product each
        # round to that spacing, so a few units of it are rounding: allow 4.
        got, want = _normal_tail(self.grid), ndtr(-self.grid)
        assert np.all(np.abs(got - want) <= 1e-14 * want + 4 * 2.0 ** -1074)

    def test_zero_exactly_where_ndtr_is(self):
        a = np.concatenate([np.linspace(37.0, 40.0, 300_001), [1e3, 1e300, np.inf]])
        with np.errstate(over="ignore", invalid="ignore"):   # x^2 and t at 1e300, inf
            got = _normal_tail(a)
        want = ndtr(-a)
        assert np.any(want == 0.0) and np.any(want > 0.0)
        assert np.array_equal(got == 0.0, want == 0.0)

    def test_exponential_is_the_one_the_tail_is_made_from(self):
        # exp(-a^2 / 2) formed as exp(-x^2), x = |a| / sqrt(2): it is the
        # tail's own factor, and within rounding of the direct form
        a = np.concatenate([-self.grid[::40], self.grid[::40]])
        tail, gauss = densities._normal_tail_exp(a)
        x = np.abs(a) * densities._SQRT1_2
        assert np.array_equal(gauss, np.exp(-(x * x)))
        assert np.array_equal(tail, _normal_tail(a))
        direct = np.exp(-0.5 * a * a)
        normal = direct >= np.finfo(float).tiny
        assert np.allclose(gauss[normal], direct[normal], rtol=1e-12, atol=0.0)

    def test_even_in_a(self):
        a = np.concatenate([self.grid, [40.0, 1e3]])
        assert np.array_equal(_normal_tail(-a), _normal_tail(a))

    def test_committed_coefficients_match_a_refit(self, monkeypatch):
        committed = _normal_tail(self.grid)
        monkeypatch.setattr(densities, "_TAIL_COEFS", fit_coefficients())
        refit = _normal_tail(self.grid)
        normal = committed >= np.finfo(float).tiny
        assert np.max(np.abs(refit[normal] / committed[normal] - 1.0)) <= 1e-15


def far_tail_edges(mu, sg, side):
    """Edges at least 10 sigma from mu, all on one side of it: plain
    1 - Phi differences would cancel to nothing there."""
    return np.sort(mu + side * sg * np.array([10.0, 10.5, 11.5, 13.0, 16.0, 25.0]))


def accepted_edges(cuts):
    """Edges 0, the sorted ``cuts`` and 1, less every cut that would leave a
    cell no wider than ``_MIN_PANEL_WIDTH``: cells of the widths
    ``HistogramDensity`` accepts, the only ones a fit integrates (the
    quadrature oracle drops narrower panels, and with them their mass)."""
    edges = [0.0]
    for cut in sorted(cuts):
        if cut - edges[-1] > _MIN_PANEL_WIDTH and 1.0 - cut > _MIN_PANEL_WIDTH:
            edges.append(cut)
    return np.array(edges + [1.0])


# up to 30 interior cuts of [0, 1], as cells HistogramDensity accepts
UNIT_EDGES = st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                      max_size=30, unique=True).map(accepted_edges)


def quad_cells(f, edges):
    """Adaptive quadrature of ``f`` over every cell of ``edges``."""
    return np.array([scipy.integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                     for a, b in zip(edges[:-1], edges[1:])])


class TestCellSqrtMasses:
    """The Gaussian closed form against the quadrature oracle and adaptive
    quadrature in the far tails."""

    fam = GaussianFamily()

    @settings(max_examples=60, deadline=None)
    @given(cuts=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                         max_size=30, unique=True),
           mu=st.floats(-0.5, 1.5),
           sg=st.floats(4.0 / 32.0, 2.0))
    def test_closed_form_matches_quadrature_default(self, cuts, mu, sg):
        # sigma spans at least 4 of the 32 uniform panels on [0, 1]
        edges = np.concatenate([[0.0], np.sort(cuts), [1.0]])
        closed = self.fam.cell_sqrt_masses((mu, sg), edges)
        # one unit sqrt height per cell: the quadrature oracle's cell masses
        quad = QuadratureGaussianFamily().histogram_bc((mu, sg), edges,
                                                       np.eye(len(edges) - 1))[0]
        assert closed.shape == quad.shape
        assert np.max(np.abs(closed - quad)) <= 1e-12

    def test_masses_sum_to_the_integral_of_sqrt_f(self):
        # over +-40 sigma the cells hold all of integral sqrt(f) = sqrt(2 sigma) (2 pi)^(1/4)
        mu, sg = 0.3, 0.4
        edges = np.linspace(mu - 40 * sg, mu + 40 * sg, 81)
        masses = self.fam.cell_sqrt_masses((mu, sg), edges)
        assert masses.sum() == pytest.approx(math.sqrt(2 * sg) * (2 * math.pi) ** 0.25,
                                             rel=1e-14)

    @pytest.mark.parametrize("side", [1.0, -1.0], ids=["upper", "lower"])
    def test_far_tail_cells_keep_relative_accuracy(self, side):
        mu, sg = 0.3, 0.02
        edges = far_tail_edges(mu, sg, side)
        want = quad_cells(lambda x: self.fam.sqrt_pdf((mu, sg), x), edges)
        assert np.all(want != 0.0)
        assert np.max(np.abs(self.fam.cell_sqrt_masses((mu, sg), edges) / want - 1.0)) <= 1e-10

    def test_column_thetas_broadcast_row_by_row(self):
        rng = np.random.default_rng(6)
        thetas = np.column_stack([rng.uniform(0.0, 1.0, 5), rng.uniform(0.2, 2.0, 5)])
        edges = np.array([0.0, 0.1, 0.35, 0.5, 0.9, 1.0])
        hook = self.fam.cell_sqrt_masses
        batched = hook(thetas.T[:, :, None], edges)
        assert batched.shape == (5, 5)
        assert np.allclose(batched, np.stack([hook(t, edges) for t in thetas]),
                           rtol=1e-14, atol=1e-15)


class TestHistogramBc:
    """The Bhattacharyya coefficient of f_theta with a histogram and its
    derivatives: the Gaussian closed form against the quadrature oracle,
    finite differences and adaptive quadrature in the far tails."""

    fam = GaussianFamily()

    @settings(max_examples=60, deadline=None)
    @given(edges=UNIT_EDGES,
           seed=st.integers(0, 2 ** 32 - 1),
           mu=st.floats(-0.5, 1.5),
           sg=st.floats(1.0 / 8.0, 2.0))
    def test_closed_form_matches_quadrature_default(self, edges, seed, mu, sg):
        HistogramDensity(np.diff(edges), edges=edges)
        sqrt_heights = np.random.default_rng(seed).uniform(0.0, 3.0, len(edges) - 1)
        closed = self.fam.histogram_bc((mu, sg), edges, sqrt_heights)
        quad = QuadratureGaussianFamily().histogram_bc((mu, sg), edges, sqrt_heights)
        for c, q in zip(closed, quad):
            assert c.shape == q.shape
            assert np.max(np.abs(c - q)) <= 1e-12

    # quad warns of roundoff on the Hessian entry near 0, which the
    # absolute bound covers
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_sub_resolution_cells_match_adaptive_quadrature(self):
        # cells far narrower than 1e-14, which HistogramDensity refuses: the
        # quadrature oracle drops their panels and misses the Hessian by
        # 2.0e-12 here, while the closed form keeps every cell
        edges = np.array([0.0, 5e-324, 7.964472581418271e-274, 4.1650891756000376e-92,
                          1e-14, 1.0])
        sqrt_heights = np.random.default_rng(0).uniform(0.0, 3.0, 5)
        theta = np.array([0.0, 0.125])
        bc, grad, hess = self.fam.histogram_bc(theta, edges, sqrt_heights)

        def want(fn, *index):
            return sqrt_heights @ quad_cells(lambda x: fn(theta, np.array([x]))[(0,) + index],
                                             edges)

        checks = [(bc, want(self.fam.sqrt_pdf))]
        checks += [(grad[p], want(self.fam.sqrt_grad, p)) for p in range(2)]
        checks += [(hess[p, q], want(ReferenceGaussianFamily().sqrt_hess, p, q))
                   for p in range(2) for q in range(2)]
        for got, expected in checks:
            assert abs(got - expected) <= 1e-12

    def test_derivatives_match_finite_differences(self):
        edges = np.array([-2.0, -0.7, 0.1, 0.4, 1.3, 3.0])
        sqrt_heights = np.array([0.3, 1.2, 0.0, 0.8, 0.5])
        theta = np.array([0.2, 0.8])
        _, grad, hess = self.fam.histogram_bc(theta, edges, sqrt_heights)
        fd = finite_diff_grad(lambda t: self.fam.histogram_bc(t, edges, sqrt_heights)[0], theta)
        assert np.allclose(grad, fd, atol=1e-9)
        for p in range(2):
            fd = finite_diff_grad(lambda t: self.fam.histogram_bc(t, edges, sqrt_heights)[1][p],
                                  theta, h=1e-5)
            assert np.allclose(hess[p], fd, atol=1e-8)

    @pytest.mark.parametrize("side", [1.0, -1.0], ids=["upper", "lower"])
    def test_far_tail_histograms_keep_relative_accuracy(self, side):
        # summing Phi(z) over these edges would leave nothing of the upper
        # tail; the closed form sums -Phi(-z) above mu instead
        mu, sg = 0.3, 0.02
        edges = far_tail_edges(mu, sg, side)
        sqrt_heights = np.array([1.5, 0.4, 2.0, 0.7, 1.1])
        theta = np.array([mu, sg])
        bc, grad, hess = self.fam.histogram_bc(theta, edges, sqrt_heights)

        def want(fn, *index):
            return sqrt_heights @ quad_cells(lambda x: fn(theta, np.array([x]))[(0,) + index],
                                             edges)

        checks = [(bc, want(self.fam.sqrt_pdf))]
        checks += [(grad[p], want(self.fam.sqrt_grad, p)) for p in range(2)]
        checks += [(hess[p, q], want(ReferenceGaussianFamily().sqrt_hess, p, q))
                   for p in range(2) for q in range(2)]
        for got, expected in checks:
            assert expected != 0.0
            assert abs(got / expected - 1.0) <= 1e-10

    @pytest.mark.parametrize("mu", [-0.9, 1.9], ids=["below", "above"])
    def test_underflow_gives_zero_and_a_singular_jacobian(self, mu):
        # f_theta underflows on all of [0, 1]: no overlap, no curvature
        edges = np.linspace(0.0, 1.0, 11)
        bc, grad, hess = self.fam.histogram_bc((mu, 1e-3), edges, np.ones(10))
        assert bc == 0.0
        assert np.all(grad == 0.0)
        assert np.linalg.det(hess) == 0.0

    @pytest.mark.parametrize("family", [GaussianFamily, QuadratureGaussianFamily],
                             ids=["closed-form", "quadrature"])
    def test_column_thetas_broadcast_row_by_row(self, family):
        rng = np.random.default_rng(6)
        thetas = np.column_stack([rng.uniform(0.0, 1.0, 5), rng.uniform(0.2, 2.0, 5)])
        edges = np.array([0.0, 0.1, 0.35, 0.5, 0.9, 1.0])
        sqrt_heights = rng.uniform(0.0, 2.0, (5, 5))
        hook = family().histogram_bc
        batched = hook(thetas.T[:, :, None], edges, sqrt_heights)
        rows = [hook(t, edges, s) for t, s in zip(thetas, sqrt_heights)]
        for i, shape in enumerate([(5,), (5, 2), (5, 2, 2)]):
            assert batched[i].shape == shape
            assert np.allclose(batched[i], np.stack([r[i] for r in rows]),
                               rtol=1e-14, atol=1e-15)
