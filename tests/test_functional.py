import math

import numpy as np
import pytest

from _helpers import QuadratureGaussianFamily
from mhdbayes import functional
from mhdbayes.densities import (
    GaussianFamily,
    HistogramDensity,
    ParametricFamily,
    SupportTransform,
    project_to_histogram,
)
from mhdbayes.functional import (
    asymptotic_variance,
    fisher_information,
    influence_function,
    l_norm_sq,
    mhd,
    mhd_rows,
)
from mhdbayes.numerics import composite_nodes

_SQRT2PI = math.sqrt(2 * math.pi)


class GaussianLocationFamily(ParametricFamily):
    """Location-only normal with known scale; exercises the p=1 machinery."""

    dim = 1

    def __init__(self, sigma=1.0, bounds=((-5.0, 5.0),)):
        self.sigma = sigma
        self.bounds = bounds

    def pdf(self, theta, x):
        z = (np.asarray(x, dtype=float) - theta[0]) / self.sigma
        return np.exp(-0.5 * z * z) / (self.sigma * _SQRT2PI)

    def sqrt_pdf(self, theta, x):
        z = (np.asarray(x, dtype=float) - theta[0]) / self.sigma
        return np.exp(-0.25 * z * z) / math.sqrt(self.sigma * _SQRT2PI)

    def sqrt_grad(self, theta, x):
        s = self.sqrt_pdf(theta, x)
        u = (np.asarray(x, dtype=float) - theta[0]) / self.sigma
        return (s * u / (2 * self.sigma))[..., None]

    def sqrt_hess(self, theta, x):
        s = self.sqrt_pdf(theta, x)
        u = (np.asarray(x, dtype=float) - theta[0]) / self.sigma
        vals = s * (u * u / 4.0 - 0.5) / self.sigma ** 2
        return vals[..., None, None]

    def plausible_support(self, theta):
        return (theta[0] - 10.0 * self.sigma, theta[0] + 10.0 * self.sigma)


class TruncatedUnitGaussian:
    """N(mu, sg) restricted to [0, 1] and renormalized."""

    support = (0.0, 1.0)

    def __init__(self, mu, sg):
        self.mu, self.sg = mu, sg
        self.z = 0.5 * (math.erf((1.0 - mu) / (sg * math.sqrt(2)))
                        - math.erf((0.0 - mu) / (sg * math.sqrt(2))))

    def pdf(self, x):
        u = (np.asarray(x, dtype=float) - self.mu) / self.sg
        return np.exp(-0.5 * u * u) / (self.sg * _SQRT2PI * self.z)


def grid_search(objective, mu_grid, sg_grid):
    """Lattice oracle for two-parameter Hellinger objectives."""
    best = (np.inf, None)
    for mu in mu_grid:
        for sg in sg_grid:
            v = objective((mu, sg))
            if v < best[0]:
                best = (v, (mu, sg))
    return np.asarray(best[1]), best[0]


def hellinger_objective(g, family, support, min_panels=64):
    from mhdbayes.densities import integration_edges
    edges = integration_edges(support, (g,), min_panels=min_panels)
    x, w = composite_nodes(edges)
    sqrt_g = np.sqrt(np.asarray(g.pdf(x)))
    wg = w * sqrt_g

    def objective(theta):
        bc = float(np.dot(wg, family.sqrt_pdf(theta, x)))
        return math.sqrt(max(0.0, 2.0 - 2.0 * bc))

    return objective


class TestMhd:
    def test_recovers_exact_model(self):
        fam = GaussianFamily(bounds=((-5.0, 5.0), (0.1, 5.0)))
        res = mhd(fam.density((0.0, 1.0)), fam, x0=(0.5, 1.5))
        assert res.converged
        assert np.allclose(res.theta_hat, [0.0, 1.0], atol=1e-4)
        assert res.h_min < 1e-6
        assert res.first_order_norm < 1e-3

    def test_histogram_projection_bias_small(self):
        # theta0=(0,1) mapped to the unit interval, projected to k=200 bins;
        # the minimizer must sit within 0.02 of theta0 on the data scale,
        # and agree with a 200x200 lattice oracle
        t = SupportTransform(-8.0, 8.0)
        fam = GaussianFamily()
        unit_theta = fam.theta_to_unit((0.0, 1.0), t)
        unit_fam = fam.unit_fit_family(t)
        g = project_to_histogram(unit_fam.density(tuple(unit_theta)), 200)
        res = mhd(g, unit_fam, x0=(0.45, 0.08), support=(0.0, 1.0))
        theta_data = fam.theta_from_unit(res.theta_hat, t)
        assert np.allclose(theta_data, [0.0, 1.0], atol=0.02)

        objective = hellinger_objective(g, unit_fam, (0.0, 1.0))
        lattice, _ = grid_search(objective,
                                 np.linspace(0.45, 0.55, 200),
                                 np.linspace(0.04, 0.09, 200))
        assert np.allclose(res.theta_hat, lattice, atol=1e-3)

    def test_minimize_recovers_histogramized_gaussian(self):
        # h^2 objective against a histogramized N(27.73, 5.00^2): lattice
        # oracle and Nelder-Mead must both land on the generating values
        t = SupportTransform(-51.0, 47.0)
        fam = GaussianFamily()
        unit_fam = fam.unit_fit_family(t)
        unit_theta = fam.theta_to_unit((27.73, 5.00), t)
        g = project_to_histogram(TruncatedUnitGaussian(*unit_theta), 100)
        res = mhd(g, unit_fam, x0=(0.5, 0.1), support=(0.0, 1.0))
        theta_data = fam.theta_from_unit(res.theta_hat, t)
        assert np.allclose(theta_data, [27.73, 5.00], atol=0.05)

        objective = hellinger_objective(g, unit_fam, (0.0, 1.0))
        mu_grid = np.linspace(20.0, 35.0, 200)
        sg_grid = np.linspace(2.0, 9.0, 200)
        lattice, _ = grid_search(
            objective,
            (mu_grid - t.a) / t.width, sg_grid / t.width)
        lattice_data = fam.theta_from_unit(lattice, t)
        assert np.allclose(theta_data, lattice_data, atol=0.1)

    def test_bound_pinned_fit_is_flagged(self):
        fam = GaussianFamily(bounds=((-5.0, 5.0), (2.0, 4.0)))
        res = mhd(fam.density((0.0, 1.0)), fam, x0=(0.0, 3.0), support=(-10.0, 10.0))
        assert not res.converged
        assert res.theta_hat[1] == pytest.approx(2.0, abs=1e-6)

    def test_recovers_one_parameter_model(self):
        fam = GaussianLocationFamily()
        res = mhd(fam.density((0.3,)), fam, x0=(-1.0,))
        assert res.converged
        assert res.theta_hat == pytest.approx([0.3], abs=1e-6)

    def test_negative_density_names_a_plain_abscissa(self):
        fam = GaussianFamily(bounds=((-1.0, 2.0), (1e-3, 2.0)))
        bad = lambda x: np.where(x > 0.5, -1.0, 1.0)
        with pytest.raises(ValueError, match=r"'g' is negative at x = 0\.5\d*$"):
            mhd(bad, fam, (0.5, 0.1), support=(0.0, 1.0))

    def test_requires_bounds(self):
        fam = GaussianFamily()
        with pytest.raises(ValueError, match="bounds"):
            mhd(fam.density((0.0, 1.0)), fam, x0=(0.0, 1.0))

    def test_functional_continuity_under_shrinking_perturbations(self):
        # |T(g) - T(g')| shrinks as h(g, g') does
        rng = np.random.default_rng(8)
        fam = GaussianFamily(bounds=((-1.0, 2.0), (1e-4, 2.0)))
        base = project_to_histogram(TruncatedUnitGaussian(0.5, 0.1), 100)
        ref = mhd(base, fam, x0=(0.5, 0.1), support=(0.0, 1.0)).theta_hat
        bump = rng.uniform(-1.0, 1.0, 100)
        gaps = []
        for c in (0.4, 0.2, 0.05):
            w = base.weights * (1.0 + c * bump)
            from mhdbayes.densities import HistogramDensity
            g = HistogramDensity(w / w.sum())
            theta = mhd(g, fam, x0=tuple(ref), support=(0.0, 1.0)).theta_hat
            gaps.append(np.linalg.norm(theta - ref))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_expansion_linearization(self):
        # T((1 + t q) g0) - T(g0) = t <T~, q>_{g0} + o(t)
        fam = GaussianFamily(bounds=((-1.0, 2.0), (1e-4, 2.0)))
        g0 = fam.density((0.5, 0.1))
        theta0 = mhd(g0, fam, x0=(0.5, 0.1), support=(0.0, 1.0)).theta_hat
        inf = influence_function(g0, fam, theta0, support=(0.0, 1.0))

        q_raw = lambda x: np.sin(2 * np.pi * x)
        x, w = composite_nodes(np.linspace(0.0, 1.0, 129))
        g0x = g0.pdf(x)
        q_mean = float(np.dot(w, q_raw(x) * g0x))
        q = lambda x_: q_raw(x_) - q_mean
        deriv = np.einsum("n,np->p", w * g0x * q(x), inf.value(x))

        ratios = []
        for t in (1e-2, 1e-3):
            gt = lambda x_, t_=t: (1.0 + t_ * q(x_)) * g0.pdf(x_)
            theta_t = mhd(gt, fam, x0=tuple(theta0), support=(0.0, 1.0)).theta_hat
            resid = np.linalg.norm(theta_t - theta0 - t * deriv)
            ratios.append(resid / t)
        assert ratios[1] < 0.5 * ratios[0]


class TestNoOverlapPlateau:
    def test_fit_without_overlap_is_not_converged(self):
        # f_theta underflows on [0.9, 1], g's only bin with mass: Nelder-Mead
        # stops on the flat plateau and the first-order condition is exactly 0
        res = mhd(HistogramDensity(np.eye(10)[9]),
                  GaussianFamily(bounds=((-1, 2), (1e-3, 2))), (0.05, 0.005),
                  support=(0, 1))
        assert res.h_min == pytest.approx(math.sqrt(2.0))
        assert res.first_order_norm == 0.0
        assert not res.converged


class TestMhdRows:
    def test_singular_row_does_not_stop_the_others(self):
        # f_theta at the start underflows to zero on [0.9, 1], the only bin
        # with mass under the first histogram, so that row's Jacobian is 0
        fam = GaussianFamily(bounds=((-1.0, 2.0), (1e-3, 2.0)))
        far = HistogramDensity(np.eye(10)[9])
        near = HistogramDensity(np.full(10, 0.1))
        start = (0.05, 0.005)
        theta, converged = mhd_rows(np.stack([far.weights, near.weights]), near.edges,
                                    fam, start)
        expected = mhd(near, fam, start, support=(0.0, 1.0))
        assert expected.converged and converged[1]
        assert np.allclose(theta[1], expected.theta_hat, atol=1e-9)
        assert np.array_equal(theta[0], start)
        # its gradient is exactly zero too, yet the row is a plateau, not a fit
        assert not converged[0]

    @pytest.mark.parametrize("family", [GaussianFamily, QuadratureGaussianFamily],
                             ids=["closed-form", "quadrature"])
    def test_blocks_give_the_rows_solved_alone(self, family, monkeypatch):
        fam = family(bounds=((-1.0, 2.0), (1e-3, 2.0)))
        base = project_to_histogram(TruncatedUnitGaussian(0.45, 0.12), 20)
        rng = np.random.default_rng(4)
        weights = base.weights * rng.uniform(0.5, 1.5, (7, 20))
        weights /= weights.sum(axis=1, keepdims=True)
        start = (0.5, 0.1)
        alone = [mhd_rows(w[None], base.edges, fam, start) for w in weights]
        # 3 rows x 20 cells per block: the 7 rows span three blocks
        monkeypatch.setattr(functional, "ROW_BLOCK_ELEMENTS", 60)
        theta, converged = mhd_rows(weights, base.edges, fam, start)
        assert np.all(converged)
        assert np.array_equal(theta, np.concatenate([t for t, _ in alone]))
        oracle = mhd(HistogramDensity(weights[3]), fam, start, support=(0.0, 1.0))
        assert np.allclose(theta[3], oracle.theta_hat, atol=1e-9)


class TestInfluenceFunction:
    def test_location_family_influence_is_identity_score(self):
        fam = GaussianLocationFamily()
        g0 = fam.density((0.0,))
        inf = influence_function(g0, fam, (0.0,))
        xs = np.array([-2.0, -0.3, 0.0, 0.9, 2.5])
        assert np.allclose(inf.value(xs)[:, 0], xs, atol=1e-6)

    def test_centering(self):
        fam = GaussianFamily()
        for theta in ((0.0, 1.0), (1.2, 0.7)):
            g0 = fam.density(theta)
            inf = influence_function(g0, fam, theta)
            lo, hi = g0.support
            x, w = composite_nodes(np.linspace(lo, hi, 129))
            centered = np.einsum("n,np->p", w * g0.pdf(x), inf.value(x))
            assert np.all(np.abs(centered) < 1e-6)

    def test_model_variance_is_fisher_inverse(self):
        av = asymptotic_variance(GaussianFamily(), (0.0, 1.0))
        assert np.allclose(av.V, np.diag([1.0, 0.5]), atol=1e-6)
        assert np.allclose(av.fisher_inverse, av.V, atol=1e-6)

    def test_singular_curvature_reports_smallest_value(self):
        fam = GaussianLocationFamily()

        class Degenerate(GaussianLocationFamily):
            def sqrt_hess(self, theta, x):
                return np.zeros((len(np.asarray(x)), 1, 1))

        with pytest.raises(RuntimeError, match="singular"):
            influence_function(fam.density((0.0,)), Degenerate(), (0.0,))


class TestLNormSq:
    def test_constant_is_zero(self):
        fam = GaussianFamily()
        g0 = fam.density((0.0, 1.0))
        assert abs(l_norm_sq(lambda x: np.full_like(x, 3.7), g0)) < 1e-12

    def test_identity_under_standard_normal(self):
        g0 = GaussianFamily().density((0.0, 1.0))
        assert l_norm_sq(lambda x: x, g0) == pytest.approx(1.0, abs=1e-6)

    def test_influence_norm_equals_inverse_information_location(self):
        fam = GaussianLocationFamily()
        g0 = fam.density((0.0,))
        inf = influence_function(g0, fam, (0.0,))
        v = l_norm_sq(lambda x: inf.value(x)[:, 0], g0)
        assert v == pytest.approx(1.0, abs=1e-6)

    def test_nonfinite_q_is_error(self):
        g0 = GaussianFamily().density((0.0, 1.0))
        with pytest.raises(ValueError, match="non-finite"):
            l_norm_sq(lambda x: np.where(x > 0, np.inf, x), g0)


class TestFisherInformation:
    def score_outer_oracle(self, theta):
        # independent oracle: integral of score scoreT f via the classic
        # log-density gradient
        mu, sg = theta
        lo, hi = mu - 10 * sg, mu + 10 * sg
        x, w = composite_nodes(np.linspace(lo, hi, 129))
        f = GaussianFamily().pdf(theta, x)
        score = np.stack([(x - mu) / sg ** 2,
                          ((x - mu) ** 2 - sg ** 2) / sg ** 3], axis=-1)
        return np.einsum("n,np,nq->pq", w * f, score, score)

    def test_gaussian_information(self):
        eye = fisher_information(GaussianFamily(), (0.0, 1.0))
        assert np.allclose(eye, np.diag([1.0, 2.0]), atol=1e-6)
        assert np.allclose(eye, self.score_outer_oracle((0.0, 1.0)), atol=1e-6)

    def test_scale_doubling_quarters_information(self):
        fam = GaussianFamily()
        i1 = fisher_information(fam, (0.3, 1.4))
        i2 = fisher_information(fam, (0.3, 2.8))
        assert np.allclose(i2, i1 / 4.0, atol=1e-8)

    def test_symmetric_psd_for_random_thetas(self):
        rng = np.random.default_rng(31)
        fam = GaussianFamily()
        for _ in range(6):
            theta = (rng.uniform(-4, 4), rng.uniform(0.1, 5.0))
            eye = fisher_information(fam, theta)
            assert np.allclose(eye, eye.T, atol=1e-12)
            assert np.all(np.linalg.eigvalsh(eye) > -1e-12)

    def test_efficiency_identity_random_thetas(self):
        rng = np.random.default_rng(77)
        fam = GaussianFamily()
        for _ in range(3):
            theta = (rng.uniform(-2, 2), rng.uniform(0.5, 3.0))
            av = asymptotic_variance(fam, theta)
            prod = av.V @ fisher_information(fam, theta)
            assert np.allclose(prod, np.eye(2), atol=1e-3)
