import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import mhdbayes
from _helpers import finite_diff_grad, integrate, integrate_over_cells
from mhdbayes.numerics import composite_nodes, minimize


class TestQuadratureRule:
    """The one rule, 8-point Gauss-Legendre, as ``composite_nodes`` lays it
    on a single unit panel."""

    def test_weights_sum_to_one(self):
        x, w = composite_nodes(np.array([0.0, 1.0]))
        assert len(x) == 8
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.all(w > 0)
        assert np.all(np.diff(x) > 0)
        assert x[0] >= 0 and x[-1] <= 1

    def test_polynomial_exactness_to_degree_2n_minus_1(self):
        # single panel, random degree-15 polynomials, exact antiderivative
        # as oracle
        rng = np.random.default_rng(3)
        for _ in range(3):
            coeffs = rng.normal(size=16)
            exact = sum(c / (p + 1) for p, c in enumerate(coeffs))
            val = integrate(lambda x: sum(c * x**p for p, c in enumerate(coeffs)),
                            0.0, 1.0)
            assert abs(val - exact) < 1e-12


class TestIntegrate:
    def test_constant(self):
        assert integrate(lambda x: np.ones_like(x), 0.0, 1.0) == pytest.approx(1.0)

    def test_x_squared(self):
        assert abs(integrate(lambda x: x**2, 0.0, 1.0) - 1.0 / 3.0) < 1e-12

    def test_normal_pdf_normalization(self):
        # oracle: erf-based mass of N(0,1) on [-8, 8]
        pdf = lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        expected = math.erf(8.0 / math.sqrt(2.0))
        val = integrate(pdf, -8.0, 8.0, panels=64)
        assert abs(val - expected) < 1e-12
        assert abs(val - 1.0) < 1e-10

    def test_nonfinite_integrand_names_abscissa(self):
        def f(x):
            return np.where(x > 0.5, np.inf, 1.0)

        with pytest.raises(ValueError, match="non-finite"):
            integrate(f, 0.0, 1.0, panels=4)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, 1.0, 0.0)

    def test_cells_match_uniform_panels(self):
        f = lambda x: np.sin(x)
        a = integrate(f, 0.0, 2.0, panels=8)
        b = integrate_over_cells(f, np.linspace(0.0, 2.0, 9))
        assert a == pytest.approx(b, abs=1e-15)

    def test_composite_nodes_weights_cover_interval(self):
        x, w = composite_nodes(np.array([0.0, 0.3, 1.0]))
        assert w.sum() == pytest.approx(1.0)
        assert np.all((x > 0) & (x < 1))


class TestMinimize:
    bounds1 = [(-10.0, 10.0)]
    bounds2 = [(-10.0, 10.0), (-10.0, 10.0)]

    def test_quadratic_bowl(self):
        x, f = minimize(lambda t: (t[0] - 2.0) ** 2, [0.0], self.bounds1)
        assert abs(x[0] - 2.0) < 1e-6
        assert f < 1e-11

    def test_2d_quadratic(self):
        x, f = minimize(lambda t: float(t @ t), [3.0, -4.0], self.bounds2)
        assert np.all(np.abs(x) < 1e-6)
        assert f < 1e-11

    def test_deterministic(self):
        obj = lambda t: (t[0] - 1.0) ** 2 + (t[1] + 2.0) ** 2 + 0.1 * np.sin(5 * t[0])
        r1 = minimize(obj, [4.0, 4.0], self.bounds2)
        r2 = minimize(obj, [4.0, 4.0], self.bounds2)
        assert np.array_equal(r1[0], r2[0])
        assert r1[1] == r2[1]

    def test_draws_no_random_numbers(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("minimize drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", forbidden)
        x, f = minimize(lambda t: float(t @ t), [3.0, -4.0], self.bounds2)
        assert np.all(np.abs(x) < 1e-6)

    def test_clamps_to_bounds(self):
        x, f = minimize(lambda t: (t[0] - 5.0) ** 2, [0.0], [(-1.0, 1.0)])
        assert x[0] <= 1.0 + 1e-12

    def test_all_nonfinite_start_is_error(self):
        with pytest.raises(ValueError, match="non-finite"):
            minimize(lambda t: np.inf, [0.0], self.bounds1)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            minimize(lambda t: t[0] ** 2, [0.0], [(1.0, -1.0)])


def run_fresh(code):
    """Run ``code`` in a fresh interpreter that finds this package; return the
    JSON object on its last line of output."""
    src = str(Path(mhdbayes.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                         check=True, capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout.splitlines()[-1])


class TestImports:
    def test_fit_path_loads_neither_optimize_nor_stats(self):
        # a fresh process that imports the package and its CLI must not
        # load scipy.optimize or scipy.stats (about 1 s of start-up
        # between them), nor the process pool of the robustness sweep's
        # workers; ``minimize``, the tests' Nelder-Mead reference, imports
        # scipy.optimize on its first call and must then still find the argmin
        result = run_fresh("""
            import json, sys
            import mhdbayes, mhdbayes.cli
            heavy = ("scipy.optimize", "scipy.stats", "concurrent.futures", "multiprocessing")
            before = [m for m in heavy if m in sys.modules]
            x, f = mhdbayes.minimize(lambda t: (t[0] - 2.0) ** 2 + (t[1] + 1.0) ** 2,
                                     [0.0, 0.0], [(-10.0, 10.0), (-10.0, 10.0)])
            print(json.dumps({"before": before, "x": x.tolist(), "f": f,
                              "optimize": "scipy.optimize" in sys.modules}))
        """)
        assert result["before"] == []
        assert result["optimize"]
        assert np.allclose(result["x"], [2.0, -1.0], atol=1e-6)
        assert result["f"] < 1e-11

    def test_fixed_k_fits_load_no_scipy(self):
        # the import, the CLI and every fixed-k fit run on numpy alone; the
        # first random-k posterior imports scipy.special for gammaln and
        # gives the same log posterior over k, bit for bit, as this process
        result = run_fresh("""
            import json, sys
            import numpy as np
            import mhdbayes as m, mhdbayes.cli

            def scipy_modules():
                return sorted(n for n in sys.modules if n.split(".")[0] == "scipy")

            loaded = {"import": scipy_modules()}
            newcomb = m.load_dataset("bundled:newcomb").values
            m.mhb_fit(newcomb)
            m.mhb_bootstrap_se(newcomb, n_boot=50, rng=1)
            m.bmh_fit(newcomb, n_samples=200, rng=1)
            m.bvm_diagnostic(newcomb, n_samples=200, rng=1)
            loaded["fits"] = scipy_modules()
            post = m.fit_posterior(np.linspace(0.0, 1.0, 400) ** 2, m.HistogramPrior.poisson())
            print(json.dumps({"loaded": loaded, "special": "scipy.special" in sys.modules,
                              "log_post_k": [v.hex() for v in post.log_post_k.tolist()]}))
        """)
        assert result["loaded"] == {"import": [], "fits": []}
        assert result["special"]
        here = mhdbayes.fit_posterior(np.linspace(0.0, 1.0, 400) ** 2,
                                      mhdbayes.HistogramPrior.poisson()).log_post_k
        assert result["log_post_k"] == [v.hex() for v in here.tolist()]


class TestFiniteDiffGrad:
    def test_x_squared(self):
        g = finite_diff_grad(lambda t: t[0] ** 2, [3.0], h=1e-5)
        assert abs(g[0] - 6.0) < 1e-8

    def test_bilinear(self):
        g = finite_diff_grad(lambda t: t[0] * t[1], [2.0, 5.0], h=1e-6)
        assert np.allclose(g, [5.0, 2.0], atol=1e-8)

    def test_log_normal_density_score(self):
        # d/dx log N(x | 0, 1) = -x, so the gradient at x=1 is -1
        f = lambda t: -0.5 * t[0] ** 2 - 0.5 * math.log(2 * math.pi)
        g = finite_diff_grad(f, [1.0], h=1e-5)
        assert abs(g[0] + 1.0) < 1e-8

    def test_second_order_convergence(self):
        # halving h cuts the error about fourfold
        f = lambda t: math.sin(t[0])
        exact = math.cos(0.7)
        e1 = abs(finite_diff_grad(f, [0.7], h=1e-3)[0] - exact)
        e2 = abs(finite_diff_grad(f, [0.7], h=5e-4)[0] - exact)
        assert e1 / e2 == pytest.approx(4.0, rel=0.15)

    def test_nonfinite_is_error(self):
        with pytest.raises(ValueError, match="non-finite"):
            finite_diff_grad(lambda t: math.inf, [0.0])
