"""Numerical helpers that only the tests use: plain quadrature, central
differences, the posterior-concentration radius, the root-n bin-count
schedule and a Gaussian family on the quadrature cell masses."""

import math

import numpy as np

from mhdbayes.densities import GaussianFamily, ParametricFamily
from mhdbayes.numerics import composite_nodes
from mhdbayes.posterior import DEFAULT_ALPHA, HistogramPrior


def _eval_checked(f, x):
    vals = np.asarray(f(x), dtype=float)
    if vals.shape != x.shape:
        raise ValueError(f"integrand returned shape {vals.shape}, expected {x.shape}")
    bad = ~np.isfinite(vals)
    if np.any(bad):
        where = x[bad][0]
        raise ValueError(f"integrand is non-finite at x = {where!r}")
    return vals


def integrate(f, a, b, panels=1):
    """Composite 8-point Gauss-Legendre integral of ``f`` over [a, b].

    ``f`` must accept a numpy array of abscissae.  Error decays like
    O(panel_width**16) for smooth integrands.
    """
    if not (a < b):
        raise ValueError(f"need a < b, got [{a}, {b}]")
    if panels < 1:
        raise ValueError("panels must be a positive integer")
    x, w = composite_nodes(np.linspace(a, b, int(panels) + 1))
    return float(np.dot(w, _eval_checked(f, x)))


def integrate_over_cells(f, edges):
    """Integral of ``f`` with one quadrature panel per cell of ``edges``."""
    x, w = composite_nodes(edges)
    return float(np.dot(w, _eval_checked(f, x)))


def finite_diff_grad(f, x, h=1e-6):
    """Central-difference gradient of a scalar function, error O(h**2)."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(len(x)):
        step = np.zeros_like(x)
        step[i] = h
        fp, fm = f(x + step), f(x - step)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite evaluation near x = {x!r} (coordinate {i})")
        grad[i] = (fp - fm) / (2.0 * h)
    return grad


def concentration_radius(k, n):
    """Posterior-concentration scale sqrt(k * log(n) / n)."""
    if n < 2:
        raise ValueError("concentration radius requires n >= 2")
    if k < 1:
        raise ValueError("bin count k must be positive")
    return math.sqrt(k * math.log(n) / n)


def root_n_bin_count(n):
    """The ceil(sqrt(n) / (log n)^2) deterministic-k schedule."""
    if n < 2:
        return 1
    return max(1, math.ceil(math.sqrt(n) / math.log(n) ** 2))


def fixed_root_n(n, alpha=DEFAULT_ALPHA):
    """Dirac prior at the ceil(sqrt(n)/(log n)^2) schedule."""
    return HistogramPrior.fixed(root_n_bin_count(n), alpha=alpha)


class QuadratureGaussianFamily(GaussianFamily):
    """Gaussian family left on the quadrature default of the cell-mass hook."""

    cell_sqrt_masses = ParametricFamily.cell_sqrt_masses
