"""Numerical helpers that only the tests use: plain quadrature, central
differences, the posterior-concentration radius, the root-n bin-count
schedule, the quadrature oracles of the ``node_bc`` and ``histogram_bc``
family hooks, a Gaussian family with its sqrt-density Hessian, one on the
quadrature histogram coefficient, the one-dataset-at-a-time oracle of
``estimators._mhb_many``, a counter of closed-form histogram evaluations,
the Nelder-Mead oracle of ``mhd``, the parameter box of a bounded
family, uniform, mixture and
windowed-callable densities, the projection of a density onto a histogram grid and the
gross-error contamination model."""

import math
from dataclasses import dataclass

import numpy as np

from mhdbayes import functional
from mhdbayes.densities import (
    GaussianFamily,
    HistogramDensity,
    SupportTransform,
    _checked_values,
    _pdf_of,
    bin_index,
    breakpoints_of,
    grid_edges,
    histogram_nodes,
)
from mhdbayes.numerics import composite_nodes, minimize
from mhdbayes.posterior import DEFAULT_ALPHA, HistogramPrior, fit_posterior


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


def einsum_node_bc(family, theta, x, wg):
    """The node sums of ``ParametricFamily.node_bc`` as three einsums of
    ``wg`` against ``sqrt_pdf``, ``sqrt_grad`` and ``sqrt_hess``: the oracle
    of the one-pass ``GaussianFamily.node_bc``, and the ``node_bc`` of a test
    family with no power sums of its own."""
    return (np.einsum("...n,...n->...", wg, family.sqrt_pdf(theta, x)),
            np.einsum("...n,...np->...p", wg, family.sqrt_grad(theta, x)),
            np.einsum("...n,...npq->...pq", wg, family.sqrt_hess(theta, x)))


def quadrature_histogram_bc(family, theta, edges, sqrt_heights):
    """``ParametricFamily.histogram_bc`` by quadrature: the family's
    ``node_bc`` summed over the nodes of ``histogram_nodes`` on ``edges``,
    the nodes ``mhd`` takes for a histogram on them, each node weighted by
    the sqrt height of its cell.  The oracle of the closed-form
    ``GaussianFamily.histogram_bc``; a family with it fits a histogram by
    ``mhd`` and by a one-row ``mhd_rows`` bit for bit alike.  Edges with one
    row per (D, 1)-column theta, as ``mhd_rows`` passes padded grids, are
    integrated row by row, each on the nodes of its own edges."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim == 2 and len(edges) > 1:
        parts = [quadrature_histogram_bc(family, [c[r:r + 1] for c in theta], row,
                                         sqrt_heights[r:r + 1])
                 for r, row in enumerate(edges)]
        return tuple(np.concatenate(part) for part in zip(*parts))
    x, w, cell = histogram_nodes(edges.tobytes())
    return family.node_bc(theta, x, w * np.asarray(sqrt_heights, dtype=float)[..., cell])


class ReferenceGaussianFamily(GaussianFamily):
    """Gaussian family with its sqrt-density Hessian, the last input of the
    three-einsum ``einsum_node_bc`` that the one-pass
    ``GaussianFamily.node_bc`` is checked against."""

    def sqrt_hess(self, theta, x):
        mu, sg = theta
        x = np.asarray(x, dtype=float)
        s = self.sqrt_pdf(theta, x)
        u = (x - mu) / sg
        # d log s / dmu = u / (2 sg), d log s / dsg = (u^2 - 1) / (2 sg)
        lmu = u / (2.0 * sg)
        lsg = (u * u - 1.0) / (2.0 * sg)
        h_mm = s * (lmu * lmu - 1.0 / (2.0 * sg * sg))
        h_ms = s * (lmu * lsg - u / (sg * sg))
        h_ss = s * (lsg * lsg + (1.0 - 3.0 * u * u) / (2.0 * sg * sg))
        out = np.empty(s.shape + (2, 2))
        out[..., 0, 0] = h_mm
        out[..., 0, 1] = h_ms
        out[..., 1, 0] = h_ms
        out[..., 1, 1] = h_ss
        return out


class QuadratureGaussianFamily(GaussianFamily):
    """Gaussian family whose histogram coefficient is the quadrature
    ``quadrature_histogram_bc``."""

    histogram_bc = quadrature_histogram_bc


def box_of(family):
    """The data-scale ``bounds`` of a family that bounds every parameter as
    the (lower, upper) box that ``mhd`` and ``mhd_rows`` take, shape (2, p)."""
    if family.bounds is None or None in family.bounds:
        raise ValueError("family declares no parameter bounds")
    return np.asarray(family.bounds, dtype=float).T


def _oracle_setup(data, prior, family, padding):
    """The transform, posterior and unit-scale box of one dataset, by the
    checks and scalar range arithmetic of ``SupportTransform.from_data``."""
    if not np.all(np.isfinite(data)):
        raise ValueError("data contains non-finite values")
    if len(data) < family.dim + 1:
        raise ValueError(f"need at least {family.dim + 1} observations")
    if not 0.0 <= padding < np.inf:
        raise ValueError(f"padding must be a finite fraction >= 0, got {padding!r}")
    lo, hi = float(data.min()), float(data.max())
    if hi <= lo:
        raise ValueError("data range is degenerate (all values equal)")
    pad = padding * (hi - lo)
    a, b = lo - pad, hi + pad
    if not np.all(np.isfinite([a, b, b - a])):
        raise ValueError(f"data range [{lo!r}, {hi!r}] padded by {padding!r} of its "
                         "width on each side overflows float64")
    transform = SupportTransform(a, b)
    post = fit_posterior(transform.to_unit(data), prior)
    return transform, post, family.unit_box(transform)


def mhb_many_oracle(datasets, prior, family, padding, start=None):
    """``estimators._mhb_many`` one dataset at a time: each dataset gets its
    own checks, transform, posterior update and EAP, and the EAPs sharing an
    edge grid are fit as the rows of one ``mhd_rows`` call, in dataset
    order.  Returns per dataset its estimate or why its fit failed."""
    grids, transforms, fits = {}, [], []
    for data in datasets:
        try:
            transform, post, box = _oracle_setup(data, prior, family, padding)
        except ValueError as exc:
            fits.append(str(exc))
            continue
        g = post.eap()
        theta0 = family.initial_theta(data) if start is None else start
        grids.setdefault(g.edges.tobytes(), (g.edges, []))[1].append(
            (len(transforms), g.weights, family.theta_to_unit(theta0, transform), box))
        fits.append(len(transforms))
        transforms.append(transform)
    theta, ok = np.empty((len(transforms), family.dim)), np.empty(len(transforms), dtype=bool)
    for edges, members in grids.values():
        rows, weights, starts, boxes = (np.array(column) for column in zip(*members))
        theta[rows], ok[rows] = functional.mhd_rows(weights, edges, family, starts,
                                                    *boxes.swapaxes(0, 1))
    theta = [family.theta_from_unit(t, transform) for t, transform in zip(theta, transforms)]
    return [fit if isinstance(fit, str) else theta[fit] if ok[fit] else
            f"minimum-distance fit did not converge at theta={np.round(theta[fit], 4).tolist()}"
            " (parameter bounds may exclude the minimizer)" for fit in fits]


def count_histogram_bc_rows(monkeypatch):
    """Make ``GaussianFamily.histogram_bc`` record how many rows each call
    evaluates; returns the list it appends to."""
    rows, hook = [], GaussianFamily.histogram_bc

    def counting(self, theta, edges, sqrt_heights):
        rows.append(len(sqrt_heights))
        return hook(self, theta, edges, sqrt_heights)

    monkeypatch.setattr(GaussianFamily, "histogram_bc", counting)
    return rows


def nelder_mead_mhd(g, family, x0, lo, hi):
    """``mhd``'s fit of ``g`` in the box [``lo``, ``hi``] started where one
    bounded Nelder-Mead search from ``x0`` (``numerics.minimize``) stops, on
    the Hellinger values of ``mhd``'s own nodes, then finished by ``mhd``'s
    Newton on those nodes.  ``n_evals`` counts the search's evaluations and
    Newton's."""
    lo, hi = np.asarray(lo, dtype=float)[None], np.asarray(hi, dtype=float)[None]
    x, w, sqrt_g = functional._prepared_nodes(g)
    wg = (w * sqrt_g)[None]
    n_evals = 0

    def objective(theta):
        nonlocal n_evals
        n_evals += 1
        cols = functional._columns(np.asarray(theta, dtype=float)[None])
        return float(functional._hellinger(np.einsum("rk,rk->r", wg,
                                                     family.sqrt_pdf(cols, x)))[0])

    def evaluate(rows, theta):
        nonlocal n_evals
        n_evals += len(rows)
        return family.node_bc(functional._columns(theta), x, wg)

    start = minimize(objective, x0, list(zip(lo[0], hi[0])))[0][None]
    theta, h, foc, converged = (v[0] for v in functional._newton_rows(evaluate, start, lo, hi))
    return functional.MhdResult(theta_hat=theta, h_min=float(h), converged=bool(converged),
                                n_evals=n_evals, first_order_norm=float(foc))


class UniformDensity:
    """Uniform density on [lo, hi]."""

    def __init__(self, lo, hi):
        if not (lo < hi):
            raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
        self.lo, self.hi = float(lo), float(hi)
        self.support = (self.lo, self.hi)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.lo) & (x <= self.hi)
        return np.where(inside, 1.0 / (self.hi - self.lo), 0.0)

    def breakpoints(self):
        return np.array([self.lo, self.hi])


@dataclass(frozen=True)
class WindowedDensity:
    """A bare pdf callable with the window ``support`` it is integrated over."""

    pdf: object
    support: tuple


class MixtureDensity:
    """Convex combination of component densities."""

    def __init__(self, components):
        if not components:
            raise ValueError("mixture needs at least one component")
        weights = np.asarray([w for w, _ in components], dtype=float)
        if np.any(weights < 0):
            raise ValueError("mixture weights must be non-negative")
        if abs(weights.sum() - 1.0) > 1e-8:
            raise ValueError(f"mixture weights must sum to 1, got {float(weights.sum())!r}")
        self.weights = weights / weights.sum()
        self.components = [c for _, c in components]
        los = [c.support[0] for c in self.components]
        his = [c.support[1] for c in self.components]
        self.support = (min(los), max(his))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x, dtype=float)
        for w, comp in zip(self.weights, self.components):
            if w > 0:
                out += w * comp.pdf(x)
        return out

    def breakpoints(self):
        pts = [breakpoints_of(c) for c in self.components]
        pts = [p for p in pts if len(p)]
        if not pts:
            return np.array([])
        return np.unique(np.concatenate(pts))


def project_to_histogram(f, k):
    """L2 projection of a density on [0, 1] onto the k-bin histogram grid.

    Bin mass is the integral of ``f`` over the bin, evaluated with
    breakpoint-aligned panels so piecewise-constant inputs project exactly.
    """
    if k < 1:
        raise ValueError("bin count k must be a positive integer")
    k = int(k)
    grid = grid_edges(k)
    pts = breakpoints_of(f)
    x, w = composite_nodes(np.unique(np.concatenate([grid, pts[(pts > 0.0) & (pts < 1.0)]])))
    vals = _checked_values("f", _pdf_of(f)(x), x)
    masses = np.zeros(k)
    np.add.at(masses, bin_index(grid, x), w * vals)
    return HistogramDensity(masses)


@dataclass(frozen=True)
class ContaminationSpec:
    """Gross-error mixture: (1 - alpha) f_theta + alpha * Uniform(z +- epsilon)."""

    theta: tuple
    alpha: float
    z: float
    epsilon: float

    def __post_init__(self):
        if not (0.0 <= self.alpha < 1.0):
            raise ValueError("contamination fraction alpha must lie in [0, 1)")
        if self.epsilon <= 0:
            raise ValueError("blip half-width epsilon must be positive")


def contaminated_density(spec, family=None):
    """Mixture density of the gross-error model; integrates to 1."""
    family = family or GaussianFamily()
    blip = UniformDensity(spec.z - spec.epsilon, spec.z + spec.epsilon)
    return MixtureDensity([(1.0 - spec.alpha, family.density(spec.theta)),
                           (spec.alpha, blip)])


def sample_contaminated(spec, family, n, rng):
    """Draw n points with exactly ceil(alpha * n) gross errors.

    The clean part is drawn first, so alpha = 0 consumes the identical RNG
    stream as a clean run with the same seed.
    """
    m = math.ceil(spec.alpha * n)
    clean = family.sample(spec.theta, n - m, rng)
    if m == 0:
        return clean
    gross = rng.uniform(spec.z - spec.epsilon, spec.z + spec.epsilon, m)
    return np.concatenate([clean, gross])
