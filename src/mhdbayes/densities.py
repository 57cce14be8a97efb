"""Density representations and the Hellinger distance between them.

A "density" here is any object with a vectorized ``pdf(x)`` method; the
concrete classes also carry a ``support`` interval and ``breakpoints()``,
the sorted locations where the density has kinks.  Quadrature panels are
aligned to breakpoints, which restores full Gauss-Legendre accuracy for
piecewise-smooth integrands such as sqrt(f * g) with histogram g.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtr

from .numerics import GL_ORDER, composite_nodes

# Fraction of the data range added on each side when mapping data to [0, 1].
# Calibrated on the bundled light-speed data; see the package README.
DEFAULT_PADDING = 0.09

_SQRT2PI = np.sqrt(2.0 * np.pi)
_SQRT2 = np.sqrt(2.0)

# Uniform panels every quadrature grid starts from, and the width (relative
# to the integration window) below which ``integration_edges`` drops a panel
# as float noise.
_MIN_PANELS = 32
_MIN_PANEL_WIDTH = 1e-14


@dataclass(frozen=True)
class SupportTransform:
    """Affine map x -> (x - a) / (b - a) from the data scale to [0, 1]."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a < self.b and np.isfinite(self.b - self.a)):
            raise ValueError(f"need finite a < b, got a={self.a}, b={self.b}")

    @classmethod
    def from_data(cls, data, padding=DEFAULT_PADDING):
        data = np.asarray(data, dtype=float)
        lo, hi = float(data.min()), float(data.max())
        if hi <= lo:
            raise ValueError("data range is degenerate (all values equal)")
        pad = padding * (hi - lo)
        a, b = lo - pad, hi + pad
        if not np.all(np.isfinite([a, b, b - a])):
            raise ValueError(f"data range [{lo!r}, {hi!r}] padded by {padding!r} of its "
                             "width on each side overflows float64")
        return cls(a, b)

    @property
    def width(self):
        return self.b - self.a

    def to_unit(self, x):
        return (np.asarray(x, dtype=float) - self.a) / self.width

    def from_unit(self, y):
        return self.a + self.width * np.asarray(y, dtype=float)


@lru_cache(maxsize=256)
def grid_edges(k):
    """The regular k-bin grid ``arange(k + 1) / k``, read-only so that all
    histograms with k bins share one array."""
    edges = np.arange(k + 1) / k
    edges.flags.writeable = False
    return edges


def bin_index(edges, x):
    """Index of the cell of ``edges`` holding each x: cell j covers
    [edges[j], edges[j+1]), with edges[-1] closed into the last cell and
    points outside the edges clipped to the end cells.

    This is the one binning rule of the package: histogram densities,
    bin counts and histogram projections all use it, so a datum is
    always counted in the bin where the density places it.
    """
    idx = np.searchsorted(edges, np.asarray(x, dtype=float), side="right") - 1
    return np.clip(idx, 0, len(edges) - 2)


def _checked_edges(edges, k):
    edges = np.asarray(edges, dtype=float)
    if edges.shape != (k + 1,):
        raise ValueError(f"need {k + 1} edges for {k} weights, got shape {edges.shape}")
    if edges[0] != 0.0 or edges[-1] != 1.0:
        raise ValueError(f"edges must run from 0 to 1, got [{edges[0]}, {edges[-1]}]")
    widths = np.diff(edges)
    if np.any(widths <= 0):
        raise ValueError("edges must be strictly increasing")
    if np.any(widths <= _MIN_PANEL_WIDTH):
        j = int(np.argmin(widths))
        # quadrature drops such a panel, and with it the cell's mass
        raise ValueError(f"cell {j} has width {float(widths[j])!r}, not above the "
                         f"{_MIN_PANEL_WIDTH} quadrature resolution")
    return edges


class HistogramDensity:
    """A histogram density on [0, 1] with explicit bin edges.

    ``edges`` are strictly increasing from 0 to 1 with ``len(weights) + 1``
    entries, every cell wider than 1e-14; by default they are the regular
    grid :func:`grid_edges`.
    Bin j covers [edges[j], edges[j+1]) (see :func:`bin_index`) and has
    density weights[j] / (edges[j+1] - edges[j]), exactly k * weights[j]
    on the default grid.  Weights must be non-negative and sum to 1 within
    1e-8; they are renormalized exactly on construction.  ``k`` is the bin
    count.
    """

    support = (0.0, 1.0)

    def __init__(self, weights, edges=None):
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1 or len(weights) == 0:
            raise ValueError("weights must be a non-empty 1-d vector")
        if np.any(weights < -1e-12):
            raise ValueError("weights must be non-negative")
        total = weights.sum()
        if abs(total - 1.0) > 1e-8:
            raise ValueError(f"weights must sum to 1, got {float(total)!r}")
        self.k = len(weights)
        self.weights = np.clip(weights, 0.0, None) / np.clip(weights, 0.0, None).sum()
        if edges is None:
            self.edges = grid_edges(self.k)
            # the float differences of this grid miss the exact 1/k widths
            # by a few ulp, so the density is taken from k directly
            self._heights = self.k * self.weights
        else:
            self.edges = _checked_edges(edges, self.k)
            self._heights = self.weights / np.diff(self.edges)

    def bin_index(self, x):
        return bin_index(self.edges, x)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        vals = self._heights[self.bin_index(x)]
        return np.where((x >= 0.0) & (x <= 1.0), vals, 0.0)

    def breakpoints(self):
        return self.edges


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


class TransformedDensity:
    """Density on [a, b] obtained from a unit-interval density by change of
    variables through a :class:`SupportTransform` (Jacobian 1/(b-a))."""

    def __init__(self, base, transform):
        self.base = base
        self.transform = transform
        self.support = (transform.a, transform.b)

    def pdf(self, x):
        return self.base.pdf(self.transform.to_unit(x)) / self.transform.width

    def breakpoints(self):
        pts = breakpoints_of(self.base)
        if not len(pts):
            return pts
        return self.transform.from_unit(pts)


class ParametricDensity:
    """View of a parametric family at a fixed parameter value."""

    def __init__(self, family, theta):
        self.family = family
        self.theta = np.asarray(theta, dtype=float)
        self.support = family.plausible_support(theta)

    def pdf(self, x):
        return self.family.pdf(self.theta, x)

    def breakpoints(self):
        return np.array([])


def breakpoints_of(density):
    fn = getattr(density, "breakpoints", None)
    return np.asarray(fn(), dtype=float) if fn is not None else np.array([])


def _pdf_of(density):
    return density.pdf if hasattr(density, "pdf") else density


class ParametricFamily:
    """A parametric density family with sqrt-density derivatives.

    Subclasses supply ``pdf``, ``sqrt_grad`` (d/dtheta of sqrt(pdf), shape
    (n, p)) and ``sqrt_hess`` (second derivative, shape (n, p, p)), plus the
    sampling/initialization hooks used by the estimators and studies.
    The components of ``theta`` may also be (D, 1) columns, one row per
    parameter value (the Newton solver of ``mhd`` and ``mhd_rows`` relies
    on this); ``pdf``/``sqrt_pdf``, ``sqrt_grad`` and ``sqrt_hess`` then
    gain a leading row axis and return shapes (D, n), (D, n, p) and
    (D, n, p, p).  ``bounds`` is the compact
    parameter box searched by the optimizer; a family without one cannot
    be fit directly (the estimators derive unit-scale bounds via
    :meth:`unit_fit_family`).

    :meth:`cell_sqrt_masses` gives the integrals of sqrt(f_theta) over the
    cells of a histogram's edges, with which the Bhattacharyya coefficient
    of f_theta and a histogram is the exact dot product
    sum_j sqrt(height_j) * m_j(theta).  Its default integrates ``sqrt_pdf``,
    ``sqrt_grad`` and ``sqrt_hess`` by Gauss-Legendre quadrature on the
    uniform ``integration_edges`` panels merged with the edges; a family
    with a closed form overrides it.
    """

    dim = None
    bounds = None

    def pdf(self, theta, x):
        raise NotImplementedError

    def sqrt_pdf(self, theta, x):
        return np.sqrt(self.pdf(theta, x))

    def sqrt_grad(self, theta, x):
        raise NotImplementedError

    def sqrt_hess(self, theta, x):
        raise NotImplementedError

    def cell_sqrt_masses(self, theta, edges, derivatives=False):
        """Integrals m_j of sqrt(f_theta) over the cells [edges[j], edges[j+1]].

        Returns the masses, shape (k,) for k cells, or with ``derivatives``
        the tuple (masses, d/dtheta, d2/dtheta2) of shapes (k,), (k, p) and
        (k, p, p); (D, 1)-column thetas add a leading row axis.  This
        default applies the 8-point Gauss-Legendre rule on the uniform
        32-panel grid of ``integration_edges`` merged with ``edges`` and
        sums the nodes of each cell, the quadrature ``mhd`` uses.
        """
        edges = np.asarray(edges, dtype=float)
        panels = np.union1d(integration_edges((edges[0], edges[-1])), edges)
        x, w = composite_nodes(panels)
        # nodes-by-cells matrix of weights: the node sums of every cell
        cell = bin_index(edges, np.repeat(panels[:-1], GL_ORDER))
        by_cell = np.zeros((len(x), len(edges) - 1))
        by_cell[np.arange(len(x)), cell] = w
        masses = self.sqrt_pdf(theta, x) @ by_cell
        if not derivatives:
            return masses
        return (masses,
                np.einsum("...np,nk->...kp", self.sqrt_grad(theta, x), by_cell),
                np.einsum("...npq,nk->...kpq", self.sqrt_hess(theta, x), by_cell))

    def density(self, theta):
        return ParametricDensity(self, theta)

    def plausible_support(self, theta):
        """Interval holding all but a negligible sliver of f_theta's mass."""
        raise NotImplementedError

    def sample(self, theta, n, rng):
        raise NotImplementedError

    def mle(self, data):
        raise NotImplementedError

    def initial_theta(self, data):
        """Moment-style starting point for minimum-distance fits."""
        raise NotImplementedError

    # Families fit on the unit scale need a parameter map to and from the
    # data scale; location-scale families get it for free, others must
    # override these hooks.
    def theta_to_unit(self, theta, transform):
        raise NotImplementedError(
            f"{type(self).__name__} does not declare a unit-scale parameter map")

    def theta_from_unit(self, theta, transform):
        raise NotImplementedError(
            f"{type(self).__name__} does not declare a unit-scale parameter map")

    def unit_fit_family(self, transform):
        """Family instance whose parameter box is suited to unit-scale fits."""
        raise NotImplementedError(
            f"{type(self).__name__} does not declare a unit-scale parameter map")


# Unit-scale search box used when the family leaves bounds open: location
# within one data-range of the hull, scale up to twice the range.
_UNIT_BOUNDS = ((-1.0, 2.0), (1e-5, 2.0))


class GaussianFamily(ParametricFamily):
    """Normal location-scale family, theta = (mu, sigma)."""

    dim = 2

    def __init__(self, bounds=None):
        if bounds is not None:
            (mu_lo, mu_hi), (sg_lo, sg_hi) = bounds
            if sg_lo <= 0:
                raise ValueError("sigma lower bound must be positive")
            if mu_lo >= mu_hi or sg_lo >= sg_hi:
                raise ValueError("bounds must be well ordered")
            bounds = ((float(mu_lo), float(mu_hi)), (float(sg_lo), float(sg_hi)))
        self.bounds = bounds

    def pdf(self, theta, x):
        mu, sg = theta
        z = (np.asarray(x, dtype=float) - mu) / sg
        return np.exp(-0.5 * z * z) / (sg * _SQRT2PI)

    def sqrt_pdf(self, theta, x):
        mu, sg = theta
        z = (np.asarray(x, dtype=float) - mu) / sg
        return np.exp(-0.25 * z * z) / np.sqrt(sg * _SQRT2PI)

    def sqrt_grad(self, theta, x):
        mu, sg = theta
        x = np.asarray(x, dtype=float)
        s = self.sqrt_pdf(theta, x)
        u = (x - mu) / sg
        return np.stack([s * u / (2.0 * sg), s * (u * u - 1.0) / (2.0 * sg)], axis=-1)

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

    def cell_sqrt_masses(self, theta, edges, derivatives=False):
        """Closed-form cell integrals of sqrt(f_theta), exact at any sigma.

        m_j = sqrt(2) (2 pi)^(1/4) sigma^(1/2) [Phi(z_{j+1}) - Phi(z_j)] with
        z = (edges - mu) / (sqrt(2) sigma); the derivatives are sums of
        Phi, phi and powers of z at the edges.  Cells above mu take the
        difference as Phi(-z_j) - Phi(-z_{j+1}), so far upper-tail cells do
        not cancel.  Shapes as in :meth:`ParametricFamily.cell_sqrt_masses`.
        """
        mu, sg = theta
        z = (np.asarray(edges, dtype=float) - mu) / (_SQRT2 * sg)
        tail = ndtr(-np.abs(z))  # the smaller of Phi(z) and Phi(-z)
        cdf = np.where(z < 0.0, tail, 1.0 - tail)
        d_cdf = np.where(z[..., :-1] > 0.0, tail[..., :-1] - tail[..., 1:],
                         np.diff(cdf, axis=-1))
        amp = _SQRT2 * np.sqrt(_SQRT2PI * sg)
        masses = amp * d_cdf
        if not derivatives:
            return masses
        phi = np.exp(-0.5 * z * z) / _SQRT2PI
        zphi = z * phi
        a1, a2 = amp / sg, amp / (sg * sg)
        grad = np.stack([-a1 / _SQRT2 * np.diff(phi, axis=-1),
                         a1 * (0.5 * d_cdf - np.diff(zphi, axis=-1))], axis=-1)
        h_ms = -a2 / _SQRT2 * np.diff(phi * (z * z - 0.5), axis=-1)
        hess = np.empty(masses.shape + (2, 2))
        hess[..., 0, 0] = -0.5 * a2 * np.diff(zphi, axis=-1)
        hess[..., 0, 1] = h_ms
        hess[..., 1, 0] = h_ms
        hess[..., 1, 1] = a2 * (np.diff(zphi * (1.0 - z * z), axis=-1) - 0.25 * d_cdf)
        return masses, grad, hess

    def plausible_support(self, theta):
        mu, sg = theta
        return (mu - 10.0 * sg, mu + 10.0 * sg)

    def sample(self, theta, n, rng):
        mu, sg = theta
        return rng.normal(mu, sg, int(n))

    def mle(self, data):
        data = np.asarray(data, dtype=float)
        return np.array([data.mean(), data.std()])

    def initial_theta(self, data):
        data = np.asarray(data, dtype=float)
        sd = data.std()
        return np.array([data.mean(), sd if sd > 0 else 1.0])

    def theta_to_unit(self, theta, transform):
        mu, sg = theta
        return np.array([(mu - transform.a) / transform.width, sg / transform.width])

    def theta_from_unit(self, theta, transform):
        mu, sg = theta
        return np.array([transform.a + transform.width * mu, transform.width * sg])

    def unit_fit_family(self, transform):
        if self.bounds is None:
            return GaussianFamily(bounds=_UNIT_BOUNDS)
        (mu_lo, mu_hi), (sg_lo, sg_hi) = self.bounds
        w, a = transform.width, transform.a
        return GaussianFamily(bounds=(((mu_lo - a) / w, (mu_hi - a) / w),
                                      (max(sg_lo / w, 1e-12), sg_hi / w)))


def integration_edges(support, densities=(), min_panels=_MIN_PANELS):
    """Panel edges over ``support``: a uniform grid refined with every
    breakpoint of the given densities."""
    a, b = float(support[0]), float(support[1])
    if not (a < b):
        raise ValueError(f"need a < b, got [{a}, {b}]")
    edges = [np.linspace(a, b, min_panels + 1)]
    for d in densities:
        pts = breakpoints_of(d)
        if len(pts):
            inside = pts[(pts > a) & (pts < b)]
            edges.append(inside)
    merged = np.unique(np.concatenate(edges))
    # drop panels narrower than float resolution
    keep = np.concatenate([[True], np.diff(merged) > _MIN_PANEL_WIDTH * (b - a)])
    return merged[keep]


def _checked_values(name, vals, x):
    """Density values ``vals`` at abscissae ``x``, clipped at 0.

    A non-finite or negative (below -1e-12) value is an error naming the
    first such abscissa.  ``vals`` may stack one row of values per density,
    all at the same ``x``.
    """
    vals = np.asarray(vals, dtype=float)
    xs = np.broadcast_to(x, vals.shape)
    for bad, what in ((~np.isfinite(vals), "non-finite"), (vals < -1e-12, "negative")):
        if np.any(bad):
            raise ValueError(f"density {name!r} is {what} at x = {float(xs[bad][0])!r}")
    return np.clip(vals, 0.0, None)


def hellinger(f, g, support=None):
    """Hellinger distance between two densities over ``support``.

    The value is sqrt(max(0, 2 - 2 * integral(sqrt(f * g)))) with both
    inputs treated as full unit-mass densities.  It is evaluated in the
    equivalent difference form integral((sqrt(f) - sqrt(g))**2) plus the
    unit-mass remainders of f and g outside the window, which is exact for
    nearly-identical densities where the Bhattacharyya form loses half the
    machine digits to cancellation.  ``support`` must cover the region
    where f and g overlap.  Result lies in [0, sqrt(2)].
    """
    if support is None:
        fs = getattr(f, "support", None)
        gs = getattr(g, "support", None)
        if fs is None and gs is None:
            raise ValueError("support must be given for bare-callable densities")
        lo = min(s[0] for s in (fs, gs) if s is not None)
        hi = max(s[1] for s in (fs, gs) if s is not None)
        support = (lo, hi)
    x, w = composite_nodes(integration_edges(support, (f, g)))
    fv = _checked_values("f", _pdf_of(f)(x), x)
    gv = _checked_values("g", _pdf_of(g)(x), x)
    sf, sg = np.sqrt(fv), np.sqrt(gv)
    h2 = float(np.dot(w, (sf - sg) ** 2))
    # mass outside the window, dropped when it is pure roundoff
    for vals in (fv, gv):
        outside = 1.0 - float(np.dot(w, vals))
        if outside > 1e-12:
            h2 += outside
    return float(np.sqrt(min(max(h2, 0.0), 2.0)))


def project_to_histogram(f, k):
    """L2 projection of a density on [0, 1] onto the k-bin histogram grid.

    Bin mass is the integral of ``f`` over the bin, evaluated with
    breakpoint-aligned panels so piecewise-constant inputs project exactly.
    """
    if k < 1:
        raise ValueError("bin count k must be a positive integer")
    k = int(k)
    grid = grid_edges(k)
    edges = integration_edges((0.0, 1.0), (f,), min_panels=1)
    edges = np.unique(np.concatenate([grid, edges]))
    x, w = composite_nodes(edges)
    vals = _checked_values("f", _pdf_of(f)(x), x)
    masses = np.zeros(k)
    np.add.at(masses, bin_index(grid, x), w * vals)
    return HistogramDensity(masses)


def transform_density(g, transform):
    """Push a unit-interval density through an affine support transform."""
    return TransformedDensity(g, transform)
