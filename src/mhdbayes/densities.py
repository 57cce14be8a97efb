"""Density representations and the Hellinger distance between them.

A "density" here is any object with a vectorized ``pdf(x)`` method; the
concrete classes also carry a ``support`` interval and ``breakpoints()``,
the sorted locations where the density has kinks.  Quadrature panels are
aligned to breakpoints, which restores full Gauss-Legendre accuracy for
piecewise-smooth integrands such as sqrt(f * g) with histogram g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import composite_nodes, overflow_safe

# Fraction of the data range added on each side when mapping data to [0, 1].
# Calibrated on the bundled light-speed data; see the package README.
DEFAULT_PADDING = 0.09

_SQRT2PI = np.sqrt(2.0 * np.pi)
_SQRT2 = np.sqrt(2.0)

# The normal tail Phi(-a) = erfcx(x) exp(-x^2) / 2, x = a / sqrt(2), takes
# q(x) = (x + 1/2) erfcx(x) / 2 as a degree-22 polynomial in
# t = (x - 3.75) / (x + 3.75), highest power first, fitted by
# tests/fit_normal_tail.py.  The 1/sqrt(2) is the correctly rounded one
# (1 / np.sqrt(2) is an ulp low, which moves exp(-x^2) by 4.6e-13 relative
# in the far tail), and past x^2 = log(DBL_MAX) the tail is exactly 0, as
# in scipy.special.ndtr.
_TAIL_COEFS = (
    -6.436132174103169e-10, -4.820580727710513e-10, 7.928545785813854e-09,
    4.665768075637068e-09, -6.198611444033136e-08, -1.264727079703918e-08,
    4.35284327375779e-07, -2.448857886092528e-07, -2.859332565513313e-06,
    5.596937667222335e-06, 1.2911531998279597e-05, -7.253885701220024e-05,
    7.342863209585771e-05, 0.0004389065461099155, -0.0024366449301151407,
    0.007090569342274643, -0.014673349642713551, 0.02307608029113984,
    -0.027200982535737855, 0.020569184622495316, 0.0008963538713747041,
    -0.03506014964638622, 0.30937815770945687,
)
_TAIL_SHIFT = 3.75
_SQRT1_2 = 0.7071067811865476
_MAXLOG = 709.782712893384

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
        (a,), (b,), (reason,) = padded_ranges(np.asarray(data, dtype=float).reshape(1, -1),
                                              padding)
        if reason is not None:
            raise ValueError(reason)
        return cls(float(a), float(b))

    @property
    def width(self):
        return self.b - self.a

    def to_unit(self, x):
        return (np.asarray(x, dtype=float) - self.a) / self.width

    def from_unit(self, y):
        return self.a + self.width * np.asarray(y, dtype=float)


def padded_ranges(data, padding=DEFAULT_PADDING):
    """The ends a and b of :meth:`SupportTransform.from_data` for every row
    of the float matrix ``data``: its range, padded by ``padding`` of its
    width on each side.  Returns a, b and per row why it has no transform
    (a str) or None."""
    if not 0.0 <= padding < np.inf:   # a NaN fails too
        nan = np.full(len(data), np.nan)
        return nan, nan, [f"padding must be a finite fraction >= 0, got {padding!r}"] * len(data)
    lo, hi = data.min(axis=1), data.max(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        pad = padding * (hi - lo)
        a, b = lo - pad, hi + pad
        finite = np.isfinite(a) & np.isfinite(b) & np.isfinite(b - a)
    reasons = [None] * len(data)
    for i in np.flatnonzero(~(hi > lo) | ~finite).tolist():
        # a NaN range is not degenerate: it takes the overflow message
        reasons[i] = ("data range is degenerate (all values equal)" if hi[i] <= lo[i] else
                      f"data range [{float(lo[i])!r}, {float(hi[i])!r}] padded by {padding!r} "
                      "of its width on each side overflows float64")
    return a, b, reasons


def _normal_tail(a):
    """Phi(-|a|), the smaller normal tail, elementwise over the float array
    ``a``: within 1.6e-15 relative of ``scipy.special.ndtr(-|a|)`` where that
    is a normal double, and exactly 0 where it is 0 (|a| above 37.677)."""
    return _normal_tail_exp(a)[0]


def _normal_tail_exp(a):
    """``_normal_tail(a)`` and the exp(-a^2 / 2) it is made from, formed as
    exp(-x^2) with x = |a| / sqrt(2), so a caller that also needs the normal
    density does not pay a second exponential.

    The polynomial runs by in-place Horner, so the cost is 57 numpy calls
    whatever the size of ``a``.
    """
    x = np.abs(a)
    x *= _SQRT1_2
    d = x + _TAIL_SHIFT
    t = x - _TAIL_SHIFT
    t /= d
    q = t * _TAIL_COEFS[0]
    q += _TAIL_COEFS[1]
    for c in _TAIL_COEFS[2:]:
        q *= t
        q += c
    np.add(x, 0.5, out=d)
    q /= d
    x *= x
    np.copyto(q, 0.0, where=x > _MAXLOG)
    np.negative(x, out=x)
    gauss = np.exp(x, out=x)
    q *= gauss
    return q, gauss


@lru_cache(maxsize=256)
def grid_edges(k):
    """The regular k-bin grid ``arange(k + 1) / k``, read-only so that all
    histograms with k bins share one array."""
    edges = np.arange(k + 1) / k
    edges.flags.writeable = False
    return edges


@lru_cache(maxsize=256)
def grid_widths(k):
    """The cell widths of :func:`grid_edges` (k), read-only and shared."""
    widths = np.diff(grid_edges(k))
    widths.flags.writeable = False
    return widths


def normalized_weights(weights):
    """Histogram cell weights clipped at 0 and divided by their sum, as
    :class:`HistogramDensity` stores them; a leading axis holds rows."""
    weights = np.clip(weights, 0.0, None)
    return weights / weights.sum(axis=-1, keepdims=True)


def bin_index(edges, x):
    """Index of the cell of ``edges`` holding each x: cell j covers
    [edges[j], edges[j+1]), with edges[-1] closed into the last cell and
    points outside the edges clipped to the end cells.

    This is the one binning rule of the package: histogram densities,
    bin counts and histogram projections all use it, so a datum is
    always counted in the bin where the density places it.  Bin counts
    apply it to sorted data: the points in [edges[j], edges[j+1]) are
    those below edges[j+1] less those below edges[j].
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
    if not np.all(widths > 0):   # a NaN edge fails too
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
    grid :func:`grid_edges`, whose shared array needs no check.
    Bin j covers [edges[j], edges[j+1]) (see :func:`bin_index`) and has
    density weights[j] / (edges[j+1] - edges[j]) on every grid, the default
    one included; ``heights`` holds these k densities.  Weights must
    be non-negative and sum to 1 within 1e-8; they are renormalized exactly
    on construction.  ``k`` is the bin count.
    """

    support = (0.0, 1.0)

    def __init__(self, weights, edges=None):
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1 or len(weights) == 0:
            raise ValueError("weights must be a non-empty 1-d vector")
        if np.any(weights < -1e-12):
            raise ValueError("weights must be non-negative")
        total = weights.sum()
        if not abs(total - 1.0) <= 1e-8:   # a NaN total fails too
            raise ValueError(f"weights must sum to 1, got {float(total)!r}")
        self.k = len(weights)
        self.weights = normalized_weights(weights)
        if edges is None or edges is grid_edges(self.k):
            self.edges, widths = grid_edges(self.k), grid_widths(self.k)
        else:
            self.edges = _checked_edges(edges, self.k)
            widths = np.diff(self.edges)
        self.heights = self.weights / widths

    def bin_index(self, x):
        return bin_index(self.edges, x)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        vals = self.heights[self.bin_index(x)]
        return np.where((x >= 0.0) & (x <= 1.0), vals, 0.0)

    def breakpoints(self):
        return self.edges


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
    if isinstance(density, np.ndarray):
        return density
    fn = getattr(density, "breakpoints", None)
    return np.asarray(fn(), dtype=float) if fn is not None else np.array([])


def _pdf_of(density):
    return density.pdf if hasattr(density, "pdf") else density


class ParametricFamily:
    """A parametric density family: the hooks the fits call, declared here,
    where they raise.

    ``mhd`` calls :meth:`node_bc` and ``mhd_rows`` calls
    :meth:`histogram_bc`, each at every Newton trial; the efficiency
    quadratures call ``sqrt_grad`` (d/dtheta of sqrt(pdf), shape (n, p)),
    and ``influence_function`` also :meth:`node_bc`.  The estimators and
    studies call the sampling, starting-point and unit-scale hooks.  The
    components of ``theta`` may also be (D, 1) columns, one row per
    parameter value, as the Newton solver passes them; the evaluators then
    gain a leading row axis.  ``bounds`` is the data-scale parameter box,
    one (lo, hi) pair or None (an open parameter) per component, or None
    when every component is open.  The fits read no family's bounds: they
    take the unit-scale box of :meth:`unit_box` as an argument.
    """

    dim = None
    bounds = None

    def pdf(self, theta, x):
        raise NotImplementedError(f"{type(self).__name__} does not declare pdf")

    def sqrt_pdf(self, theta, x):
        raise NotImplementedError(f"{type(self).__name__} does not declare sqrt_pdf")

    def sqrt_grad(self, theta, x):
        raise NotImplementedError(f"{type(self).__name__} does not declare sqrt_grad")

    # no fit calls it; it stays so that the benchmark's tracer, which wraps
    # GaussianFamily.sqrt_hess by name, finds it through this class
    def sqrt_hess(self, theta, x):
        raise NotImplementedError

    def node_bc(self, theta, x, wg):
        """Node sums of ``wg`` against sqrt(f_theta) and its theta-gradient
        and Hessian on the nodes ``x``.

        With ``wg`` the quadrature weights times the square root of a density
        g, these are the Bhattacharyya coefficient of f_theta and g and its
        theta-gradient and Hessian, shapes (), (p,) and (p, p).  A leading row
        axis of ``wg`` pairs each row with one row of (D, 1)-column thetas or
        shares one theta row; each row's sums are its one-row call's, bit for bit.
        """
        raise NotImplementedError(f"{type(self).__name__} does not declare node_bc")

    def histogram_bc(self, theta, edges, sqrt_heights):
        """Bhattacharyya coefficient of f_theta with a histogram on ``edges``.

        ``sqrt_heights`` holds the square roots of the k cell heights
        (weight over width).  Returns the coefficient
        sum_j sqrt_heights[j] * m_j(theta), m_j the integral of
        sqrt(f_theta) over cell j, and its theta-gradient and Hessian,
        shapes (), (p,) and (p, p); (D, 1)-column thetas with one row of
        ``sqrt_heights`` each, or one theta row shared by all, add a leading
        row axis; each row's results must be its one-row call's, bit for bit.
        """
        raise NotImplementedError(f"{type(self).__name__} does not declare histogram_bc")

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
    # data scale; every family must override these hooks, which raise
    # here.  ``theta_from_unit`` also maps parameter columns, shape
    # (p, rows), in one call.
    def theta_to_unit(self, theta, transform):
        raise NotImplementedError(
            f"{type(self).__name__} does not declare a unit-scale parameter map")

    def theta_from_unit(self, theta, transform):
        raise NotImplementedError(
            f"{type(self).__name__} does not declare a unit-scale parameter map")

    def unit_box(self, transform):
        """The parameter box of a unit-scale fit as (lower, upper) bounds,
        shape (2, p): ``bounds`` mapped through ``transform``."""
        raise NotImplementedError(f"{type(self).__name__} does not declare unit_box")


def _moments(data):
    """Mean and standard deviation of the float array ``data`` from exactly
    rounded sums, so they do not depend on data order."""
    mean = math.fsum(data.tolist()) / len(data)
    return mean, math.sqrt(math.fsum(((data - mean) ** 2).tolist()) / len(data))


# Unit-scale search box used when the family leaves bounds open: location
# within one data-range of the hull, scale up to twice the range.
_UNIT_BOUNDS = ((-1.0, 2.0), (1e-5, 2.0))


class GaussianFamily(ParametricFamily):
    """Normal location-scale family, theta = (mu, sigma)."""

    dim = 2

    def __init__(self, bounds=None):
        # ``bounds`` is ((mu_lo, mu_hi), (sigma_lo, sigma_hi)); either pair
        # may be None, leaving that parameter open
        if bounds is not None:
            bounds = tuple(None if b is None else (float(b[0]), float(b[1]))
                           for b in bounds)
            _, sg_b = bounds
            # written so that a NaN bound fails too
            if sg_b is not None and not sg_b[0] > 0:
                raise ValueError("sigma lower bound must be positive")
            if any(b is not None and not b[0] < b[1] for b in bounds):
                raise ValueError("bounds must be well ordered")
        self.bounds = None if bounds == (None, None) else bounds

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

    def node_bc(self, theta, x, wg):
        """The node sums of :meth:`ParametricFamily.node_bc` from one
        ``sqrt_pdf`` pass.

        With u = (x - mu) / sigma and s = sqrt(f_theta(x)), the log-derivatives
        of s are u / (2 sigma) in mu and (u^2 - 1) / (2 sigma) in sigma, so
        every node sum is a combination of the power sums
        S_m = sum wg s u^m, m = 0..4:

            BC = S0
            dBC/dmu = S1 / (2 sigma)
            dBC/dsg = (S2 - S0) / (2 sigma)
            d2BC/dmu2 = (S2 - 2 S0) / (4 sigma^2)
            d2BC/dmu dsg = (S3 - 5 S1) / (4 sigma^2)
            d2BC/dsg2 = (S4 - 8 S2 + 3 S0) / (4 sigma^2)

        Shapes as in :meth:`ParametricFamily.node_bc`.
        """
        mu, sg = theta
        u = (np.asarray(x, dtype=float) - mu) / sg
        term = np.multiply(wg, self.sqrt_pdf(theta, x), order="C")  # rows sum as alone
        sums = [term.sum(axis=-1)]
        for _ in range(4):
            term *= u
            sums.append(term.sum(axis=-1))
        s0, s1, s2, s3, s4 = sums
        sg = np.asarray(sg, dtype=float)
        a1 = 0.5 / (sg[..., 0] if sg.ndim else sg)
        a2 = a1 * a1
        grad = np.empty(s0.shape + (2,))
        grad[..., 0] = a1 * s1
        grad[..., 1] = a1 * (s2 - s0)
        hess = np.empty(s0.shape + (2, 2))
        hess[..., 0, 0] = a2 * (s2 - 2.0 * s0)
        hess[..., 0, 1] = hess[..., 1, 0] = a2 * (s3 - 5.0 * s1)
        hess[..., 1, 1] = a2 * (s4 - 8.0 * s2 + 3.0 * s0)
        return s0, grad, hess

    def cell_sqrt_masses(self, theta, edges):
        """Closed-form cell integrals of sqrt(f_theta), exact at any sigma.

        m_j = sqrt(2) (2 pi)^(1/4) sigma^(1/2) [Phi(z_{j+1}) - Phi(z_j)] with
        z = (edges - mu) / (sqrt(2) sigma).  Cells above mu take the
        difference as Phi(-z_j) - Phi(-z_{j+1}), so far upper-tail cells do
        not cancel.  Returns the masses, shape (k,) for k cells; (D, 1)-column
        thetas add a leading row axis.
        """
        mu, sg = theta
        z = (np.asarray(edges, dtype=float) - mu) / (_SQRT2 * sg)
        tail = _normal_tail(z)  # the smaller of Phi(z) and Phi(-z)
        cdf = np.where(z < 0.0, tail, 1.0 - tail)
        d_cdf = np.where(z[..., :-1] > 0.0, tail[..., :-1] - tail[..., 1:],
                         np.diff(cdf, axis=-1))
        return _SQRT2 * np.sqrt(_SQRT2PI * sg) * d_cdf

    def histogram_bc(self, theta, edges, sqrt_heights):
        """Closed-form Bhattacharyya coefficient with a histogram, with its
        gradient and Hessian, by summation by parts over the k + 1 edges.

        With c_j the sqrt cell heights (c_{-1} = c_k = 0), d_i = c_{i-1} - c_i
        and F(x) = A Phi(z(x)) the integral of sqrt(f_theta) below x,
        BC = sum_i d_i F(e_i) = A P with A = sqrt(2) (2 pi)^(1/4) sigma^(1/2),
        z = (e - mu) / (sqrt(2) sigma) and P = sum d Phi(z).  With the edge
        moments M_m = sum d phi(z) z^m, m = 0..3, a = A / sigma and
        b = A / sigma^2:

            dBC/dmu = -a M0 / sqrt(2)     d2BC/dmu2 = -b M1 / 2
            dBC/dsg = a (P / 2 - M1)      d2BC/dmu dsg = -b (M2 - M0 / 2) / sqrt(2)
                                          d2BC/dsg2 = b (M1 - M3 - P / 4)

        Above mu, Phi(z) = 1 - Phi(-z) and the sum of d over those edges
        telescopes to the sqrt height of the cell that straddles mu, so P
        sums Phi(z) below mu and -Phi(-z) above it and adds that height
        back: far-tail histograms keep their relative precision.  Shapes as
        in :meth:`ParametricFamily.histogram_bc`; a shared theta row's tails
        and Gaussian factors broadcast against every row.
        """
        mu, sg = theta
        c = np.asarray(sqrt_heights, dtype=float)
        pad = np.zeros(c.shape[:-1] + (1,))
        c = np.concatenate([pad, c, pad], axis=-1)
        d = c[..., :-1] - c[..., 1:]
        z = (np.asarray(edges, dtype=float) - mu) / (_SQRT2 * sg)
        below = z < 0.0
        # the smaller of Phi(z) and Phi(-z), and exp(-z^2 / 2)
        tail, gauss = _normal_tail_exp(z)
        # padded index of the straddling cell: the number of edges below mu
        straddle = np.take_along_axis(c, below.sum(axis=-1, keepdims=True), axis=-1)[..., 0]
        np.negative(tail, out=tail, where=~below)
        p = np.einsum("...i,...i->...", d, tail) + straddle
        dphi = d * gauss
        moments = [dphi.sum(axis=-1)]
        for _ in range(3):
            dphi *= z
            moments.append(dphi.sum(axis=-1))
        m0, m1, m2, m3 = (m / _SQRT2PI for m in moments)
        sg = np.asarray(sg, dtype=float)
        sg = sg[..., 0] if sg.ndim else sg
        amp = _SQRT2 * np.sqrt(_SQRT2PI * sg)
        a1 = amp / sg
        a2 = a1 / sg
        grad = np.empty(p.shape + (2,))
        grad[..., 0], grad[..., 1] = -a1 / _SQRT2 * m0, a1 * (0.5 * p - m1)
        hess = np.empty(p.shape + (2, 2))
        hess[..., 0, 0], hess[..., 1, 1] = -0.5 * a2 * m1, a2 * (m1 - m3 - 0.25 * p)
        hess[..., 0, 1] = hess[..., 1, 0] = -a2 / _SQRT2 * (m2 - 0.5 * m0)
        return amp * p, grad, hess

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
        mean, sd = overflow_safe(_moments, np.asarray(data, dtype=float))
        return np.array([mean, sd if sd > 0 else 1.0])

    def theta_to_unit(self, theta, transform):
        mu, sg = theta
        return np.array([(mu - transform.a) / transform.width, sg / transform.width])

    def theta_from_unit(self, theta, transform):
        mu, sg = theta
        return np.array([transform.a + transform.width * mu, transform.width * sg])

    def unit_box(self, transform):
        """The unit-scale image of ``bounds``, sigma floored at 1e-12; an
        open parameter gets its ``_UNIT_BOUNDS`` pair."""
        mu_b, sg_b = self.bounds or (None, None)
        w, a = transform.width, transform.a
        return np.array([
            _UNIT_BOUNDS[0] if mu_b is None else ((mu_b[0] - a) / w, (mu_b[1] - a) / w),
            _UNIT_BOUNDS[1] if sg_b is None else (max(sg_b[0] / w, 1e-12), sg_b[1] / w)]).T


def integration_edges(support, densities=()):
    """Panel edges over ``support``: ``_MIN_PANELS`` uniform panels refined
    with every breakpoint of the given densities (an array of points stands
    for itself), the one panel layout of every quadrature in the package."""
    a, b = float(support[0]), float(support[1])
    if not (a < b):
        raise ValueError(f"need a < b, got [{a}, {b}]")
    edges = [np.linspace(a, b, _MIN_PANELS + 1)]
    for d in densities:
        pts = breakpoints_of(d)
        if len(pts):
            inside = pts[(pts > a) & (pts < b)]
            edges.append(inside)
    merged = np.unique(np.concatenate(edges))
    # drop panels narrower than float resolution
    keep = np.concatenate([[True], np.diff(merged) > _MIN_PANEL_WIDTH * (b - a)])
    return merged[keep]


@lru_cache(maxsize=64)
def histogram_nodes(edges):
    """Nodes and weights of the 8-point rule on ``_MIN_PANELS`` uniform panels
    over the span of a histogram's float64 ``edges`` bytes, refined at the
    edges, and each node's cell by :func:`bin_index`; every node lies inside
    a cell.  The one quadrature of a histogram, for ``mhd`` and the
    efficiency quadratures.  Built once per grid and read-only."""
    edges = np.frombuffer(edges)
    x, w = composite_nodes(integration_edges((edges[0], edges[-1]), (edges,)))
    cell = bin_index(edges, x)
    for arr in (x, w, cell):
        arr.flags.writeable = False
    return x, w, cell


def _checked_values(name, vals, x):
    """Density values ``vals`` at abscissae ``x``, clipped at 0.

    A non-finite or negative (below -1e-12) value is an error naming the
    first such abscissa.  ``vals`` may stack one row of values per density,
    all at the same ``x``.
    """
    vals = np.asarray(vals, dtype=float)
    for bad, what in ((~np.isfinite(vals), "non-finite"), (vals < -1e-12, "negative")):
        if bad.any():
            xs = np.broadcast_to(x, vals.shape)
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


def transform_density(g, transform):
    """Push a unit-interval density through an affine support transform."""
    return TransformedDensity(g, transform)
