"""Exact random-histogram posterior over (bin count, bin weights).

The histogram likelihood is multinomial, so for every candidate bin count
k the weight posterior is Dirichlet(alpha + counts) and the marginal
likelihood of k is a closed-form Beta-function ratio: no MCMC anywhere.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .densities import HistogramDensity, grid_edges
from .numerics import _count

# Constant per-bin Dirichlet concentration used when none is given.  With
# the default fixed k=100 this keeps the total prior mass alpha*k at or
# below sqrt(n) for n >= 49; see the package README for the calibration.
DEFAULT_ALPHA = 0.07
DEFAULT_FIXED_K = 100
DEFAULT_POISSON_RATE = 20.0


def max_bin_count(n):
    """Largest candidate bin count, floor(n / (log n)^2), for random-k mode."""
    if n < 2:
        return 1
    return max(1, int(n / math.log(n) ** 2))


@dataclass(frozen=True)
class HistogramPrior:
    """Prior on k-bin histograms: a distribution over k plus, conditionally
    on k, Dirichlet(alpha, ..., alpha) bin weights.

    ``mode`` is "fixed" (Dirac mass at ``k``) or "poisson" (rate ``lam``
    truncated to {1, ..., k_max}, with k_max defaulting to
    floor(n / (log n)^2) at fit time); both counts are ints (``_count``).
    """

    mode: str = "fixed"
    k: int = DEFAULT_FIXED_K
    lam: float = DEFAULT_POISSON_RATE
    k_max: int | None = None
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        if self.mode not in ("fixed", "poisson"):
            raise ValueError(f"unknown prior mode {self.mode!r}")
        object.__setattr__(self, "k", _count("k", self.k))
        if self.k_max is not None:
            object.__setattr__(self, "k_max", _count("k_max", self.k_max))
        # written so that a NaN alpha or rate fails too
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")
        if self.mode == "fixed" and self.k < 1:
            raise ValueError("fixed bin count k must be positive")
        if self.mode == "poisson" and not 0 < self.lam < math.inf:
            raise ValueError(f"poisson rate must be positive and finite, got {self.lam!r}")

    @classmethod
    def fixed(cls, k=DEFAULT_FIXED_K, alpha=DEFAULT_ALPHA):
        return cls(mode="fixed", k=k, alpha=alpha)

    @classmethod
    def poisson(cls, lam=DEFAULT_POISSON_RATE, alpha=DEFAULT_ALPHA, k_max=None):
        return cls(mode="poisson", lam=float(lam), k_max=k_max, alpha=alpha)

    def k_values(self, n):
        if self.mode == "fixed":
            return np.array([self.k], dtype=int)
        k_hi = self.k_max if self.k_max is not None else max_bin_count(n)
        if k_hi < 1:
            raise ValueError("empty bin-count support")
        return np.arange(1, k_hi + 1, dtype=int)

    def log_prior_k(self, ks):
        ks = np.asarray(ks, dtype=int)
        if self.mode == "fixed":
            return np.zeros(len(ks))
        from scipy.special import gammaln   # random k only; see _log_beta
        return _normalized(ks * math.log(self.lam) - gammaln(ks + 1.0))

    def validate(self, n):
        """Warn when the total prior mass exceeds sqrt(n) (the consistency
        condition is asymptotic, so this is advisory rather than fatal)."""
        worst = self.alpha * int(self.k_values(n)[-1])
        if worst > math.sqrt(n):
            warnings.warn(
                f"total prior mass {worst:.3g} exceeds sqrt(n)={math.sqrt(n):.3g}; "
                "posterior-consistency condition may be degraded at this n",
                stacklevel=2)


def bin_counts(data, k):
    """Counts of ``data`` (values in [0, 1]) over the regular k-bin grid by
    :func:`~mhdbayes.densities.bin_index`'s rule (1.0 is closed into the
    last bin): the points below each edge, one ``searchsorted`` of the sort."""
    if k < 1:
        raise ValueError("bin count k must be a positive integer")
    return next(_grid_counts(np.sort(_unit_data(data))[None], (int(k),)))[0]


def _unit_data(data):
    data = np.asarray(data, dtype=float)
    bad = ~((data >= 0.0) & (data <= 1.0))   # NaN fails both comparisons
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        where = idx[0] if len(idx) == 1 else idx
        raise ValueError(f"datum {float(data[idx])!r} at index {where} is outside [0, 1]")
    return data


@lru_cache(maxsize=16)
def _union_grid(ks):
    """The union of ``grid_edges(k)`` over the tuple ``ks``, and for each k
    the positions of its edges in the union; read-only, as they are shared
    between calls.  Edges that coincide across k (1/3 = 2/6) are the same
    float, so they appear once and each k finds its own edges exactly."""
    edges = np.unique(np.concatenate([grid_edges(k) for k in ks]))
    positions = [edges.searchsorted(grid_edges(k)) for k in ks]
    for a in (edges, *positions):
        a.flags.writeable = False
    return edges, positions


def _grid_counts(ordered, ks):
    """k-bin counts of every row of a (rows, n) unit-interval matrix with
    sorted rows, yielded for each k of the tuple ``ks`` in turn, shape
    (rows, k): the points of each row below each edge, from one
    ``searchsorted`` per row over the union of the grids, differenced.
    The closing edge counts all n points, 1.0 included."""
    edges, positions = _union_grid(ks)
    below = np.empty((len(ordered), len(edges)), dtype=np.intp)
    for row, out in zip(ordered, below):
        out[:-1] = row.searchsorted(edges[:-1])
    below[:, -1] = ordered.shape[1]
    # take, unlike below[:, pos], keeps C order: each row sums as a lone row
    return (np.diff(below.take(pos, axis=1), axis=1) for pos in positions)


def _log_beta(v):
    """log B(v) = sum(gammaln(v)) - gammaln(sum(v)) over the last axis.

    Only random k needs it, so ``scipy.special`` is imported on the first
    call: a fixed-k process loads no scipy module."""
    from scipy.special import gammaln
    return gammaln(v).sum(axis=-1) - gammaln(v.sum(axis=-1))


@lru_cache(maxsize=16)
def _prior_log_betas(alpha, ks):
    """log B(alpha, ..., alpha) of k entries, for every k in the tuple ``ks``;
    read-only, as it is shared between calls."""
    out = np.array([_log_beta(np.full(k, alpha)) for k in ks])
    out.flags.writeable = False
    return out


def _normalized(logp):
    """``logp`` minus its log-sum-exp along the last axis.  As in
    ``scipy.special.logsumexp``, the largest term is split out of the sum
    (log1p of the rest), so a single term normalizes to exactly 0.0."""
    top = np.argmax(logp, axis=-1)[..., None]
    peak = np.take_along_axis(logp, top, axis=-1)
    rest = np.exp(logp - peak)
    np.put_along_axis(rest, top, 0.0, axis=-1)
    return logp - (np.log1p(rest.sum(axis=-1, keepdims=True)) + peak)


def _dirichlet_mean(params):
    """Mean weights of Dirichlet(``params``), one row per leading index."""
    return params / params.sum(axis=-1, keepdims=True)


@dataclass
class RandomHistogramPosterior:
    """Posterior over (k, weights) given binned data.

    ``log_post_k[i]`` is the log posterior mass of ``k_support[i]`` and
    ``dirichlet_params[i]`` the matching posterior Dirichlet parameters
    (prior alpha plus bin counts).  :meth:`draws` samples many histograms
    at once, grouped by bin count, each group on its own regular grid;
    :meth:`sample` is its one-draw case.

    The update of D datasets at once (:func:`fit_posterior` of a (D, n)
    matrix) puts a leading row axis on ``log_post_k`` and on every
    ``dirichlet_params`` entry; :meth:`row` is the posterior of one dataset
    and :meth:`eap_rows` serves every row, the other methods one.
    """

    k_support: np.ndarray
    log_post_k: np.ndarray
    dirichlet_params: list

    def post_k(self):
        return np.exp(self.log_post_k)

    def row(self, d):
        """The posterior of dataset ``d`` of a row-wise update."""
        return RandomHistogramPosterior(k_support=self.k_support,
                                        log_post_k=self.log_post_k[d],
                                        dirichlet_params=[p[d] for p in self.dirichlet_params])

    def eap_rows(self):
        """Edges and cell weights of the EAP density of every row of a
        row-wise update, all rows on one grid; :meth:`eap` is its one-row
        case.  The weights sum to 1 to rounding, and ``HistogramDensity``
        renormalizes them.

        For a single k these are ``grid_edges(k)`` and the Dirichlet means.
        For random k, the edges are the union of the regular grids of the k
        with posterior mass above 1e-12 in any row, and a row's height on a
        union cell is sum_k w_k * k * mean_k[bin], w the row's k-masses
        renormalized over its own active k and mean_k its Dirichlet mean:
        the row's :meth:`eap` height on the cell that holds it, as refining
        a histogram's grid does not change its density.  The heights of
        each k are gathered for all rows where it is active at once: bin j of
        k spans the union cells between its edges' places in :func:`_union_grid`.
        """
        params = [np.atleast_2d(p) for p in self.dirichlet_params]
        if len(self.k_support) == 1:
            return grid_edges(int(self.k_support[0])), _dirichlet_mean(params[0])
        masses = np.atleast_2d(self.post_k())
        active = masses > 1e-12
        used = np.flatnonzero(active.any(axis=0))
        # the active k change from dataset to dataset: build, do not cache
        edges, positions = _union_grid.__wrapped__(tuple(self.k_support[used].tolist()))
        w = np.where(active, masses, 0.0)
        w /= w.sum(axis=1, keepdims=True)
        heights = np.zeros((len(masses), len(edges) - 1))
        for i, pos in zip(used, positions):
            rows = np.flatnonzero(active[:, i])
            mean = _dirichlet_mean(params[i][rows])
            k = mean.shape[1]
            heights[rows] += w[rows, i, None] * k * mean[:, np.repeat(np.arange(k), np.diff(pos))]
        return edges, heights * np.diff(edges)

    def draws(self, rng, n):
        """``n`` posterior draws as ``(i, rows, weights)`` groups, one per
        bin count drawn: index ``i`` into ``k_support``, the increasing draw
        positions ``rows`` with that bin count, and their Dirichlet(alpha +
        counts) weights on ``grid_edges(k_support[i])``, normalized Gammas
        from one ``gamma`` call per group.

        A single bin count takes its Gammas from ``rng``.  Otherwise ``rng``
        gives one uniform per draw that picks its bin count from the
        posterior k-CDF as ``rng.choice(p=post_k())`` would, and group ``i``
        draws from child ``i`` of one ``rng.spawn`` call.  The first m of
        ``n`` draws equal ``m`` draws from the same stream.
        """
        if len(self.k_support) == 1:
            groups = [(0, np.arange(n), rng)]
        else:
            cdf = self.post_k().cumsum()
            pick = (cdf / cdf[-1]).searchsorted(rng.random(n), side="right")
            children = rng.spawn(int(pick.max()) + 1)
            groups = [(int(i), np.flatnonzero(pick == i), children[i]) for i in np.unique(pick)]
        out = []
        for i, rows, stream in groups:
            params = self.dirichlet_params[i]
            g = stream.gamma(params, size=(len(rows), len(params)))
            total = g.sum(axis=1, keepdims=True)
            if not np.all(total > 0):
                raise RuntimeError("Dirichlet sampling produced all-zero Gamma draws")
            out.append((i, rows, g / total))
        return out

    def sample(self, rng=None):
        """One histogram draw, the first of :meth:`draws`, as a density."""
        ((_, _, weights),) = self.draws(np.random.default_rng(rng), 1)
        return HistogramDensity(weights[0])

    def eap(self):
        """Expected a-posteriori density of a one-dataset posterior, exact
        for every prior: the one row of :meth:`eap_rows`, as a histogram.

        For a single k this is the histogram with weights proportional to
        alpha + counts.  For random k it is the posterior-weighted mixture
        of the per-k EAP histograms, which is itself a histogram on the
        union of the regular grids of the k with posterior mass above 1e-12.
        """
        edges, (weights,) = self.eap_rows()
        return HistogramDensity(weights, edges=edges)


def fit_posterior(data, prior=None):
    """Exact posterior update from data on [0, 1].

    The data are sorted once, and every candidate k is counted from that
    sort by one ``searchsorted`` per row over the union of the grids.  For
    each k the log marginal likelihood is n*log(k) + log B(alpha + counts)
    - log B(alpha), the posterior term from one ``gammaln`` per k over all
    rows and the prior terms cached per support; the posterior over k
    combines it with the prior k-masses (a single candidate takes all the
    mass), and the per-k weight posterior is Dirichlet(alpha + counts).

    A (D, n) matrix ``data`` updates D datasets of n points each in one
    pass: one sort, one ``gammaln`` per k over all rows and one row-wise
    normalization, with a leading row axis on the result (see
    :class:`RandomHistogramPosterior`).  A 1-d ``data`` is the one-row case.
    """
    prior = prior or HistogramPrior.fixed()
    rows = _unit_data(data)
    one = rows.ndim == 1
    if one:
        rows = rows[None]
    n = rows.shape[1]
    if n < 1:
        raise ValueError("need at least one observation")
    prior.validate(n)
    ks = prior.k_values(n)
    support = tuple(ks.tolist())
    params = [prior.alpha + c for c in _grid_counts(np.sort(rows, axis=1), support)]
    if len(ks) == 1:
        log_post_k = np.zeros((len(rows), 1))
    else:
        log_marg = ((np.array([n * math.log(k) for k in ks])
                     + np.array([_log_beta(p) for p in params]).T)
                    - _prior_log_betas(prior.alpha, support))
        log_post_k = _normalized(prior.log_prior_k(ks) + log_marg)
    post = RandomHistogramPosterior(k_support=ks, log_post_k=log_post_k, dirichlet_params=params)
    return post.row(0) if one else post
