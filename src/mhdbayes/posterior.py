"""Exact random-histogram posterior over (bin count, bin weights).

The histogram likelihood is multinomial, so for every candidate bin count
k the weight posterior is Dirichlet(alpha + counts) and the marginal
likelihood of k is a closed-form Beta-function ratio: no MCMC anywhere.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .densities import HistogramDensity, bin_index, grid_edges
from .numerics import worker_rng

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
    floor(n / (log n)^2) at fit time).
    """

    mode: str = "fixed"
    k: int = DEFAULT_FIXED_K
    lam: float = DEFAULT_POISSON_RATE
    k_max: int | None = None
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        if self.mode not in ("fixed", "poisson"):
            raise ValueError(f"unknown prior mode {self.mode!r}")
        # written so that a NaN alpha or rate fails too
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if self.mode == "fixed" and self.k < 1:
            raise ValueError("fixed bin count k must be positive")
        if self.mode == "poisson" and not self.lam > 0:
            raise ValueError("poisson rate must be positive")

    @classmethod
    def fixed(cls, k=DEFAULT_FIXED_K, alpha=DEFAULT_ALPHA):
        return cls(mode="fixed", k=int(k), alpha=alpha)

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
        from scipy.special import gammaln   # random k only; see _log_betas
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
    last bin), taken from the sorted data as the points below each edge."""
    if k < 1:
        raise ValueError("bin count k must be a positive integer")
    return _sorted_counts(np.sort(_unit_data(data)), int(k))


def _unit_data(data):
    data = np.asarray(data, dtype=float)
    bad = ~((data >= 0.0) & (data <= 1.0))   # NaN fails both comparisons
    if bad.any():
        idx = int(np.flatnonzero(bad)[0])
        raise ValueError(f"datum {float(data[idx])!r} at index {idx} is outside [0, 1]")
    return data


def _sorted_counts(ordered, k):
    """k-bin counts of the sorted unit-interval data ``ordered``."""
    below = ordered.searchsorted(grid_edges(k), side="left")
    below[-1] = len(ordered)
    return np.diff(below)


def _log_betas(vectors):
    """log B(v) = sum(gammaln(v)) - gammaln(sum(v)) of every 1-d array in
    ``vectors``, from one ``gammaln`` pass over all of them; each sum is
    taken over its own slice, so every value is the one-vector result.

    Only random k needs it, so ``scipy.special`` is imported on the first
    call: a fixed-k process loads no scipy module."""
    from scipy.special import gammaln
    g = gammaln(np.concatenate(vectors))
    bounds = np.cumsum([0] + [len(v) for v in vectors]).tolist()
    return (np.array([g[i:j].sum() for i, j in zip(bounds, bounds[1:])])
            - gammaln(np.array([v.sum() for v in vectors])))


@lru_cache(maxsize=16)
def _prior_log_betas(alpha, ks):
    """log B(alpha, ..., alpha) of k entries, for every k in the tuple ``ks``;
    read-only, as it is shared between calls."""
    out = _log_betas([np.full(k, alpha) for k in ks])
    out.flags.writeable = False
    return out


def _normalized(logp):
    """``logp`` minus its log-sum-exp.  As in ``scipy.special.logsumexp``,
    the largest term is split out of the sum (log1p of the rest), so a
    single term normalizes to exactly 0.0."""
    top = int(np.argmax(logp))
    rest = np.exp(logp - logp[top])
    rest[top] = 0.0
    return logp - (np.log1p(rest.sum()) + logp[top])


@dataclass
class RandomHistogramPosterior:
    """Posterior over (k, weights) given binned data.

    ``log_post_k[i]`` is the log posterior mass of ``k_support[i]`` and
    ``dirichlet_params[i]`` the matching posterior Dirichlet parameters
    (prior alpha plus bin counts).  :meth:`draws` samples many histograms
    at once, grouped by bin count; :meth:`sample` is its one-draw case.
    """

    k_support: np.ndarray
    log_post_k: np.ndarray
    dirichlet_params: list

    def post_k(self):
        return np.exp(self.log_post_k)

    @cached_property
    def _k_cdf(self):
        cdf = self.post_k().cumsum()
        return cdf / cdf[-1]

    def draws(self, rng, n):
        """``n`` posterior draws as ``(i, rows, weights)`` groups, one per
        bin count drawn: index ``i`` into ``k_support``, the increasing draw
        positions ``rows`` with that bin count, and their Dirichlet(alpha +
        counts) weights, normalized Gammas from one ``gamma`` call per group.

        A single bin count takes its Gammas from ``rng``.  Otherwise ``rng``
        gives a seed, then one uniform per draw that picks its bin count as
        ``rng.choice(p=post_k())`` would, and group ``i`` draws from
        ``worker_rng(seed, i)``.  The first m of ``n`` draws equal ``m``
        draws from the same stream.
        """
        if len(self.k_support) == 1:
            groups = [(0, np.arange(n), rng)]
        else:
            seed = int(rng.integers(2 ** 63))
            pick = self._k_cdf.searchsorted(rng.random(n), side="right")
            groups = [(int(i), np.flatnonzero(pick == i), worker_rng(seed, i))
                      for i in np.unique(pick)]
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
        """Expected a-posteriori density, exact for every prior.

        For a single k this is the histogram with weights proportional to
        alpha + counts.  For random k it is the posterior-weighted mixture
        of the per-k EAP histograms, which is itself a histogram: its edges
        are the union of the regular grids of the k with posterior mass
        above 1e-12, and on each union cell its density is
        sum_k w_k * k * weight_k[bin].
        """
        masses = self.post_k()
        active = np.flatnonzero(masses > 1e-12)
        if len(active) == 1:
            p = self.dirichlet_params[active[0]]
            return HistogramDensity(p / p.sum())
        w = masses[active] / masses[active].sum()
        grids = [grid_edges(int(k)) for k in self.k_support[active]]
        edges = np.unique(np.concatenate(grids))
        heights = np.zeros(len(edges) - 1)
        for wk, i, grid in zip(w, active, grids):
            p = self.dirichlet_params[i]
            heights += wk * len(p) * (p / p.sum())[bin_index(grid, edges[:-1])]
        return HistogramDensity(heights * np.diff(edges), edges=edges)


def fit_posterior(data, prior=None):
    """Exact posterior update from data on [0, 1].

    The data are sorted once, and every candidate k is counted from that
    sort (see :func:`bin_counts`).  For each k the log marginal likelihood is
    n*log(k) + log B(alpha + counts) - log B(alpha), the posterior terms of
    all k from one ``gammaln`` pass and the prior terms cached per support;
    the posterior over k combines it with the prior k-masses (a single
    candidate takes all the mass), and the per-k weight posterior is
    Dirichlet(alpha + counts).
    """
    prior = prior or HistogramPrior.fixed()
    data = np.asarray(data, dtype=float)
    n = len(data)
    if n < 1:
        raise ValueError("need at least one observation")
    prior.validate(n)
    ks = prior.k_values(n)
    ordered = np.sort(_unit_data(data))
    params = [prior.alpha + _sorted_counts(ordered, int(k)) for k in ks]
    if len(ks) == 1:
        return RandomHistogramPosterior(k_support=ks, log_post_k=np.zeros(1),
                                        dirichlet_params=params)
    log_marg = (np.array([n * math.log(k) for k in ks]) + _log_betas(params)
                - _prior_log_betas(prior.alpha, tuple(ks.tolist())))
    return RandomHistogramPosterior(k_support=ks,
                                    log_post_k=_normalized(prior.log_prior_k(ks) + log_marg),
                                    dirichlet_params=params)
