"""Exact random-histogram posterior over (bin count, bin weights).

The histogram likelihood is multinomial, so for every candidate bin count
k the weight posterior is Dirichlet(alpha + counts) and the marginal
likelihood of k is a closed-form Beta-function ratio: no MCMC anywhere.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import gammaln, logsumexp

from .densities import HistogramDensity, SupportTransform, bin_index, grid_edges
from .numerics import as_generator

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
    floor(n / (log n)^2) at fit time).  ``c1``, ``a``, ``c2`` bound the
    admissible per-bin concentrations c1 * k**-a <= alpha <= c2.
    """

    mode: str = "fixed"
    k: int = DEFAULT_FIXED_K
    lam: float = DEFAULT_POISSON_RATE
    k_max: int | None = None
    alpha: float = DEFAULT_ALPHA
    c1: float | None = None
    a: float = 0.0
    c2: float | None = None

    def __post_init__(self):
        if self.mode not in ("fixed", "poisson"):
            raise ValueError(f"unknown prior mode {self.mode!r}")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.mode == "fixed" and self.k < 1:
            raise ValueError("fixed bin count k must be positive")
        if self.mode == "poisson" and self.lam <= 0:
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
        logp = ks * math.log(self.lam) - gammaln(ks + 1.0)
        return logp - logsumexp(logp)

    def validate(self, n):
        """Check the concentration bounds; warn when the total prior mass
        exceeds sqrt(n) (the consistency condition is asymptotic, so this
        is advisory rather than fatal)."""
        ks = self.k_values(n)
        c1 = self.alpha if self.c1 is None else self.c1
        c2 = self.alpha if self.c2 is None else self.c2
        for k in (int(ks[0]), int(ks[-1])):
            lo = c1 * k ** (-self.a)
            if not (lo - 1e-12 <= self.alpha <= c2 + 1e-12):
                raise ValueError(
                    f"alpha={self.alpha} violates c1*k^-a <= alpha <= c2 at k={k}")
        worst = self.alpha * int(ks[-1])
        if worst > math.sqrt(n):
            warnings.warn(
                f"total prior mass {worst:.3g} exceeds sqrt(n)={math.sqrt(n):.3g}; "
                "posterior-consistency condition may be degraded at this n",
                stacklevel=2)


def bin_counts(data, k):
    """Counts of ``data`` (values in [0, 1]) over the regular k-bin grid,
    binned by :func:`~mhdbayes.densities.bin_index` (1.0 is closed into
    the last bin)."""
    if k < 1:
        raise ValueError("bin count k must be a positive integer")
    data = np.asarray(data, dtype=float)
    bad = (data < 0.0) | (data > 1.0) | ~np.isfinite(data)
    if np.any(bad):
        idx = int(np.flatnonzero(bad)[0])
        raise ValueError(f"datum {float(data[idx])!r} at index {idx} is outside [0, 1]")
    return np.bincount(bin_index(grid_edges(int(k)), data), minlength=int(k))


def _log_beta(v):
    return float(np.sum(gammaln(v)) - gammaln(np.sum(v)))


@dataclass
class RandomHistogramPosterior:
    """Posterior over (k, weights) given binned data.

    ``log_post_k[i]`` is the log posterior mass of ``k_support[i]`` and
    ``dirichlet_params[i]`` the matching posterior Dirichlet parameters
    (prior alpha plus bin counts).
    """

    k_support: np.ndarray
    log_post_k: np.ndarray
    dirichlet_params: list
    n: int
    transform: SupportTransform | None = None
    log_marginals: np.ndarray | None = field(default=None, repr=False)

    def post_k(self):
        return np.exp(self.log_post_k)

    @cached_property
    def _k_cdf(self):
        cdf = self.post_k().cumsum()
        return cdf / cdf[-1]

    def draw(self, rng):
        """One posterior draw as (index into ``k_support``, bin weights).

        The index comes from the posterior k-masses by inverting their CDF
        at one uniform variate, the draw ``rng.choice(p=post_k())`` makes
        from the same stream; the weights are a Dirichlet(alpha + counts)
        draw, normalized Gamma variates."""
        i = int(self._k_cdf.searchsorted(rng.random(), side="right"))
        params = self.dirichlet_params[i]
        for _ in range(100):
            g = rng.gamma(params)
            total = g.sum()
            if total > 0:
                return i, g / total
        raise RuntimeError("Dirichlet sampling produced all-zero Gamma draws")

    def sample(self, rng=None):
        """One histogram draw (see :meth:`draw`) as a density."""
        _, weights = self.draw(as_generator(rng))
        return HistogramDensity(weights)

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

    def to_json(self):
        return {
            "k_support": [int(k) for k in self.k_support],
            "log_post_k": [float(v) for v in self.log_post_k],
            "dirichlet_params": [[float(v) for v in p] for p in self.dirichlet_params],
            "transform": None if self.transform is None
            else {"a": self.transform.a, "b": self.transform.b},
            "n": int(self.n),
        }

    def dumps(self):
        return json.dumps(self.to_json(), sort_keys=True)

    @classmethod
    def from_json(cls, d):
        tf = d.get("transform")
        return cls(
            k_support=np.asarray(d["k_support"], dtype=int),
            log_post_k=np.asarray(d["log_post_k"], dtype=float),
            dirichlet_params=[np.asarray(p, dtype=float) for p in d["dirichlet_params"]],
            n=int(d["n"]),
            transform=None if tf is None else SupportTransform(tf["a"], tf["b"]),
        )


def fit_posterior(data, prior=None, transform=None):
    """Exact posterior update from data on [0, 1].

    For each candidate k the log marginal likelihood is
    n*log(k) + log B(alpha + counts) - log B(alpha); the posterior over k
    combines it with the prior k-masses, and the per-k weight posterior is
    Dirichlet(alpha + counts).
    """
    prior = prior or HistogramPrior.fixed()
    data = np.asarray(data, dtype=float)
    n = len(data)
    if n < 1:
        raise ValueError("need at least one observation")
    prior.validate(n)
    ks = prior.k_values(n)
    log_prior = prior.log_prior_k(ks)
    params = []
    log_marg = np.empty(len(ks))
    for i, k in enumerate(ks):
        counts = bin_counts(data, int(k))
        alpha = np.full(int(k), prior.alpha)
        post_param = alpha + counts
        log_marg[i] = n * math.log(k) + _log_beta(post_param) - _log_beta(alpha)
        params.append(post_param)
    log_post = log_prior + log_marg
    log_post -= logsumexp(log_post)
    return RandomHistogramPosterior(
        k_support=ks, log_post_k=log_post, dirichlet_params=params,
        n=n, transform=transform, log_marginals=log_marg)
