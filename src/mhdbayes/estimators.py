"""The two headline estimators.

MHB: fit the random-histogram posterior to the transformed data, take the
expected a-posteriori density, and minimize the Hellinger distance to the
parametric family; standard errors come from a nonparametric bootstrap.

BMH: push every posterior density draw through the same minimizer to get
a posterior over the parameter itself.

Fits run on the unit interval (the histogram never needs resampling) and
parameters are mapped back to the data scale through the family's affine
hooks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densities import (
    DEFAULT_PADDING,
    GaussianFamily,
    SupportTransform,
    grid_edges,
)
from .functional import MhdResult, _box, mhd, mhd_rows
from .posterior import HistogramPrior, fit_posterior

# Largest fractions of failed bootstrap refits and of failed BMH per-draw
# fits that still give a result.
_BOOT_FAILURE_RATE = 0.10
_BMH_FAILURE_RATE = 0.05


@dataclass
class MhbEstimate:
    """MHB point estimate on the data scale."""

    theta_hat: np.ndarray
    se: np.ndarray | None
    n_boot: int
    mhd_meta: MhdResult
    transform: SupportTransform

    def to_report(self):
        return {
            "estimator": "mhb",
            "theta_hat": [float(v) for v in self.theta_hat],
            "se": None if self.se is None else [float(v) for v in self.se],
            "n_boot": int(self.n_boot),
            "diagnostics": {
                "h_min": float(self.mhd_meta.h_min),
                "first_order_norm": float(self.mhd_meta.first_order_norm),
                "converged": bool(self.mhd_meta.converged),
                "n_evals": int(self.mhd_meta.n_evals),
            },
            "transform": {"a": self.transform.a, "b": self.transform.b},
        }


@dataclass
class BmhPosterior:
    """BMH parameter posterior on the data scale."""

    theta_samples: np.ndarray
    eap: np.ndarray
    post_sd: np.ndarray
    intervals: dict
    n_failed: int
    mhd_meta: MhdResult
    transform: SupportTransform

    def to_report(self):
        return {
            "estimator": "bmh",
            "eap": [float(v) for v in self.eap],
            "post_sd": [float(v) for v in self.post_sd],
            "intervals": {
                str(level): [[float(lo), float(hi)] for lo, hi in pairs]
                for level, pairs in self.intervals.items()
            },
            "n_samples": int(len(self.theta_samples)),
            "diagnostics": {
                "h_min": float(self.mhd_meta.h_min),
                "first_order_norm": float(self.mhd_meta.first_order_norm),
                "n_failed": int(self.n_failed),
            },
            "transform": {"a": self.transform.a, "b": self.transform.b},
        }


def _setup(data, prior, family, padding):
    """Support transform, posterior and unit family of the float array ``data``."""
    if data.ndim != 1:
        raise ValueError("data must be a 1-d array")
    if not np.all(np.isfinite(data)):
        raise ValueError("data contains non-finite values")
    if len(data) < family.dim + 1:
        raise ValueError(f"need at least {family.dim + 1} observations")
    transform = SupportTransform.from_data(data, padding=padding)
    post = fit_posterior(transform.to_unit(data), prior)
    return transform, post, family.unit_fit_family(transform)


def _mhb_many(datasets, prior, family, padding, start=None):
    """MHB of many datasets, each from its own data-scale start: ``start``,
    or the dataset's moment start when None.  Every dataset gets its own
    transform, posterior and EAP, and its start and parameter box on the
    unit scale.  The EAPs sharing an edge grid (all of them for a fixed-k
    prior) are fit as the rows of one ``mhd_rows`` call, each in its own
    box, and each row is mapped back by its own transform.  Returns per
    dataset its estimate or why its fit failed (a str).
    """
    grids, transforms, fits = {}, [], []
    for data in datasets:
        try:
            transform, post, fam_u = _setup(data, prior, family, padding)
        except ValueError as exc:
            fits.append(str(exc))
            continue
        g = post.eap()
        theta0 = family.initial_theta(data) if start is None else start
        grids.setdefault(g.edges.tobytes(), (g.edges, fam_u, []))[2].append(
            (len(transforms), g.weights, family.theta_to_unit(theta0, transform), _box(fam_u)))
        fits.append(len(transforms))
        transforms.append(transform)
    theta, ok = np.empty((len(transforms), family.dim)), np.empty(len(transforms), dtype=bool)
    for edges, fam_u, members in grids.values():
        rows, weights, starts, boxes = (np.array(column) for column in zip(*members))
        theta[rows], ok[rows] = mhd_rows(weights, edges, fam_u, starts, *boxes.swapaxes(0, 1))
    theta = [family.theta_from_unit(t, transform) for t, transform in zip(theta, transforms)]
    return [fit if isinstance(fit, str) else theta[fit] if ok[fit] else
            f"minimum-distance fit did not converge at theta={np.round(theta[fit], 4).tolist()}"
            " (parameter bounds may exclude the minimizer)" for fit in fits]


def mhb_fit(data, prior=None, family=None, n_boot=0, rng=None,
            padding=DEFAULT_PADDING):
    """MHB estimate; set ``n_boot`` > 0 to attach bootstrap standard errors."""
    prior = prior or HistogramPrior.fixed()
    family = family or GaussianFamily()
    data = np.asarray(data, dtype=float)
    transform, post, fam_u = _setup(data, prior, family, padding)
    x0 = family.theta_to_unit(family.initial_theta(data), transform)
    meta = mhd(post.eap(), fam_u, x0)
    theta = family.theta_from_unit(meta.theta_hat, transform)
    if not meta.converged:
        raise RuntimeError(
            "minimum-distance fit did not converge: first-order norm "
            f"{meta.first_order_norm:.2e} at theta={np.round(theta, 4).tolist()} "
            "(parameter bounds may exclude the minimizer)")
    se = mhb_bootstrap_se(data, prior=prior, family=family, n_boot=n_boot, rng=rng,
                          padding=padding, warm_theta=theta) if n_boot else None
    return MhbEstimate(theta_hat=theta, se=se, n_boot=int(n_boot),
                       mhd_meta=meta, transform=transform)


def mhb_bootstrap_se(data, prior=None, family=None, n_boot=200, rng=None,
                     padding=DEFAULT_PADDING, warm_theta=None):
    """Nonparametric bootstrap standard errors for MHB.

    Each resample gets its own transform, posterior, EAP and unit-scale
    parameter box.  Its fit starts at ``warm_theta``, the full-data MHB
    estimate (fit first when None).  As the efficiency study fits its
    replicates, all resamples are rows of one ``mhd_rows`` call per EAP
    edge grid (``_mhb_many``), one call in all for a fixed-k prior.  Failed
    resamples are dropped; more than 10% of them is an error.
    """
    if n_boot < 50:
        raise ValueError("bootstrap needs n_boot >= 50")
    prior = prior or HistogramPrior.fixed()
    family = family or GaussianFamily()
    data = np.asarray(data, dtype=float)
    if warm_theta is None:
        warm_theta = mhb_fit(data, prior=prior, family=family, padding=padding).theta_hat
    n = len(data)
    # rng.spawn, not numerics.worker_rng: a different stream, and switching
    # to it would move the bootstrap standard errors
    resamples = (data[child.integers(0, n, n)]
                 for child in np.random.default_rng(rng).spawn(int(n_boot)))
    estimates = [fit for fit in _mhb_many(resamples, prior, family, padding, start=warm_theta)
                 if not isinstance(fit, str)]
    budget = _BOOT_FAILURE_RATE * n_boot
    if n_boot - len(estimates) > budget:
        raise RuntimeError(f"more than {int(budget)} of {int(n_boot)} bootstrap refits failed")
    return np.std(estimates, axis=0, ddof=1)


def bmh_fit(data, prior=None, family=None, n_samples=2000, rng=None,
            levels=(0.5, 0.9, 0.95), padding=DEFAULT_PADDING, workers=None):
    """BMH posterior: map posterior density draws through the minimizer.

    All ``n_samples`` histograms are drawn first from ``rng``, one Gamma
    matrix per bin count (``RandomHistogramPosterior.draws``), then each
    bin count's draws are fit as the rows of one ``mhd_rows`` call, all
    started at the anchor T(EAP) in the one unit-scale box, and mapped
    back to the data scale together.  Failed draws are
    dropped; more than 5% of them is an error.  Each draw's minimizer
    depends on that draw alone, so the samples are reproducible given the
    seed, and the first m rows of an n-draw fit equal an m-draw fit.
    ``workers`` is ignored; it is kept only because the benchmark harness
    in ``perfbench/`` passes it.
    """
    if n_samples < 100:
        raise ValueError("posterior sampling needs n_samples >= 100")
    for level in levels:
        if not (0.0 < level < 1.0):
            raise ValueError(f"credible level {level!r} must be in (0, 1)")
    prior = prior or HistogramPrior.fixed()
    family = family or GaussianFamily()
    rng = np.random.default_rng(rng)

    data = np.asarray(data, dtype=float)
    transform, post, fam_u = _setup(data, prior, family, padding)
    x0 = family.theta_to_unit(family.initial_theta(data), transform)
    anchor = mhd(post.eap(), fam_u, x0)
    samples, ok = np.empty((int(n_samples), family.dim)), np.empty(int(n_samples), dtype=bool)
    for i, rows, weights in post.draws(rng, int(n_samples)):
        samples[rows], ok[rows] = mhd_rows(weights, grid_edges(int(post.k_support[i])), fam_u,
                                           anchor.theta_hat, *_box(fam_u))
    samples = family.theta_from_unit(samples.T, transform).T
    failures, budget = int(n_samples - ok.sum()), _BMH_FAILURE_RATE * n_samples
    if failures > budget:
        raise RuntimeError(f"more than {int(budget)} of {int(n_samples)} "
                           "per-sample minimizations failed to converge")
    samples = samples[ok]
    intervals = {}
    for level in levels:
        tail = (1.0 - level) / 2.0
        intervals[level] = np.quantile(samples, [tail, 1.0 - tail], axis=0).T
    return BmhPosterior(theta_samples=samples, eap=samples.mean(axis=0),
                        post_sd=samples.std(axis=0, ddof=1), intervals=intervals,
                        n_failed=failures, mhd_meta=anchor, transform=transform)
