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
    normalized_weights,
    padded_ranges,
)
from .functional import MhdResult, mhd, mhd_rows
from .numerics import overflow_safe
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


def _transforms(data, family, padding):
    """Support transform of every row of the float matrix ``data``, and why
    a row cannot be set up (a str) or None; a row with a reason has no
    transform (None)."""
    if data.shape[1] < family.dim + 1:
        a = b = None
        reasons = [f"need at least {family.dim + 1} observations"] * len(data)
    else:
        a, b, reasons = padded_ranges(data, padding)
    for i in np.flatnonzero(~np.isfinite(data).all(axis=1)).tolist():
        reasons[i] = "data contains non-finite values"
    return ([None if reason else SupportTransform(float(a[i]), float(b[i]))
             for i, reason in enumerate(reasons)], reasons)


def _setup(data, prior, family, padding):
    """Support transform, posterior, unit-scale box and T(EAP) fit of the
    float array ``data``, the fit from the moment start."""
    if data.ndim != 1:
        raise ValueError("data must be a 1-d array")
    (transform,), (reason,) = _transforms(data[None], family, padding)
    if reason:
        raise ValueError(reason)
    post = fit_posterior(transform.to_unit(data), prior)
    box = family.unit_box(transform)
    x0 = family.theta_to_unit(family.initial_theta(data), transform)
    return transform, post, box, mhd(post.eap(), family, x0, *box)


def _mhb_many(data, prior, family, padding, start=None):
    """MHB of the datasets in the rows of the float matrix ``data``, each from
    its own data-scale start: ``start``, or the dataset's moment start when
    None.

    The datasets are set up as one matrix: the input checks and support
    transforms of all rows at once (``_transforms``), one row-wise
    posterior update of the rows that pass and one row-wise EAP on one
    grid (``RandomHistogramPosterior.eap_rows``).  Each row gets its own
    transform, and its start and parameter box on the unit scale.  All
    EAPs are fit as the rows of one ``mhd_rows`` call, each in its own
    box, and each row is mapped back by its own transform.  Returns per
    dataset its estimate or why its fit failed (a str).
    """
    transforms, fits = _transforms(data, family, padding)
    rows = np.flatnonzero([t is not None for t in transforms])
    transforms = [transforms[r] for r in rows]
    if not transforms:
        return fits
    a = np.array([t.a for t in transforms])[:, None]
    try:
        post = fit_posterior((data[rows] - a) / np.array([t.width for t in transforms])[:, None],
                             prior)
    except ValueError as exc:   # a prior with no bin count for n points fails every row
        return [str(exc) if fit is None else fit for fit in fits]
    starts = np.array([family.theta_to_unit(family.initial_theta(data[r]) if start is None
                                            else start, t) for r, t in zip(rows, transforms)])
    boxes = np.array([family.unit_box(t) for t in transforms])
    edges, weights = post.eap_rows()
    weights = normalized_weights(weights)   # as each row's eap() histogram stores them
    theta, ok = mhd_rows(weights, edges, family, starts, *boxes.swapaxes(0, 1))
    for i, (r, t) in enumerate(zip(rows, transforms)):
        fit = family.theta_from_unit(theta[i], t)
        fits[r] = fit if ok[i] else (
            f"minimum-distance fit did not converge at theta={np.round(fit, 4).tolist()}"
            " (parameter bounds may exclude the minimizer)")
    return fits


def mhb_fit(data, prior=None, family=None, n_boot=0, rng=None,
            padding=DEFAULT_PADDING):
    """MHB estimate; set ``n_boot`` > 0 to attach bootstrap standard errors."""
    prior = prior or HistogramPrior.fixed()
    family = family or GaussianFamily()
    data = np.asarray(data, dtype=float)
    return _mhb_finish(_setup(data, prior, family, padding), data, prior, family, padding,
                       n_boot, rng)


def _mhb_finish(setup, data, prior, family, padding, n_boot=0, rng=None):
    """MHB estimate of ``data`` from its ``_setup``; ``n_boot`` as in ``mhb_fit``."""
    transform, _, _, meta = setup
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

    The resamples, drawn from one ``spawn`` child each, are stacked into
    one (n_boot, n) matrix and set up as one, as the efficiency study sets
    up its replicates (``_mhb_many``): one row-wise check, transform,
    posterior update and EAP.  Each resample still gets its own transform
    and unit-scale parameter box, and its fit starts at ``warm_theta``, the
    full-data MHB estimate (fit first when None).  All resamples are rows
    of one ``mhd_rows`` call, under any prior.  Failed resamples are
    dropped; more than 10% of them is an error.
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
    resamples = data[np.array([child.integers(0, n, n)
                               for child in np.random.default_rng(rng).spawn(int(n_boot))])]
    estimates = [fit for fit in _mhb_many(resamples, prior, family, padding, start=warm_theta)
                 if not isinstance(fit, str)]
    budget = _BOOT_FAILURE_RATE * n_boot
    if n_boot - len(estimates) > budget:
        raise RuntimeError(f"more than {int(budget)} of {int(n_boot)} bootstrap refits failed")
    return overflow_safe(lambda s: s.std(axis=0, ddof=1), np.array(estimates))


def bmh_fit(data, prior=None, family=None, n_samples=2000, rng=None,
            levels=(0.5, 0.9, 0.95), padding=DEFAULT_PADDING, workers=None):
    """BMH posterior: map posterior density draws through the minimizer.

    All ``n_samples`` histograms are drawn first from ``rng``, one Gamma
    matrix per bin count (``RandomHistogramPosterior.draws``).  The draws
    of each bin count are then fit as the rows of one ``mhd_rows`` call on
    that bin count's own grid, all started at the anchor T(EAP) in the one
    unit-scale box, and mapped back to the data scale together; a fixed-k
    prior makes one call.  Failed draws are dropped; more than 5% of them
    is an error.  Each draw's minimizer depends on that draw alone: the
    samples are reproducible given the seed, and the first m rows of an
    n-draw fit equal an m-draw fit.
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
    return _bmh_finish(_setup(np.asarray(data, dtype=float), prior, family, padding),
                       family, n_samples, rng, levels)


def _bmh_finish(setup, family, n_samples, rng, levels=(0.5, 0.9, 0.95)):
    """BMH posterior of a dataset from its ``_setup`` and a Generator ``rng``."""
    transform, post, box, anchor = setup
    n = int(n_samples)
    samples, ok = np.empty((n, family.dim)), np.empty(n, dtype=bool)
    for _, rows, weights in post.draws(rng, n):
        samples[rows], ok[rows] = mhd_rows(weights, grid_edges(weights.shape[1]), family,
                                           anchor.theta_hat, *box)
    samples = family.theta_from_unit(samples.T, transform).T
    failures, budget = int(n_samples - ok.sum()), _BMH_FAILURE_RATE * n_samples
    if failures > budget:
        raise RuntimeError(f"more than {int(budget)} of {int(n_samples)} "
                           "per-sample minimizations failed to converge")
    samples = samples[ok]
    eap = overflow_safe(lambda s: s.mean(axis=0), samples)
    post_sd = overflow_safe(lambda s: s.std(axis=0, ddof=1), samples)
    intervals = {level: np.quantile(samples, [(1.0 - level) / 2.0, 1.0 - (1.0 - level) / 2.0],
                                    axis=0).T for level in levels}
    return BmhPosterior(theta_samples=samples, eap=eap, post_sd=post_sd, intervals=intervals,
                        n_failed=failures, mhd_meta=anchor, transform=transform)
