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

import numbers
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


def _count(name, value):
    """The count ``value`` as an int; one not an integer is refused."""
    if isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _setup_rows(data, prior, family, padding, start=None):
    """The setup of both estimators for the datasets in the rows of the float
    matrix ``data``: per row why it cannot be set up (a str) or None, and
    for the rows that pass, in order, their transforms, one row-wise
    posterior update, and unit-scale starts (``start``, or the row's moment
    start when None) and boxes.  Non-finite data come first, then too few
    observations, then ``padded_ranges``; a prior with no bin count for n
    fails every row that passes these, with its own message.
    """
    a, b, reasons = padded_ranges(data, padding)
    if data.shape[1] < family.dim + 1:   # a non-finite row keeps its own reason
        reasons = [reason if not np.isfinite(row).all() else
                   f"need at least {family.dim + 1} observations"
                   for row, reason in zip(data, reasons)]
    rows = [r for r, reason in enumerate(reasons) if reason is None]
    data, a, b = data[rows], a[rows], b[rows]
    transforms = [SupportTransform(float(lo), float(hi)) for lo, hi in zip(a, b)]
    try:
        post = fit_posterior((data - a[:, None]) / (b - a)[:, None], prior) if rows else None
    except ValueError as exc:   # a prior with no bin count for n points fails every row
        return [reason or str(exc) for reason in reasons], [], None, None, None
    starts = np.array([family.theta_to_unit(family.initial_theta(row) if start is None
                                            else start, t) for row, t in zip(data, transforms)])
    boxes = np.array([family.unit_box(t) for t in transforms])
    return reasons, transforms, post, starts, boxes


def _setup(data, prior, family, padding):
    """Support transform, posterior, unit-scale box and T(EAP) fit of the
    float array ``data``, the fit from the moment start: the one-row case of
    ``_setup_rows``, whose refusal it raises as a ``ValueError``."""
    if data.ndim != 1:
        raise ValueError("data must be a 1-d array")
    (reason,), transforms, post, starts, boxes = _setup_rows(data[None], prior, family, padding)
    if reason:
        raise ValueError(reason)
    post = post.row(0)
    return transforms[0], post, boxes[0], mhd(post.eap(), family, starts[0], *boxes[0])


def _mhb_many(data, prior, family, padding, start=None):
    """MHB of the datasets in the rows of the float matrix ``data``, each from
    ``start`` (data scale) or, when None, its moment start: the matrix case
    of ``_setup_rows``, then one ``eap_rows`` call on one grid and one
    ``mhd_rows`` call, each row in its own box and mapped back by its own
    transform.  Returns per dataset its estimate or why its fit failed (a str).
    """
    fits, transforms, post, starts, boxes = _setup_rows(data, prior, family, padding, start)
    if post is None:
        return fits
    edges, weights = post.eap_rows()
    weights = normalized_weights(weights)   # as each row's eap() histogram stores them
    theta, ok = mhd_rows(weights, edges, family, starts, *boxes.swapaxes(0, 1))
    rows = [r for r, reason in enumerate(fits) if reason is None]
    for r, t, fit, converged in zip(rows, transforms, theta, ok):
        fit = family.theta_from_unit(fit, t)
        fits[r] = fit if converged else (
            f"minimum-distance fit did not converge at theta={np.round(fit, 4).tolist()}"
            " (parameter bounds may exclude the minimizer)")
    return fits


def mhb_fit(data, prior=None, family=None, n_boot=0, rng=None,
            padding=DEFAULT_PADDING):
    """MHB estimate; set ``n_boot`` > 0 to attach bootstrap standard errors."""
    n_boot = _count("n_boot", n_boot)
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
    return MhbEstimate(theta_hat=theta, se=se, n_boot=n_boot,
                       mhd_meta=meta, transform=transform)


def mhb_bootstrap_se(data, prior=None, family=None, n_boot=200, rng=None,
                     padding=DEFAULT_PADDING, warm_theta=None):
    """Nonparametric bootstrap standard errors for MHB.

    The resamples, drawn from one ``spawn`` child each, are stacked into
    one (n_boot, n) matrix and fit by ``_mhb_many``, as the efficiency
    study fits its replicates: the matrix case of the setup of a single
    fit, each resample with its own transform and unit-scale box, then the
    rows of one ``mhd_rows`` call under any prior, each started at
    ``warm_theta``, the full-data MHB estimate (fit first when None).
    Failed resamples are dropped; more than 10% of them is an error.
    """
    n_boot = _count("n_boot", n_boot)
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
                               for child in np.random.default_rng(rng).spawn(n_boot)])]
    estimates = [fit for fit in _mhb_many(resamples, prior, family, padding, start=warm_theta)
                 if not isinstance(fit, str)]
    budget = _BOOT_FAILURE_RATE * n_boot
    if n_boot - len(estimates) > budget:
        raise RuntimeError(f"more than {int(budget)} of {n_boot} bootstrap refits failed")
    return overflow_safe(lambda s: s.std(axis=0, ddof=1), np.array(estimates))


def bmh_fit(data, prior=None, family=None, n_samples=2000, rng=None,
            levels=(0.5, 0.9, 0.95), padding=DEFAULT_PADDING, workers=None):
    """BMH posterior: map posterior density draws through the minimizer.

    All ``n_samples`` histograms are drawn first from ``rng``, one Gamma
    matrix per bin count (``RandomHistogramPosterior.draws``).  The draws
    of each bin count are then fit as the rows of one ``mhd_rows`` call on
    that bin count's own grid, all started at the anchor T(EAP) in the one
    unit-scale box (each block of rows evaluates it once), and mapped back
    to the data scale together; a fixed-k prior makes one call.  The
    diagnostics are the anchor's (see ``functional.MhdResult``).  Failed
    draws are dropped; more than 5% of them is an error.  Each draw's
    minimizer depends on that draw alone: the samples are reproducible given
    the seed, and the first m rows of an n-draw fit equal an m-draw fit.
    ``workers`` is ignored; it is kept only because the benchmark harness
    in ``perfbench/`` passes it.
    """
    n_samples = _count("n_samples", n_samples)
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
    """BMH posterior of a dataset from its ``_setup``, an int count and a Generator ``rng``."""
    transform, post, box, anchor = setup
    samples, ok = np.empty((n_samples, family.dim)), np.empty(n_samples, dtype=bool)
    for _, rows, weights in post.draws(rng, n_samples):
        samples[rows], ok[rows] = mhd_rows(weights, grid_edges(weights.shape[1]), family,
                                           anchor.theta_hat, *box)
    samples = family.theta_from_unit(samples.T, transform).T
    failures, budget = n_samples - int(ok.sum()), _BMH_FAILURE_RATE * n_samples
    if failures > budget:
        raise RuntimeError(f"more than {int(budget)} of {n_samples} "
                           "per-sample minimizations failed to converge")
    samples = samples[ok]
    eap = overflow_safe(lambda s: s.mean(axis=0), samples)
    post_sd = overflow_safe(lambda s: s.std(axis=0, ddof=1), samples)
    intervals = {level: np.quantile(samples, [(1.0 - level) / 2.0, 1.0 - (1.0 - level) / 2.0],
                                    axis=0).T for level in levels}
    return BmhPosterior(theta_samples=samples, eap=eap, post_sd=post_sd, intervals=intervals,
                        n_failed=failures, mhd_meta=anchor, transform=transform)
