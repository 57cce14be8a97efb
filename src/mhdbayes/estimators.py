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
    HistogramDensity,
    SupportTransform,
    grid_edges,
)
from .functional import MhdResult, mhd, mhd_rows
from .numerics import as_generator
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


def _prepare(data, family, padding):
    data = np.asarray(data, dtype=float)
    if data.ndim != 1:
        raise ValueError("data must be a 1-d array")
    if not np.all(np.isfinite(data)):
        raise ValueError("data contains non-finite values")
    if len(data) < family.dim + 1:
        raise ValueError(f"need at least {family.dim + 1} observations")
    transform = SupportTransform.from_data(data, padding=padding)
    return data, transform, transform.to_unit(data)


def _fit_point(data, prior, family, padding, x0_data=None):
    """One end-to-end MHB fit; returns (theta_data, transform, meta)."""
    data, transform, unit_data = _prepare(data, family, padding)
    post = fit_posterior(unit_data, prior)
    g = post.eap()
    fam_u = family.unit_fit_family(transform)
    x0 = family.initial_theta(data) if x0_data is None else np.asarray(x0_data)
    res = mhd(g, fam_u, family.theta_to_unit(x0, transform), support=(0.0, 1.0))
    return family.theta_from_unit(res.theta_hat, transform), transform, res


def mhb_fit(data, prior=None, family=None, n_boot=0, rng=None,
            padding=DEFAULT_PADDING):
    """MHB estimate; set ``n_boot`` > 0 to attach bootstrap standard errors."""
    prior = prior or HistogramPrior.fixed()
    family = family or GaussianFamily()
    theta, transform, meta = _fit_point(data, prior, family, padding)
    if not meta.converged:
        raise RuntimeError(
            "minimum-distance fit did not converge: first-order norm "
            f"{meta.first_order_norm:.2e} at theta={np.round(theta, 4).tolist()} "
            "(parameter bounds may exclude the minimizer)")
    se = None
    if n_boot:
        se = mhb_bootstrap_se(data, prior=prior, family=family, n_boot=n_boot,
                              rng=rng, padding=padding,
                              warm_theta=theta)
    return MhbEstimate(theta_hat=theta, se=se, n_boot=int(n_boot),
                       mhd_meta=meta, transform=transform)


def mhb_bootstrap_se(data, prior=None, family=None, n_boot=200, rng=None,
                     padding=DEFAULT_PADDING, warm_theta=None):
    """Nonparametric bootstrap standard errors for MHB.

    Each resample is refit end to end (transform, posterior, minimization);
    refits that fail or do not converge are dropped, and more than 10% of
    them failing is an error.
    """
    if n_boot < 50:
        raise ValueError("bootstrap needs n_boot >= 50")
    prior = prior or HistogramPrior.fixed()
    family = family or GaussianFamily()
    data = np.asarray(data, dtype=float)
    rng = as_generator(rng)
    n = len(data)
    estimates = []
    failures = 0
    # rng.spawn, not numerics.worker_rng: a different stream, and switching
    # to it would move the bootstrap standard errors
    for child in rng.spawn(int(n_boot)):
        resample = data[child.integers(0, n, n)]
        try:
            theta, _, meta = _fit_point(resample, prior, family, padding,
                                        x0_data=warm_theta)
            if not meta.converged:
                raise RuntimeError("refit did not converge")
            estimates.append(theta)
        except (ValueError, RuntimeError, np.linalg.LinAlgError):
            failures += 1
    if failures > _BOOT_FAILURE_RATE * n_boot:
        raise RuntimeError(f"{failures} of {n_boot} bootstrap refits failed")
    return np.std(np.asarray(estimates), axis=0, ddof=1)


def bmh_fit(data, prior=None, family=None, n_samples=2000, rng=None,
            levels=(0.5, 0.9, 0.95), padding=DEFAULT_PADDING, workers=None):
    """BMH posterior: map posterior density draws through the minimizer.

    All ``n_samples`` histograms are drawn first, in one stream from
    ``rng``.  Draws with the same bin count share their edges and are
    minimized together by ``mhd_rows``: damped Newton on the family's cell
    masses, started at the anchor T(EAP).  A draw it leaves unconverged is
    refit by ``mhd``, cold from the moment start, on a
    ``HistogramDensity`` of its weights; draws that fail that refit
    too count as failed, and more than 5% of them is an error.  Each
    draw's minimizer depends on that draw alone, so the samples are
    reproducible given the seed, and the first m rows of an n-draw fit
    equal an m-draw fit.  ``workers`` is accepted for
    compatibility and ignored: the result never depends on it.
    """
    if n_samples < 100:
        raise ValueError("posterior sampling needs n_samples >= 100")
    for level in levels:
        if not (0.0 < level < 1.0):
            raise ValueError(f"credible level {level!r} must be in (0, 1)")
    prior = prior or HistogramPrior.fixed()
    family = family or GaussianFamily()
    rng = as_generator(rng)

    data, transform, unit_data = _prepare(data, family, padding)
    post = fit_posterior(unit_data, prior)
    fam_u = family.unit_fit_family(transform)
    x0_unit = family.theta_to_unit(family.initial_theta(data), transform)
    anchor = mhd(post.eap(), fam_u, x0_unit, support=(0.0, 1.0))

    n_samples = int(n_samples)
    draws = [post.draw(rng) for _ in range(n_samples)]
    by_k = {}
    for row, (i, _) in enumerate(draws):
        by_k.setdefault(i, []).append(row)
    theta = np.empty((n_samples, len(anchor.theta_hat)))
    ok = np.empty(n_samples, dtype=bool)
    for i, rows in by_k.items():
        weights = np.stack([draws[r][1] for r in rows])
        theta[rows], ok[rows] = mhd_rows(weights, grid_edges(int(post.k_support[i])),
                                         fam_u, anchor.theta_hat)
    failures = 0
    budget = _BMH_FAILURE_RATE * n_samples
    for i in np.flatnonzero(~ok):
        res = mhd(HistogramDensity(draws[i][1]), fam_u, x0_unit, support=(0.0, 1.0))
        if res.converged:
            theta[i], ok[i] = res.theta_hat, True
            continue
        failures += 1
        if failures > budget:
            # the error is certain now; the remaining refits are skipped
            raise RuntimeError(
                f"more than {int(budget)} of {n_samples} per-sample "
                "minimizations failed to converge")

    samples = np.asarray([family.theta_from_unit(t, transform) for t in theta[ok]])
    eap = samples.mean(axis=0)
    post_sd = samples.std(axis=0, ddof=1)
    intervals = {}
    for level in levels:
        tail = (1.0 - level) / 2.0
        lo = np.quantile(samples, tail, axis=0)
        hi = np.quantile(samples, 1.0 - tail, axis=0)
        intervals[level] = np.column_stack([lo, hi])
    return BmhPosterior(theta_samples=samples, eap=eap, post_sd=post_sd,
                        intervals=intervals, n_failed=failures,
                        mhd_meta=anchor, transform=transform)
