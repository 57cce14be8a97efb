"""Runnable studies for the three empirical claims: gross-error
robustness, asymptotic efficiency, and the Bernstein-von-Mises check.

Replicates get independent RNG streams derived from the study seed and are
merged in replicate order, so reports are reproducible bit for bit given
{seed, config}.  The efficiency study fits its replicates as the rows of
one batched Newton call on one grid, under a fixed-k or a random-k prior
alike (a random-k batch shares the union of its EAP grids).  The
robustness sweep sets each dataset up once for MHB and BMH, and is the
one study that runs over processes: its ``workers`` (default 1, 0 = all
cores) fans the replicates out, and reports do not depend on it.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .densities import DEFAULT_PADDING, GaussianFamily, _normal_tail
from .estimators import _bmh_finish, _count, _mhb_finish, _mhb_many, _setup, bmh_fit
from .functional import asymptotic_variance, fisher_information
from .numerics import overflow_safe, worker_rng
from .posterior import HistogramPrior

# Pass bands of the study checks: the efficiency study's MHB variance over
# the Cramer-Rao bound, the robustness sweep's MHB median location error at
# the farthest z, and the BvM diagnostic's posterior-sd ratio and KS
# statistic.
RATIO_BAND = (0.84, 1.16)
FAR_Z_LOCATION_TOL = 0.05
SD_RATIO_BAND = (0.9, 1.1)
KS_THRESHOLD = 0.05


@dataclass
class StudyReport:
    """Grid sweep outcome: per-cell rows plus summary and pass/fail checks."""

    name: str
    grid: list
    rows: list
    summary: dict
    checks: dict
    seed: int
    config: dict = field(default_factory=dict)

    @property
    def passed(self):
        return all(self.checks.values()) if self.checks else True

    def to_json(self):
        return {
            "study": self.name,
            "grid": self.grid,
            "summary": self.summary,
            "checks": self.checks,
            "passed": self.passed,
            "seed": self.seed,
            "config": self.config,
            "rows": self.rows,
        }

    def to_csv(self):
        """Flat RFC-4180 CSV, one row per grid cell x replicate."""
        return csv_text(self.rows, sorted({k for row in self.rows for k in row}))


def csv_text(rows, fieldnames):
    """RFC-4180 CSV of the dicts ``rows``: a header of ``fieldnames``, then one
    line per row, CRLF line ends and floats written by ``repr``."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\r\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _map_tasks(fn, tasks, workers):
    if workers <= 1:
        return [fn(t) for t in tasks]
    # imported here: concurrent.futures and multiprocessing would add 11-23 ms
    # (python -X importtime, 2-core x86-64 host) to every start-up
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def _seed_of(rng):
    # studies key their reports on an integer seed; honor one if given,
    # otherwise draw a fresh one to embed in the report
    if isinstance(rng, (int, np.integer)):
        return int(rng)
    return int(np.random.default_rng(rng).integers(2 ** 31))


def _true_theta(theta):
    """A study's true (mu, sigma) as floats; a NaN or infinite entry or a
    sigma that is not positive fails before any replicate runs."""
    theta = np.asarray(theta, dtype=float)
    if not (np.all(np.isfinite(theta)) and theta[1] > 0):
        raise ValueError(f"true parameter needs a finite mu and a finite sigma > 0, "
                         f"got {theta.tolist()}")
    return theta


def _non_finite(name, theta):
    """Why the estimate ``theta`` of estimator ``name`` cannot be reported,
    or None: a NaN or infinite entry."""
    if not np.all(np.isfinite(theta)):
        return f"{name} estimate {[float(v) for v in theta]} is not finite"
    return None


def _plausible_support(family, theta, what, quantity):
    """``family.plausible_support(theta)`` as a float array; a support that
    is not a finite interval raises ``ValueError`` naming ``what``, whose
    ``quantity`` is integrated over it."""
    with np.errstate(over="ignore"):   # an overflow is refused just below
        support = np.asarray(family.plausible_support(theta), dtype=float)
    if not (np.all(np.isfinite(support)) and support[0] < support[1]):
        raise ValueError(f"{what} has no finite plausible support "
                         f"(got {support.tolist()}) to integrate its {quantity} over")
    return support


def efficiency_study(family=None, theta0=(0.0, 1.0), n=2000, reps=200, rng=None,
                     prior=None, padding=DEFAULT_PADDING):
    """Sampling-variance check of MHB against the inverse Fisher information.

    Simulates ``reps`` clean datasets from f_theta0, fits the MLE on each
    and MHB on all at once, as the bootstrap fits its resamples: the
    datasets are stacked into one (reps, n) matrix, set up as the rows of
    the setup of a single fit (see ``_mhb_many``), and fit from their
    moment starts as the rows of one ``mhd_rows`` call on one grid, each in
    its own unit-scale box, whatever the prior.  A failed MHB fit, or else
    a NaN or infinite estimate, is the row's ``error`` and leaves that
    estimate out of the row; a unit-scale box that is empty, such as a
    sigma ceiling below the ``unit_box`` floor of 1e-12, raises
    ``ValueError`` naming it.  Compares the empirical variance of sqrt(n)
    (theta_hat - theta0) with the Cramer-Rao diagonal, computed before any
    replicate is drawn.  A count ``n`` or ``reps`` that is not an integer
    (see ``estimators._count``), a ``theta0`` without a finite mu and a
    finite sigma > 0, or whose ``plausible_support`` is not a finite
    interval, or ``n`` below the family's dimension + 1, raises
    ``ValueError`` before any replicate runs, and a singular Fisher
    information ``LinAlgError``.
    """
    n, reps = _count("n", n), _count("reps", reps)
    if reps < 100:
        raise ValueError("efficiency study needs reps >= 100")
    family = family or GaussianFamily()
    if n < family.dim + 1:
        raise ValueError(f"need at least {family.dim + 1} observations per replicate, got n={n!r}")
    prior = prior or HistogramPrior.fixed()
    seed = _seed_of(rng)
    theta0 = _true_theta(theta0)
    _plausible_support(family, theta0, f"theta0 {theta0.tolist()}", "Fisher information")
    target = np.diag(np.linalg.inv(fisher_information(family, theta0)))
    datasets = np.array([family.sample(theta0, n, worker_rng(seed, r)) for r in range(reps)])
    rows = []
    for rep, (data, fit) in enumerate(zip(datasets, _mhb_many(datasets, prior, family,
                                                               padding))):
        row = {"rep": rep, "n": n}
        for est, theta in (("mhb", fit), ("mle", family.mle(data))):
            error = theta if isinstance(theta, str) else _non_finite(est, theta)
            if error is None:
                row[est] = [float(v) for v in theta]
            else:
                row.setdefault("error", error)
        rows.append(row)

    summary = {"n": n, "reps": reps,
               "crlb_diag": [float(v) for v in target]}
    checks = {}
    for est in ("mhb", "mle"):
        thetas = np.asarray([row[est] for row in rows if est in row])
        summary[f"{est}_failures"] = reps - len(thetas)
        if len(thetas) < 2:   # no sample variance
            continue
        zscores = math.sqrt(n) * (thetas - theta0)
        var = zscores.var(axis=0, ddof=1)
        summary[f"{est}_var"] = [float(v) for v in var]
        summary[f"{est}_var_ratio"] = [float(v) for v in var / target]
        summary[f"{est}_mean"] = [float(v) for v in thetas.mean(axis=0)]
    # with fewer than two MHB fits every ratio check fails
    ratios = summary.get("mhb_var_ratio")
    for i in range(len(theta0)):
        checks[f"mhb_var_ratio_{i}_in_band"] = (ratios is not None
                                                and RATIO_BAND[0] <= ratios[i] <= RATIO_BAND[1])
    grid = [{"n": n}]
    return StudyReport(name="efficiency", grid=grid, rows=rows, summary=summary,
                       checks=checks, seed=seed,
                       config={"theta0": [float(v) for v in theta0],
                               "reps": reps, "n": n,
                               "ratio_band": list(RATIO_BAND)})


def _robustness_rep(rep, seed, family, theta, alpha, z_grid, n, epsilon, prior,
                    padding, estimators, n_samples_bmh):
    """Rows of replicate ``rep``, one per estimator and z.  MHB and BMH finish
    from one ``_setup`` of each dataset, made on its first mhb or bmh row; a
    setup error recurs on the other row, an unconverged anchor fails mhb alone."""
    rng = worker_rng(seed, rep)
    m = math.ceil(alpha * n)
    clean = family.sample(theta, n - m, rng)
    blip_unit = rng.uniform(-1.0, 1.0, m)
    bmh_seed = rng.integers(2 ** 31)
    rows = []
    for zi, z in enumerate(z_grid):
        data = np.concatenate([clean, z + epsilon * blip_unit]) if m else clean
        setup = None
        for est in estimators:
            row = {"rep": rep, "z": float(z), "estimator": est}
            try:
                if est == "mle":
                    theta_hat = family.mle(data)
                else:
                    setup = setup or _setup(data, prior, family, padding)
                    theta_hat = (_mhb_finish(setup, data, prior, family, padding).theta_hat
                                 if est == "mhb" else _bmh_finish(
                                     setup, family, n_samples_bmh, worker_rng(bmh_seed, zi)).eap)
                error = abs(float(theta_hat[0]) - float(theta[0]))
                reason = _non_finite(est, theta_hat)
                if reason or not math.isfinite(error):
                    raise ValueError(reason or f"{est} location error {error!r} is not finite")
                row["theta_hat"] = [float(v) for v in theta_hat]
                row["abs_location_error"] = error
            except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
                row["error"] = str(exc)
            rows.append(row)
    return rows


def robustness_sweep(family=None, theta=(0.0, 1.0), alpha=0.1,
                     z_grid=(5.0, 20.0, 50.0), n=500, reps=50, rng=None,
                     prior=None, padding=DEFAULT_PADDING, epsilon=None,
                     estimators=("mhb", "bmh", "mle"), n_samples_bmh=200, workers=1):
    """Gross-error sweep over increasing outlier locations.

    Every replicate draws one clean sample and one set of blip positions
    and reuses them across the whole z grid, so differences along z are
    not confounded by sampling noise.  Exactly ceil(alpha * n) points are
    gross errors.  ``workers`` processes (0 = all cores) fit the
    replicates; the report does not depend on their number.  An empty
    ``z_grid`` or ``estimators``, a ``z_grid`` that is not finite and
    strictly ascending, a name other than mhb, bmh and mle, a ``theta``
    without a finite mu and a finite sigma > 0, an ``epsilon`` that is not
    positive and finite, a count ``n``, ``reps`` or ``n_samples_bmh`` that
    is not an integer (see ``estimators._count``), ``reps`` below 1, ``n``
    below the family's dimension + 1, or ``n_samples_bmh`` below 100 with
    bmh swept raises ``ValueError`` before any replicate runs.  A fit that
    fails, or a NaN or infinite estimate or location error, is its row's
    ``error``.
    """
    n, reps = _count("n", n), _count("reps", reps)
    n_samples_bmh = _count("n_samples_bmh", n_samples_bmh)
    z_grid = [float(z) for z in z_grid]
    if not (z_grid and np.all(np.isfinite(z_grid)) and np.all(np.diff(z_grid) > 0)):
        raise ValueError("z_grid must be non-empty, finite and strictly ascending")
    estimators = tuple(estimators)
    if not estimators or not set(estimators) <= {"mhb", "bmh", "mle"}:
        raise ValueError("estimators must be a non-empty list drawn from mhb, bmh, mle, "
                         f"got {list(estimators)}")
    family = family or GaussianFamily()
    prior = prior or HistogramPrior.fixed()
    theta = _true_theta(theta)
    if epsilon is None:
        epsilon = 0.01 * float(theta[1])
    if not (0.0 <= alpha < 1.0):
        raise ValueError("contamination fraction alpha must lie in [0, 1)")
    if not 0 < epsilon < np.inf:   # a NaN fails too
        raise ValueError(f"blip half-width epsilon must be positive and finite, got {epsilon!r}")
    if workers < 0:
        raise ValueError(f"worker count must be >= 0, got {workers}")
    if reps < 1:
        raise ValueError(f"need at least 1 replicate, got reps={reps!r}")
    if n < family.dim + 1:
        raise ValueError(f"need at least {family.dim + 1} observations per replicate, got n={n!r}")
    if "bmh" in estimators and n_samples_bmh < 100:
        raise ValueError(f"posterior sampling needs n_samples_bmh >= 100, got {n_samples_bmh!r}")
    seed = _seed_of(rng)
    fit_rep = functools.partial(
        _robustness_rep, seed=seed, family=family, theta=theta, alpha=float(alpha),
        z_grid=z_grid, n=n, epsilon=float(epsilon), prior=prior, padding=padding,
        estimators=estimators, n_samples_bmh=n_samples_bmh)
    rows = [row for chunk in _map_tasks(fit_rep, range(reps),
                                        workers or os.cpu_count() or 1)
            for row in chunk]

    summary = {"alpha": float(alpha), "n": n, "reps": reps,
               "epsilon": float(epsilon), "cells": {}}
    medians = {}
    for est in estimators:
        for z in z_grid:
            cell_rows = [row for row in rows if row["estimator"] == est and row["z"] == z]
            errs = [row["abs_location_error"] for row in cell_rows if "abs_location_error" in row]
            failed = sum("error" in row for row in cell_rows)
            median, mean = (float(overflow_safe(stat, errs)) if errs else None
                            for stat in (np.median, np.mean))
            cell = {"median_location_error": median, "mean_location_error": mean,
                    "n_failed": failed}
            summary["cells"][f"{est}@z={z:g}"] = cell
            medians[(est, z)] = cell["median_location_error"]

    checks = {}
    z_near, z_far = z_grid[0], z_grid[-1]
    if "mhb" in estimators:
        far, near = medians.get(("mhb", z_far)), medians.get(("mhb", z_near))
        checks["mhb_location_at_far_z"] = far is not None and far < FAR_Z_LOCATION_TOL
        if len(z_grid) > 1:
            checks["mhb_far_below_near"] = None not in (far, near) and far < near
    if "mle" in estimators:
        mle_far = medians.get(("mle", z_far))
        # mixture-mean bias of the MLE is about alpha * z at the far point
        checks["mle_biased_at_far_z"] = mle_far is not None and mle_far > 0.9 * alpha * z_far
    grid = [{"z": z} for z in z_grid]
    return StudyReport(name="robustness", grid=grid, rows=rows, summary=summary,
                       checks=checks, seed=seed,
                       config={"theta": [float(v) for v in theta],
                               "alpha": float(alpha), "z_grid": z_grid,
                               "n": n, "reps": reps,
                               "epsilon": float(epsilon),
                               "estimators": list(estimators)})


def _ks_normal(x, sd):
    """One-sample Kolmogorov-Smirnov statistic of ``x`` against N(0, sd^2):
    the largest gap between the empirical CDF, on either side of each of
    its steps, and the normal CDF; within 1e-15 of
    ``scipy.stats.kstest(x, "norm", args=(0, sd)).statistic``."""
    z = np.sort(x) / sd
    tail = _normal_tail(z)
    cdf = np.where(z > 0.0, 1.0 - tail, tail)
    m = len(cdf)
    return float(max((np.arange(1.0, m + 1) / m - cdf).max(),
                     (cdf - np.arange(0.0, m) / m).max()))


def bvm_diagnostic(data, prior=None, family=None, n_samples=2000, rng=None,
                   padding=DEFAULT_PADDING):
    """Bernstein-von-Mises check of a BMH posterior.

    Standardizes the parameter draws as sqrt(n) (theta - EAP) and compares
    them coordinatewise with N(0, V), V being the influence-function norm
    at the fitted model density: reports the posterior-sd over sqrt(V/n)
    ratio and the Kolmogorov-Smirnov statistic.  A fitted model whose
    plausible support is not a finite interval, or whose squared width
    overflows, raises ``ValueError`` naming the data range, after the draws
    and before V.
    """
    family = family or GaussianFamily()
    seed = _seed_of(rng)
    fit = bmh_fit(data, prior=prior, family=family, n_samples=n_samples,
                  rng=np.random.default_rng(seed), padding=padding)
    data = np.asarray(data, dtype=float)
    n = len(data)
    what = f"the model fit to data in [{float(data.min())!r}, {float(data.max())!r}]"
    support = _plausible_support(family, fit.eap, what, "asymptotic variance")
    if np.diff(support)[0] > math.sqrt(np.finfo(float).max):
        raise ValueError(f"{what} has a plausible support {support.tolist()} whose squared "
                         "width, the scale of its asymptotic variance, overflows")
    V = asymptotic_variance(family, fit.eap, g0=family.density(fit.eap)).V
    if not np.all(np.diag(V) > 0):
        raise RuntimeError("influence-norm variance matrix is singular")

    rows = []
    checks = {}
    degenerate = bool(np.any(fit.post_sd == 0.0))
    for i in range(len(fit.eap)):
        ref_sd = math.sqrt(V[i, i] / n)
        standardized = math.sqrt(n) * (fit.theta_samples[:, i] - fit.eap[i])
        if degenerate:
            row = {"coord": i, "ref_sd": ref_sd, "degenerate": True}
        else:
            ratio = float(fit.post_sd[i] / ref_sd)
            ks = _ks_normal(standardized, math.sqrt(V[i, i]))
            row = {"coord": i, "post_sd": float(fit.post_sd[i]),
                   "ref_sd": ref_sd, "sd_ratio": ratio, "ks_stat": ks,
                   "degenerate": False}
            checks[f"sd_ratio_{i}_in_band"] = SD_RATIO_BAND[0] <= ratio <= SD_RATIO_BAND[1]
            checks[f"ks_{i}_below_threshold"] = ks < KS_THRESHOLD
        rows.append(row)
    summary = {"n": int(n), "n_samples": int(n_samples),
               "eap": [float(v) for v in fit.eap],
               "post_sd": [float(v) for v in fit.post_sd],
               "V_diag": [float(v) for v in np.diag(V)],
               "degenerate": degenerate}
    return StudyReport(name="bvm", grid=[{"coord": i} for i in range(len(fit.eap))],
                       rows=rows, summary=summary, checks=checks, seed=seed,
                       config={"n_samples": int(n_samples),
                               "sd_ratio_band": list(SD_RATIO_BAND),
                               "ks_threshold": KS_THRESHOLD})
