"""Runnable studies for the three empirical claims: gross-error
robustness, asymptotic efficiency, and the Bernstein-von-Mises check.

Replicates get independent RNG streams derived from the study seed and are
merged in replicate order, so reports are reproducible bit for bit given
{seed, config}.  Set the MHDBAYES_WORKERS environment variable (0 = all
cores) or pass ``workers`` to fan replicates out over processes.
"""

from __future__ import annotations

import csv
import io
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.stats

from .densities import GaussianFamily, MixtureDensity, UniformDensity
from .estimators import bmh_fit, mhb_fit
from .functional import fisher_information, influence_function, l_norm_sq
from .numerics import as_generator, resolve_workers, worker_rng
from .posterior import HistogramPrior
from .densities import DEFAULT_PADDING

# Pass bands of the study checks: the efficiency study's MHB variance over
# the Cramer-Rao bound, the robustness sweep's MHB median location error at
# the farthest z, and the BvM diagnostic's posterior-sd ratio and KS
# statistic.
RATIO_BAND = (0.84, 1.16)
FAR_Z_LOCATION_TOL = 0.05
SD_RATIO_BAND = (0.9, 1.1)
KS_THRESHOLD = 0.05


@dataclass(frozen=True)
class ContaminationSpec:
    """Gross-error mixture: (1 - alpha) f_theta + alpha * Uniform(z +- epsilon)."""

    theta: tuple
    alpha: float
    z: float
    epsilon: float

    def __post_init__(self):
        if not (0.0 <= self.alpha < 1.0):
            raise ValueError("contamination fraction alpha must lie in [0, 1)")
        if self.epsilon <= 0:
            raise ValueError("blip half-width epsilon must be positive")


def contaminated_density(spec, family=None):
    """Mixture density of the gross-error model; integrates to 1."""
    family = family or GaussianFamily()
    blip = UniformDensity(spec.z - spec.epsilon, spec.z + spec.epsilon)
    return MixtureDensity([(1.0 - spec.alpha, family.density(spec.theta)),
                           (spec.alpha, blip)])


def sample_contaminated(spec, family, n, rng):
    """Draw n points with exactly ceil(alpha * n) gross errors.

    The clean part is drawn first, so alpha = 0 consumes the identical RNG
    stream as a clean run with the same seed.
    """
    m = math.ceil(spec.alpha * n)
    clean = family.sample(spec.theta, n - m, rng)
    if m == 0:
        return clean
    gross = rng.uniform(spec.z - spec.epsilon, spec.z + spec.epsilon, m)
    return np.concatenate([clean, gross])


@dataclass
class StudyReport:
    """Grid sweep outcome: per-cell rows plus summary and pass/fail checks."""

    name: str
    grid: list
    rows: list
    summary: dict
    checks: dict
    seed: int
    wall_time_s: float
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
            "wall_time_s": self.wall_time_s,
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
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def _seed_of(rng):
    # studies key their reports on an integer seed; honor one if given,
    # otherwise draw a fresh one to embed in the report
    if rng is None:
        return int(np.random.default_rng().integers(2 ** 31))
    if isinstance(rng, (int, np.integer)):
        return int(rng)
    return int(as_generator(rng).integers(2 ** 31))


def _efficiency_rep(args):
    (rep, rng, family, theta0, n, prior, padding) = args
    data = family.sample(theta0, n, rng)
    row = {"rep": rep, "n": n}
    try:
        est = mhb_fit(data, prior=prior, family=family, padding=padding)
        row["mhb"] = [float(v) for v in est.theta_hat]
    except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        row["error"] = str(exc)
    row["mle"] = [float(v) for v in family.mle(data)]
    return row


def efficiency_study(family=None, theta0=(0.0, 1.0), n=2000, reps=200, rng=None,
                     prior=None, padding=DEFAULT_PADDING, workers=None):
    """Sampling-variance check of MHB against the inverse Fisher information.

    Simulates ``reps`` clean datasets from f_theta0, fits MHB and the MLE
    on each, and compares the empirical variance of sqrt(n) (theta_hat -
    theta0) with the Cramer-Rao diagonal.
    """
    if reps < 100:
        raise ValueError("efficiency study needs reps >= 100")
    family = family or GaussianFamily()
    prior = prior or HistogramPrior.fixed()
    seed = _seed_of(rng)
    theta0 = np.asarray(theta0, dtype=float)
    t0 = time.perf_counter()
    tasks = [(r, worker_rng(seed, r), family, theta0, int(n), prior, padding)
             for r in range(int(reps))]
    rows = _map_tasks(_efficiency_rep, tasks, resolve_workers(workers))

    target = np.diag(np.linalg.inv(fisher_information(family, theta0)))
    summary = {"n": int(n), "reps": int(reps),
               "crlb_diag": [float(v) for v in target]}
    checks = {}
    for est in ("mhb", "mle"):
        thetas = np.asarray([row[est] for row in rows if est in row])
        if not len(thetas):
            continue
        zscores = math.sqrt(n) * (thetas - theta0)
        var = zscores.var(axis=0, ddof=1)
        summary[f"{est}_var"] = [float(v) for v in var]
        summary[f"{est}_var_ratio"] = [float(v) for v in var / target]
        summary[f"{est}_mean"] = [float(v) for v in thetas.mean(axis=0)]
        summary[f"{est}_failures"] = int(reps - len(thetas))
    for i, ratio in enumerate(summary.get("mhb_var_ratio", [])):
        checks[f"mhb_var_ratio_{i}_in_band"] = RATIO_BAND[0] <= ratio <= RATIO_BAND[1]
    grid = [{"n": int(n)}]
    return StudyReport(name="efficiency", grid=grid, rows=rows, summary=summary,
                       checks=checks, seed=seed,
                       wall_time_s=time.perf_counter() - t0,
                       config={"theta0": [float(v) for v in theta0],
                               "reps": int(reps), "n": int(n),
                               "ratio_band": list(RATIO_BAND)})


def _robustness_rep(args):
    (rep, rng, family, theta, alpha, z_grid, n, epsilon, prior, padding,
     estimators, n_samples_bmh) = args
    m = math.ceil(alpha * n)
    clean = family.sample(theta, n - m, rng)
    blip_unit = rng.uniform(-1.0, 1.0, m)
    bmh_seed = rng.integers(2 ** 31)
    rows = []
    for zi, z in enumerate(z_grid):
        data = np.concatenate([clean, z + epsilon * blip_unit]) if m else clean
        for est in estimators:
            row = {"rep": rep, "z": float(z), "estimator": est}
            try:
                if est == "mhb":
                    fit = mhb_fit(data, prior=prior, family=family, padding=padding)
                    theta_hat = fit.theta_hat
                elif est == "bmh":
                    fit = bmh_fit(data, prior=prior, family=family,
                                  n_samples=n_samples_bmh,
                                  rng=worker_rng(bmh_seed, zi), padding=padding)
                    theta_hat = fit.eap
                elif est == "mle":
                    theta_hat = family.mle(data)
                else:
                    raise ValueError(f"unknown estimator {est!r}")
                row["theta_hat"] = [float(v) for v in theta_hat]
                row["abs_location_error"] = float(abs(theta_hat[0] - theta[0]))
            except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
                row["error"] = str(exc)
            rows.append(row)
    return rows


def robustness_sweep(family=None, theta=(0.0, 1.0), alpha=0.1,
                     z_grid=(5.0, 20.0, 50.0), n=500, reps=50, rng=None,
                     prior=None, padding=DEFAULT_PADDING, epsilon=None,
                     estimators=("mhb", "bmh", "mle"), n_samples_bmh=200, workers=None):
    """Gross-error sweep over increasing outlier locations.

    Every replicate draws one clean sample and one set of blip positions
    and reuses them across the whole z grid, so differences along z are
    not confounded by sampling noise.  Exactly ceil(alpha * n) points are
    gross errors.
    """
    z_grid = [float(z) for z in z_grid]
    if any(b <= a for a, b in zip(z_grid, z_grid[1:])):
        raise ValueError("z_grid must be strictly ascending")
    family = family or GaussianFamily()
    prior = prior or HistogramPrior.fixed()
    theta = np.asarray(theta, dtype=float)
    if epsilon is None:
        epsilon = 0.01 * float(theta[1])
    ContaminationSpec(theta=tuple(theta), alpha=alpha, z=z_grid[-1], epsilon=epsilon)
    seed = _seed_of(rng)
    t0 = time.perf_counter()
    tasks = [(r, worker_rng(seed, r), family, theta, float(alpha), z_grid, int(n),
              float(epsilon), prior, padding, tuple(estimators),
              int(n_samples_bmh))
             for r in range(int(reps))]
    rows = [row for chunk in _map_tasks(_robustness_rep, tasks, resolve_workers(workers))
            for row in chunk]

    summary = {"alpha": float(alpha), "n": int(n), "reps": int(reps),
               "epsilon": float(epsilon), "cells": {}}
    medians = {}
    for est in estimators:
        for z in z_grid:
            errs = [row["abs_location_error"] for row in rows
                    if row["estimator"] == est and row["z"] == z
                    and "abs_location_error" in row]
            failed = sum(1 for row in rows
                         if row["estimator"] == est and row["z"] == z and "error" in row)
            cell = {"median_location_error": float(np.median(errs)) if errs else None,
                    "mean_location_error": float(np.mean(errs)) if errs else None,
                    "n_failed": failed}
            summary["cells"][f"{est}@z={z:g}"] = cell
            medians[(est, z)] = cell["median_location_error"]

    checks = {}
    z_near, z_far = z_grid[0], z_grid[-1]
    if "mhb" in estimators:
        far = medians.get(("mhb", z_far))
        near = medians.get(("mhb", z_near))
        checks["mhb_location_at_far_z"] = far is not None and far < FAR_Z_LOCATION_TOL
        if len(z_grid) > 1:
            checks["mhb_far_below_near"] = (far is not None and near is not None
                                            and far < near)
    if "mle" in estimators:
        mle_far = medians.get(("mle", z_far))
        # mixture-mean bias of the MLE is about alpha * z at the far point
        checks["mle_biased_at_far_z"] = mle_far is not None and mle_far > 0.9 * alpha * z_far
    grid = [{"z": z} for z in z_grid]
    return StudyReport(name="robustness", grid=grid, rows=rows, summary=summary,
                       checks=checks, seed=seed,
                       wall_time_s=time.perf_counter() - t0,
                       config={"theta": [float(v) for v in theta],
                               "alpha": float(alpha), "z_grid": z_grid,
                               "n": int(n), "reps": int(reps),
                               "epsilon": float(epsilon),
                               "estimators": list(estimators)})


def bvm_diagnostic(data, prior=None, family=None, n_samples=2000, rng=None,
                   padding=DEFAULT_PADDING):
    """Bernstein-von-Mises check of a BMH posterior.

    Standardizes the parameter draws as sqrt(n) (theta - EAP) and compares
    them coordinatewise with N(0, V), V being the influence-function norm
    at the fitted model density: reports the posterior-sd over sqrt(V/n)
    ratio and the Kolmogorov-Smirnov statistic.
    """
    family = family or GaussianFamily()
    seed = _seed_of(rng)
    t0 = time.perf_counter()
    fit = bmh_fit(data, prior=prior, family=family, n_samples=n_samples,
                  rng=np.random.default_rng(seed), padding=padding)
    n = len(np.asarray(data))
    g0 = family.density(fit.eap)
    inf = influence_function(g0, family, fit.eap)
    V = l_norm_sq(inf.value, g0)
    if np.any(np.diag(V) <= 0):
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
            ks = float(scipy.stats.kstest(
                standardized, "norm", args=(0.0, math.sqrt(V[i, i]))).statistic)
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
                       wall_time_s=time.perf_counter() - t0,
                       config={"n_samples": int(n_samples),
                               "sd_ratio_band": list(SD_RATIO_BAND),
                               "ks_threshold": KS_THRESHOLD})
