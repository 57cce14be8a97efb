"""Quadrature, derivative-free minimization and RNG plumbing.

Everything here is deterministic given its inputs.  Study replication is
driven by a caller-supplied seed or ``numpy.random.Generator``; the
minimizer draws no random numbers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.optimize


def resolve_workers(workers=None):
    """Worker-process count: explicit argument, else MHDBAYES_WORKERS
    (0 means all cores), else 1."""
    if workers is None:
        workers = int(os.environ.get("MHDBAYES_WORKERS", "1"))
    if workers == 0:
        workers = os.cpu_count() or 1
    return max(1, int(workers))


def as_generator(rng=None):
    """Coerce ``rng`` (None, int seed, or Generator) to a Generator.

    The same integer seed always yields the same stream.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def worker_rng(seed, worker_index):
    """Independent stream for worker ``worker_index`` derived from ``seed``."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(worker_index))))


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes/weights normalized to the unit interval.

    ``nodes`` are strictly increasing in [0, 1] and ``weights`` sum to 1,
    so the rule integrates the constant 1 exactly on [0, 1].  ``order`` is
    the node count; degree <= 2*order - 1 polynomials are integrated
    exactly on a single panel.
    """

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if self.order < 1 or len(nodes) != self.order or len(weights) != self.order:
            raise ValueError("order must match the number of nodes and weights")
        if np.any(weights <= 0):
            raise ValueError("quadrature weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("quadrature weights must sum to 1 on [0, 1]")
        if np.any(np.diff(nodes) <= 0) or nodes[0] < 0 or nodes[-1] > 1:
            raise ValueError("nodes must be strictly increasing within [0, 1]")

    @classmethod
    def gauss_legendre(cls, order=8):
        x, w = np.polynomial.legendre.leggauss(int(order))
        return cls(nodes=(x + 1.0) / 2.0, weights=w / 2.0, order=int(order))


DEFAULT_RULE = QuadratureRule.gauss_legendre(8)


def composite_nodes(edges, rule=None):
    """Nodes and weights of ``rule`` applied on every cell of ``edges``.

    ``edges`` is a strictly increasing 1-d array of panel boundaries.
    Returns flat arrays ``(x, w)`` with ``sum(w) == edges[-1] - edges[0]``.
    """
    rule = rule or DEFAULT_RULE
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2:
        raise ValueError("edges must be a 1-d array with at least two entries")
    widths = np.diff(edges)
    if np.any(widths <= 0):
        raise ValueError("edges must be strictly increasing")
    x = (edges[:-1, None] + widths[:, None] * rule.nodes[None, :]).ravel()
    w = (widths[:, None] * rule.weights[None, :]).ravel()
    return x, w


# Nelder-Mead settings of ``minimize``: iteration cap (function evaluations
# are capped at ten times it) and the simplex-diameter and function-spread
# tolerances.
MAX_ITERS = 2000
TOL_X = 1e-7
TOL_F = 1e-11


def _initial_simplex_finite(objective, x0):
    """Check the default Nelder-Mead start simplex has a finite vertex."""
    vertices = [x0]
    for i in range(len(x0)):
        v = x0.copy()
        v[i] = v[i] * 1.05 if v[i] != 0 else 0.00025
        vertices.append(v)
    return any(np.isfinite(objective(v)) for v in vertices)


def minimize(objective, x0, bounds):
    """Bounded Nelder-Mead from ``x0`` clipped to ``bounds``.

    The objective sees +inf outside the bounds, and the result is clamped
    to them.  One run, no randomness; returns ``(argmin, fmin)``.
    """
    x0 = np.asarray(x0, dtype=float)
    lo = np.asarray([lb for lb, _ in bounds], dtype=float)
    hi = np.asarray([ub for _, ub in bounds], dtype=float)
    if np.any(lo >= hi):
        raise ValueError("each bound must satisfy lo < hi")

    def penalized(x):
        if np.any(x < lo) or np.any(x > hi):
            return np.inf
        return float(objective(x))

    start = np.clip(x0, lo, hi)
    if not _initial_simplex_finite(penalized, start):
        raise ValueError("objective is non-finite at every initial simplex vertex")
    res = scipy.optimize.minimize(
        penalized, start, method="Nelder-Mead",
        bounds=scipy.optimize.Bounds(lo, hi),
        options=dict(xatol=TOL_X, fatol=TOL_F, maxiter=MAX_ITERS,
                     maxfev=10 * MAX_ITERS),
    )
    return np.clip(res.x, lo, hi), float(res.fun)
