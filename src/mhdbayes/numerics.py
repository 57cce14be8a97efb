"""Quadrature, derivative-free minimization, RNG plumbing and
overflow-safe statistics.

There is one quadrature rule, the 8-point Gauss-Legendre rule that
``composite_nodes`` lays on every panel.  ``minimize``, a single bounded
scipy Nelder-Mead run, is on no fit path: every fit is the damped Newton
of ``functional._newton_rows``.  It stays as a derivative-free reference
search for checking those fits, and ``perfbench/spans.py`` traces it by
name.  It imports ``scipy.optimize`` on its first call, about 0.5 s
(0.41-0.69 s on a 2-core x86-64 host, ``scipy.special`` included); no
fit loads that module.  Everything here is
deterministic given its inputs.  Study replication is driven by a
caller-supplied seed or ``numpy.random.Generator``, and ``worker_rng``
derives independent streams from one seed; the search draws no random
numbers.
"""

from __future__ import annotations

import math

import numpy as np


def worker_rng(seed, worker_index):
    """Independent stream for worker ``worker_index`` derived from ``seed``."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(worker_index))))


def overflow_safe(stat, x):
    """``stat(x)``, a statistic of the float array ``x`` that scales with it,
    as a mean, a median or a standard deviation does.  Where its value is
    not finite (or ``math.fsum`` overflows), it is ``stat`` of x scaled by
    a power of two into [-1, 1], scaled back, which is exact."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            out = stat(x)
            if np.isfinite(out).all():
                return out
        except OverflowError:
            pass
        e = math.frexp(float(np.abs(x).max()))[1]
        return np.ldexp(stat(np.ldexp(x, -e)), e)


# The one quadrature rule: 8-point Gauss-Legendre mapped to [0, 1], exact
# for polynomials of degree <= 15 on each panel; its weights sum to 1.
GL_ORDER = 8
_GL_X, _GL_W = np.polynomial.legendre.leggauss(GL_ORDER)
GL_NODES, GL_WEIGHTS = (_GL_X + 1.0) / 2.0, _GL_W / 2.0


def composite_nodes(edges):
    """Nodes and weights of the 8-point rule applied on every cell of ``edges``.

    ``edges`` is a strictly increasing 1-d array of panel boundaries.
    Returns flat arrays ``(x, w)`` with ``sum(w) == edges[-1] - edges[0]``.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2:
        raise ValueError("edges must be a 1-d array with at least two entries")
    widths = np.diff(edges)
    if not np.all(widths > 0):   # a NaN edge fails too
        raise ValueError("edges must be strictly increasing")
    x = (edges[:-1, None] + widths[:, None] * GL_NODES[None, :]).ravel()
    w = (widths[:, None] * GL_WEIGHTS[None, :]).ravel()
    return x, w


# Nelder-Mead settings of ``minimize``: iteration cap (function evaluations
# are capped at ten times it) and the simplex-diameter and function-spread
# tolerances.
MAX_ITERS = 2000
TOL_X = 1e-7
TOL_F = 1e-11


def _initial_simplex_finite(objective, x0, lo, hi):
    """Check the default Nelder-Mead start simplex has a finite vertex; a
    vertex outside the box counts as non-finite and is not evaluated."""
    vertices = [x0]
    for i in range(len(x0)):
        v = x0.copy()
        v[i] = v[i] * 1.05 if v[i] != 0 else 0.00025
        vertices.append(v)
    return any(np.all((lo <= v) & (v <= hi)) and np.isfinite(objective(v))
               for v in vertices)


def minimize(objective, x0, bounds):
    """Bounded Nelder-Mead from ``x0`` clipped to ``bounds``.

    scipy clips every simplex vertex to the box, so the objective is only
    evaluated inside it.  One run, no randomness; returns ``(argmin, fmin)``.
    """
    x0 = np.asarray(x0, dtype=float)
    lo = np.asarray([lb for lb, _ in bounds], dtype=float)
    hi = np.asarray([ub for _, ub in bounds], dtype=float)
    if np.any(lo >= hi):
        raise ValueError("each bound must satisfy lo < hi")
    start = np.clip(x0, lo, hi)
    if not _initial_simplex_finite(objective, start, lo, hi):
        raise ValueError("objective is non-finite at every initial simplex vertex")
    import scipy.optimize   # ~0.5 s with scipy.special, paid on the first call only
    res = scipy.optimize.minimize(
        objective, start, method="Nelder-Mead",
        bounds=scipy.optimize.Bounds(lo, hi),
        options=dict(xatol=TOL_X, fatol=TOL_F, maxiter=MAX_ITERS,
                     maxfev=10 * MAX_ITERS),
    )
    return res.x, float(res.fun)
