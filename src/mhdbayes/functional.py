"""The minimum Hellinger distance functional and its efficiency machinery.

``mhd`` computes T(g) = argmin_theta h(f_theta, g).  The efficient
influence function of T at a base density g0 with theta0 = T(g0) is

    value(x) = -M^{-1} sdot_theta0(x) / (2 sqrt(g0(x))) - center,

where M is the matrix integral of sddot_theta0 * sqrt(g0) and the center
makes the function integrate to zero against g0.  Its centered second
moment under g0 (the L-norm squared) is the asymptotic variance of T and
equals the inverse Fisher information when g0 is in the model family.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from functools import cache

import numpy as np

from .densities import (
    _UNIT_BOUNDS,
    GaussianFamily,
    HistogramDensity,
    _checked_values,
    grid_edges,
    histogram_nodes,
    integration_edges,
)
from .numerics import composite_nodes


@dataclass
class MhdResult:
    """Outcome of one minimum-Hellinger-distance fit; ``h_min`` and ``first_order_norm``
    are those of the last point evaluated, at most 1e-9 from ``theta_hat``."""

    theta_hat: np.ndarray
    h_min: float
    converged: bool
    # Hellinger values computed: Newton's start and each of its trial steps
    n_evals: int
    first_order_norm: float


# First-order tolerance of the convergence rule of ``_newton_rows``, and its
# caps on Newton iterations and on step halvings per iteration.
_FOC_TOL = 1e-3
_NEWTON_ITERS = 50
_NEWTON_HALVINGS = 40

# A fit at h = sqrt(2) has no overlap with g: its first-order condition can
# vanish only because f_theta underflows on g's support, so no fit above
# this level is flagged converged.
_H_NO_OVERLAP = np.sqrt(2.0) - 1e-6

# Seed grid of ``mhd``: 41 mu values over the unit window, 31 sigma values
# geometric from the unit sigma floor (at least 1e-4) to its ceiling, scored
# on a regular reference grid of 100 cells.
_SEED_MU = np.linspace(0.0, 1.0, 41)
_SEED_SIGMA = np.geomspace(max(_UNIT_BOUNDS[1][0], 1e-4), _UNIT_BOUNDS[1][1], 31)
_SEED_CELLS = 100

# Cap on rows x cells in one block of ``mhd_rows``; it bounds the (rows, k + 1)
# edge temporaries of the closed-form ``histogram_bc``, and with them peak
# memory, to a few MB, while larger blocks pay the per-call overhead of each
# Newton iteration fewer times.  BMH(2000) on Newcomb (best of 15 runs in each of
# 4 alternating processes, 2-core x86-64 host) takes 38-45 ms at this size,
# 43-49 ms at half of it and 40-47 ms at twice it; its peak traced allocation is
# 4.1 MiB, 3.2 MiB at half and 6.5 MiB at twice.
ROW_BLOCK_ELEMENTS = 1 << 15


def _prepared_nodes(g):
    """Quadrature nodes and weights over g's own window, and sqrt(g) at the
    nodes.  A histogram's heights are gathered at the node cells of
    :func:`~mhdbayes.densities.histogram_nodes` over its edges.  Any other g
    is integrated on the panels of
    :func:`~mhdbayes.densities.integration_edges` over ``g.support``; a g
    without one, such as a bare callable, is an error."""
    if isinstance(g, HistogramDensity):
        x, w, cell = histogram_nodes(g.edges.tobytes())
        vals = g.heights[cell]
    else:
        support = getattr(g, "support", None)
        if support is None:
            raise ValueError("g carries no support to integrate over (a bare callable has none)")
        x, w = composite_nodes(integration_edges(support, (g,)))
        vals = g.pdf(x)
    return x, w, np.sqrt(_checked_values("g", vals, x))


def _check_box(lo, hi, rows):
    """The box rule of ``mhd`` and ``mhd_rows``: refuse a box [``lo``, ``hi``],
    shape (rows, p), with a coordinate not finite with lo < hi (NaN too),
    naming it, and its row when ``rows`` is true."""
    ok = np.isfinite(lo) & np.isfinite(hi) & (lo < hi)
    if not ok.all():
        r, j = np.argwhere(~ok)[0]
        row = f" of row {r}" if rows else ""
        raise ValueError(f"parameter box coordinate {j}{row} needs finite lo < hi, "
                         f"got [{float(lo[r, j])!r}, {float(hi[r, j])!r}]")


def mhd(g, family, x0, lo, hi):
    """Minimize the Hellinger distance between f_theta and ``g`` over theta
    in the box [``lo``, ``hi``], shape (p,) each, as ``mhd_rows`` takes it.

    The Bhattacharyya coefficient is integrated on the Gauss-Legendre nodes
    of ``_prepared_nodes``: 32 uniform panels refined at g's breakpoints,
    over the edges of a histogram ``g`` and otherwise over ``g.support``.
    The damped Newton that also solves ``mhd_rows`` maximizes it on those
    nodes, with one ``family.node_bc`` call per trial point (one
    ``sqrt_pdf`` pass for a Gaussian family), and decides
    ``converged`` (see ``_newton_rows``), so a bound-pinned minimizer or a
    fit with no overlap with ``g`` is flagged, never silently returned.
    A box not finite with lo < hi is refused.  Newton starts at ``x0``
    clipped to the box; for a histogram ``g`` and a Gaussian family, at the
    best of that point and the seed grid instead, the rule ``mhd_rows``
    re-seeds its rows with (see ``_grid_seeds``).  ``n_evals`` counts the
    Hellinger values Newton computes on the nodes, at the start and at each
    trial step, but not at a final move below 1e-9 (see ``MhdResult``).
    """
    # the one box, as one row
    lo, hi = np.array([lo, hi], dtype=float)[:, None]
    _check_box(lo, hi, rows=False)
    x, w, sqrt_g = _prepared_nodes(g)
    # one row of node coefficients; mhd fits a single row
    wg = (w * sqrt_g)[None]
    n_evals = 0

    def evaluate(rows, theta):
        nonlocal n_evals
        n_evals += len(rows)
        return family.node_bc(_columns(theta), x, wg)

    start = np.minimum(np.maximum(np.asarray(x0, dtype=float)[None], lo), hi)
    if isinstance(g, HistogramDensity) and isinstance(family, GaussianFamily):
        start = _grid_seeds(g.weights[None], g.edges, family, start, lo, hi)
    theta, h, foc, converged = (v[0] for v in _newton_rows(evaluate, start, lo, hi))
    return MhdResult(theta_hat=theta, h_min=float(h), converged=bool(converged),
                     n_evals=n_evals, first_order_norm=float(foc))


@cache
def _seed_table():
    """Gaussian cell masses of sqrt(f_theta) on the reference grid at every
    seed, shape (seeds, ``_SEED_CELLS``), and the seeds, shape (seeds, 2);
    built on first use and read-only.  One block per mu value keeps the
    temporaries of the cell masses, and with them peak memory, small."""
    seeds = np.stack(np.meshgrid(_SEED_MU, _SEED_SIGMA, indexing="ij"), axis=-1).reshape(-1, 2)
    family = GaussianFamily()
    table = np.concatenate([family.cell_sqrt_masses(_columns(block), grid_edges(_SEED_CELLS))
                            for block in np.split(seeds, len(_SEED_MU))])
    table.flags.writeable = seeds.flags.writeable = False
    return table, seeds


def _seeds_inside(lo, hi):
    """Which seeds of ``_seed_table`` lie in each row's box [``lo``, ``hi``],
    shape (rows, seeds).  The seeds are the product of ``_SEED_MU`` and
    ``_SEED_SIGMA``, so a row's mask is the outer product of its mu and
    sigma tests."""
    mu_in = (_SEED_MU >= lo[:, :1]) & (_SEED_MU <= hi[:, :1])
    sigma_in = (_SEED_SIGMA >= lo[:, 1:]) & (_SEED_SIGMA <= hi[:, 1:])
    return (mu_in[:, :, None] & sigma_in[:, None, :]).reshape(len(lo), -1)


def _grid_seeds(weights, edges, family, starts, lo, hi):
    """Newton starts of grid-seeded fits of a Gaussian ``family``: for each
    row of cell ``weights`` on the one grid ``edges``, shape (k + 1,), the
    candidate with the largest Bhattacharyya coefficient among that row's
    start in ``starts`` and the seeds of ``_seed_table``, all within the
    row's box: ``lo`` and ``hi``, shape (rows, p), clip the start and
    exclude the seeds outside.

    Each row is re-binned onto the reference grid through its CDF on the
    edges, which is exact for a histogram and the identity on the 100-cell
    grid, and all rows are scored against every seed by one matrix product
    on the closed-form cell masses.
    """
    table, seeds = _seed_table()
    ref = grid_edges(_SEED_CELLS)
    cdf = np.zeros((len(weights), weights.shape[1] + 1))
    np.cumsum(weights, axis=1, out=cdf[:, 1:])
    rebinned = np.diff([np.interp(ref, edges, c) for c in cdf], axis=1)
    sqrt_heights = np.sqrt(np.maximum(rebinned, 0.0) * _SEED_CELLS)
    scores = sqrt_heights @ table.T
    scores[~_seeds_inside(lo, hi)] = -np.inf
    best = scores.argmax(axis=1)
    starts = np.minimum(np.maximum(starts, lo), hi)
    own = np.einsum("rk,rk->r", family.cell_sqrt_masses(_columns(starts), ref), sqrt_heights)
    keep = own >= scores.max(axis=1)
    return np.where(keep[:, None], starts, seeds[best])


def mhd_rows(weights, edges, family, theta0, lo, hi):
    """Minimum-Hellinger fits of many histograms at once, started at ``theta0``
    and kept in the parameter box [``lo``, ``hi``].

    ``weights`` holds one row of cell weights per histogram, all on the one
    finite, strictly increasing grid ``edges``, shape (k + 1,); histograms
    on different grids are fit on a common refinement of them, on which
    each is the same density.  ``theta0`` and the box bounds ``lo`` and ``hi``
    are each one vector for every row, shape (p,), or one per row, shape
    (rows, p); a box not finite with lo < hi is refused, naming its row and
    coordinate.  The ``bounds`` of ``family`` are not read, and a start
    outside its row's box is clipped into it.  The fits run on the edges,
    with no quadrature of their own: ``family.histogram_bc`` gives a row's
    Bhattacharyya coefficient with f_theta, the dot product of its sqrt
    cell heights with the cell integrals of sqrt(f_theta), together with
    its gradient and Hessian.  Rows are solved in blocks of at most
    ``ROW_BLOCK_ELEMENTS`` rows x cells by the damped Newton of ``mhd``
    (see ``_newton_rows``), which also decides each row's ``converged``
    flag; a start shared by a whole block is evaluated once, as one theta
    row.  For a Gaussian family, rows left unconverged are solved once
    more from the grid seed of ``mhd`` (see ``_grid_seeds``).  Returns the
    minimizers, shape (rows, p), and the flags; a row still unconverged is
    reported as such.
    """
    weights, edges = np.asarray(weights, dtype=float), np.asarray(edges, dtype=float)
    if (weights.ndim != 2 or edges.shape != (weights.shape[1] + 1,)
            or not (np.all(np.isfinite(edges)) and np.all(np.diff(edges) > 0))):
        raise ValueError("need (rows, k) weights on one finite, strictly increasing grid of "
                         f"k + 1 edges, got shapes {weights.shape} and {edges.shape}")
    widths = np.diff(edges)
    size = max(1, ROW_BLOCK_ELEMENTS // len(widths))
    shape = (len(weights), np.shape(lo)[-1])
    lo, hi = np.broadcast_to(lo, shape), np.broadcast_to(hi, shape)
    _check_box(lo, hi, rows=True)

    def solve(weights, theta, lo, hi):
        converged = np.empty(len(weights), dtype=bool)
        for b in range(0, len(weights), size):
            block = slice(b, b + size)
            sh = np.sqrt(_checked_values("g", weights[block] / widths, edges[:-1]))
            theta[block], _, _, converged[block] = _newton_rows(
                lambda rows, t, sh=sh: family.histogram_bc(_columns(t), edges, sh[rows]),
                theta[block], lo[block], hi[block])
        return theta, converged

    start = np.clip(np.broadcast_to(theta0, shape), lo, hi)
    theta, converged = solve(weights, start.copy(), lo, hi)
    retry = np.flatnonzero(~converged)
    if len(retry) and isinstance(family, GaussianFamily):
        box = lo[retry], hi[retry]
        seeds = _grid_seeds(weights[retry], edges, family, start[retry], *box)
        theta[retry], converged[retry] = solve(weights[retry], seeds, *box)
    return theta, converged


def _columns(theta):
    """Rows of parameters as a sequence of (rows, 1) component columns."""
    return theta.T[:, :, None]


def _hellinger(bc):
    """Hellinger values of a row of Bhattacharyya coefficients ``bc``.
    Cauchy-Schwarz caps a coefficient at 1; a row beyond that no longer
    resolves f_theta (e.g. a spike between quadrature nodes) and gets +inf."""
    h = 2.0 - 2.0 * bc
    np.sqrt(np.maximum(h, 0.0, out=h), out=h)
    h[bc > 1.0 + 1e-9] = np.inf
    return h


def _norms(v):
    """Euclidean norms of the rows of ``v``."""
    return np.sqrt((v * v).sum(axis=1))


def _solve_rows(jac, grad):
    """Row-wise solutions of jac @ step = grad, and which rows have one.  A
    row whose jac LAPACK finds singular (an exactly zero pivot, e.g. f_theta
    underflowing on the whole support) or whose step is not finite gets a
    NaN step, so it does not stop the others; a stack that holds a singular
    row is solved again row by row."""
    try:
        step = np.linalg.solve(jac, grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        step = np.full(grad.shape, np.nan)
        for r, (a, b) in enumerate(zip(jac, grad)):
            with contextlib.suppress(np.linalg.LinAlgError):
                step[r] = np.linalg.solve(a, b)
    formed = np.isfinite(step).all(axis=1)
    step[~formed] = np.nan
    return step, formed


def _newton_rows(evaluate, theta, lo, hi):
    """Damped Newton on the first-order condition of every row, and the
    one convergence rule of ``mhd`` and ``mhd_rows``.

    ``evaluate(rows, theta)`` returns, for the rows of index array ``rows`` at
    parameters ``theta`` (one row each, or one row for all: a start shared by
    every row is evaluated so), their Bhattacharyya coefficients, gradients and
    Hessians.  ``lo`` and ``hi``, shape (rows, p), are each row's parameter
    box, which clips every trial point.  Each trial point is evaluated once: an
    accepted trial's gradient and Hessian give the next Newton step.  A row
    whose Newton move -step, or d = clip(t - step) - t in its box, cannot raise
    its coefficient (gradient . d <= 0, e.g. where its Jacobian is indefinite)
    moves along its gradient over the Frobenius norm of its Jacobian instead.  A
    row stops before any trial when its gradient vanishes, its Jacobian is
    singular, or its move still cannot raise its coefficient (the box stops the
    gradient too) or is below 1e-14.  Otherwise it takes the step and halves it
    until its own Hellinger value does not increase (within 1e-10 roundoff
    slack); it also stops when its accepted move falls below 1e-14 or no
    halving helps.  A row below ``_FOC_TOL`` whose last trial was a full step
    takes a Newton move below 1e-9 unevaluated and stops: the next would be
    at roundoff.  ``theta`` is updated in place.  Returns the rows' parameters,
    the Hellinger values and first-order norms at their last evaluated points,
    and ``converged`` flags.  A row is converged when its first-order norm is
    below ``_FOC_TOL``, a Newton step could be formed for it (finite start
    value, non-singular Jacobian; a vanishing gradient may otherwise only mean
    f_theta underflows on its support), its Hellinger value is below
    ``_H_NO_OVERLAP`` and the Hessian at its last evaluated point is negative
    definite (a saddle or a minimum of the coefficient is not converged).
    """
    shared = (theta == theta[:1]).all()
    bc, grad, hess = evaluate(np.arange(len(theta)), theta[:1] if shared else theta)
    h = _hellinger(bc)
    # first-order norm at each row's current theta
    foc = _norms(grad)
    stuck = ~np.isfinite(h)
    full = np.zeros(len(theta), dtype=bool)  # last trial accepted as a full step
    active = (~stuck).nonzero()[0]
    # ``take`` with integer indices selects rows of the (rows, p) arrays: on
    # few rows it costs a third of fancy or boolean indexing
    for _ in range(_NEWTON_ITERS):
        if not len(active):
            break
        t, g = theta.take(active, axis=0), grad.take(active, axis=0)
        jac = hess.take(active, axis=0)
        step, formed = _solve_rows(jac, g)
        stuck[active[~formed]] = True
        row_lo, row_hi = lo.take(active, axis=0), hi.take(active, axis=0)
        cand = np.minimum(np.maximum(t - step, row_lo), row_hi)
        move = cand - t
        ascent = (g * move).sum(axis=1)
        # a Newton move that cannot raise the coefficient (an indefinite
        # Jacobian, or the box) gives way to a step along the gradient
        downhill = (ascent <= 0.0) | ((g * step).sum(axis=1) >= 0.0)
        if downhill.any():
            step[downhill] = -g[downhill] / np.sqrt((jac[downhill] ** 2).sum(axis=(1, 2)))[:, None]
            cand = np.minimum(np.maximum(t - step, row_lo), row_hi)
            move = cand - t
            ascent = (g * move).sum(axis=1)
        length = _norms(move)
        moving = formed & (foc[active] >= 1e-13) & (ascent > 0.0) & (length >= 1e-14)
        # a converged row's sub-resolution Newton move after a full step
        last = moving & full[active] & ~downhill & (foc[active] < _FOC_TOL) & (length < 1e-9)
        theta[active[last]] = cand[last]
        keep = (moving & ~last).nonzero()[0]
        active, t, step, cand = (active[keep], t.take(keep, axis=0), step.take(keep, axis=0),
                                 cand.take(keep, axis=0))
        if not len(active):
            break
        pending = np.arange(len(active))
        for halving in range(_NEWTON_HALVINGS):
            rows = active[pending]
            if halving:
                cand = np.minimum(np.maximum(t.take(pending, axis=0) - step.take(pending, axis=0),
                                             lo.take(rows, axis=0)), hi.take(rows, axis=0))
            bc_new, grad_new, hess_new = evaluate(rows, cand)
            h_new = _hellinger(bc_new)
            ok = np.isfinite(h_new) & (h_new <= h[rows] + 1e-10)
            acc = ok.nonzero()[0]
            taken = rows[acc]
            theta[taken], grad[taken], hess[taken] = (
                cand.take(acc, axis=0), grad_new.take(acc, axis=0), hess_new.take(acc, axis=0))
            h[taken] = np.minimum(h[taken], h_new[acc])
            foc[taken] = _norms(grad_new)[acc]
            full[taken] = not halving
            if len(acc) == len(rows):
                break
            pending = pending[~ok]
            step[pending] *= 0.5
        # a full step moves its row by at least 1e-14 (tested before the
        # trial), so only after a halving can a row have moved less: such
        # rows stop, and so do rows that found no non-increasing step
        if halving:
            active = active[_norms(theta.take(active, axis=0) - t) >= 1e-14]
    converged = (foc < _FOC_TOL) & ~stuck & (h < _H_NO_OVERLAP)
    # only a negative definite Hessian makes a stationary point a maximum
    rows = converged.nonzero()[0]
    converged[rows] = np.linalg.eigvalsh(hess.take(rows, axis=0)).max(axis=-1) < 0.0
    return theta, h, foc, converged


@dataclass
class InfluenceFunction:
    """Efficient influence function of T at a base density.

    ``value(x)`` returns the p-vector influence at each abscissa, centered
    so it integrates to zero against the base density; points where the
    base density vanishes contribute nothing to any such integral and are
    mapped to zero.
    """

    base_density: object
    family: object
    theta: np.ndarray
    normalizer: np.ndarray
    center: np.ndarray

    def value(self, x):
        x = np.asarray(x, dtype=float)
        g0 = np.asarray(self.base_density.pdf(x), dtype=float)
        grads = self.family.sqrt_grad(self.theta, x)
        out = np.zeros(x.shape + (len(self.theta),))
        pos = g0 > 0
        ratio = grads[pos] / (2.0 * np.sqrt(g0[pos]))[:, None]
        out[pos] = ratio @ self.normalizer.T - self.center
        return out


def influence_function(g0, family, theta0):
    """Efficient influence function of T at ``g0`` with theta0 = T(g0).

    The (vanishing) remainder term of the defining expansion is dropped;
    for vector parameters the scalar reciprocal becomes the inverse of the
    curvature matrix integral(sddot * sqrt(g0)), which must be well
    conditioned.  The integral runs over the nodes ``mhd`` takes for
    ``g0``: the histogram's own edges, or ``g0.support``.
    """
    theta0 = np.asarray(theta0, dtype=float)
    x, w, sqrt_g0 = _prepared_nodes(g0)
    _, grad, curvature = family.node_bc(theta0, x, w * sqrt_g0)
    svals = np.linalg.svd(curvature, compute_uv=False)
    # relative to the largest, so the test does not depend on the scale;
    # written so that a zero curvature fails too
    if not svals[-1] > 1e-12 * svals[0]:
        raise RuntimeError(
            f"curvature matrix is singular (smallest singular value {svals[-1]:.3e})")
    normalizer = -np.linalg.inv(curvature)
    # center = integral of the raw influence against g0; the raw/g0 product
    # collapses to sdot * sqrt(g0) / 2, so no ratio is ever formed.
    center = normalizer @ (grad / 2.0)
    return InfluenceFunction(base_density=g0, family=family, theta=theta0,
                             normalizer=normalizer, center=center)


def l_norm_sq(q, g0):
    """Centered second moment of ``q`` under ``g0``.

    Returns a scalar for scalar-valued ``q`` and the full outer-product
    matrix for vector-valued ``q``.  The nodes are those ``mhd`` and
    :func:`influence_function` take for ``g0``.
    """
    x, w, sqrt_g0 = _prepared_nodes(g0)
    g0v = sqrt_g0 ** 2
    vals = np.asarray(q(x), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("q produced non-finite values on the support")
    scalar = vals.ndim == 1
    if scalar:
        vals = vals[:, None]
    wg = w * g0v
    mean = np.einsum("n,np->p", wg, vals)
    centered = vals - mean
    mat = np.einsum("n,np,nq->pq", wg, centered, centered)
    return float(mat[0, 0]) if scalar else mat


def fisher_information(family, theta):
    """Fisher information in sqrt-density form, 4 * integral(sdot sdot^T),
    over ``family.plausible_support(theta)``."""
    theta = np.asarray(theta, dtype=float)
    x, w = composite_nodes(integration_edges(family.plausible_support(theta)))
    with np.errstate(divide="ignore", invalid="ignore"):   # checked just below
        grads = family.sqrt_grad(theta, x)
    if not np.all(np.isfinite(grads)):
        raise ValueError("sqrt-density gradient is non-finite on the support")
    return 4.0 * np.einsum("n,np,nq->pq", w, grads, grads)


@dataclass
class AsymptoticVariance:
    """Influence-norm variance V, plus the Fisher inverse when the base
    density is the model itself (the two must then agree)."""

    V: np.ndarray
    fisher_inverse: np.ndarray | None = None


def asymptotic_variance(family, theta, g0=None):
    """Asymptotic variance of T at ``g0`` via the influence-function norm.

    With ``g0`` omitted the base density is the model f_theta and the
    inverse Fisher information is attached for comparison.
    """
    at_model = g0 is None
    if at_model:
        g0 = family.density(theta)
    inf = influence_function(g0, family, theta)
    V = l_norm_sq(inf.value, g0)
    fisher_inv = None
    if at_model:
        fisher_inv = np.linalg.inv(fisher_information(family, theta))
    return AsymptoticVariance(V=np.asarray(V), fisher_inverse=fisher_inv)
