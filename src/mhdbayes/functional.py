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

from dataclasses import dataclass

import numpy as np

from . import numerics
from .densities import _MIN_PANELS, _checked_values, _pdf_of, integration_edges
from .numerics import composite_nodes


@dataclass
class MhdResult:
    """Outcome of one minimum-Hellinger-distance fit."""

    theta_hat: np.ndarray
    h_min: float
    converged: bool
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

# Uniform panels of the influence-function, L-norm and Fisher quadratures.
_EFFICIENCY_PANELS = 64

# Cap on rows x cells in one block of ``mhd_rows``; it bounds the
# (rows, cells) temporaries of the cell masses and their derivatives, and
# with them peak memory, to a few MB.
ROW_BLOCK_ELEMENTS = 1 << 14


def _prepared_nodes(g, support, panels):
    x, w = composite_nodes(integration_edges(support, (g,), min_panels=panels))
    return x, w, np.sqrt(_checked_values("g", _pdf_of(g)(x), x))


def _resolve_support(g, support):
    if support is not None:
        return support
    s = getattr(g, "support", None)
    if s is None:
        raise ValueError("support must be given when g does not carry one")
    return s


def _box(family):
    if family.bounds is None:
        raise ValueError("family declares no parameter bounds")
    return np.asarray(family.bounds, dtype=float).T


def mhd(g, family, x0, support=None):
    """Minimize the Hellinger distance between f_theta and ``g`` over theta.

    The Bhattacharyya coefficient is integrated on Gauss-Legendre nodes
    over ``support`` (by default ``g.support``): 32 uniform panels refined
    at g's breakpoints.  One Nelder-Mead run from ``x0``
    (``numerics.minimize``) searches the family's ``bounds`` box; the
    damped Newton that also solves ``mhd_rows`` then polishes the
    minimizer on the same nodes and decides ``converged`` (see
    ``_newton_rows``), so a bound-pinned minimizer or a fit with no
    overlap with ``g`` is flagged, never silently returned.
    """
    support = _resolve_support(g, support)
    lo, hi = _box(family)
    x, w, sqrt_g = _prepared_nodes(g, support, _MIN_PANELS)
    wg = w * sqrt_g
    n_evals = [0]

    def objective(theta):
        n_evals[0] += 1
        bc = float(np.dot(wg, family.sqrt_pdf(theta, x)))
        if bc > 1.0 + 1e-9:
            # Cauchy-Schwarz caps the true coefficient at 1; beyond that the
            # quadrature no longer resolves f_theta (e.g. a spike between
            # nodes), so the point is treated as infeasible
            return np.inf
        return np.sqrt(max(0.0, 2.0 - 2.0 * bc))

    theta, h_min = numerics.minimize(objective, np.asarray(x0, dtype=float), family.bounds)

    def basis(theta, derivatives):
        if not derivatives:
            return family.sqrt_pdf(theta, x)
        grad = family.sqrt_grad(theta, x)
        return grad if derivatives == 1 else (grad, family.sqrt_hess(theta, x))

    theta, h, foc, converged, n_newton = _newton_rows(
        basis, wg[None], theta[None], lo, hi, np.array([h_min]))
    return MhdResult(theta_hat=theta[0], h_min=float(h[0]),
                     converged=bool(converged[0]), n_evals=n_evals[0] + n_newton,
                     first_order_norm=float(foc[0]))


def mhd_rows(weights, edges, family, theta0):
    """Minimum-Hellinger fits of many histograms at once, all started at ``theta0``.

    ``weights`` holds one row of cell weights per histogram, all on the
    cells of ``edges``.  A histogram's Bhattacharyya coefficient with
    f_theta is the dot product of its sqrt cell heights with the cell
    masses ``family.cell_sqrt_masses`` returns, so each fit runs on k + 1
    edge values, with no quadrature of its own.  Rows are solved in blocks
    of at most ``ROW_BLOCK_ELEMENTS`` rows x cells by the damped Newton of
    ``mhd`` (see ``_newton_rows``), which also decides each row's
    ``converged`` flag.  Returns the minimizers, shape (rows, p), and those
    flags.  No global search is made: a row that Newton cannot take to a
    stationary point from ``theta0`` is reported unconverged, for the
    caller to refit with ``mhd``.
    """
    lo, hi = _box(family)
    edges = np.asarray(edges, dtype=float)
    weights = np.asarray(weights, dtype=float)
    widths = np.diff(edges)
    start = np.clip(np.asarray(theta0, dtype=float), lo, hi)

    def basis(theta, derivatives):
        if not derivatives:
            return family.cell_sqrt_masses(theta, edges)
        _, grad, hess = family.cell_sqrt_masses(theta, edges, derivatives=True)
        return grad if derivatives == 1 else (grad, hess)

    theta = np.empty((len(weights), len(start)))
    converged = np.empty(len(weights), dtype=bool)
    size = max(1, ROW_BLOCK_ELEMENTS // len(widths))
    for b in range(0, len(weights), size):
        sh = np.sqrt(_checked_values("g", weights[b:b + size] / widths, edges[:-1]))
        t = np.tile(start, (len(sh), 1))
        theta[b:b + size], _, _, converged[b:b + size], _ = _newton_rows(
            basis, sh, t, lo, hi, _hellinger_rows(basis, sh, t))
    return theta, converged


def _columns(theta):
    """Rows of parameters as a sequence of (rows, 1) component columns."""
    return theta.T[:, :, None]


def _hellinger_rows(basis, coef, theta):
    """Per-row Hellinger objective of ``mhd`` (+inf where the basis no
    longer resolves f_theta)."""
    bc = np.einsum("rk,rk->r", coef, basis(_columns(theta), 0))
    h = np.sqrt(np.clip(2.0 - 2.0 * bc, 0.0, None))
    return np.where(bc > 1.0 + 1e-9, np.inf, h)


def _solve_rows(jac, grad):
    """Row-wise solutions of jac @ step = grad; NaN rows where jac is singular
    (e.g. f_theta underflowing on the whole support), so one such row does
    not stop the others."""
    singular = ~(np.abs(np.linalg.det(jac)) > 0.0)
    jac[singular] = np.eye(jac.shape[-1])
    step = np.linalg.solve(jac, grad[..., None])[..., 0]
    step[singular] = np.nan
    return step


def _newton_rows(basis, coef, theta, lo, hi, h):
    """Damped Newton on the first-order condition of every row, and the
    one convergence rule of ``mhd`` and ``mhd_rows``.

    Row r's Bhattacharyya coefficient is ``coef[r] @ basis(theta_r, 0)``:
    ``basis(columns, d)`` returns the basis values (d = 0), their
    first derivatives (d = 1) or the first and second derivatives (d = 2)
    at (rows, 1) parameter columns, with a leading row axis.  ``h`` holds
    the rows' Hellinger values at ``theta``.  Each row takes the Newton
    step and halves it until its own Hellinger value does not increase
    (within 1e-10 roundoff slack); a row stops when its gradient vanishes,
    its accepted move falls below 1e-14, no halving helps or its Jacobian
    is singular.  Returns the rows' parameters, Hellinger values,
    first-order norms, ``converged`` flags and the number of Hellinger
    evaluations made.  A row is converged when its first-order norm is
    below ``_FOC_TOL``, a Newton step could be formed for it (finite start
    value, non-singular Jacobian; a vanishing gradient may otherwise only
    mean f_theta underflows on its support) and its Hellinger value is
    below ``_H_NO_OVERLAP``.
    """
    stuck = ~np.isfinite(h)
    active = np.flatnonzero(~stuck)
    # first-order norm at each row's current theta; NaN until computed there
    foc = np.full(len(theta), np.nan)
    n_evals = 0
    for _ in range(_NEWTON_ITERS):
        if not len(active):
            break
        t, rows_c = theta[active], coef[active]
        dm, d2m = basis(_columns(t), 2)
        grad = np.einsum("rk,rkp->rp", rows_c, dm)
        jac = np.einsum("rk,rkpq->rpq", rows_c, d2m)
        foc[active] = np.linalg.norm(grad, axis=1)
        step = _solve_rows(jac, grad)
        formed = np.all(np.isfinite(step), axis=1)
        stuck[active[~formed]] = True
        keep = (foc[active] >= 1e-13) & formed
        active, t, step = active[keep], t[keep], step[keep]
        moved = np.zeros(len(active))
        pending = np.arange(len(active))
        for _ in range(_NEWTON_HALVINGS):
            if not len(pending):
                break
            rows = active[pending]
            cand = np.clip(t[pending] - step[pending], lo, hi)
            h_new = _hellinger_rows(basis, coef[rows], cand)
            n_evals += len(rows)
            ok = np.isfinite(h_new) & (h_new <= h[rows] + 1e-10)
            done = pending[ok]
            theta[rows[ok]] = cand[ok]
            foc[rows[ok]] = np.nan
            h[rows[ok]] = np.minimum(h[rows[ok]], h_new[ok])
            moved[done] = np.linalg.norm(cand[ok] - t[done], axis=1)
            pending = pending[~ok]
            step[pending] *= 0.5
        # rows still pending found no non-increasing step; they stop as well
        active = active[moved >= 1e-14]
    stale = np.isnan(foc)
    if np.any(stale):
        grad = np.einsum("rk,rkp->rp", coef[stale], basis(_columns(theta[stale]), 1))
        foc[stale] = np.linalg.norm(grad, axis=1)
    converged = (foc < _FOC_TOL) & ~stuck & (h < _H_NO_OVERLAP)
    return theta, h, foc, converged, n_evals


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

    def __call__(self, x):
        return self.value(x)


def influence_function(g0, family, theta0, support=None):
    """Efficient influence function of T at ``g0`` with theta0 = T(g0).

    The (vanishing) remainder term of the defining expansion is dropped;
    for vector parameters the scalar reciprocal becomes the inverse of the
    curvature matrix integral(sddot * sqrt(g0)), which must be well
    conditioned.
    """
    theta0 = np.asarray(theta0, dtype=float)
    support = _resolve_support(g0, support)
    x, w, sqrt_g0 = _prepared_nodes(g0, support, _EFFICIENCY_PANELS)
    wg = w * sqrt_g0
    curvature = np.einsum("n,npq->pq", wg, family.sqrt_hess(theta0, x))
    svals = np.linalg.svd(curvature, compute_uv=False)
    if svals[-1] < 1e-12 * max(svals[0], 1.0):
        raise RuntimeError(
            f"curvature matrix is singular (smallest singular value {svals[-1]:.3e})")
    normalizer = -np.linalg.inv(curvature)
    # center = integral of the raw influence against g0; the raw/g0 product
    # collapses to sdot * sqrt(g0) / 2, so no ratio is ever formed.
    center = normalizer @ (np.einsum("n,np->p", wg, family.sqrt_grad(theta0, x)) / 2.0)
    return InfluenceFunction(base_density=g0, family=family, theta=theta0,
                             normalizer=normalizer, center=center)


def l_norm_sq(q, g0, support=None):
    """Centered second moment of ``q`` under ``g0``.

    Returns a scalar for scalar-valued ``q`` and the full outer-product
    matrix for vector-valued ``q``.
    """
    support = _resolve_support(g0, support)
    x, w, sqrt_g0 = _prepared_nodes(g0, support, _EFFICIENCY_PANELS)
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


def fisher_information(family, theta, support=None):
    """Fisher information in sqrt-density form, 4 * integral(sdot sdot^T)."""
    theta = np.asarray(theta, dtype=float)
    if support is None:
        support = family.plausible_support(theta)
    x, w = composite_nodes(integration_edges(support, (), min_panels=_EFFICIENCY_PANELS))
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


def asymptotic_variance(family, theta, g0=None, support=None):
    """Asymptotic variance of T at ``g0`` via the influence-function norm.

    With ``g0`` omitted the base density is the model f_theta and the
    inverse Fisher information is attached for comparison.
    """
    at_model = g0 is None
    if at_model:
        g0 = family.density(theta)
    inf = influence_function(g0, family, theta, support=support)
    V = l_norm_sq(inf.value, g0, support=support)
    fisher_inv = None
    if at_model:
        fisher_inv = np.linalg.inv(fisher_information(family, theta, support=support))
    return AsymptoticVariance(V=np.asarray(V), fisher_inverse=fisher_inv)
