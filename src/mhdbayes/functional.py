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
from .densities import _MIN_PANELS, _pdf_of, integration_edges
from .numerics import DEFAULT_RULE, OptimizerConfig, composite_nodes


@dataclass
class MhdResult:
    """Outcome of one minimum-Hellinger-distance fit."""

    theta_hat: np.ndarray
    h_min: float
    converged: bool
    n_evals: int
    first_order_norm: float


# First-order tolerance shared by ``mhd`` and ``mhd_rows``, so the batched
# fits are judged as the per-density ones are.
_FOC_TOL = 1e-3

# A fit at h = sqrt(2) has no overlap with g: its first-order condition can
# vanish only because f_theta underflows on g's support, so ``mhd`` never
# flags a fit above this level converged.
_H_NO_OVERLAP = np.sqrt(2.0) - 1e-6

# Cap on rows x cells in one block of ``mhd_rows``; it bounds the
# (rows, cells) temporaries of the cell masses and their derivatives, and
# with them peak memory, to a few MB.
ROW_BLOCK_ELEMENTS = 1 << 14


def _checked_sqrt(gv, x):
    """sqrt of density values ``gv`` at ``x``; ``gv`` may stack one row of
    values per density."""
    gv = np.asarray(gv, dtype=float)
    xs = np.broadcast_to(x, gv.shape)
    bad = ~np.isfinite(gv)
    if np.any(bad):
        raise ValueError(f"density 'g' is non-finite at x = {xs[bad][0]!r}")
    if np.any(gv < -1e-12):
        raise ValueError(f"density 'g' is negative at x = {xs.flat[np.argmin(gv)]!r}")
    return np.sqrt(np.clip(gv, 0.0, None))


def _prepared_nodes(g, support, rule, min_panels):
    edges = integration_edges(support, (g,), min_panels=min_panels)
    x, w = composite_nodes(edges, rule or DEFAULT_RULE)
    return x, w, _checked_sqrt(_pdf_of(g)(x), x)


def _resolve_support(g, support):
    if support is not None:
        return support
    s = getattr(g, "support", None)
    if s is None:
        raise ValueError("support must be given when g does not carry one")
    return s


def mhd(g, family, x0, config=None, support=None, rule=None, rng=None,
        refine=True, min_panels=_MIN_PANELS, bounds=None, foc_tol=_FOC_TOL):
    """Minimize the Hellinger distance between f_theta and ``g`` over theta.

    Nelder-Mead (with the configured jittered restarts) does the global
    search; when ``refine`` is set, Newton iterations on the first-order
    condition integral(sdot_theta * sqrt(g)) = 0 polish the minimizer and
    ``converged`` requires that condition to hold within ``foc_tol`` (a
    bound-pinned minimizer is therefore flagged, never silently returned).
    A fit with no overlap with ``g`` (h_min within 1e-6 of sqrt(2)) is
    never flagged converged.
    """
    config = config or OptimizerConfig()
    support = _resolve_support(g, support)
    bounds = bounds if bounds is not None else family.bounds
    if bounds is None:
        raise ValueError("family declares no parameter bounds; pass bounds=")
    x, w, sqrt_g = _prepared_nodes(g, support, rule, min_panels)
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

    theta, h_min, nm_converged = numerics.minimize(
        objective, np.asarray(x0, dtype=float), bounds, config, rng=rng)

    def foc(theta):
        return np.einsum("n,np->p", wg, family.sqrt_grad(theta, x))

    if refine:
        theta, h_min, n_newton = _newton_polish(
            objective, foc,
            lambda t: np.einsum("n,npq->pq", wg, family.sqrt_hess(t, x)),
            theta, h_min, bounds)
        n_evals[0] += n_newton

    first_order = float(np.linalg.norm(foc(theta)))
    converged = first_order < foc_tol if refine else nm_converged
    converged = converged and h_min < _H_NO_OVERLAP
    return MhdResult(theta_hat=np.asarray(theta), h_min=float(h_min),
                     converged=bool(converged), n_evals=int(n_evals[0]),
                     first_order_norm=first_order)


def _newton_polish(objective, foc, jac, theta, h_min, bounds, max_iter=25):
    """Newton iterations on the stationarity condition, accepted only while
    the Hellinger objective does not increase."""
    lo = np.asarray([b[0] for b in bounds])
    hi = np.asarray([b[1] for b in bounds])
    n_extra = 0
    for _ in range(max_iter):
        grad = foc(theta)
        if np.linalg.norm(grad) < 1e-13:
            break
        try:
            step = np.linalg.solve(jac(theta), grad)
        except np.linalg.LinAlgError:
            break
        candidate = np.clip(theta - step, lo, hi)
        h_new = objective(candidate)
        n_extra += 1
        if not np.isfinite(h_new) or h_new > h_min + 1e-10:
            break
        moved = np.linalg.norm(candidate - theta)
        theta, h_min = candidate, min(h_min, h_new)
        if moved < 1e-14:
            break
    return theta, h_min, n_extra


def mhd_rows(weights, edges, family, theta0):
    """Minimum-Hellinger fits of many histograms at once, all started at ``theta0``.

    ``weights`` holds one row of cell weights per histogram, all on the
    cells of ``edges``.  A histogram's Bhattacharyya coefficient with
    f_theta is the dot product of its sqrt cell heights with the cell
    masses ``family.cell_sqrt_masses`` returns, so each fit runs on k + 1
    edge values, with no quadrature of its own.  Rows are solved in blocks
    of at most ``ROW_BLOCK_ELEMENTS`` rows x cells by damped Newton on the
    first-order condition (see ``_newton_rows``).  Returns the minimizers,
    shape (rows, p), and a boolean ``converged`` per row by the
    ``first_order_norm < foc_tol`` test ``mhd`` applies with its default
    tolerance.  No global search is made: a row that Newton cannot take to
    a stationary point from ``theta0`` is reported unconverged, for the
    caller to refit with ``mhd``; so is a row whose Newton step could not
    be formed (singular Jacobian or infinite objective), because its
    vanishing gradient may only mean f_theta underflows on its support.
    """
    if family.bounds is None:
        raise ValueError("family declares no parameter bounds")
    lo, hi = np.asarray(family.bounds, dtype=float).T
    edges = np.asarray(edges, dtype=float)
    weights = np.asarray(weights, dtype=float)
    widths = np.diff(edges)
    start = np.clip(np.asarray(theta0, dtype=float), lo, hi)
    theta = np.empty((len(weights), len(start)))
    converged = np.empty(len(weights), dtype=bool)
    size = max(1, ROW_BLOCK_ELEMENTS // len(widths))
    for b in range(0, len(weights), size):
        sh = _checked_sqrt(weights[b:b + size] / widths, edges[:-1])
        t, stuck = _newton_rows(family, edges, sh, np.tile(start, (len(sh), 1)), lo, hi)
        _, dm, _ = family.cell_sqrt_masses(_columns(t), edges, derivatives=True)
        foc = np.einsum("rk,rkp->rp", sh, dm)
        theta[b:b + size] = t
        converged[b:b + size] = (np.linalg.norm(foc, axis=1) < _FOC_TOL) & ~stuck
    return theta, converged


def _columns(theta):
    """Rows of parameters as a sequence of (rows, 1) component columns."""
    return theta.T[:, :, None]


def _hellinger_rows(family, edges, sqrt_h, theta):
    """Per-row Hellinger objective of ``mhd`` (+inf where the cell masses
    no longer resolve f_theta)."""
    bc = np.einsum("rk,rk->r", sqrt_h, family.cell_sqrt_masses(_columns(theta), edges))
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


def _newton_rows(family, edges, sqrt_h, theta, lo, hi, max_iter=50, max_halvings=40):
    """Damped Newton on the stationarity condition for every row of ``sqrt_h``.

    Each row takes the Newton step of ``_newton_polish`` and halves it until
    its own Hellinger value does not increase (within the same 1e-10
    roundoff slack); a row stops when its gradient vanishes, its accepted
    move falls below 1e-14, no halving helps or its Jacobian is singular.
    The step halving evaluates cell masses only.  Returns the rows'
    parameters and a mask of the rows stuck where no Newton step could be
    formed (infinite start value or singular Jacobian).
    """
    h = _hellinger_rows(family, edges, sqrt_h, theta)
    stuck = ~np.isfinite(h)
    active = np.flatnonzero(~stuck)
    for _ in range(max_iter):
        if not len(active):
            break
        t, rows_sh = theta[active], sqrt_h[active]
        _, dm, d2m = family.cell_sqrt_masses(_columns(t), edges, derivatives=True)
        grad = np.einsum("rk,rkp->rp", rows_sh, dm)
        jac = np.einsum("rk,rkpq->rpq", rows_sh, d2m)
        step = _solve_rows(jac, grad)
        formed = np.all(np.isfinite(step), axis=1)
        stuck[active[~formed]] = True
        keep = (np.linalg.norm(grad, axis=1) >= 1e-13) & formed
        active, t, step = active[keep], t[keep], step[keep]
        moved = np.zeros(len(active))
        pending = np.arange(len(active))
        for _ in range(max_halvings):
            if not len(pending):
                break
            rows = active[pending]
            cand = np.clip(t[pending] - step[pending], lo, hi)
            h_new = _hellinger_rows(family, edges, sqrt_h[rows], cand)
            ok = np.isfinite(h_new) & (h_new <= h[rows] + 1e-10)
            done = pending[ok]
            theta[rows[ok]] = cand[ok]
            h[rows[ok]] = np.minimum(h[rows[ok]], h_new[ok])
            moved[done] = np.linalg.norm(cand[ok] - t[done], axis=1)
            pending = pending[~ok]
            step[pending] *= 0.5
        # rows still pending found no non-increasing step; they stop as well
        active = active[moved >= 1e-14]
    return theta, stuck


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


def influence_function(g0, family, theta0, support=None, rule=None, min_panels=64):
    """Efficient influence function of T at ``g0`` with theta0 = T(g0).

    The (vanishing) remainder term of the defining expansion is dropped;
    for vector parameters the scalar reciprocal becomes the inverse of the
    curvature matrix integral(sddot * sqrt(g0)), which must be well
    conditioned.
    """
    theta0 = np.asarray(theta0, dtype=float)
    support = _resolve_support(g0, support)
    x, w, sqrt_g0 = _prepared_nodes(g0, support, rule, min_panels)
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


def l_norm_sq(q, g0, support=None, rule=None, min_panels=64):
    """Centered second moment of ``q`` under ``g0``.

    Returns a scalar for scalar-valued ``q`` and the full outer-product
    matrix for vector-valued ``q``.
    """
    support = _resolve_support(g0, support)
    x, w, sqrt_g0 = _prepared_nodes(g0, support, rule, min_panels)
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


def fisher_information(family, theta, support=None, rule=None, min_panels=64):
    """Fisher information in sqrt-density form, 4 * integral(sdot sdot^T)."""
    theta = np.asarray(theta, dtype=float)
    if support is None:
        support = family.plausible_support(theta)
    edges = integration_edges(support, (), min_panels=min_panels)
    x, w = composite_nodes(edges, rule or DEFAULT_RULE)
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


def asymptotic_variance(family, theta, g0=None, support=None, rule=None,
                        min_panels=64):
    """Asymptotic variance of T at ``g0`` via the influence-function norm.

    With ``g0`` omitted the base density is the model f_theta and the
    inverse Fisher information is attached for comparison.
    """
    at_model = g0 is None
    if at_model:
        g0 = family.density(theta)
    inf = influence_function(g0, family, theta, support=support, rule=rule,
                             min_panels=min_panels)
    V = l_norm_sq(inf.value, g0, support=support, rule=rule, min_panels=min_panels)
    fisher_inv = None
    if at_model:
        fisher_inv = np.linalg.inv(
            fisher_information(family, theta, support=support, rule=rule,
                               min_panels=min_panels))
    return AsymptoticVariance(V=np.asarray(V), fisher_inverse=fisher_inv)
