"""Every converged MHB point fit is the global minimizer of its EAP's
Hellinger distance, across seven input regimes, judged against the grid
and polish oracle of ``_helpers.global_mhd_oracle``, and its scale spans
at least two cells of the EAP's grid."""

import numpy as np
import pytest

from _helpers import ContaminationSpec, global_mhd_oracle, sample_contaminated
from mhdbayes.densities import DEFAULT_PADDING, GaussianFamily
from mhdbayes.estimators import _setup
from mhdbayes.posterior import HistogramPrior


def two_bump(rng):
    p, sep = rng.uniform(0.35, 0.65), rng.uniform(3, 8)
    m = round(p * 400)
    return np.concatenate([rng.normal(0, 1, m), rng.normal(sep, 1, 400 - m)])


REGIMES = {
    "normal-50": lambda rng: rng.normal(0, 1, 50),
    "lognormal-500": lambda rng: rng.lognormal(0, 1.5, 500),
    "two-bump-400": two_bump,
    "half-integer-200": lambda rng: np.round(2 * rng.normal(0, 1, 200)) / 2,
    "cauchy-300": lambda rng: rng.standard_cauchy(300),
    "uniform-300": lambda rng: rng.uniform(0, 1, 300),
    "blip-1e3-500": lambda rng: sample_contaminated(
        ContaminationSpec(theta=(0.0, 1.0), alpha=0.1, z=1e3, epsilon=0.01),
        GaussianFamily(), 500, rng),
}

# the one known converged fit that is not global, a wide "bridge" fit
# between the two bumps: mhd's seed grid picks a start that climbs to a
# local maximum of the coefficient (README, Known limitations)
BRIDGES = {("two-bump-400", 41): "stops at unit (0.451, 0.224) with h 0.67464; the oracle "
                                  "reaches h 0.66771 at (0.286, 0.063), polished from its "
                                  "grid point (0.275, 0.067)"}


def cases():
    for name in REGIMES:
        for seed in range(7):
            yield pytest.param(name, seed, id=f"{name}-seed{seed}")
    for (name, seed), reason in BRIDGES.items():
        yield pytest.param(name, seed, id=f"{name}-seed{seed}",
                           marks=pytest.mark.xfail(strict=True, reason=reason))


@pytest.mark.parametrize("regime, seed", list(cases()))
def test_converged_point_fit_is_global(regime, seed):
    data = REGIMES[regime](np.random.default_rng(seed))
    family = GaussianFamily()
    _, post, box, fit = _setup(data, HistogramPrior.fixed(), family, DEFAULT_PADDING)
    if not fit.converged:
        pytest.skip(f"{regime} seed {seed}: the point fit did not converge")
    h, theta = global_mhd_oracle(post.eap(), family, box)
    assert fit.h_min <= h + 1e-8, (
        f"{regime} seed {seed}: converged at unit {np.round(fit.theta_hat, 3).tolist()} "
        f"with h {fit.h_min:.5f}, the oracle reaches {h:.5f} at "
        f"{np.round(theta, 3).tolist()}")


# converged fits whose scale the k=100 range grid does not resolve: per
# regime, the measured width of unit sigma-hat in bins at seeds 0-6 (README,
# "Breakdown at very far outliers")
UNRESOLVED = {
    "lognormal-500": (1.23, 1.01, 1.13, 0.97, 1.65, 1.68, 1.13),
    "cauchy-300": (0.46, 0.28, 1.01, 1.15, 0.60, 0.26, 0.62),
    "blip-1e3-500": (0.47, 0.28, 0.29, 0.33, 0.33, 0.29, 0.29),
}
# 40 ties at 7.0 and one 8.0: the fit converges on the ties, inside one cell
TIES = np.concatenate([np.full(40, 7.0), [8.0]])


def resolution_cases():
    for name in REGIMES:
        for seed in range(7):
            marks = ([pytest.mark.xfail(strict=True, reason=f"sigma-hat spans "
                                        f"{UNRESOLVED[name][seed]:.2f} bins")]
                     if name in UNRESOLVED else [])
            yield pytest.param(name, seed, id=f"{name}-seed{seed}", marks=marks)
    yield pytest.param("ties", None, id="ties-40x7-one-8", marks=[
        pytest.mark.filterwarnings("ignore:total prior mass"),
        pytest.mark.xfail(strict=True,
                          reason="converges at data-scale sigma-hat 0.0031, 0.26 bins")])


@pytest.mark.parametrize("regime, seed", list(resolution_cases()))
def test_converged_point_fit_spans_two_cells(regime, seed):
    data = TIES if regime == "ties" else REGIMES[regime](np.random.default_rng(seed))
    _, post, _, fit = _setup(data, HistogramPrior.fixed(), GaussianFamily(), DEFAULT_PADDING)
    if not fit.converged:
        pytest.skip(f"{regime} seed {seed}: the point fit did not converge")
    bins = fit.theta_hat[1] * (len(post.eap().edges) - 1)
    assert bins >= 2, (f"{regime} seed {seed}: converged with unit sigma-hat "
                       f"{fit.theta_hat[1]:.5f}, {bins:.2f} cells of its EAP grid")
