"""Pinned numbers of the solver: a change to the minimizer that keeps these
within 1e-10 relative keeps every estimate the package reports.

The values live in ``pinned.json`` next to this file.  After a deliberate
change of the numbers, rewrite the pins that moved, and only those, with

    PYTHONPATH=src python tests/test_pinned.py --record KEY [KEY ...]

and say in the change log why they moved; a new pin is added the same
way, by naming the key ``compute`` gives it.  The other pins keep their bytes,
so digits below the tolerance that differ between hosts are not rewritten.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from _helpers import QuadratureGaussianFamily
from mhdbayes import (GaussianFamily, HistogramPrior, bmh_fit, bvm_diagnostic, load_dataset,
                      mhb_bootstrap_se, mhb_fit, robustness_sweep)

PINNED = Path(__file__).with_name("pinned.json")
RTOL = 1e-10


def compute():
    newcomb = load_dataset("bundled:newcomb").values
    mhb = mhb_fit(newcomb)
    se = mhb_bootstrap_se(newcomb, n_boot=50, rng=31, warm_theta=mhb.theta_hat)
    bmh = bmh_fit(newcomb, n_samples=300, rng=7)
    sweep = robustness_sweep(estimators=("mhb",), z_grid=(5, 50, 1000), reps=5,
                             n=500, rng=101)
    bvm = bvm_diagnostic(newcomb, n_samples=150, rng=1)
    # a data-scale box gives each resample its own unit-scale box
    bounded_se = mhb_bootstrap_se(newcomb, n_boot=50, rng=31,
                                  family=GaussianFamily(bounds=((0, 60), (0.5, 30))))
    # three gross errors put the resamples' random-k EAPs on several grids
    spread = np.random.default_rng(27).normal(0.1, 1.1, 150)
    spread[:3] += 8.0
    poisson = HistogramPrior.poisson(lam=5.0)
    random_k_se = mhb_bootstrap_se(spread, prior=poisson, n_boot=50, rng=31)
    random_k_bmh = bmh_fit(np.random.default_rng(27).normal(0, 1, 150), prior=poisson,
                           n_samples=300, rng=7)
    # the quadrature oracle of histogram_bc, which no closed-form pin reaches
    quadrature_se = mhb_bootstrap_se(newcomb, n_boot=50, rng=31,
                                     family=QuadratureGaussianFamily())
    return {
        "mhb_theta": mhb.theta_hat.tolist(),
        "mhb_h_min": mhb.mhd_meta.h_min,
        "bootstrap_se": se.tolist(),
        "bmh_theta_samples": bmh.theta_samples.tolist(),
        "sweep_theta": [row.get("theta_hat") for row in sweep.rows],
        "bvm_ks_stat": [row["ks_stat"] for row in bvm.rows],
        "bounded_bootstrap_se": bounded_se.tolist(),
        "random_k_bootstrap_se": random_k_se.tolist(),
        "random_k_bmh_theta_samples": random_k_bmh.theta_samples.tolist(),
        "quadrature_bootstrap_se": quadrature_se.tolist(),
    }


@pytest.fixture(scope="module")
def current():
    return compute()


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


# every recorded pin is compared; the sweep's failed rows have their own test
@pytest.mark.parametrize("key", [key for key in json.loads(PINNED.read_text())
                                 if key != "sweep_theta"])
def test_matches_pinned(current, pinned, key):
    np.testing.assert_allclose(current[key], pinned[key], rtol=RTOL, atol=0.0)


def test_sweep_matches_pinned(current, pinned):
    # a failed row has no estimate; it must stay failed
    assert [t is None for t in current["sweep_theta"]] == \
        [t is None for t in pinned["sweep_theta"]]
    fitted = [t for t in current["sweep_theta"] if t is not None]
    expected = [t for t in pinned["sweep_theta"] if t is not None]
    np.testing.assert_allclose(fitted, expected, rtol=RTOL, atol=0.0)


def dumps(values):
    """The text of ``pinned.json``: one line per pin, in the given order."""
    return "{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                               for k, v in values.items()) + "\n}\n"


def test_file_is_in_record_format():
    # --record rewrites the file through ``dumps``; pins it does not name
    # must come back byte for byte
    assert dumps(json.loads(PINNED.read_text())) == PINNED.read_text()


if __name__ == "__main__":
    values = json.loads(PINNED.read_text())
    keys = sys.argv[2:]
    current = compute() if sys.argv[1:2] == ["--record"] and keys else {}
    if not current or not set(keys) <= set(current):
        sys.exit("usage: python tests/test_pinned.py --record KEY [KEY ...]\n"
                 f"keys: {' '.join(current or values)}")
    values.update((key, current[key]) for key in keys)
    PINNED.write_text(dumps(values))
