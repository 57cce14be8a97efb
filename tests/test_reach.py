"""Tier-1 guard on ``tests/reach.py``: the ``src/`` functions that no
program path reaches are exactly the ones listed here, each for a stated
reason.  New package code that no CLI subcommand and no ``bmh_fit`` call
runs fails this test until it is listed on purpose (or deleted)."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

UNREACHED = {
    # library API that only the tests call, the acceptance suite among them
    "densities.SupportTransform.from_data",
    "densities.SupportTransform.from_unit",
    "densities.HistogramDensity.bin_index",
    "densities.HistogramDensity.pdf",
    "densities.HistogramDensity.breakpoints",
    "densities.TransformedDensity.__init__",
    "densities.TransformedDensity.pdf",
    "densities.TransformedDensity.breakpoints",
    "densities._pdf_of",
    "densities.hellinger",
    "densities.transform_density",
    "posterior.bin_counts",
    # names that perfbench/spans.py traces, and what only they call
    "numerics.minimize",
    "numerics._initial_simplex_finite",
    "posterior.RandomHistogramPosterior.sample",
    # paths that only an error takes
    "cli._schema_error.<locals>.<lambda>",
    "cli._key",
}


def test_unreached_functions_are_the_listed_ones():
    run = subprocess.run([sys.executable, str(ROOT / "tests" / "reach.py")], cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    # each line is "module.py:line qualname"; line numbers move with edits
    unreached = [f"{where.split('.py:')[0]}.{qualname}"
                 for where, qualname in (line.split(" ") for line in run.stdout.splitlines())]
    assert len(unreached) == len(set(unreached))
    assert set(unreached) == UNREACHED
