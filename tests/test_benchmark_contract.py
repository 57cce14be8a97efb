"""The benchmark harness in ``perfbench/`` still runs against the library.

``perfbench/spans.py`` wraps library functions by name, and its per-layer
metrics divide by the ``sqrt_pdf`` calls and take a maximum over the
``mhd`` results, so every traced name has to resolve and every workload
has to make at least one call of each.  Each workload's warm-up runs
traced here; nothing under ``perfbench/`` is changed.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import spans  # noqa: E402
import workloads  # noqa: E402


def traced_warm_up(name):
    """The tracer and its per-layer metrics after ``name``'s warm-up."""
    workload = workloads.WORKLOADS[name]()
    workload.prepare(1)
    tracer = spans.Tracer()
    with tracer.installed():
        tracer.run_id = 1
        workload.warm_up()
    return tracer, tracer.layer_metrics(1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_warm_up_gives_every_layer_metric(name):
    tracer, metrics = traced_warm_up(name)
    assert metrics["functional.mhd.calls"][0] > 0
    assert metrics["densities.GaussianFamily.sqrt_pdf.calls"][0] > 0
    assert all(tracer.bound[label] for label, _, _ in spans.TRACED)


@pytest.mark.parametrize("name", ["bmh-newcomb", "boot-newcomb"])
def test_row_fits_make_no_mhd_call(name):
    # the anchor (BMH) or point fit (bootstrap) is the one quadrature fit;
    # every draw or resample is finished inside ``mhd_rows``
    _, metrics = traced_warm_up(name)
    assert metrics["functional.mhd.calls"][0] == 1
