"""Span tracer that wraps mhdbayes' public functions from outside the package.

Every wrapped call records one span: its name, start, end, parent span and
run id.  Spans are kept in flat in-memory arrays and written out when the
benchmark ends.  A function is wrapped under every module attribute it is
bound to (``functional.mhd`` is also ``estimators.mhd`` and ``mhdbayes.mhd``),
and a method is wrapped on the class that defines it.  ``installed()``
restores every original on exit.

Self time of a span is its duration minus the durations of its direct child
spans; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from array import array

import numpy as np

# (span name, module, attribute); an attribute "Class.method" names a method
TRACED = (
    ("densities.GaussianFamily.sqrt_pdf", "mhdbayes.densities", "GaussianFamily.sqrt_pdf"),
    ("densities.GaussianFamily.sqrt_grad", "mhdbayes.densities", "GaussianFamily.sqrt_grad"),
    ("densities.GaussianFamily.sqrt_hess", "mhdbayes.densities", "GaussianFamily.sqrt_hess"),
    ("densities.integration_edges", "mhdbayes.densities", "integration_edges"),
    ("numerics.composite_nodes", "mhdbayes.numerics", "composite_nodes"),
    ("numerics.minimize", "mhdbayes.numerics", "minimize"),
    ("scipy.optimize.minimize", "scipy.optimize", "minimize"),
    ("functional.mhd", "mhdbayes.functional", "mhd"),
    ("posterior.fit_posterior", "mhdbayes.posterior", "fit_posterior"),
    ("posterior.RandomHistogramPosterior.eap", "mhdbayes.posterior", "RandomHistogramPosterior.eap"),
    ("posterior.RandomHistogramPosterior.sample", "mhdbayes.posterior",
     "RandomHistogramPosterior.sample"),
    ("estimators.bmh_fit", "mhdbayes.estimators", "bmh_fit"),
    ("estimators.mhb_fit", "mhdbayes.estimators", "mhb_fit"),
    ("estimators.mhb_bootstrap_se", "mhdbayes.estimators", "mhb_bootstrap_se"),
    ("experiments.robustness_sweep", "mhdbayes.experiments", "robustness_sweep"),
    ("cli.validate_config", "mhdbayes.cli", "validate_config"),
    ("cli.run", "mhdbayes.cli", "run"),
    ("datasets.load_dataset", "mhdbayes.datasets", "load_dataset"),
)

# The objective that numerics.minimize hands to scipy.optimize.minimize, so
# that the solver's self time excludes objective evaluations.
OBJECTIVE = "functional.mhd.objective"

# Span names whose self time is summed into orchestration.self_s: each runs
# on only some workloads, and a per-layer time must be measured on all.
ORCHESTRATION = ("estimators.", "experiments.", "cli.", "datasets.")

# Percentiles tried for functional.mhd.tail_ms, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# Float64 arrays of node length one objective evaluation touches: the
# abscissae, the weights times sqrt(g), and the sqrt-density values.
ARRAYS_PER_EVAL = 3


def _mhdbayes_modules():
    return [mod for name, mod in sys.modules.items()
            if name == "mhdbayes" or name.startswith("mhdbayes.")]


class Tracer:
    """Records spans of wrapped calls; ``run_id`` tags the spans of one run."""

    def __init__(self):
        self.names = []
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")  # points for sqrt_pdf, n_evals for mhd
        self.mhd_results = []   # (span index, converged, first-order norm, sigma in bins)
        self.bound = {}         # span name -> every "module.attribute" wrapped
        self.run_id = 0
        self._stack = [-1]

    def _wrap(self, name, fn, after=None, before=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        names, parents, runs = self.name, self.parent, self.run
        starts, ends, works, stack = self.start, self.end, self.work, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            runs.append(tracer.run_id)
            works.append(0.0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if after is not None:
                works[i] = after(i, args, out)
            return out

        return wrapper

    def _after_sqrt_pdf(self, i, args, out):
        return float(np.size(out))

    def _after_mhd(self, i, args, res):
        k = getattr(args[0], "k", None)
        sigma_bins = float(res.theta_hat[1]) * k if k else float("nan")
        self.mhd_results.append((i, bool(res.converged), float(res.first_order_norm),
                                 sigma_bins))
        return float(res.n_evals)

    def _before_scipy_minimize(self, args):
        return (self._wrap(OBJECTIVE, args[0]),) + tuple(args[1:])

    def _hooks(self, name):
        if name == "densities.GaussianFamily.sqrt_pdf":
            return {"after": self._after_sqrt_pdf}
        if name == "functional.mhd":
            return {"after": self._after_mhd}
        if name == "scipy.optimize.minimize":
            return {"before": self._before_scipy_minimize}
        return {}

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced callable; restore the originals on exit."""
        patched = []
        try:
            for name, module_name, attr in TRACED:
                module = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, method = attr.split(".")
                    owners = [(getattr(module, cls_name), method)]
                    original = getattr(owners[0][0], method)
                else:
                    original = getattr(module, attr)
                    # scipy's minimize only as numerics calls it
                    scan = [module] if module_name == "scipy.optimize" else _mhdbayes_modules()
                    owners = [(mod, key) for mod in scan
                              for key, val in list(vars(mod).items()) if val is original]
                wrapper = self._wrap(name, original, **self._hooks(name))
                self.bound[name] = []
                for owner, key in owners:
                    patched.append((owner, key, original))
                    setattr(owner, key, wrapper)
                    self.bound[name].append(f"{owner.__name__}.{key}")
            yield self
        finally:
            for owner, key, original in reversed(patched):
                setattr(owner, key, original)

    def _arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                            minlength=len(dur))
        return name, np.frombuffer(self.run, dtype=np.int32), dur, dur - child

    def table(self, run_id):
        """Per span name: calls, total and self seconds, summed work."""
        name, run, dur, self_t = self._arrays()
        work = np.frombuffer(self.work)
        rows = {}
        for nid, label in enumerate(self.names):
            sel = (name == nid) & (run == run_id)
            rows[label] = {"calls": int(sel.sum()), "total_s": float(dur[sel].sum()),
                           "self_s": float(self_t[sel].sum()), "work": float(work[sel].sum())}
        for label, _, _ in TRACED + ((OBJECTIVE, None, None),):
            rows.setdefault(label, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0.0})
        return rows

    def mhd_stats(self, run_id):
        """Latency percentiles and solver diagnostics of the mhd calls of a run."""
        name, run, dur, _ = self._arrays()
        sel = (name == self.names.index("functional.mhd")) & (run == run_id)
        ms = np.sort(dur[sel]) * 1e3
        n = len(ms)
        tail = next(p for p in TAIL_PERCENTILES if n * (1.0 - p / 100.0) >= 10 or p == 50.0)
        runs = np.frombuffer(self.run, dtype=np.int32)
        results = [r for r in self.mhd_results if runs[r[0]] == run_id]
        return {
            "calls": n,
            "p50_ms": float(np.percentile(ms, 50)),
            "tail_pct": tail,
            "tail_ms": float(np.percentile(ms, tail)),
            "unconverged": sum(1 for r in results if not r[1]),
            "foc_max": max(r[2] for r in results),
            "sigma_bins_min": float(np.nanmin([r[3] for r in results])),
        }

    def layer_metrics(self, run_id):
        """The per-layer metrics of one traced run, as (value, unit) pairs."""
        t = self.table(run_id)
        pdf, mhd = t["densities.GaussianFamily.sqrt_pdf"], t["functional.mhd"]
        stats = self.mhd_stats(run_id)
        nodes = pdf["work"] / pdf["calls"]
        post = [row for label, row in t.items() if label.startswith("posterior.")]
        orch = [row for label, row in t.items() if label.startswith(ORCHESTRATION)]
        out = {}
        for label in ("densities.GaussianFamily.sqrt_pdf", "densities.GaussianFamily.sqrt_grad",
                      "densities.GaussianFamily.sqrt_hess", "scipy.optimize.minimize",
                      "numerics.minimize", "functional.mhd", OBJECTIVE,
                      "posterior.fit_posterior", "posterior.RandomHistogramPosterior.sample",
                      "estimators.bmh_fit", "estimators.mhb_fit",
                      "estimators.mhb_bootstrap_se", "experiments.robustness_sweep"):
            out[f"{label}.calls"] = (t[label]["calls"], "count")
        for label in ("densities.GaussianFamily.sqrt_pdf", "scipy.optimize.minimize",
                      "numerics.minimize", "functional.mhd", OBJECTIVE,
                      "densities.integration_edges", "numerics.composite_nodes",
                      "posterior.fit_posterior", "posterior.RandomHistogramPosterior.eap"):
            out[f"{label}.self_s"] = (t[label]["self_s"], "s")
        out["densities.GaussianFamily.sqrt_pdf.points"] = (int(pdf["work"]), "count")
        out["densities.GaussianFamily.sqrt_pdf.ns_per_point"] = (
            pdf["self_s"] / pdf["work"] * 1e9, "ns")
        out["functional.mhd.evals"] = (int(mhd["work"]), "count")
        out["functional.mhd.evals_per_call"] = (mhd["work"] / mhd["calls"], "count")
        out["functional.mhd.p50_ms"] = (stats["p50_ms"], "ms")
        out["functional.mhd.tail_ms"] = (stats["tail_ms"], "ms")
        out["functional.mhd.unconverged"] = (stats["unconverged"], "count")
        out["functional.mhd.foc_max"] = (stats["foc_max"], "norm")
        out["functional.mhd.sigma_bins_min"] = (stats["sigma_bins_min"], "bins")
        out["functional.nodes_per_eval"] = (nodes, "nodes")
        out["functional.bytes_per_eval"] = (ARRAYS_PER_EVAL * 8 * nodes, "B")
        out["posterior.self_s"] = (sum(row["self_s"] for row in post), "s")
        out["orchestration.self_s"] = (sum(row["self_s"] for row in orch), "s")
        return out

    def dump(self, path, meta):
        """Write every span plus the name table and ``meta`` to ``path`` (.npz)."""
        np.savez(path, name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 run=np.frombuffer(self.run, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 work=np.frombuffer(self.work), names=np.asarray(self.names),
                 meta=np.asarray(json.dumps({**meta, "bound": self.bound})))
