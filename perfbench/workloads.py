"""The three benchmark workloads and their correctness gates.

Each workload drives mhdbayes only through its public functions or the
in-process CLI (``mhdbayes.cli.main``), single-threaded, from inputs made
from the benchmark seed.  Gates use the acceptance suite's reference
tolerances.  Known deviations are checked and printed on every run but do
not gate, so that they stay visible without failing the benchmark.
``typical_s`` is the wall time of one run on the 2-vCPU reference host in
its usual, slower state; the benchmark sizes its number of runs from it.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field

import numpy as np

import mhdbayes
import mhdbayes.cli

# Objective evaluations of the Newcomb MHB point fit at the ROADMAP
# re-anchor; a printed sanity anchor, since solver work may change it.
NEWCOMB_POINT_EVALS = 416


@dataclass
class Outcome:
    """What one complete workload run delivered."""

    fits: int                # minimum-distance results the run is sized to deliver
    failed: int              # of those, the ones the public results report failed
    ref_err: float | None    # distance of the tracked estimate from its reference
    gates: list = field(default_factory=list)   # (label, ok, detail), gated
    known: list = field(default_factory=list)   # (label, ok, detail), not gated
    notes: list = field(default_factory=list)
    report_bytes: int = 0

    @property
    def correct(self):
        return all(ok for _, ok, _ in self.gates)


def _within(value, target, tol):
    return bool(abs(value - target) <= tol)


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = mhdbayes.cli.main(argv)
    return code, buf.getvalue()


def _cli_failure(fits, argv, code):
    return Outcome(fits=fits, failed=fits, ref_err=None,
                   gates=[("exit", False, f"mhdbayes {argv[0]} exited with code {code}")])


class BmhNewcomb:
    """bmh_fit on the bundled Newcomb data (n=66, k=100), 2000 draws."""

    name = "bmh-newcomb"
    fits = 2000
    typical_s = 12.0

    def prepare(self, seed):
        self.seed = seed
        self.data = mhdbayes.load_dataset("bundled:newcomb").values

    def warm_up(self):
        mhdbayes.bmh_fit(self.data, n_samples=100, rng=self.seed, workers=1)

    def run(self):
        try:
            post = mhdbayes.bmh_fit(self.data, n_samples=self.fits, rng=self.seed, workers=1)
        except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
            return Outcome(fits=self.fits, failed=self.fits, ref_err=None,
                           gates=[("run", False, f"bmh_fit raised: {exc}")])
        (mu, sg), (sd_mu, sd_sg) = post.eap, post.post_sd
        return Outcome(
            fits=self.fits, failed=int(post.n_failed), ref_err=float(abs(sg - 5.00)),
            gates=[
                ("1c", _within(mu, 27.73, 0.10), f"BMH location EAP {mu:.3f} vs 27.73+-0.10"),
                ("1e", _within(sd_mu, 0.63, 0.15) and _within(sd_sg, 0.47, 0.15),
                 f"BMH posterior sd ({sd_mu:.3f}, {sd_sg:.3f}) vs (0.63+-0.15, 0.47+-0.15)"),
            ],
            known=[("1d", _within(sg, 5.00, 0.15),
                    f"BMH scale EAP {sg:.3f} vs 5.00+-0.15 (ref_err = |EAP - 5.00|)")],
            notes=[f"n_failed {post.n_failed} of {self.fits} draws"])


class BootNewcomb:
    """CLI ``fit --estimator mhb --n-boot 200`` on the bundled Newcomb data."""

    name = "boot-newcomb"
    fits = 201   # the point fit plus 200 bootstrap refits
    typical_s = 4.0

    def prepare(self, seed):
        self.argv = ["fit", "--data", "bundled:newcomb", "--estimator", "mhb",
                     "--n-boot", "200", "--workers", "1", "--seed", str(seed)]

    def warm_up(self):
        argv = list(self.argv)
        argv[argv.index("--n-boot") + 1] = "50"
        _run_cli(argv)

    def run(self):
        code, text = _run_cli(self.argv)
        if code != 0:
            return _cli_failure(self.fits, self.argv, code)
        mhb = json.loads(text)["results"]["mhb"]
        (mu, sg), (se_mu, se_sg) = mhb["theta_hat"], mhb["se"]
        diag = mhb["diagnostics"]
        return Outcome(
            fits=self.fits, failed=0, ref_err=abs(mu - 27.72), report_bytes=len(text.encode()),
            gates=[
                ("1a", _within(mu, 27.72, 0.10) and _within(sg, 5.07, 0.15),
                 f"MHB point ({mu:.3f}, {sg:.3f}) vs (27.72+-0.10, 5.07+-0.15)"),
                ("1b-loc", _within(se_mu, 0.64, 0.15),
                 f"bootstrap se location {se_mu:.3f} vs 0.64+-0.15"),
                ("conv", diag["converged"] is True,
                 f"report flags the point fit converged={diag['converged']}"),
            ],
            known=[
                ("1b-scale", _within(se_sg, 0.46, 0.15),
                 f"bootstrap se scale {se_sg:.3f} vs 0.46+-0.15 (seed-dependent)"),
                ("anchor", diag["n_evals"] == NEWCOMB_POINT_EVALS,
                 f"point fit n_evals {diag['n_evals']} vs {NEWCOMB_POINT_EVALS} at the re-anchor"),
            ],
            notes=[f"ref_err = |MHB location - 27.72| = {abs(mu - 27.72):.4f}"])


class ContamSweep:
    """CLI ``robustness`` with MHB and MLE, n=500, 10% blip at z in {5, 50, 1000}."""

    name = "contam-sweep"
    z_grid = (5, 50, 1000)
    reps = 50
    fits = reps * len(z_grid)   # MHB fits; the MLE is closed form
    typical_s = 4.0

    def prepare(self, seed):
        self.argv = ["robustness", "--estimators", "mhb,mle", "--n", "500",
                     "--contamination", "0.1", "--z-grid", ",".join(map(str, self.z_grid)),
                     "--reps", str(self.reps), "--workers", "1", "--seed", str(seed)]

    def warm_up(self):
        argv = list(self.argv)
        argv[argv.index("--reps") + 1] = "2"
        _run_cli(argv)

    def run(self):
        code, text = _run_cli(self.argv)
        if code != 0:
            return _cli_failure(self.fits, self.argv, code)
        results = json.loads(text)["results"]
        cells = results["summary"]["cells"]

        def err(est, z):
            return cells[f"{est}@z={z:g}"]["median_location_error"]

        near, mid, far = (err("mhb", z) for z in self.z_grid)
        mle_mid = err("mle", 50)
        failed = sum(1 for row in results["rows"] if row["estimator"] == "mhb" and "error" in row)
        far_failed = cells[f"mhb@z={self.z_grid[-1]:g}"]["n_failed"]
        return Outcome(
            fits=self.fits, failed=failed, ref_err=far, report_bytes=len(text.encode()),
            gates=[
                ("5-mhb", mid is not None and mid < 0.05,
                 f"MHB median |err| {mid} < 0.05 at z=50"),
                ("5-mle", mle_mid is not None and mle_mid > 4.5,
                 f"MLE median |err| {mle_mid} > 4.5 at z=50"),
            ],
            known=[
                ("5-order", None not in (mid, near) and mid < near,
                 f"MHB z=50 error {mid} < z=5 error {near} (seed-dependent)"),
                ("far", far is not None and far < 0.05,
                 f"far_loc_err: MHB median |err| {far} at z=1000, "
                 f"{far_failed} of {self.reps} fits flagged"),
            ])


WORKLOADS = {w.name: w for w in (BmhNewcomb, BootNewcomb, ContamSweep)}
