"""Command-line entry point.

Subcommands: ``fit`` (MHB and/or BMH on a dataset), ``robustness``,
``efficiency``, ``bvm``, and ``posterior-dump``.  Every run resolves its
flags into a config dict, validates it against the published JSON schema
before any computation, and emits a JSON report embedding the resolved
config and seed (so any report can be reproduced exactly).

Exit codes: 0 success, 1 invalid configuration or input, 2 numerical
failure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from importlib import resources

import jsonschema
import numpy as np

from .densities import DEFAULT_PADDING, GaussianFamily
from .datasets import load_dataset
from .numerics import resolve_workers
from .estimators import bmh_fit, mhb_fit
from .experiments import bvm_diagnostic, csv_text, efficiency_study, robustness_sweep
from .posterior import DEFAULT_ALPHA, DEFAULT_FIXED_K, DEFAULT_POISSON_RATE, HistogramPrior

SCHEMA_VERSION = 1


def config_schema():
    return json.loads((resources.files("mhdbayes") / "config_schema.json").read_text())


def validate_config(config):
    try:
        jsonschema.validate(config, config_schema())
    except jsonschema.ValidationError as exc:
        where = "".join(f"[{p}]" if isinstance(p, int) else f".{p}"
                        for p in exc.absolute_path).lstrip(".")
        detail = f"{where}: {exc.message}" if where else exc.message
        raise ValueError(f"invalid configuration: {detail}") from exc
    out_dir = os.path.dirname(config.get("out") or "") or "."
    if not os.path.isdir(out_dir):
        raise ValueError(f"invalid configuration: out: directory {out_dir!r} does not exist")
    return config


def _bounds_pair(text):
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected 'lo,hi'")
    return parts


def _float_list(text):
    return [float(v) for v in text.split(",")]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mhdbayes",
        description="Robust estimation via minimum Hellinger distance with "
                    "random-histogram density posteriors.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_data):
        if with_data:
            p.add_argument("--data", required=True,
                           help="CSV path or bundled:<name> (e.g. bundled:newcomb)")
        p.add_argument("--family", default="gaussian", choices=["gaussian"])
        p.add_argument("--prior-mode", default="fixed", choices=["fixed", "random"])
        p.add_argument("--k", type=int, default=DEFAULT_FIXED_K,
                       help="bin count for the fixed-k prior")
        p.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_POISSON_RATE,
                       help="Poisson rate for the random-k prior")
        p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA,
                       help="per-bin Dirichlet concentration")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--padding", type=float, default=DEFAULT_PADDING,
                       help="support-transform padding fraction")
        p.add_argument("--out", default=None, help="report path (default stdout)")
        p.add_argument("--format", default="json", choices=["json", "csv"])
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: MHDBAYES_WORKERS "
                            "or 1; 0 = all cores)")

    p = sub.add_parser("fit", help="MHB/BMH estimates on a dataset")
    add_common(p, with_data=True)
    p.add_argument("--estimator", default="both", choices=["mhb", "bmh", "both"])
    p.add_argument("--n-samples", type=int, default=2000)
    p.add_argument("--n-boot", type=int, default=200)
    p.add_argument("--levels", type=_float_list, default=[0.5, 0.9, 0.95])
    p.add_argument("--mu-bounds", type=_bounds_pair, default=None)
    p.add_argument("--sigma-bounds", type=_bounds_pair, default=None)

    p = sub.add_parser("robustness", help="gross-error contamination sweep")
    add_common(p, with_data=False)
    p.add_argument("--theta0", type=_float_list, default=[0.0, 1.0])
    p.add_argument("--contamination", type=float, default=0.1)
    p.add_argument("--z-grid", type=_float_list, default=[5.0, 20.0, 50.0])
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--estimators", default="mhb,bmh,mle",
                   help="comma list drawn from mhb,bmh,mle")
    p.add_argument("--n-samples", type=int, default=200,
                   help="BMH draws per replicate when bmh is swept")

    p = sub.add_parser("efficiency", help="sampling-variance study vs the CRLB")
    add_common(p, with_data=False)
    p.add_argument("--theta0", type=_float_list, default=[0.0, 1.0])
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--reps", type=int, default=200)

    p = sub.add_parser("bvm", help="Bernstein-von-Mises diagnostic on a dataset")
    add_common(p, with_data=True)
    p.add_argument("--n-samples", type=int, default=2000)

    p = sub.add_parser("posterior-dump", help="BMH parameter draws as CSV")
    add_common(p, with_data=True)
    p.add_argument("--n-samples", type=int, default=2000)
    return parser


def resolve_config(args):
    prior = {"mode": args.prior_mode, "alpha": args.alpha}
    if args.prior_mode == "fixed":
        prior["k"] = args.k
    else:
        prior["lambda"] = args.lam
    config = {
        "command": args.command,
        "family": args.family,
        "prior": prior,
        "seed": args.seed,
        "padding": args.padding,
        "out": args.out,
        "format": args.format,
        "workers": resolve_workers(args.workers),
    }
    if args.command in ("fit", "bvm", "posterior-dump"):
        config["data"] = args.data
    if args.command == "fit":
        config.update(estimator=args.estimator, n_samples=args.n_samples,
                      n_boot=args.n_boot, levels=args.levels,
                      mu_bounds=args.mu_bounds, sigma_bounds=args.sigma_bounds)
    elif args.command == "robustness":
        config.update(theta0=args.theta0, contamination=args.contamination,
                      z_grid=args.z_grid, epsilon=args.epsilon, n=args.n,
                      reps=args.reps, n_samples=max(args.n_samples, 100),
                      estimators=[e.strip() for e in args.estimators.split(",")])
    elif args.command == "efficiency":
        config.update(theta0=args.theta0, n=args.n, reps=args.reps)
    elif args.command in ("bvm", "posterior-dump"):
        config.update(n_samples=args.n_samples)
    return validate_config(config)


def _prior_from(config):
    spec = config["prior"]
    if spec["mode"] == "fixed":
        return HistogramPrior.fixed(spec.get("k", DEFAULT_FIXED_K), alpha=spec["alpha"])
    return HistogramPrior.poisson(spec.get("lambda", DEFAULT_POISSON_RATE),
                                  alpha=spec["alpha"])


def _family_from(config):
    mu_b = config.get("mu_bounds")
    sg_b = config.get("sigma_bounds")
    if mu_b is None and sg_b is None:
        return GaussianFamily()
    mu_b = mu_b or [-1e6, 1e6]
    sg_b = sg_b or [1e-9, 1e6]
    return GaussianFamily(bounds=(tuple(mu_b), tuple(sg_b)))


def _run_fit(config):
    dataset = load_dataset(config["data"])
    prior = _prior_from(config)
    family = _family_from(config)
    results = {"dataset": {"name": dataset.name, "n": len(dataset)}}
    rng = np.random.default_rng(config["seed"])
    if config["estimator"] in ("mhb", "both"):
        est = mhb_fit(dataset.values, prior=prior, family=family,
                      n_boot=config["n_boot"], rng=rng, padding=config["padding"])
        results["mhb"] = est.to_report()
    if config["estimator"] in ("bmh", "both"):
        post = bmh_fit(dataset.values, prior=prior, family=family,
                       n_samples=config["n_samples"], rng=rng,
                       levels=tuple(config["levels"]), padding=config["padding"])
        results["bmh"] = post.to_report()
    return results, None


def _run_robustness(config):
    report = robustness_sweep(
        family=_family_from(config), theta=config["theta0"],
        alpha=config["contamination"], z_grid=config["z_grid"],
        n=config["n"], reps=config["reps"], rng=config["seed"],
        prior=_prior_from(config), padding=config["padding"],
        epsilon=config["epsilon"], estimators=tuple(config["estimators"]),
        n_samples_bmh=config["n_samples"], workers=config["workers"])
    return report.to_json(), report


def _run_efficiency(config):
    report = efficiency_study(
        family=_family_from(config), theta0=config["theta0"], n=config["n"],
        reps=config["reps"], rng=config["seed"], prior=_prior_from(config),
        padding=config["padding"], workers=config["workers"])
    return report.to_json(), report


def _run_bvm(config):
    dataset = load_dataset(config["data"])
    report = bvm_diagnostic(dataset.values, prior=_prior_from(config),
                            family=_family_from(config),
                            n_samples=config["n_samples"], rng=config["seed"],
                            padding=config["padding"])
    return report.to_json(), report


def _run_posterior_dump(config):
    dataset = load_dataset(config["data"])
    fit = bmh_fit(dataset.values, prior=_prior_from(config),
                  family=_family_from(config), n_samples=config["n_samples"],
                  rng=np.random.default_rng(config["seed"]),
                  padding=config["padding"])
    rows = [{"index": i, "mu": float(t[0]), "sigma": float(t[1])}
            for i, t in enumerate(fit.theta_samples)]
    results = {"estimator": "bmh", "theta_samples": rows,
               "eap": [float(v) for v in fit.eap]}
    return results, None


_RUNNERS = {
    "fit": _run_fit,
    "robustness": _run_robustness,
    "efficiency": _run_efficiency,
    "bvm": _run_bvm,
    "posterior-dump": _run_posterior_dump,
}


def _emit(config, results, study):
    if config["format"] == "csv":
        # the schema allows CSV only for the studies and posterior-dump
        if study is not None:
            payload = study.to_csv()
        else:
            payload = csv_text(results["theta_samples"], ["index", "mu", "sigma"])
    else:
        report = {
            "schema_version": SCHEMA_VERSION,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "config": config,
            "results": results,
        }
        payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if config["out"]:
        with open(config["out"], "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def run(config):
    """Execute a validated config; returns the process exit code."""
    try:
        validate_config(config)
        results, study = _RUNNERS[config["command"]](config)
        _emit(config, results, study)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; those are validation
        # failures in this tool's exit-code contract
        return 0 if exc.code in (0, None) else 1
    try:
        config = resolve_config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
