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
import functools
import json
import math
import numbers
import operator
import os
import sys
from importlib import resources

import numpy as np

from .densities import DEFAULT_PADDING, GaussianFamily
from .datasets import load_dataset
from .estimators import bmh_fit, mhb_fit
from .experiments import bvm_diagnostic, csv_text, efficiency_study, robustness_sweep
from .posterior import DEFAULT_ALPHA, DEFAULT_FIXED_K, DEFAULT_POISSON_RATE, HistogramPrior

SCHEMA_VERSION = 1

# the JSON Schema keywords of config_schema.json, the only ones read
_KEYWORDS = frozenset({
    "$schema", "title", "type", "enum", "const", "properties", "required",
    "additionalProperties", "items", "prefixItems", "minItems", "maxItems",
    "minimum", "exclusiveMinimum", "exclusiveMaximum", "if", "then", "allOf"})
_BOUNDS = {
    "minimum": (operator.lt, "is less than the minimum of"),
    "exclusiveMinimum": (operator.le, "is less than or equal to the minimum of"),
    "exclusiveMaximum": (operator.ge, "is greater than or equal to the maximum of"),
}
_JSON_TYPES = {"object": dict, "array": list, "string": str, "null": type(None),
               "number": numbers.Number}


def config_schema():
    return json.loads((resources.files("mhdbayes") / "config_schema.json").read_text())


def _check_schema(schema):
    """Raise unless ``schema`` and each of its subschemas use only the
    keywords that ``_schema_errors`` reads (``additionalProperties`` only as
    false)."""
    unknown = sorted(set(schema) - _KEYWORDS)
    if schema.get("additionalProperties", False) is not False:
        unknown.append("additionalProperties")
    if unknown:
        raise ValueError(f"config schema: keyword(s) {unknown} not supported")
    for sub in (*schema.get("properties", {}).values(), *schema.get("prefixItems", ()),
                *schema.get("allOf", ()), *(schema[k] for k in ("items", "if", "then")
                                            if k in schema)):
        _check_schema(sub)


@functools.cache
def _schema():
    """The published schema, read and checked once per process."""
    schema = config_schema()
    _check_schema(schema)
    return schema


def _is_type(value, name):
    # a bool is neither an integer nor a number; an integral float is an integer
    if isinstance(value, bool) and name in ("integer", "number"):
        return False
    if name == "integer":
        return isinstance(value, int) or isinstance(value, float) and value.is_integer()
    return isinstance(value, _JSON_TYPES[name])


def _equal(a, b):
    # JSON equality, in which true is not 1
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _schema_errors(value, schema, path=()):
    """(path, message, type_mismatch) of each way ``value`` breaks ``schema``,
    in the order of the schema's keywords, with jsonschema's messages.
    ``type_mismatch`` is true unless ``value`` is of a type ``schema`` names."""
    types = schema.get("type", ())
    types = [types] if isinstance(types, str) else types
    mismatch = not any(_is_type(value, t) for t in types)
    is_dict, is_list = isinstance(value, dict), isinstance(value, list)
    for keyword, arg in schema.items():
        message = None
        if keyword == "type" and mismatch:
            message = f"{value!r} is not of type {', '.join(map(repr, types))}"
        elif keyword == "enum" and not any(_equal(v, value) for v in arg):
            message = f"{value!r} is not one of {arg!r}"
        elif keyword == "const" and not _equal(arg, value):
            message = f"{arg!r} was expected"
        elif keyword in _BOUNDS and _is_type(value, "number"):
            fails, text = _BOUNDS[keyword]
            if fails(value, arg):
                message = f"{value!r} {text} {arg!r}"
        elif keyword == "minItems" and is_list and len(value) < arg:
            message = f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
        elif keyword == "maxItems" and is_list and len(value) > arg:
            message = f"{value!r} {'is expected to be empty' if arg == 0 else 'is too long'}"
        elif keyword == "required" and is_dict:
            for key in arg:
                if key not in value:
                    yield path, f"{key!r} is a required property", mismatch
        elif keyword == "additionalProperties" and is_dict:
            extra = sorted((k for k in value if k not in schema.get("properties", {})), key=str)
            if extra:
                message = (f"Additional properties are not allowed ({', '.join(map(repr, extra))}"
                           f" {'was' if len(extra) == 1 else 'were'} unexpected)")
        elif keyword == "properties" and is_dict:
            for key, sub in arg.items():
                if key in value:
                    yield from _schema_errors(value[key], sub, path + (key,))
        elif keyword == "prefixItems" and is_list:
            for index, (item, sub) in enumerate(zip(value, arg)):
                yield from _schema_errors(item, sub, path + (index,))
        elif keyword == "items" and is_list:
            for index in range(len(schema.get("prefixItems", ())), len(value)):
                yield from _schema_errors(value[index], arg, path + (index,))
        elif keyword == "allOf":
            for sub in arg:
                yield from _schema_errors(value, sub, path)
        elif keyword == "if" and "then" in schema and not any(_schema_errors(value, arg)):
            # ``then`` applies where ``if`` stands
            yield from _schema_errors(value, schema["then"], path)
        if message is not None:
            yield path, message, mismatch


def _schema_error(config):
    """(path, message) of the error that jsonschema's ``best_match`` picks
    among those of ``config`` against the published schema, or None: the
    shallowest, then the largest path, then one whose value is not of its
    schema's type; the first of equals."""
    error = max(_schema_errors(config, _schema()), default=None,
                key=lambda e: (-len(e[0]), e[0], e[2]))
    return None if error is None else error[:2]


def _key(path):
    """A config key path as ``prior.k`` or ``mu_bounds[0]``."""
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".")


def _non_finite(value, path=()):
    """Key paths and values of the NaN and infinite numbers in ``value``."""
    if isinstance(value, float) and not math.isfinite(value):
        yield path, value
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _non_finite(item, path + (key,))


def validate_config(config):
    error = _schema_error(config)
    if error is not None:
        path, message = error
        detail = f"{_key(path)}: {message}" if path else message
        raise ValueError(f"invalid configuration: {detail}")
    # JSON Schema cannot require a number to be finite
    for path, value in _non_finite(config):
        raise ValueError(f"invalid configuration: {_key(path)}: {value!r} is not a finite number")
    out = config.get("out") or ""
    if os.path.isdir(out):
        raise ValueError(f"invalid configuration: out: {out!r} is a directory")
    out_dir = os.path.dirname(out) or "."
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


def _name_list(text):
    return [v.strip() for v in text.split(",")]


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

    p = sub.add_parser("fit", help="MHB/BMH estimates on a dataset")
    add_common(p, with_data=True)
    p.add_argument("--estimator", default="both", choices=["mhb", "bmh", "both"])
    p.add_argument("--n-samples", type=int, default=2000)
    p.add_argument("--n-boot", type=int, default=200)
    p.add_argument("--levels", type=_float_list, default=[0.5, 0.9, 0.95])
    p.add_argument("--mu-bounds", type=_bounds_pair, default=None)
    p.add_argument("--sigma-bounds", type=_bounds_pair, default=None)
    p.add_argument("--workers", type=int, default=1,
                   help="ignored; kept only for the benchmark harness in perfbench/")

    p = sub.add_parser("robustness", help="gross-error contamination sweep")
    add_common(p, with_data=False)
    p.add_argument("--theta0", type=_float_list, default=[0.0, 1.0])
    p.add_argument("--contamination", type=float, default=0.1)
    p.add_argument("--z-grid", type=_float_list, default=[5.0, 20.0, 50.0])
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--estimators", type=_name_list, default=["mhb", "bmh", "mle"],
                   help="comma list drawn from mhb,bmh,mle")
    p.add_argument("--n-samples", type=int, default=200,
                   help="BMH draws per replicate when bmh is swept")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for the replicates (0 = all cores)")

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
    """Config dict of parsed ``args``: every flag under its destination name,
    the four prior flags folded into one ``prior`` object."""
    config = {key: value for key, value in vars(args).items()
              if key not in ("prior_mode", "k", "lam", "alpha")}
    config["prior"] = {"mode": args.prior_mode, "alpha": args.alpha}
    if args.prior_mode == "fixed":
        config["prior"]["k"] = args.k
    else:
        config["prior"]["lambda"] = args.lam
    return config


def _prior_from(config):
    spec = config["prior"]
    if spec["mode"] == "fixed":
        return HistogramPrior.fixed(spec.get("k", DEFAULT_FIXED_K), alpha=spec["alpha"])
    return HistogramPrior.poisson(spec.get("lambda", DEFAULT_POISSON_RATE),
                                  alpha=spec["alpha"])


def _family_from(config):
    # a parameter without a bound flag keeps the family's default box
    return GaussianFamily(bounds=(config.get("mu_bounds"), config.get("sigma_bounds")))


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
        padding=config["padding"])
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
        try:
            payload = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
        except ValueError:   # strict JSON has no NaN or infinite number
            raise FloatingPointError("the report holds a NaN or infinite number") from None
    if config["out"]:
        with open(config["out"], "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def run(config):
    """Validate and execute a config; returns the process exit code."""
    try:
        validate_config(config)
        results, study = _RUNNERS[config["command"]](config)
        _emit(config, results, study)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
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
    return run(resolve_config(args))


if __name__ == "__main__":
    sys.exit(main())
