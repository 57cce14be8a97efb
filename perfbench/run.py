"""mhdbayes benchmark: one workload, timed end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload bmh-newcomb --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it times a fixed number of complete workload runs
(after an untimed warm-up), as many as take about ``--seconds`` seconds at
the workload's typical speed, and reports the end-to-end metrics:
``wall_s`` is the upper quartile of the run times, ``setup_s`` the median over fresh
processes that import mhdbayes and make the input.  With ``--trace 1`` it
alternates two runs without spans and two traced runs, checks that the
traced work counts repeat exactly, and reports the per-layer metrics of
``spans.Tracer``.  Everything runs in one process
on one thread.  Human-readable lines come first; the last line of standard
output is the JSON result.  Each result, with the environment it was
measured in, is also written under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("bmh-newcomb", "boot-newcomb", "contam-sweep")
SETUP_PROBES = 3
MIN_RUNS = 3
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", type=float, metavar="T0", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def pin_environment():
    """One BLAS/OpenMP thread and one mhdbayes worker; must run before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["MHDBAYES_WORKERS"] = "1"
    sys.path.insert(0, str(SRC))


def probe_setup(args):
    """Wall time of a fresh process, from its launch until its input is made.

    The child reads the end on the system-wide monotonic clock, so process
    exit is left out, and so is the polling granularity of a wait with a
    timeout.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           repr(time.monotonic()), "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True,
                          timeout=PROBE_TIMEOUT_S)
    return float(proc.stdout.splitlines()[-1])


def probe_child(args):
    """Set up as a fresh process would; print the seconds since launch."""
    import workloads
    workloads.WORKLOADS[args.workload]().prepare(args.seed)
    print(time.monotonic() - args.probe_setup)
    return 0


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def environment(args):
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "jsonschema": metadata.version("jsonschema"),
            "commit": git_commit(), "workers": 1,
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def listed_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_untraced(wl, args):
    setup = [probe_setup(args) for _ in range(SETUP_PROBES)]
    # A fixed number of runs per seed, so that the fits attempted and the
    # fits the program reports failed repeat exactly from one invocation
    # to the next; a time window would make them depend on the host.
    n_runs = max(MIN_RUNS, round(args.seconds / wl.typical_s))
    outcomes, walls = [], []
    for _ in range(n_runs):
        t0 = time.perf_counter()
        outcomes.append(wl.run())
        walls.append(time.perf_counter() - t0)
    # Shared hosts switch between a fast state and a ~1.65x slower one in
    # episodes of seconds to minutes, and spend most of their time in the
    # slow one.  The upper quartile of the runs stays on that state's level
    # unless fast episodes take three quarters of the runs; the median
    # jumps between the two levels when they take about half.
    wall = statistics.quantiles(walls, n=4, method="inclusive")[2]
    setup_s = statistics.median(setup)
    attempted = sum(o.fits for o in outcomes)
    failed = sum(o.failed if o.correct else o.fits for o in outcomes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "fits_per_s": (wl.fits / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
        "ref_err": (outcomes[-1].ref_err, "data"),
    }
    detail = {"setup_s": setup, "run_walls_s": walls, "failed_frac": failed / attempted}
    print(f"setup: {len(setup)} fresh processes; "
          + ", ".join(f"{t:.3f}" for t in setup) + f" s; median {setup_s:.4f} s")
    print(f"runs: {len(walls)} complete runs of {wl.fits} fits; walls "
          + ", ".join(f"{w:.3f}" for w in walls)
          + f" s; upper quartile {wall:.4f} s")
    print(f"failed_frac {detail['failed_frac']:.6f} ({failed} of {attempted} fits)")
    return metrics, outcomes, attempted, failed, detail


def run_traced(wl, args):
    import spans

    # Untraced and traced runs alternate, so that a change of host speed
    # during the invocation falls on both kinds alike.
    tracer = spans.Tracer()
    outcomes, untraced_walls, walls = [], [], []
    for run_id in (1, 2):
        t0 = time.perf_counter()
        outcomes.append(wl.run())
        untraced_walls.append(time.perf_counter() - t0)
        with tracer.installed():
            tracer.run_id = run_id
            t0 = time.perf_counter()
            outcomes.append(wl.run())
            walls.append(time.perf_counter() - t0)
    first, second = tracer.layer_metrics(1), tracer.layer_metrics(2)
    mismatched = [name for name, (value, unit) in first.items()
                  if unit == "count" and value != second[name][0]]
    for o in outcomes:
        o.gates.append(("exact-counts", not mismatched,
                        "traced work counts repeat between two runs"
                        + (f"; differ: {', '.join(mismatched)}" if mismatched else "")))
    report_bytes = outcomes[-1].report_bytes
    metrics = {name: (statistics.fmean([value, second[name][0]]) if unit in ("s", "ms", "ns")
                      else value, unit)
               for name, (value, unit) in first.items()}
    metrics["cli.report_bytes"] = (report_bytes, "B")
    metrics["trace.overhead_s"] = (statistics.median(walls) - statistics.median(untraced_walls), "s")

    table = tracer.table(1)
    stats = tracer.mhd_stats(1)
    print("untraced walls " + ", ".join(f"{w:.3f}" for w in untraced_walls) + " s; traced walls "
          + ", ".join(f"{w:.3f}" for w in walls) + " s")
    print(f"functional.mhd.tail_ms is p{stats['tail_pct']:g} over {stats['calls']} calls; "
          f"first traced run: p50 {stats['p50_ms']:.3f} ms, tail {stats['tail_ms']:.3f} ms")
    print("functional.bytes_per_eval is computed: 3 float64 arrays of nodes_per_eval")
    print(f"{'span':<45} {'calls':>8} {'self_s':>10} {'total_s':>10} {'work':>12}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:<45} {row['calls']:>8} {row['self_s']:>10.4f} "
              f"{row['total_s']:>10.4f} {row['work']:>12.0f}")
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.dump(OUT / f"spans-{args.workload}.npz",
                {"workload": args.workload, "seed": args.seed})
    attempted = sum(o.fits for o in outcomes)
    failed = sum(o.failed if o.correct else o.fits for o in outcomes)
    detail = {"untraced_walls_s": untraced_walls, "traced_walls_s": walls,
              "spans_run1": table, "mhd_tail_pct": stats["tail_pct"], "bound": tracer.bound}
    return metrics, outcomes, attempted, failed, detail


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "mhdbayes" / "__init__.py").is_file():
        print(f"error: mhdbayes sources not found under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    if args.probe_setup is not None:
        return probe_child(args)
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    wl.prepare(args.seed)
    env = environment(args)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))
    wl.warm_up()
    runner = run_traced if args.trace else run_untraced
    metrics, outcomes, attempted, failed, detail = runner(wl, args)

    expected = listed_metrics(args.trace)
    produced = {name: unit for name, (_, unit) in metrics.items()}
    if produced != expected:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {produced} vs {expected}")
    for label, ok, text in outcomes[-1].gates:
        print(f"gate  {label:<12} {'PASS' if ok else 'FAIL'}  {text}")
    for label, ok, text in outcomes[-1].known:
        print(f"known {label:<12} {'PASS' if ok else 'FAIL'}  {text} [not gated]")
    for note in outcomes[-1].notes:
        print(f"note  {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<50} {value!s:>22} {unit}")

    result = {"correct": all(o.correct for o in outcomes), "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    OUT.mkdir(parents=True, exist_ok=True)
    record = {"env": env, "result": result, "detail": detail,
              "gates": [list(g) for g in outcomes[-1].gates],
              "known": [list(k) for k in outcomes[-1].known]}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
