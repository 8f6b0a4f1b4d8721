"""Benchmark nccheck on one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each round runs in a fresh worker process
(perfbench/worker.py) with the BLAS thread count pinned to BLAS_THREADS;
rounds repeat until S seconds have passed, and at least one runs.  A worker
that runs longer than WORKER_LIMIT_S is stopped and the run fails.  Before
the rounds, SETUP_PROBES workers only set up, so that set-up time is a
median even when one round fills the run.

With --trace 0 the metrics are the end-to-end ones: set-up time, wall time
and peak memory of a round, and the median and 90th percentile of the time
per operation.  With --trace 1 every round is traced instead, and the
metrics are per-layer call counts, sizes and self times, each the median
over the run's rounds.  The last line of standard output is the result;
the samples behind it are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import PER_LAYER, metric_name  # noqa: E402  (benchmark-local module)

WORKLOADS = ("product_evenspin2_koszul", "gct_dim4", "torus_band3")
SETUP_PROBES = 15
# Longest a single worker may take: a product round takes 35-40 s on the
# machine this was tuned on, an earlier, slower one took about 100 s.
WORKER_LIMIT_S = 170
# One BLAS thread.  On the shared 2-core machine this was tuned on, two
# threads spread gct_dim4's wall_s over five seeds 1.5-2.5 times as widely
# as one; with one thread a layer's self time is also its CPU time.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    env.pop("NCCHECK_TOL", None)  # every run uses the default tolerance
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in BLAS_THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(args, env):
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            env=env,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=WORKER_LIMIT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {args} ran past the {WORKER_LIMIT_S} s limit of one worker") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {args} exited {proc.returncode}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["ready_at"] - spawned
    return out


def end_to_end(setups, rounds):
    ops = [t for r in rounds for t in r["op_s"]]
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    if ops:
        p90 = statistics.quantiles(ops, n=10, method="inclusive")[8] if len(ops) > 1 else ops[0]
        values["op_s.p50"] = (statistics.median(ops), "s")
        values["op_s.p90"] = (p90, "s")
    return values


def per_layer(rounds):
    values = {}
    for mod, fn, field, unit in PER_LAYER:
        per_round = [r["trace"].get(f"{mod}.{fn}", {}).get(field, 0) for r in rounds]
        values[metric_name(mod, fn, field)] = (statistics.median_low(per_round), unit)
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nccheck", "__init__.py")):
        print(f"error: no nccheck sources under {ROOT}/src", file=sys.stderr)
        return 2

    started = time.monotonic()
    env = worker_env()
    base = [args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(run_worker([*base, "--setup-only"], env)["setup_s"])
        rounds = []
        measuring = time.monotonic()
        while not rounds or time.monotonic() - measuring < args.seconds:
            cmd = [*base, "--round", str(len(rounds))] + (["--trace"] if args.trace else [])
            rounds.append(run_worker(cmd, env))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups += [r["setup_s"] for r in rounds]

    failures = [msg for r in rounds for msg in r["failures"]]
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    metrics = per_layer(rounds) if args.trace else end_to_end(setups, rounds)
    result = {
        # no operation is expected to raise on any workload, so one that
        # does makes the run incorrect as well as counting in "failed"
        "correct": not failures and not any(r["failed"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "setup_s": setups,
        "rounds": rounds,
        "result": result,
    }
    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, f"{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(
        f"{args.workload}: {len(rounds)} rounds, blas_threads={BLAS_THREADS}, "
        f"{time.monotonic() - started:.1f} s; samples in {os.path.relpath(path, ROOT)}",
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
