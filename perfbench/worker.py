"""One round of a benchmark workload, in a fresh process.

run.py starts this script once per round, so every round pays the same
imports and meets the same cold caches as a user's ``nccheck`` command:

    python3 perfbench/worker.py WORKLOAD --seed N [--round R] [--trace] [--setup-only]

Set-up imports nccheck and loads the workload's inputs; then every operation
runs and is checked.  The last line of standard output is one JSON object:
``ready_at`` (``time.monotonic()`` when set-up ended), and unless
``--setup-only`` also ``op_s`` (seconds of each operation that did not raise),
``attempted``, ``failed``, ``failures`` (check messages), ``wall_s``,
``peak_rss_mb`` and, with ``--trace``, the tracer's per-function totals.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402  (benchmark-local module)

PRODUCT_FILES = ("golden/evenspin_pair_1.json", "golden/evenspin_pair_2.json")
GCT_SIZES = (2, 3, 4)  # `nccheck gct --dim-max 4` draws n uniformly from these
TORUS_BAND = 3


def _cli(argv):
    """Run ``nccheck ARGV --json`` in this process; returns (report, exit code)."""
    from nccheck import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([*argv, "--json"])
    return json.loads(buf.getvalue()), code


# -- product_evenspin2_koszul: one `nccheck product` command -----------------


def setup_product(seed, round_index):
    import nccheck.cli  # noqa: F401
    import nccheck.product  # noqa: F401
    from nccheck import numlin, serialize

    for path in PRODUCT_FILES:
        with open(os.path.join(ROOT, path)) as fh:
            serialize.triple_from_document(json.load(fh), numlin.DEFAULT_TOL)
    return [None]


def run_product(_):
    files = [os.path.join(ROOT, p) for p in PRODUCT_FILES]
    return _cli(["product", *files, "--j-mode", "koszul"])


def check_product(_, result):
    report, _code = result  # cmd_product exits 0 whatever its verdicts say
    return checks.check_product(report)


# -- gct_dim4: seeded graded-commutant-theorem trials ------------------------


def _gct_factor(rng, n, positive, parities):
    """A grading on C^n with ``positive`` eigenvalues +1, put in general
    position by a random unitary, and one random generator of each parity in
    ``parities``, as ``product.random_graded_pair`` builds a factor."""
    import numpy as np
    from nccheck import product

    signs = np.array([1.0] * positive + [-1.0] * (n - positive))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    gamma = q @ np.diag(signs).astype(complex) @ q.conj().T
    gamma = (gamma + gamma.conj().T) / 2
    gens = []
    for parity in parities:
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        even, odd = product.homogeneous_parts(x, gamma)
        gens.append(even if parity == "even" else odd)
    return gens, gamma


def gct_factor_kinds(n):
    """The 24 equally likely kinds of an n-dimensional factor, weighted as
    ``product.random_graded_pair`` draws them: (positive eigenvalues, parities).

    It draws 1, 2 or 3 generators with equal chance and each even or odd
    with equal chance, so every parity tuple of length k has weight
    2^-k / 3, that is 8 / 2^k of 24.  Its grading's signs are fair coins,
    with an all-equal draw flipped at the first sign.  A grading and its
    negative give the same algebras, so only min(p, n - p) matters: it is 1
    for n = 2 and 3, and for n = 4 it is 1 with weight 10/16 and 2 with
    weight 6/16, that is 15 and 9 of the 24 kinds, 5:3 for each k.
    """
    import itertools

    kinds = []
    for k in (1, 2, 3):
        block = [
            parities
            for _ in range(8 >> k)
            for parities in itertools.product(("even", "odd"), repeat=k)
        ]
        for j, parities in enumerate(block):
            kinds.append((2 if n == 4 and j % 8 in (1, 4, 6) else 1, parities))
    return kinds


def gct_inputs(seed, round_index):
    """The 216 trials of one round: for each of the 9 ordered pairs of sizes,
    the 24 kinds of the first factor, each paired with a kind of the second
    factor at an offset that differs between size pairs.  Both factors thus
    have the make-up of ``nccheck gct --dim-max 4`` exactly, and the seed
    draws only the unitaries and the generator entries, so the cost of a
    round does not vary with it.
    """
    import numpy as np

    rng = np.random.default_rng([seed, round_index])
    trials = []
    for pair_index, (n1, n2) in enumerate((a, b) for a in GCT_SIZES for b in GCT_SIZES):
        kinds1, kinds2 = gct_factor_kinds(n1), gct_factor_kinds(n2)
        offset = 7 * pair_index
        for u, (p1, parities1) in enumerate(kinds1):
            p2, parities2 = kinds2[(u + offset) % len(kinds2)]
            trials.append(
                (_gct_factor(rng, n1, p1, parities1), _gct_factor(rng, n2, p2, parities2))
            )
    return trials


def setup_gct(seed, round_index):
    import nccheck.product  # noqa: F401

    return gct_inputs(seed, round_index)


def run_gct(trial):
    from nccheck import numlin, product

    (gens1, gamma1), (gens2, gamma2) = trial
    b1 = product.generate_star_algebra(gens1, True)
    b2 = product.generate_star_algebra(gens2, True)
    pair = product.GradedAlgebraPair(b1, b2, gamma1, gamma2)
    return product.verify_gct(pair, numlin.DEFAULT_TOL, want_witness=False)


def check_gct(trial, rep):
    (gens1, _), (gens2, _) = trial
    return checks.check_gct_trial(
        rep.details, rep.holds, checks.commutant_dim(gens1), checks.commutant_dim(gens2)
    )


# -- torus_band3: one `nccheck torus` command ---------------------------------


def setup_torus(seed, round_index):
    import nccheck.cli  # noqa: F401
    import nccheck.torus  # noqa: F401

    return [TORUS_BAND]


def run_torus(band):
    return _cli(["torus", "--band", str(band)])


def check_torus(_, result):
    report, code = result
    return checks.check_torus(report, code)


WORKLOADS = {
    "product_evenspin2_koszul": (setup_product, run_product, check_product),
    "gct_dim4": (setup_gct, run_gct, check_gct),
    "torus_band3": (setup_torus, run_torus, check_torus),
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    setup, run, check = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import nccheck

    src = os.path.join(ROOT, "src", "nccheck")
    if os.path.dirname(os.path.abspath(nccheck.__file__)) != src:
        print(f"error: imported nccheck from {nccheck.__file__}, not {src}", file=sys.stderr)
        return 2
    items = setup(args.seed, args.round)
    ready_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    op_s, failures, failed = [], [], 0
    for item in items:
        started = time.perf_counter()
        try:
            result = run(item)
        except Exception:  # one failed operation must not end the round
            traceback.print_exc()
            failed += 1
            continue
        op_s.append(time.perf_counter() - started)
        failures += check(item, result)
    wall_s = time.monotonic() - ready_at
    out = {
        "ready_at": ready_at,
        "op_s": op_s,
        "attempted": len(items),
        "failed": failed,
        "failures": failures,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["trace"] = tracer.stats()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
