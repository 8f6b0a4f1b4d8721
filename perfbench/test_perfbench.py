"""Tests of the benchmark itself; run from the repository root with

    python3 -m pytest perfbench -q

The product fixture runs ``nccheck product`` once (about 40 s, 3.2 GB).
"""

from __future__ import annotations

import collections
import copy
import itertools
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

ENV = run.worker_env()


def _nccheck_json(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "nccheck.cli", *argv, "--json"],
        env=ENV, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
    )
    return json.loads(proc.stdout), proc.returncode


def _check(report, name):
    return next(c for c in report["checks"] if c["name"] == name)


@pytest.fixture(scope="module")
def product_report():
    files = [os.path.join(ROOT, p) for p in worker.PRODUCT_FILES]
    report, _ = _nccheck_json("product", *files, "--j-mode", "koszul")
    return report


@pytest.fixture(scope="module")
def torus_band3():
    return _nccheck_json("torus", "--band", "3")


# -- product_evenspin2_koszul -------------------------------------------------


def test_product_expectations_follow_from_the_factor():
    exp = checks.product_expectations()
    assert (exp["algebra_dim"], exp["one_forms_dim"], exp["clifford_dim"]) == (16, 32, 64)
    assert exp["morita"] == {
        "classify_spin": (64, 256),
        "classify_even_spin": (128, 256),
        "classify_hodge": (64, 64),
    }


def test_product_output_passes(product_report):
    assert checks.check_product(product_report) == []


def _set_detail(key, value):
    def corrupt(report):
        report["details"][key] = value
    return corrupt


def _set_holds(name, value):
    def corrupt(report):
        _check(report, name)["holds"] = value
    return corrupt


def _set_check_detail(name, key, value):
    def corrupt(report):
        _check(report, name)["details"][key] = value
    return corrupt


PRODUCT_CORRUPTIONS = {
    "algebra_dim": _set_detail("algebra_dim", 15),
    "one_forms_dim": _set_detail("one_forms_dim", 31),
    "clifford_dim": _set_detail("clifford_dim", 63),
    "hilbert_dim": _set_detail("hilbert_dim", 32),
    "koszul_order_two": _set_holds("order_two", False),
    "prop22": _set_holds("prop22_koszul_order_two", False),
    "plain_order_two": _set_check_detail("prop22_koszul_order_two", "plain_mode_order_two", True),
    **{f"lemma_{name}": _set_holds(name, False) for name in checks.PRODUCT_LEMMAS},
    "spin_verdict": _set_holds("classify_spin", True),
    "even_spin_verdict": _set_holds("classify_even_spin", True),
    "hodge_verdict": _set_holds("classify_hodge", False),
    "spin_commutant": _set_check_detail("classify_spin", "dim_circ_commutant", 64),
    "even_spin_dim": _set_check_detail("classify_even_spin", "dim_b1", 64),
    "hodge_commutant": _set_check_detail("classify_hodge", "dim_circ_commutant", 256),
    "missing_check": lambda r: r["checks"].remove(_check(r, "clifford_graded_product")),
}


@pytest.mark.parametrize("corruption", sorted(PRODUCT_CORRUPTIONS))
def test_product_check_catches(product_report, corruption):
    report = copy.deepcopy(product_report)
    PRODUCT_CORRUPTIONS[corruption](report)
    assert checks.check_product(report)


# -- torus_band3 ----------------------------------------------------------------


def test_torus_output_passes(torus_band3):
    assert checks.check_torus(*torus_band3) == []


def _witness_norm(value):
    def corrupt(report):
        _check(report, "j1_order_two")["witness"]["norm"] = value
    return corrupt


TORUS_CORRUPTIONS = {
    "mismatch": lambda r: r["expected_mismatches"].append({"check": "x"}),
    "j1_order_zero": _set_holds("j1_order_zero", False),
    "j1_order_one": _set_holds("j1_order_one", False),
    "j1_order_two": _set_holds("j1_order_two", True),
    "j1_witness_norm": _witness_norm(1.0),
    "j2_untwisted_defined": _set_check_detail("sign_eps_prime_j2_untwisted", "value", 1),
    "j2_twisted_undefined": _set_check_detail("sign_eps_prime_j2_twisted", "value", None),
    "tau": _set_holds("tau_equals_j1_j2", False),
    "ko": _set_check_detail("ko_j1_contains_0", "ko_set", [2]),
}


@pytest.mark.parametrize("corruption", sorted(TORUS_CORRUPTIONS))
def test_torus_check_catches(torus_band3, corruption):
    report = copy.deepcopy(torus_band3[0])
    TORUS_CORRUPTIONS[corruption](report)
    assert checks.check_torus(report, 0)


def test_torus_check_catches_exit_code(torus_band3):
    assert checks.check_torus(torus_band3[0], 1)


def test_torus_verdicts_do_not_depend_on_the_band(torus_band3):
    band4 = _nccheck_json("torus", "--band", "4")
    assert checks.check_torus(*band4) == []
    assert checks.torus_verdicts(band4[0]) == checks.torus_verdicts(torus_band3[0])


# -- gct_dim4 -------------------------------------------------------------------


def _random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_commutant_dim_on_known_algebras():
    rng = np.random.default_rng(0)
    # a generic matrix generates M_n, whose commutant is the scalars
    assert checks.commutant_dim([_random_matrix(rng, 4)]) == 1
    # a generic block-diagonal matrix generates M_2 + M_2: commutant C + C
    block = np.zeros((4, 4), dtype=complex)
    block[:2, :2] = _random_matrix(rng, 2)
    block[2:, 2:] = _random_matrix(rng, 2)
    assert checks.commutant_dim([block]) == 2
    # M_2 (x) 1 on C^2 (x) C^3 has commutant 1 (x) M_3
    gens = [np.kron(_random_matrix(rng, 2), np.eye(3)) for _ in range(2)]
    assert checks.commutant_dim(gens) == 9
    assert checks.commutant_dim([np.eye(3)]) == 9


@pytest.mark.parametrize("seed", [0, 987654])
def test_gct_checks_pass(seed):
    worker.setup_gct(seed, 0)
    for trial in worker.gct_inputs(seed, 0):
        assert worker.check_gct(trial, worker.run_gct(trial)) == []


def _cli_factor_weights(n):
    """Weights of (min(p, n - p), parities) in a factor of
    ``product.random_graded_pair``, out of 24: 1-3 generators with equal
    chance, each even or odd with equal chance, and fair signs whose
    all-equal draws are flipped at the first sign."""
    classes = collections.Counter()
    for signs in itertools.product((1, -1), repeat=n):
        p = signs.count(1)
        p = 1 if p == 0 else n - 1 if p == n else p
        classes[min(p, n - p)] += 1
    tuples = collections.Counter()
    for k in (1, 2, 3):
        for parities in itertools.product(("even", "odd"), repeat=k):
            tuples[parities] += 24 // (3 * 2**k)
    return {c: 24 * w // 2**n for c, w in classes.items()}, tuples


@pytest.mark.parametrize("n", worker.GCT_SIZES)
def test_gct_factor_kinds_weigh_as_the_cli_draws(n):
    kinds = worker.gct_factor_kinds(n)
    classes, tuples = _cli_factor_weights(n)
    assert len(kinds) == 24
    assert collections.Counter(min(p, n - p) for p, _ in kinds) == classes
    assert collections.Counter(parities for _, parities in kinds) == tuples


def test_gct_round_covers_every_shape():
    trials = worker.gct_inputs(0, 0)
    assert len(trials) == 216
    shapes = collections.Counter((a[1].shape[0], b[1].shape[0]) for a, b in trials)
    assert shapes == {(n1, n2): 24 for n1 in (2, 3, 4) for n2 in (2, 3, 4)}
    for side in (0, 1):
        sizes = collections.Counter(t[side][1].shape[0] for t in trials)
        counts = collections.Counter(len(t[side][0]) for t in trials)
        assert sizes == {2: 72, 3: 72, 4: 72} and counts == {1: 72, 2: 72, 3: 72}
    again = worker.gct_inputs(0, 0)
    assert all(np.array_equal(x[0][1], y[0][1]) for x, y in zip(trials, again))


GCT_CORRUPTIONS = {
    "holds": lambda d: d.__setitem__("holds", False),
    "graded_product": lambda d: d.__setitem__("dim_graded_product", d["dim_graded_product"] + 1),
    "lhs_commutant": lambda d: d.__setitem__("dim_lhs_commutant", d["dim_lhs_commutant"] + 1),
    "rhs": lambda d: d.__setitem__("dim_rhs", d["dim_rhs"] * 2),
}


@pytest.fixture(scope="module")
def gct_trial():
    worker.setup_gct(0, 0)
    # sizes (4, 4), with three generators on the first factor
    trial = next(
        t for t in worker.gct_inputs(0, 0)
        if t[0][1].shape[0] == t[1][1].shape[0] == 4 and len(t[0][0]) == 3
    )
    rep = worker.run_gct(trial)
    comms = [checks.commutant_dim(f[0]) for f in trial]
    return rep, comms


@pytest.mark.parametrize("corruption", sorted(GCT_CORRUPTIONS))
def test_gct_check_catches(gct_trial, corruption):
    rep, (c1, c2) = gct_trial
    details = dict(rep.details, holds=rep.holds)
    GCT_CORRUPTIONS[corruption](details)
    assert checks.check_gct_trial(details, details.pop("holds"), c1, c2)


def test_gct_check_catches_wrong_commutant(gct_trial):
    rep, (c1, c2) = gct_trial
    assert checks.check_gct_trial(rep.details, rep.holds, c1, c2) == []
    assert checks.check_gct_trial(rep.details, rep.holds, c1 + 1, c2)


# -- tracer and harness ---------------------------------------------------------


def test_tracer_rebinds_every_import_by_name():
    code = (
        "import sys; sys.path.insert(0, 'perfbench');"
        "from tracer import Tracer; t = Tracer(); t.install();"
        "from nccheck import algebra, morita, triple, product, tests_support;"
        "f = algebra.commutes_with_all; assert hasattr(f, '__wrapped__');"
        "assert all(m.commutes_with_all is f for m in (morita, triple, product, tests_support))"
    )
    subprocess.run([sys.executable, "-c", code], env=ENV, cwd=ROOT, check=True)


def test_traced_round_counts_calls():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "gct_dim4", "--seed", "0", "--trace"],
        env=ENV, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    out = json.loads(proc.stdout.splitlines()[-1])
    trace = out["trace"]
    assert out["failures"] == [] and out["attempted"] == 216
    assert trace["product.verify_gct"]["calls"] == 216
    assert trace["algebra.commutant"]["calls"] == 3 * 216
    assert trace["algebra.generate_star_algebra"]["calls"] == 2 * 216
    assert trace["morita.morita_test"]["calls"] == 0
    for stats in trace.values():
        assert 0 <= stats["self_s"] <= stats["incl_s"] + 1e-9
    covered = sum(s["self_s"] for s in trace.values())
    assert covered <= out["wall_s"]


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(
        tracer.metric_name(mod, fn, field) for mod, fn, field, _ in tracer.PER_LAYER
    )
    units = {tracer.metric_name(m, f, field): u for m, f, field, u in tracer.PER_LAYER}
    assert all(units[m["name"]] == m["unit"] for m in spec["per_layer"])
    rounds = [{"op_s": [1.0, 2.0], "wall_s": 3.0, "peak_rss_mb": 4.0}]
    e2e = run.end_to_end([0.5], rounds)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "torus_band3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
