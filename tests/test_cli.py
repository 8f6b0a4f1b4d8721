import importlib
import importlib.util
import json
import os
import subprocess
import sys
import time

import pytest

from nccheck.numlin import DEFAULT_TOL
from oracles import dense_document

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "golden")
DATA = os.path.join(ROOT, "tests", "data")


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "nccheck.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )
    return proc


def test_check_golden_hodge_exit_zero():
    proc = run_cli("check", os.path.join(GOLDEN, "hodge_m2.json"))
    assert proc.returncode == 0, proc.stderr
    assert "classify_hodge" in proc.stdout


def test_check_malformed_json_exit_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    proc = run_cli("check", str(p))
    assert proc.returncode == 2
    assert "parse" in proc.stderr


_BAD_ENTRIES = ["oops", [float("nan"), 0.0], [float("inf"), 0.0], [True, False], [10**400, 0]]


@pytest.mark.parametrize(
    "field, value, path",
    [("dirac[0][1]", entry, "dirac[0][1]") for entry in _BAD_ENTRIES]
    + [("hilbert_dim", [4], "hilbert_dim"), ("metadata", [1], "metadata"),
       ("hilbert_dim", "four", "hilbert_dim"),
       ("metadata", {"expected": [1]}, "metadata.expected")],
    ids=["oops", "nan", "infinity", "boolean", "huge_integer",
         "hilbert_dim_list", "metadata_list", "hilbert_dim_string", "expected_list"],
)
def test_check_schema_error_names_field(tmp_path, field, value, path):
    # a bad matrix entry goes into a bare 1x2 document, a bad top-level field
    # into the Hodge golden file; json.dumps writes NaN and Infinity, which
    # json.load reads back
    if field == "dirac[0][1]":
        doc = {"schema_version": "nccheck/1", "algebra_generators": [],
               "dirac": [[[0.0, 0.0], value]]}
    else:
        doc = json.load(open(os.path.join(GOLDEN, "hodge_m2.json")))
        doc[field] = value
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    proc = run_cli("check", str(p))
    assert proc.returncode == 2
    assert path in proc.stderr
    assert "Traceback" not in proc.stderr


def test_check_invariant_violation_exit_3(tmp_path):
    doc = json.load(open(os.path.join(GOLDEN, "hodge_m2.json")))
    doc["dirac"][0][1] = [7.0, 0.0]
    doc["metadata"] = {}
    p = tmp_path / "nonsa.json"
    p.write_text(json.dumps(doc))
    proc = run_cli("check", str(p))
    assert proc.returncode == 3
    assert "dirac_self_adjoint" in proc.stderr


def _hodge_variant(tmp_path, name, edit):
    doc = json.load(open(os.path.join(GOLDEN, "hodge_m2.json")))
    doc["metadata"] = {}
    edit(doc)
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_empty_generator_list_exit_3(tmp_path):
    empty = _hodge_variant(tmp_path, "empty.json", lambda d: d.update(algebra_generators=[]))
    hodge = os.path.join(GOLDEN, "hodge_m2.json")
    for args in (("check", empty), ("product", empty, hodge), ("product", hodge, empty)):
        proc = run_cli(*args)
        assert proc.returncode == 3, (args, proc.stderr)
        assert "algebra_generators_nonempty" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_check_over_the_closure_budget_exit_3_before_any_closure(tmp_path, monkeypatch, capsys):
    # a generic pair of 200 x 200 generators may generate M_200: a closure
    # basis of 200^4 complex entries (25.6 GB), over the budget
    from nccheck import algebra, cli
    from nccheck import triple as triple_mod

    p = tmp_path / "dense200.json"
    p.write_text(json.dumps(dense_document(200, 0)))

    def never(*args, **kwargs):
        raise AssertionError("a closure was spun")

    monkeypatch.setattr(algebra, "spin", never)
    monkeypatch.setattr(triple_mod, "spin", never)
    started = time.perf_counter()
    assert cli.main(["check", str(p)]) == 3
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    assert "closure_size_budget" in err and "hilbert_dim 200" in err and f"{200**4} complex" in err


def _scale_dirac(s):
    def edit(doc):
        doc["dirac"] = [[[re * s, im * s] for re, im in row] for row in doc["dirac"]]

    return edit


@pytest.mark.parametrize("scale", [1e155, 1e300])
def test_dirac_with_overflowing_square_exit_3(tmp_path, scale):
    proc = run_cli("check", _hodge_variant(tmp_path, "big.json", _scale_dirac(scale)))
    assert proc.returncode == 3, proc.stderr
    assert "dirac_norm_squared_finite" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_dirac_with_finite_square_runs_to_verdicts(tmp_path):
    proc = run_cli("check", _hodge_variant(tmp_path, "big.json", _scale_dirac(1e150)), "--json")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    names = {c["name"] for c in json.loads(proc.stdout)["checks"]}
    assert {"order_zero", "order_one", "order_two"} <= names


def test_check_dense_generic_pair_spans_full_matrix_algebra(tmp_path):
    # a generic pair generates M_16, so A = Omega^1 = Cl_D = M_16 (256)
    p = tmp_path / "dense16.json"
    p.write_text(json.dumps(dense_document(16, 0)))
    proc = run_cli("check", str(p), "--json")
    assert proc.returncode == 0, proc.stderr
    det = json.loads(proc.stdout)["details"]
    assert (det["algebra_dim"], det["one_forms_dim"], det["clifford_dim"]) == (256, 256, 256)


def test_expected_mismatch_exit_1(tmp_path):
    doc = json.load(open(os.path.join(GOLDEN, "hodge_m2.json")))
    doc["metadata"]["expected"]["classify_spin"] = False  # wrong on purpose
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    proc = run_cli("check", str(p))
    assert proc.returncode == 1


def test_json_output_deterministic():
    args = ("check", os.path.join(GOLDEN, "evenspin.json"), "--json")
    out1 = run_cli(*args).stdout
    out2 = run_cli(*args).stdout
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["elapsed_seconds"] == 0.0
    assert rep["schema_version"] == "nccheck/1"


def test_nccheck_tol_env_honored(tmp_path):
    # a small self-adjointness defect rejects under the default tolerance but
    # passes when NCCHECK_TOL loosens it
    doc = json.load(open(os.path.join(GOLDEN, "hodge_m2.json")))
    doc["dirac"][0][1] = [doc["dirac"][0][1][0] + 1e-6, 0.0]
    doc["metadata"] = {}
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    assert run_cli("check", str(p)).returncode == 3
    proc = run_cli("check", str(p), env_extra={"NCCHECK_TOL": "1e-3"})
    assert proc.returncode == 0, proc.stderr


def _pinned(name):
    with open(os.path.join(DATA, name), newline="") as fh:
        return fh.read()


def test_torus_command_json():
    proc = run_cli("torus", "--band", "3", "--json")
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["expected_mismatches"] == []
    assert proc.stdout == _pinned("torus_band3.json")  # byte-identical


def test_torus_command_json_band_4():
    proc = run_cli("torus", "--band", "4", "--json")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == _pinned("torus_band4.json")


def test_gct_command_json():
    # dimensions and booleans only, so the bytes hold under any BLAS thread count
    proc = run_cli("gct", "--trials", "100", "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["failures"] == 0
    assert proc.stdout == _pinned("gct_trials100.json")  # byte-identical


def test_torus_band_above_max_exits_2_before_building(monkeypatch, capsys):
    from nccheck import cli, torus

    def never(*args, **kwargs):
        raise AssertionError("an operator was built")

    monkeypatch.setattr(torus, "dirac_op", never)
    monkeypatch.setattr(torus, "op_matrix", never)
    assert cli.main(["torus", "--band", "1000"]) == 2
    assert f"band must be <= {torus.MAX_BAND}" in capsys.readouterr().err


# pinned `product --json` outputs: (first, second, j-mode) -> tests/data file
_PINNED_PRODUCTS = {
    "product_evenspin2_koszul.json": ("evenspin_pair_1.json", "evenspin_pair_2.json", "koszul"),
    "product_evenspin2_plain.json": ("evenspin_pair_1.json", "evenspin_pair_2.json", "plain"),
    "product_mixed_koszul.json": ("mixed_1.json", "mixed_2.json", "koszul"),
    "product_hodge_m2_sq_koszul.json": ("hodge_m2.json", "hodge_m2.json", "koszul"),
}


def _product_json(capsys, name):
    from nccheck import cli

    first, second, mode = _PINNED_PRODUCTS[name]
    argv = ["product", os.path.join(GOLDEN, first), os.path.join(GOLDEN, second)]
    assert cli.main([*argv, "--j-mode", mode, "--json"]) == 0
    return capsys.readouterr().out


def test_product_command_json_evenspin2_koszul_pinned(capsys):
    name = "product_evenspin2_koszul.json"
    assert _product_json(capsys, name) == _pinned(name)  # byte-identical


@pytest.mark.parametrize(
    "name", ["product_evenspin2_plain.json", "product_mixed_koszul.json",
             "product_hodge_m2_sq_koszul.json"]
)
def test_product_command_json_matches_pinned(capsys, name):
    assert _product_json(capsys, name) == _pinned(name)  # byte-identical


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "abc"])
def test_tol_option_must_be_finite_and_nonnegative(capsys, value):
    from nccheck import cli

    with pytest.raises(SystemExit) as exc:
        cli.main(["check", os.path.join(GOLDEN, "hodge_m2.json"), "--tol", value])
    assert exc.value.code == 2
    assert "argument --tol" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "-inf", "-1e-3", "abc"])
def test_nccheck_tol_env_invalid_ignored(monkeypatch, capsys, value):
    from nccheck import cli

    monkeypatch.setenv("NCCHECK_TOL", value)
    assert cli._default_tol() == DEFAULT_TOL
    assert "ignoring invalid NCCHECK_TOL" in capsys.readouterr().err


def test_tol_zero_reaches_the_triple(tmp_path):
    # a 1e-12 self-adjointness defect passes the default tolerance, but
    # --tol 0 asks for exact self-adjointness and must not fall back to it
    from nccheck.serialize import triple_from_document

    doc = json.load(open(os.path.join(GOLDEN, "hodge_m2.json")))
    assert triple_from_document(doc, 0.0).tol == 0.0
    assert triple_from_document(doc).tol == DEFAULT_TOL
    doc["dirac"][0][1] = [doc["dirac"][0][1][0] + 1e-12, 0.0]
    doc["metadata"] = {}
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    assert run_cli("check", str(p)).returncode == 0
    proc = run_cli("check", str(p), "--tol", "0")
    assert proc.returncode == 3
    assert "dirac_self_adjoint" in proc.stderr


def test_traced_functions_exist():
    # perfbench's --trace 1 rebinds these by name; a rename breaks it silently
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, function, _, _ in tracer.PER_LAYER:
        mod = importlib.import_module(f"nccheck.{module}")
        assert callable(getattr(mod, function, None)), f"nccheck.{module}.{function}"


def test_gct_command():
    proc = run_cli("gct", "--trials", "10", "--dim-max", "3", "--seed", "5", "--json")
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["failures"] == 0
    assert len(rep["trials"]) == 10


@pytest.mark.parametrize(
    "args, option",
    [(["--dim-max", "1"], "--dim-max"), (["--dim-max", "0"], "--dim-max"),
     (["--trials", "30", "--dim-max", "7"], "--dim-max"), (["--seed", "-1"], "--seed"),
     (["--trials", "-3"], "--trials"), (["--trials", "0"], "--trials"),
     (["--dim-max", "four"], "--dim-max")],
    ids=["dim_max_1", "dim_max_0", "dim_max_7", "seed_negative", "trials_negative",
         "trials_zero", "dim_max_text"],
)
def test_gct_bad_argument_exits_2_naming_the_option(args, option):
    proc = run_cli("gct", *args, "--json")
    assert proc.returncode == 2
    assert f"argument {option}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_gct_dim_max_limit_follows_the_dense_commutant_limit():
    # the largest factor size whose graded product's commutant is built
    # densely; 6 is that size today and must stay accepted
    from nccheck import cli
    from nccheck.algebra import _DENSE_COMMUTANT_LIMIT

    d = cli.GCT_DIM_MAX
    assert (d * d) ** 2 <= _DENSE_COMMUTANT_LIMIT < ((d + 1) * (d + 1)) ** 2
    proc = run_cli("gct", "--trials", "5", "--dim-max", "6", "--json")
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["trials"]) == 5


def test_catalog_list_and_golden_export_stable(tmp_path):
    proc = run_cli("catalog", "list")
    assert proc.returncode == 0
    assert "evenspin" in proc.stdout and "hodge_m2" in proc.stdout
    out = tmp_path / "exported"
    proc = run_cli("catalog", "export", str(out))
    assert proc.returncode == 0
    for name in ("evenspin.json", "hodge_m2.json", "mixed_1.json", "evenspin_pair_2.json"):
        fresh = (out / name).read_text()
        committed = open(os.path.join(GOLDEN, name)).read()
        assert fresh == committed, f"golden file drift: {name}"


def test_product_command_builds_each_product_once(monkeypatch, capsys):
    from nccheck import cli, product

    calls = []
    real = product.product_triple

    def counted(*args, **kwargs):
        calls.append(args[2] if len(args) > 2 else kwargs.get("j_mode", "plain"))
        return real(*args, **kwargs)

    monkeypatch.setattr(product, "product_triple", counted)
    hodge = os.path.join(GOLDEN, "hodge_m2.json")
    code = cli.main(["product", hodge, hodge, "--j-mode", "koszul", "--json"])
    assert code == 0
    names = {c["name"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert {"conjugated_clifford_right_product", "prop22_koszul_order_two"} <= names
    assert sorted(calls) == ["koszul", "plain"]


@pytest.mark.parametrize("mode", ["koszul", "plain"])
def test_product_command_checks_order_two_once_per_product(monkeypatch, capsys, mode):
    # Prop 22 reuses the --j-mode product's order-two report and checks only
    # the other product's
    from nccheck import cli
    from nccheck.product import plain_vs_koszul_order_two
    from nccheck.serialize import triple_from_document

    calls = []
    real = cli.check_order_two

    def counted(t, tol=None):
        calls.append(t)
        return real(t, tol)

    monkeypatch.setattr(cli, "check_order_two", counted)
    mixed = [os.path.join(GOLDEN, f"mixed_{i}.json") for i in (1, 2)]
    assert cli.main(["product", *mixed, "--j-mode", mode, "--json"]) == 0
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert len(calls) == 2 and calls[0] is not calls[1]
    t1, t2 = (triple_from_document(json.load(open(p))) for p in mixed)
    kos, plain = plain_vs_koszul_order_two(t1, t2)
    assert checks["prop22_koszul_order_two"] == {
        "name": "prop22_koszul_order_two",
        "holds": kos.holds,
        "witness": kos.witness.to_dict(False) if kos.witness else None,
        "details": {"plain_mode_order_two": plain.holds},
    }


def test_product_command_writes_document(tmp_path):
    out = tmp_path / "prod.json"
    proc = run_cli(
        "product",
        os.path.join(GOLDEN, "evenspin.json"),
        os.path.join(GOLDEN, "hodge_m2.json"),
        "--j-mode",
        "plain",
        "--out",
        str(out),
        "--json",
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["hilbert_dim"] == 32
    rep = json.loads(proc.stdout)
    names = {c["name"] for c in rep["checks"]}
    assert "one_forms_decomposition" in names
    cls = rep["details"]["classification"]
    assert cls["even_spin"] is False
