"""Command-line front end: load triples, run check suites, emit reports.

Exit codes: 0 all expected verdicts matched; 1 a check or expectation
failed; 2 document parse/shape error (with field path); 3 type-invariant
violation (named).  Diagnostics go to stderr, reports to stdout; --json
output is deterministic for fixed input and seed (timings zeroed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .algebra import _DENSE_COMMUTANT_LIMIT
from .morita import classify
from .numlin import DEFAULT_TOL
from .serialize import (
    SCHEMA_VERSION,
    DocumentError,
    triple_from_document,
    triple_to_document,
)
from .triple import (
    TripleValidationError,
    check_order_one,
    check_order_two,
    check_order_zero,
    check_signs,
    clifford,
    ko_dimensions,
    one_forms,
)


def _tolerance(text):
    """Parse a tolerance: a finite number >= 0."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid tolerance {text!r}") from None
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return tol


def _at_least(low):
    """argparse type: an integer >= low."""

    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text!r}")
        return value

    return integer


# Largest gct factor size d: the graded product acts on C^(d*d), and its
# commutant is built densely, on a matrix space of dimension (d*d)^2.
GCT_DIM_MAX = math.isqrt(math.isqrt(_DENSE_COMMUTANT_LIMIT))


def _default_tol():
    env = os.environ.get("NCCHECK_TOL")
    if env:
        try:
            return _tolerance(env)
        except argparse.ArgumentTypeError:
            print(f"warning: ignoring invalid NCCHECK_TOL={env!r}", file=sys.stderr)
    return DEFAULT_TOL


def _emit(report, as_json):
    if as_json:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        for check in report.get("checks", []):
            if check["name"].startswith("classify_"):
                mark = "yes " if check["holds"] else "no  "
            else:
                mark = "ok  " if check["holds"] else "FAIL"
            extra = ""
            det = check.get("details") or {}
            if "value" in det and det["value"] is not None:
                extra = f" value={det['value']}"
            wit = check.get("witness")
            if wit and wit.get("norm") is not None:
                extra += f" witness_norm={wit['norm']:.6g}"
            print(f"[{mark}] {check['name']}{extra}")
        for key, val in report.items():
            if key not in ("checks", "schema_version", "command"):
                print(f"{key}: {val}")


def _triple_checks(t, tol):
    """All applicable checks for one triple, as serializable dicts."""
    checks = []
    details = {
        "hilbert_dim": t.hilbert_dim,
        "algebra_dim": t.algebra().dim,
        "one_forms_dim": one_forms(t).dim,
        "clifford_dim": clifford(t).dim,
        "warnings": list(t.warnings),
    }
    if t.real_structure is not None:
        for rep in (check_order_zero(t, tol), check_order_one(t, tol), check_order_two(t, tol)):
            checks.append(rep.to_dict())
        signs = check_signs(t, tol)
        for rep in signs.reports():
            checks.append(rep.to_dict())
        e, ep, epp = signs.tuple()
        if e is not None and ep is not None:
            ko = sorted(ko_dimensions(e, ep, epp if t.grading is not None else None))
            details["ko_dimensions"] = ko
        cls = classify(t, tol)
        details["classification"] = {
            "spin": cls.spin,
            "even_spin": cls.even_spin,
            "hodge": cls.hodge,
        }
        for label in ("spin", "hodge", "even_spin"):
            test = cls.diagnostics.get(label)
            if test is None:
                continue
            checks.append(
                {
                    "name": f"classify_{label}",
                    "holds": bool(test.equivalent),
                    "witness": None
                    if test.witness_residual is None
                    else {"indices": None, "norm": test.witness_residual},
                    "details": test.to_dict(),
                }
            )
    return checks, details


def _match_expected(checks, details, expected):
    """Compare computed results against a metadata 'expected' map."""
    mismatches = []
    by_name = {c["name"]: c for c in checks}
    flat = {
        "order_zero": by_name.get("order_zero", {}).get("holds"),
        "order_one": by_name.get("order_one", {}).get("holds"),
        "order_two": by_name.get("order_two", {}).get("holds"),
    }
    cls = details.get("classification", {})
    flat.update({f"classify_{k}": v for k, v in cls.items()})
    flat.update(
        {
            k: details.get(k)
            for k in ("one_forms_dim", "clifford_dim", "algebra_dim", "ko_dimensions")
        }
    )
    for key, want in expected.items():
        got = flat.get(key, "<unknown check>")
        if isinstance(want, list):
            want = sorted(want)
            got = sorted(got) if isinstance(got, list) else got
        if got != want:
            mismatches.append({"check": key, "expected": want, "actual": got})
    return mismatches


def cmd_check(args):
    tol = args.tol
    try:
        with open(args.path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot parse {args.path}: {exc}", file=sys.stderr)
        return 2
    try:
        t = triple_from_document(doc, tol)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TripleValidationError, ValueError) as exc:
        print(f"invalid triple: {exc}", file=sys.stderr)
        return 3
    started = time.time()
    checks, details = _triple_checks(t, tol)
    elapsed = 0.0 if args.json else time.time() - started
    expected = doc.get("metadata", {}).get("expected", {})
    mismatches = _match_expected(checks, details, expected) if expected else []
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "check",
        "tolerance": tol,
        "checks": checks,
        "details": details,
        "expected_mismatches": mismatches,
        "elapsed_seconds": elapsed,
    }
    _emit(report, args.json)
    return 0 if not mismatches else 1


def cmd_product(args):
    from .product import (
        alt_dirac_intertwine_check,
        lemma_21b_check,
        lemma_25_check,
        one_forms_decomposition_check,
        product_sign_check,
        product_triple,
    )

    tol = args.tol
    triples = []
    for path in (args.path1, args.path2):
        try:
            with open(path) as fh:
                doc = json.load(fh)
            triples.append(triple_from_document(doc, tol))
        except (OSError, json.JSONDecodeError, DocumentError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
        except (TripleValidationError, ValueError) as exc:
            print(f"invalid triple in {path}: {exc}", file=sys.stderr)
            return 3
    t1, t2 = triples
    try:
        prod = product_triple(t1, t2, args.j_mode, tol)
    except (TripleValidationError, ValueError) as exc:
        print(f"cannot form product: {exc}", file=sys.stderr)
        return 3
    checks, details = _triple_checks(prod, tol)
    # A, Omega^1 and Cl_D do not depend on J, so any product serves the
    # first two lemmas; the rest need the Koszul one, and Prop 22 both
    if t1.grading is not None:
        checks.append(one_forms_decomposition_check(t1, t2, prod, tol).to_dict())
        if t2.grading is not None:
            checks.append(lemma_21b_check(t1, t2, prod, tol).to_dict())
            if (
                t1.real_structure is not None
                and t2.real_structure is not None
            ):
                other = "plain" if args.j_mode == "koszul" else "koszul"
                modes = {args.j_mode: prod, other: product_triple(t1, t2, other, tol)}
                modes[other].share_derived(prod)
                koszul = modes["koszul"]
                checks.append(lemma_25_check(t1, t2, koszul, tol).to_dict())
                # _triple_checks has checked order two for --j-mode already
                orders = {
                    args.j_mode: next(c for c in checks if c["name"] == "order_two"),
                    other: check_order_two(modes[other], tol).to_dict(),
                }
                checks.append(
                    {
                        "name": "prop22_koszul_order_two",
                        "holds": orders["koszul"]["holds"],
                        "witness": orders["koszul"]["witness"],
                        "details": {"plain_mode_order_two": orders["plain"]["holds"]},
                    }
                )
                checks.append(product_sign_check(t1, t2, tol, koszul).to_dict())
                checks.append(alt_dirac_intertwine_check(t1, t2, tol, koszul).to_dict())
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "product",
        "j_mode": args.j_mode,
        "tolerance": tol,
        "checks": checks,
        "details": details,
        "elapsed_seconds": 0.0,
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(triple_to_document(prod, {"name": prod.name}), fh, sort_keys=True, indent=1)
        print(f"wrote product triple to {args.out}", file=sys.stderr)
    _emit(report, args.json)
    return 0


def cmd_torus(args):
    from .torus import TORUS_EXPECTED, run_torus_suite

    tol = args.tol
    try:
        reports = run_torus_suite(args.band, tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    checks = [r.to_dict() for r in reports]
    mismatches = []
    by_name = {r.name: r for r in reports}
    for name, want in TORUS_EXPECTED.items():
        got = by_name[name].holds if name in by_name else None
        if got != want:
            mismatches.append({"check": name, "expected": want, "actual": got})
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "torus",
        "band": args.band,
        "tolerance": tol,
        "checks": checks,
        "expected_mismatches": mismatches,
        "elapsed_seconds": 0.0,
    }
    _emit(report, args.json)
    return 0 if not mismatches else 1


def cmd_gct(args):
    from .product import random_graded_pair, verify_gct

    rng = np.random.default_rng(args.seed)
    trials = []
    failures = 0
    for k in range(args.trials):
        pair = random_graded_pair(rng, args.dim_max)
        rep = verify_gct(pair, args.tol, want_witness=False)
        trials.append({"trial": k, "holds": rep.holds, **rep.details})
        if not rep.holds:
            failures += 1
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "gct",
        "seed": args.seed,
        "trials": trials,
        "failures": failures,
        "elapsed_seconds": 0.0,
    }
    if args.json:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        for t in trials:
            mark = "ok" if t["holds"] else "FAIL"
            print(
                f"[{mark:4s}] trial {t['trial']:3d}: dims B1={t['dim_b1']} B2={t['dim_b2']} "
                f"graded={t['dim_graded_product']} commutant={t['dim_lhs_commutant']}"
            )
        print(f"failures: {failures}/{args.trials}")
    return 0 if failures == 0 else 1


def cmd_catalog(args):
    from .catalog import catalog_entries
    from .tests_support import evaluate_catalog

    entries = catalog_entries()
    if args.action == "list":
        for e in entries:
            print(f"{e.name:15s} {e.kind:6s} {e.notes}")
        return 0
    if args.action == "export":
        outdir = args.dir or "."
        os.makedirs(outdir, exist_ok=True)
        for e in entries:
            built = e.build()
            triples = [built] if e.kind == "triple" else list(built[:2])
            for i, t in enumerate(triples):
                suffix = "" if e.kind == "triple" else f"_{i+1}"
                path = os.path.join(outdir, f"{e.name}{suffix}.json")
                meta = {"name": t.name, "catalog": e.name, "expected": {}}
                if e.kind == "triple":
                    meta["expected"] = {
                        k: (sorted(v) if isinstance(v, set) else v)
                        for k, v in e.expected.items()
                        if k in ("order_zero", "order_one", "order_two", "one_forms_dim", "clifford_dim")
                    }
                    meta["expected"].update(
                        {f"classify_{k}": e.expected[k] for k in ("spin", "even_spin", "hodge") if k in e.expected}
                    )
                with open(path, "w") as fh:
                    json.dump(triple_to_document(t, meta), fh, sort_keys=True, indent=1)
                print(f"wrote {path}", file=sys.stderr)
        return 0
    # run
    results = evaluate_catalog(args.tol)
    failures = 0
    for name, entry in results.items():
        for key, (want, got) in entry.items():
            ok = want == got
            failures += 0 if ok else 1
            mark = "ok" if ok else "FAIL"
            print(f"[{mark:4s}] {name}.{key}: expected {want!r} got {got!r}")
    return 0 if failures == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="nccheck",
        description="verification engine for finite real spectral triples",
    )
    parser.add_argument("--version", action="version", version=f"nccheck {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)
    default_tol = _default_tol()

    p = sub.add_parser("check", help="run all checks on a triple document")
    p.add_argument("path")
    p.add_argument("--tol", type=_tolerance, default=default_tol)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("product", help="build a product triple and verify it")
    p.add_argument("path1")
    p.add_argument("path2")
    p.add_argument("--j-mode", choices=("plain", "koszul"), default="plain")
    p.add_argument("--out")
    p.add_argument("--tol", type=_tolerance, default=default_tol)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_product)

    p = sub.add_parser("torus", help="run the band-limited torus suite")
    p.add_argument("--band", type=int, default=3)
    p.add_argument("--tol", type=_tolerance, default=default_tol)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_torus)

    p = sub.add_parser("gct", help="randomized graded-commutant-theorem trials")
    p.add_argument("--trials", type=_at_least(1), default=100)
    p.add_argument("--dim-max", type=int, choices=range(2, GCT_DIM_MAX + 1), default=4)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--tol", type=_tolerance, default=default_tol)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_gct)

    p = sub.add_parser("catalog", help="run, list, or export the named examples")
    p.add_argument("action", choices=("run", "list", "export"))
    p.add_argument("dir", nargs="?")
    p.add_argument("--tol", type=_tolerance, default=default_tol)
    p.set_defaults(fn=cmd_catalog)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
