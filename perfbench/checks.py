"""Verdict checks for the benchmark workloads.

Every expected value here comes from the paper or from a computation made in
this file with plain numpy; nothing is read from nccheck or from a stored copy
of its output.  Each ``check_*`` function returns a list of failure messages,
empty when the program's output is correct.
"""

from __future__ import annotations

import numpy as np

# The even-spin factor of golden/evenspin_pair_{1,2}.json: M2(C) acting on
# M2(C) (x) C^2 by left multiplication.  Its one-forms are freely generated by
# omega = 1 (x) sigma1, so Omega^1 = A omega, and Cl_D(A) = A + A omega.
EVENSPIN_FACTOR = {"hilbert": 8, "algebra": 4, "one_forms": 4, "clifford": 8}


def _matrix_algebra_commutant_dim(hilbert, algebra_dim):
    """dim of the commutant of a simple algebra M_d (d^2 = algebra_dim)
    acting on C^hilbert = C^d (x) C^m: the commutant is M_m."""
    d = round(algebra_dim**0.5)
    if d * d != algebra_dim or hilbert % d:
        raise ValueError(f"M_d of dim {algebra_dim} cannot act on C^{hilbert}")
    return (hilbert // d) ** 2


def product_expectations():
    """What the product lemmas predict for the product of two copies of the
    even-spin factor, with the Koszul real structure (Prop. 22 and Lemmas 13,
    21, 25)."""
    factor = EVENSPIN_FACTOR
    h = factor["hilbert"] ** 2
    algebra = factor["algebra"] ** 2  # A1 (x) A2
    one_forms = 2 * factor["one_forms"] * factor["algebra"]  # Om1 (x) A2 + g1 A1 (x) Om2
    clifford = factor["clifford"] ** 2  # Cl1 . Cl2
    # gamma = gamma1 (x) gamma2 lies outside Cl_D(A) and normalises it
    clifford_gamma = 2 * clifford
    # A = M2 (x) M2 = M4 and Cl_D(A) = M8 are simple, so their images under
    # b -> J b* J^-1 have the commutants of simple algebras on C^64
    a_circ_commutant = _matrix_algebra_commutant_dim(h, algebra)
    cl_circ_commutant = _matrix_algebra_commutant_dim(h, clifford)
    return {
        "hilbert_dim": h,
        "algebra_dim": algebra,
        "one_forms_dim": one_forms,
        "clifford_dim": clifford,
        "morita": {
            "classify_spin": (clifford, a_circ_commutant),
            "classify_even_spin": (clifford_gamma, a_circ_commutant),
            "classify_hodge": (clifford, cl_circ_commutant),
        },
    }


PRODUCT_LEMMAS = (
    "one_forms_decomposition",
    "clifford_graded_product",
    "conjugated_clifford_right_product",
    "product_signs",
    "alt_dirac_intertwine",
)


def _by_name(report):
    return {c["name"]: c for c in report.get("checks", [])}


def _holds(checks, name, want, failures):
    got = checks.get(name, {}).get("holds")
    if got is not want:
        failures.append(f"{name}: holds={got!r}, expected {want!r}")


def check_product(report):
    """Koszul evenspin^2 product: dimensions, Prop. 22, lemmas, Morita."""
    expect = product_expectations()
    failures = []
    checks = _by_name(report)
    details = report.get("details", {})
    for key in ("hilbert_dim", "algebra_dim", "one_forms_dim", "clifford_dim"):
        if details.get(key) != expect[key]:
            failures.append(f"{key}: got {details.get(key)!r}, expected {expect[key]}")
    # Prop. 22: the Koszul real structure satisfies the second-order
    # condition and the plain one does not
    _holds(checks, "order_two", True, failures)
    _holds(checks, "prop22_koszul_order_two", True, failures)
    plain = checks.get("prop22_koszul_order_two", {}).get("details", {}).get("plain_mode_order_two")
    if plain is not False:
        failures.append(f"plain-mode order two: holds={plain!r}, expected False")
    for name in PRODUCT_LEMMAS:
        _holds(checks, name, True, failures)
    # B1 ~ B2 iff B1 = (B2°)'; containment holds, so equality is dimensional
    for name, (dim_b1, dim_cc) in expect["morita"].items():
        got = checks.get(name, {}).get("details", {})
        if (got.get("dim_b1"), got.get("dim_circ_commutant")) != (dim_b1, dim_cc):
            failures.append(
                f"{name}: dims ({got.get('dim_b1')!r}, {got.get('dim_circ_commutant')!r}), "
                f"expected ({dim_b1}, {dim_cc})"
            )
        _holds(checks, name, dim_b1 == dim_cc, failures)
    return failures


def commutant_dim(gens):
    """dim {X : [X, b] = 0 for all b in the *-algebra generated by gens}.

    X commutes with the algebra iff it commutes with every generator and its
    adjoint, so this is n^2 minus the rank of the stacked maps X -> [X, b]
    (row-major vec: vec(XB - BX) = (I (x) B^T - B (x) I) vec(X)).
    """
    n = gens[0].shape[0]
    eye = np.eye(n)
    maps = [np.kron(eye, b.T) - np.kron(b, eye) for g in gens for b in (g, g.conj().T)]
    sv = np.linalg.svd(np.vstack(maps), compute_uv=False)
    if sv[0] == 0.0:
        return n * n
    return n * n - int(np.count_nonzero(sv > 1e-8 * sv[0]))


def check_gct_trial(details, holds, comm1, comm2):
    """One graded-commutant-theorem trial against independently computed
    commutant dimensions ``comm1``, ``comm2`` of the two factors."""
    failures = []
    if holds is not True:
        failures.append(f"theorem does not hold (holds={holds!r})")
    if details.get("dim_graded_product") != details.get("dim_b1", 0) * details.get("dim_b2", 0):
        failures.append(
            f"dim(B1.B2)={details.get('dim_graded_product')!r} != "
            f"dim B1 * dim B2 = {details.get('dim_b1')!r}*{details.get('dim_b2')!r}"
        )
    for key in ("dim_lhs_commutant", "dim_rhs"):
        if details.get(key) != comm1 * comm2:
            failures.append(f"{key}={details.get(key)!r} != dim B1' * dim B2' = {comm1}*{comm2}")
    return failures


# The paper's torus verdicts that the benchmark asserts on its own, apart
# from the program's TORUS_EXPECTED table.
TORUS_J1_WITNESS_NORM = 2.0


def check_torus(report, exit_code):
    """Torus suite: no mismatches and the paper's verdicts on J1, J2, tau."""
    failures = []
    if exit_code != 0:
        failures.append(f"nccheck torus exited {exit_code}")
    if report.get("expected_mismatches") != []:
        failures.append(f"expected_mismatches: {report.get('expected_mismatches')!r}")
    checks = _by_name(report)
    _holds(checks, "j1_order_zero", True, failures)
    _holds(checks, "j1_order_one", True, failures)
    _holds(checks, "j1_order_two", False, failures)
    norm = (checks.get("j1_order_two", {}).get("witness") or {}).get("norm")
    if norm is None or abs(norm - TORUS_J1_WITNESS_NORM) > 1e-9:
        failures.append(f"j1_order_two witness norm {norm!r}, expected {TORUS_J1_WITNESS_NORM}")
    untwisted = checks.get("sign_eps_prime_j2_untwisted", {}).get("details", {})
    if "value" not in untwisted or untwisted["value"] is not None:
        failures.append(f"untwisted eps' of J2 is {untwisted.get('value', '<missing>')!r}, expected undefined")
    twisted = checks.get("sign_eps_prime_j2_twisted", {}).get("details", {})
    if twisted.get("value") not in (1, -1):
        failures.append(f"twisted eps' of J2 is {twisted.get('value')!r}, expected +1 or -1")
    _holds(checks, "tau_equals_j1_j2", True, failures)
    ko = checks.get("ko_j1_contains_0", {}).get("details", {}).get("ko_set") or []
    if 0 not in ko:
        failures.append(f"KO dimensions of J1 {ko!r} do not contain 0")
    return failures


def torus_verdicts(report):
    """name -> holds, for comparing the suite at two bands."""
    return {c["name"]: c["holds"] for c in report.get("checks", [])}
