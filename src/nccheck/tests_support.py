"""Shared evaluation of the catalog expectations (used by CLI and tests)."""

from __future__ import annotations

import numpy as np

from .algebra import circ_image, commutes_with_all
from .catalog import catalog_entries, evenspin_omega
from .morita import classify
from .numlin import kron, opnorm
from .product import product_triple
from .triple import (
    check_order_one,
    check_order_two,
    check_order_zero,
    check_signs,
    clifford,
    clifford_gamma,
    ko_dimensions,
    one_forms,
)


def _triple_actuals(t, expected, tol):
    out = {}
    cls = classify(t, tol)
    actual = {
        "spin": cls.spin,
        "even_spin": cls.even_spin,
        "hodge": cls.hodge,
        "order_zero": check_order_zero(t, tol).holds,
        "order_one": check_order_one(t, tol).holds,
        "order_two": check_order_two(t, tol).holds,
        "one_forms_dim": one_forms(t).dim,
        "clifford_dim": clifford(t).dim,
        "gamma_in_clifford": None
        if t.grading is None
        else clifford(t).subspace.contains(t.grading, tol),
    }
    if t.grading is not None:
        actual["clifford_gamma_dim"] = clifford_gamma(t).dim
    signs = check_signs(t, tol)
    actual["signs"] = signs.tuple()
    e, ep, epp = signs.tuple()
    if e is not None and ep is not None:
        actual["ko_set"] = ko_dimensions(e, ep, epp)
    for key, want in expected.items():
        out[key] = (want, actual.get(key))
    return out


def _pair_actuals(entry, tol):
    t1, t2, witness = entry.build()
    prod = product_triple(t1, t2, "plain", tol)
    cls = classify(prod, tol)
    out = {}
    expected = entry.expected
    if "plain_even_spin" in expected:
        out["plain_even_spin"] = (expected["plain_even_spin"], cls.even_spin)
    if "witness_in_clifford_gamma_commutant" in expected:
        ok, _ = commutes_with_all(witness, clifford_gamma(prod).generators, tol)
        out["witness_in_clifford_gamma_commutant"] = (
            expected["witness_in_clifford_gamma_commutant"], ok
        )
    if "witness_outside_circ_algebra" in expected:
        circ_a = circ_image(prod.real_structure.j, prod.algebra(), tol)
        outside = circ_a.subspace.residual(witness) > 0.5
        out["witness_outside_circ_algebra"] = (
            expected["witness_outside_circ_algebra"], outside
        )
    if "witness_commutes_generator_family" in expected:
        # the generator family named by the source example: A1 (x) 1,
        # 1 (x) A2, and the one-form omega (x) 1
        n1, n2 = t1.hilbert_dim, t2.hilbert_dim
        fam = [kron(g, np.eye(n2)) for g in t1.algebra_generators]
        fam += [kron(np.eye(n1), g) for g in t2.algebra_generators]
        fam.append(kron(evenspin_omega(), np.eye(n2)))
        ok = all(opnorm(witness @ g - g @ witness) <= tol for g in fam)
        out["witness_commutes_generator_family"] = (
            expected["witness_commutes_generator_family"], ok
        )
    if "witness_outside_algebra" in expected:
        outside = prod.algebra().subspace.residual(witness) > 0.5
        out["witness_outside_algebra"] = (expected["witness_outside_algebra"], outside)
    return out


def evaluate_catalog(tol=1e-9):
    """Run every named example; returns {name: {key: (expected, actual)}}."""
    results = {}
    for entry in catalog_entries():
        if entry.kind == "triple":
            results[entry.name] = _triple_actuals(entry.build(), entry.expected, tol)
        else:
            results[entry.name] = _pair_actuals(entry, tol)
    return results
