import functools
import json
import os

import numpy as np
import pytest

from nccheck import morita
from nccheck.algebra import circ_image, commutant, generate_star_algebra
from nccheck.catalog import TRANSPOSE_PERM, catalog_entries, example_evenspin, example_hodge_m2
from nccheck.morita import classify, morita_test
from nccheck.numlin import PAULI, AntilinearOperator, circ, left_mult_matrix, opnorm
from nccheck.product import product_triple
from nccheck.serialize import triple_from_document
from nccheck.triple import (
    check_order_one,
    check_order_two,
    check_order_zero,
    clifford,
    clifford_gamma,
)

GOLDEN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "golden")

S0, S1, S2, S3 = PAULI


def rand_mat(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_left_mult_self_equivalence():
    # M2 acting by left multiplication on H = M2 with J = hermitian
    # conjugation implements a self-Morita equivalence
    lm2 = generate_star_algebra([left_mult_matrix(S1), left_mult_matrix(S2)])
    j = AntilinearOperator(TRANSPOSE_PERM)
    assert morita_test(lm2, lm2, j).equivalent


def test_scalars_not_equivalent_on_c2():
    scalars = generate_star_algebra([np.eye(2, dtype=complex)])
    j = AntilinearOperator(np.eye(2))
    assert not morita_test(scalars, scalars, j).equivalent


def test_symmetry_of_equivalence_random():
    rng = np.random.default_rng(0)
    for k in range(20):
        n = int(rng.integers(2, 5))
        b1 = generate_star_algebra([rand_mat(rng, n)])
        b2 = generate_star_algebra([rand_mat(rng, n)])
        q, _ = np.linalg.qr(rand_mat(rng, n))
        sign = 1 if k % 2 == 0 else -1
        if sign == 1:
            j = AntilinearOperator(q @ q.T)
        else:
            if n % 2:
                continue
            jn = np.block(
                [[np.zeros((n // 2, n // 2)), np.eye(n // 2)],
                 [-np.eye(n // 2), np.zeros((n // 2, n // 2))]]
            ).astype(complex)
            j = AntilinearOperator(q @ jn @ q.T)
        assert morita_test(b1, b2, j).equivalent == morita_test(b2, b1, j).equivalent


def test_classify_catalog():
    c = classify(example_hodge_m2())
    assert c.spin and c.hodge
    c2 = classify(example_evenspin())
    assert c2.even_spin and not c2.spin


def test_even_spin_undefined_without_grading():
    t = example_hodge_m2()
    bare = type(t)(
        t.algebra_generators, t.dirac, grading=None, real_structure=t.real_structure
    )
    assert classify(bare).even_spin is None


def test_implications_on_strictly_even_triples():
    # spin => even-spin wherever the grading is a strict one; hodge => order
    # two; spin or even-spin => orders zero and one
    for t in (example_evenspin(),):
        c = classify(t)
        if c.spin:
            assert c.even_spin
        if c.hodge:
            assert check_order_two(t).holds
        if c.spin or c.even_spin:
            assert check_order_zero(t).holds and check_order_one(t).holds
    # hodge_m2 carries only an H-grading; hodge still forces order two
    t = example_hodge_m2()
    c = classify(t)
    assert c.hodge and check_order_two(t).holds


def test_witness_soundness():
    # scalars vs scalars on C^2: the commutant is all of M2, so the witness
    # lies in the larger algebra with a substantial orthogonal component
    scalars = generate_star_algebra([np.eye(2, dtype=complex)])
    j = AntilinearOperator(np.eye(2))
    res = morita_test(scalars, scalars, j)
    assert not res.equivalent and res.contained
    assert res.witness is not None
    assert scalars.subspace.residual(res.witness) > 0.9


def test_failed_containment_witness_is_the_first_largest_commutator():
    rng = np.random.default_rng(8)
    m2 = generate_star_algebra([S1, S2])
    cases = [(m2, m2, AntilinearOperator(np.eye(2)))]  # ties between pairs
    for _ in range(5):
        q, _ = np.linalg.qr(rand_mat(rng, 3))
        b1, b2 = (generate_star_algebra([rand_mat(rng, 3)]) for _ in range(2))
        cases.append((b1, b2, AntilinearOperator(q @ q.T)))
    for b1, b2, j in cases:
        res = morita_test(b1, b2, j)
        assert not res.contained
        best = None  # reference: every basis pair, a strictly larger norm replaces
        for x in b1.basis_matrices():
            for g in circ_image(j, b2).basis_matrices():
                cm = x @ g - g @ x
                nrm = float(np.linalg.norm(cm, 2))
                if best is None or nrm > best[0]:
                    best = (nrm, cm)
        assert res.witness_residual == best[0] and np.array_equal(res.witness, best[1])


def test_diagnostics_dimensions():
    t = example_evenspin()
    c = classify(t)
    d = c.diagnostics
    assert d["dim_clifford"] == 8
    assert d["dim_clifford_gamma"] == 16
    assert d["spin"].dim_circ_commutant == 16  # (A°)' = Cl^gamma here
    assert d["even_spin"].equivalent


def _basis_pair_reference(b1, b2, j, tol):
    """(contained, worst Frobenius commutator, witness, its operator norm) from
    every basis pair of B1 x B2°; the witness is the first largest in norm and
    is only formed when containment fails."""
    cb = circ_image(j, b2, tol).basis_matrices()

    def commutators():
        return (x @ g - g @ x for x in b1.basis_matrices() for g in cb)

    worst = max(float(np.sqrt((np.abs(cm) ** 2).sum())) for cm in commutators())
    if worst <= tol:
        return True, worst, None, None
    best = None
    for cm in commutators():
        nrm = float(np.linalg.norm(cm, 2))
        if best is None or nrm > best[0]:
            best = (nrm, cm)
    return False, worst, best[1], best[0]


def _morita_pairs(t):
    """The (B1, B2) of the spin, Hodge and (when graded) even-spin tests."""
    a, cl = t.algebra(), clifford(t)
    pairs = [(cl, a), (cl, cl)]
    return pairs + ([(clifford_gamma(t), a)] if t.grading is not None else [])


def _golden_triple(name):
    with open(os.path.join(GOLDEN, f"{name}.json")) as fh:
        return triple_from_document(json.load(fh))


@functools.cache
def _golden_product(first, second, mode):
    return product_triple(_golden_triple(first), _golden_triple(second), mode)


_GOLDEN_PRODUCTS = [
    ("evenspin_pair_1", "evenspin_pair_2", "koszul"),
    ("evenspin_pair_1", "evenspin_pair_2", "plain"),
    ("mixed_1", "mixed_2", "koszul"),
    ("hodge_m2", "hodge_m2", "koszul"),
]


def _random_morita_pairs():
    """10 seeded (B1, B2, J) on C^n, n <= 4: B2 generated by a non-normal
    block matrix; B1 inside (B2°)' (k % 3 == 0), generic (k % 3 == 1), or
    generated by circ of B2's generator, which commutes with that generator
    of B2° but not with its adjoint (k % 3 == 2)."""
    rng = np.random.default_rng(12)
    for k in range(10):
        n = int(rng.integers(3, 5))
        q, _ = np.linalg.qr(rand_mat(rng, n))
        j = AntilinearOperator(q @ q.T)
        g = np.zeros((n, n), dtype=complex)
        g[:2, :2] = np.triu(rand_mat(rng, 2))
        g[2:, 2:] = rand_mat(rng, n - 2)
        b2 = generate_star_algebra([g])
        if k % 3 == 0:
            cc = commutant(circ_image(j, b2))
            w = rng.standard_normal(cc.dim) + 1j * rng.standard_normal(cc.dim)
            b1 = generate_star_algebra([np.tensordot(w, cc.basis_matrices(), 1)])
        elif k % 3 == 1:
            b1 = generate_star_algebra([rand_mat(rng, n)])
        else:
            b1 = generate_star_algebra([circ(j, g)])
        yield b1, b2, j


def _assert_matches_basis_pairs(b1, b2, j, tol):
    res = morita_test(b1, b2, j, tol)
    contained, worst, witness, wres = _basis_pair_reference(b1, b2, j, tol)
    assert res.contained == contained
    if contained:
        assert res.worst_commutator <= tol and worst <= tol
    else:
        assert res.worst_commutator == worst
        assert res.witness_residual == wres and np.array_equal(res.witness, witness)
    return contained


def test_generator_containment_matches_basis_pairs_on_catalog_triples():
    for entry in catalog_entries():
        if entry.kind == "triple":
            t = entry.build()
            for b1, b2 in _morita_pairs(t):
                _assert_matches_basis_pairs(b1, b2, t.real_structure.j, t.tol)


@pytest.mark.parametrize("first, second, mode", _GOLDEN_PRODUCTS)
def test_generator_containment_matches_basis_pairs_on_golden_products(first, second, mode):
    t = _golden_product(first, second, mode)
    for b1, b2 in _morita_pairs(t):
        _assert_matches_basis_pairs(b1, b2, t.real_structure.j, t.tol)


def test_generator_containment_matches_basis_pairs_on_random_pairs():
    verdicts = [_assert_matches_basis_pairs(*case, 1e-9) for case in _random_morita_pairs()]
    assert any(verdicts) and not all(verdicts)


def test_koszul_evenspin2_containment_takes_19_generator_calls(monkeypatch):
    # B1 generators x B2° generators: Cl (6) x A° (4), Cl (6) x Cl° (6), Cl^gamma (7) x A° (4)
    t = _golden_product("evenspin_pair_1", "evenspin_pair_2", "koszul")
    calls, real = [], morita.commutes_with_all

    def counting(x, b, tol):
        calls.append(len(b))
        return real(x, b, tol)

    monkeypatch.setattr(morita, "commutes_with_all", counting)
    c = classify(t)
    assert all(c.diagnostics[k].contained for k in ("spin", "hodge", "even_spin"))
    assert calls == [4] * 6 + [6] * 6 + [4] * 7
