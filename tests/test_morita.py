import numpy as np
import pytest

from nccheck.algebra import circ_image, generate_star_algebra
from nccheck.catalog import TRANSPOSE_PERM, example_evenspin, example_hodge_m2
from nccheck.morita import classify, morita_equivalent_J, morita_test
from nccheck.numlin import PAULI, AntilinearOperator, left_mult_matrix, opnorm
from nccheck.triple import check_order_one, check_order_two, check_order_zero, clifford

S0, S1, S2, S3 = PAULI


def rand_mat(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_left_mult_self_equivalence():
    # M2 acting by left multiplication on H = M2 with J = hermitian
    # conjugation implements a self-Morita equivalence
    lm2 = generate_star_algebra([left_mult_matrix(S1), left_mult_matrix(S2)])
    j = AntilinearOperator(TRANSPOSE_PERM)
    assert morita_equivalent_J(lm2, lm2, j)


def test_scalars_not_equivalent_on_c2():
    scalars = generate_star_algebra([np.eye(2, dtype=complex)])
    j = AntilinearOperator.plain_conjugation(2)
    assert not morita_equivalent_J(scalars, scalars, j)


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
        assert morita_equivalent_J(b1, b2, j) == morita_equivalent_J(b2, b1, j)


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
    j = AntilinearOperator.plain_conjugation(2)
    res = morita_test(scalars, scalars, j)
    assert not res.equivalent and res.contained
    assert res.witness is not None
    assert scalars.subspace.residual(res.witness) > 0.9


def test_failed_containment_witness_is_the_first_largest_commutator():
    rng = np.random.default_rng(8)
    m2 = generate_star_algebra([S1, S2])
    cases = [(m2, m2, AntilinearOperator.plain_conjugation(2))]  # ties between pairs
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
