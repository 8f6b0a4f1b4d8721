import json
import os

import numpy as np
import pytest

from nccheck import triple as triple_mod
from nccheck.algebra import generate_star_algebra
from nccheck.catalog import example_evenspin, example_hodge_m2, random_triple
from nccheck.numlin import PAULI, AntilinearOperator, MatrixSubspace, opnorm, subspace_equal
from nccheck.product import product_triple
from nccheck.serialize import triple_from_document
from nccheck.triple import (
    FiniteSpectralTriple,
    RealStructure,
    TripleValidationError,
    check_order_one,
    check_order_two,
    check_order_zero,
    check_signs,
    clifford,
    clifford_circ_in_commutant,
    clifford_gamma,
    ko_dimensions,
    one_forms,
)
from oracles import closure_defect, dense_document, pairwise_one_forms, random_block_generators

S0, S1, S2, S3 = PAULI


def test_validation_names_failed_invariant():
    with pytest.raises(TripleValidationError) as err:
        FiniteSpectralTriple([S1], np.array([[0, 1], [0, 0]], dtype=complex))
    assert err.value.invariant == "dirac_self_adjoint"
    with pytest.raises(TripleValidationError) as err:
        FiniteSpectralTriple([S1], S3, grading=np.diag([1.0, 2.0]).astype(complex))
    assert err.value.invariant in ("grading_involutive", "grading_self_adjoint")
    with pytest.raises(TripleValidationError) as err:
        FiniteSpectralTriple([S3], S1, grading=S1)  # {gamma, D} != 0
    assert err.value.invariant == "grading_anticommutes_dirac"
    with pytest.raises(TripleValidationError) as err:
        FiniteSpectralTriple([], S3)
    assert err.value.invariant == "algebra_generators_nonempty"
    with pytest.raises(TripleValidationError) as err:
        FiniteSpectralTriple([S1], 1e155 * S3)  # |D|^2 overflows
    assert err.value.invariant == "dirac_norm_squared_finite"


def test_closure_budget_counts_the_block_layout():
    # at n = 200, diagonal g, [D, g] and gamma give 200 blocks of one index:
    # 200 * 200^2 entries, inside the budget; one off-diagonal generator
    # entry per index pair joins them into one block, n^4 entries, over it
    n = 200
    diag = np.diag(np.arange(1.0, n + 1)).astype(complex)
    FiniteSpectralTriple([diag], diag)
    assert n * n * n <= triple_mod.CLOSURE_BUDGET_ENTRIES < n**4
    chain = diag + np.diag(np.ones(n - 1), 1)
    with pytest.raises(TripleValidationError) as err:
        FiniteSpectralTriple([chain], diag)
    assert err.value.invariant == "closure_size_budget"


def test_grading_commutation_downgraded_to_warning():
    # conjugation by sigma3 on M2 anticommutes with the generators; it is
    # accepted with a recorded warning, not rejected
    t = example_hodge_m2()
    assert t.grading is not None
    assert not t.grading_commutes_algebra
    assert any("grading_commutes_algebra" in w for w in t.warnings)
    assert not t.is_even
    assert example_evenspin().is_even


def test_twist_validation():
    bad_twist = np.diag([1.0, 2.0]).astype(complex)
    with pytest.raises(TripleValidationError):
        RealStructure(np.eye(2, dtype=complex), bad_twist)


def test_one_forms_zero_when_dirac_commutes():
    t = FiniteSpectralTriple([S3], S3)  # D in the algebra: commutators vanish
    assert one_forms(t).dim == 0


def test_one_forms_hodge_inside_left_multiplications():
    t = example_hodge_m2()
    om = one_forms(t)
    assert om.dim == 4
    assert t.algebra().subspace.contains_all(om)


def test_clifford_with_zero_dirac_is_algebra():
    t = FiniteSpectralTriple([S1, S2], np.zeros((2, 2), dtype=complex))
    cl = clifford(t)
    assert cl.dim == t.algebra().dim


def test_clifford_gamma_requires_grading():
    t = FiniteSpectralTriple([S1], np.zeros((2, 2)), real_structure=None)
    with pytest.raises(TripleValidationError):
        clifford_gamma(t)


def test_orders_trivial_commutative():
    # commutative A, plain conjugation J, D = 0: all three orders hold
    t = FiniteSpectralTriple(
        [S3],
        np.zeros((2, 2), dtype=complex),
        real_structure=RealStructure(AntilinearOperator(np.eye(2))),
    )
    assert check_order_zero(t).holds
    assert check_order_one(t).holds
    assert check_order_two(t).holds


def test_order_checks_monotone_in_family():
    # enlarging the family from generators to the full basis never flips a
    # failure back to success
    t1, t2 = example_evenspin(), example_evenspin()
    from nccheck.product import product_triple

    p = product_triple(t1, t2, "plain")
    gen_rep = check_order_two(p, family="generators")
    basis_rep = check_order_two(p, family="basis")
    assert not gen_rep.holds
    assert not basis_rep.holds
    for tr in (example_evenspin(), example_hodge_m2()):
        if check_order_zero(tr, family="generators").holds:
            pass  # passing on generators says nothing; only False is monotone
        assert check_order_zero(tr).holds == check_order_zero(tr, family="generators").holds


def test_signs_and_ko_examples():
    s = check_signs(example_evenspin())
    assert s.tuple() == (1, -1, 1)
    assert ko_dimensions(*s.tuple()) == {0, 2}
    assert ko_dimensions(1, 1, 1) == {0}
    assert ko_dimensions(1, -1) == {1}
    assert 2 in ko_dimensions(-1, 1, -1)
    assert ko_dimensions(-1, 1) == {3}
    assert ko_dimensions(-1, -1) == {5}
    assert ko_dimensions(1, 1) == {7}


def test_signs_degenerate_when_dirac_zero():
    t = FiniteSpectralTriple(
        [S3],
        np.zeros((2, 2), dtype=complex),
        real_structure=RealStructure(AntilinearOperator(np.eye(2))),
    )
    s = check_signs(t)
    assert s.eps_prime.degenerate
    assert s.eps_prime.value is None


def test_sign_undefined_when_neither_registers():
    # J = plain conjugation, D with complex entries not commuting with it
    d = np.array([[1.0, 1j], [-1j, 2.0]])
    t = FiniteSpectralTriple(
        [np.eye(2, dtype=complex)],
        d,
        real_structure=RealStructure(AntilinearOperator(np.eye(2))),
    )
    s = check_signs(t)
    assert s.eps_prime.value is None and not s.eps_prime.degenerate


def test_equivalences_four_and_five():
    # orders 0+1 <=> Cl° in A'; all three <=> Cl° in Cl'
    for t in (example_evenspin(), example_hodge_m2()):
        lhs01 = check_order_zero(t).holds and check_order_one(t).holds
        rhs01, _ = clifford_circ_in_commutant(t, t.algebra())
        assert lhs01 == rhs01
        lhs012 = lhs01 and check_order_two(t).holds
        rhs012, _ = clifford_circ_in_commutant(t, clifford(t))
        assert lhs012 == rhs012
    # a violating example: product with plain J fails order two, and the
    # equivalence must see that on the Cl side as well
    from nccheck.product import product_triple

    p = product_triple(example_evenspin(), example_evenspin(), "plain")
    assert not check_order_two(p).holds
    ok, _ = clifford_circ_in_commutant(p, clifford(p))
    assert not ok


def test_random_triple_reproducible():
    a = random_triple(0)
    b = random_triple(0)
    assert a.hilbert_dim == b.hilbert_dim
    assert opnorm(a.dirac - b.dirac) == 0.0
    assert opnorm(a.dirac - a.dirac.conj().T) < 1e-12
    from nccheck.serialize import triple_to_document
    import json

    sa = json.dumps(triple_to_document(a), sort_keys=True)
    sb = json.dumps(triple_to_document(b), sort_keys=True)
    assert sa == sb


GOLDEN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "golden")
GOLDEN_KOSZUL_PAIRS = (
    ("evenspin_pair_1.json", "evenspin_pair_2.json"),
    ("mixed_1.json", "mixed_2.json"),
    ("hodge_m2.json", "hodge_m2.json"),
)


def _golden_triple(name):
    """A golden file, or the Koszul product of a golden pair named 'a x b'."""
    if " x " in name:
        first, second = (_golden_triple(part) for part in name.split(" x "))
        return product_triple(first, second, "koszul")
    with open(os.path.join(GOLDEN, name)) as fh:
        return triple_from_document(json.load(fh))


@pytest.mark.parametrize(
    "name", sorted(os.listdir(GOLDEN)) + [f"{a} x {b}" for a, b in GOLDEN_KOSZUL_PAIRS]
)
def test_clifford_from_generators_matches_basis_family(name):
    # Leibniz: closing over g and [D, g] gives the algebra of A and Omega^1,
    # and adding gamma to those gives the algebra of Cl_D(A) and gamma
    t = _golden_triple(name)
    cl = clifford(t)
    family = list(t.algebra_basis()) + list(one_forms(t).basis_matrices())
    ref = generate_star_algebra(family, True, t.tol)
    assert cl.dim == ref.dim and subspace_equal(cl.subspace, ref.subspace)
    assert closure_defect(cl) <= t.tol
    clg = clifford_gamma(t)
    ref = generate_star_algebra(list(cl.basis_matrices()) + [t.grading], True, t.tol)
    assert clg.dim == ref.dim and subspace_equal(clg.subspace, ref.subspace)
    assert closure_defect(clg) <= t.tol


def _order_check_every_svd(name, left_list, right_list, tol):
    """The order-check loop before the Frobenius pre-screen: one SVD norm
    per pair."""
    first, worst, violations = None, 0.0, 0
    for i, x in enumerate(left_list):
        for jdx, y in enumerate(right_list):
            c = x @ y - y @ x
            nrm = opnorm(c)
            if nrm > tol:
                violations += 1
                worst = max(worst, nrm)
                if first is None:
                    first = triple_mod.Witness((i, jdx), c, nrm)
    details = {"pairs": len(left_list) * len(right_list)}
    if first is None:
        return triple_mod.ConditionReport(name, True, None, details)
    details.update({"violations": violations, "max_norm": worst})
    return triple_mod.ConditionReport(name, False, first, details)


@pytest.mark.parametrize("mode, violations", [("plain", 112), ("koszul", 0)])
def test_order_check_takes_svd_norms_of_violations_only(monkeypatch, mode, violations):
    # the Frobenius norm bounds the operator norm, so only pairs above tol
    # by Frobenius need an SVD; on the evenspin^2 products each of them is a
    # violation, and the reports keep their bytes
    t = product_triple(_golden_triple("evenspin_pair_1.json"),
                       _golden_triple("evenspin_pair_2.json"), mode)
    calls = []

    def counted(m):
        calls.append(1)
        return opnorm(m)

    monkeypatch.setattr(triple_mod, "_order_check", _order_check_every_svd)
    before = check_order_two(t).to_dict(include_matrix=True)
    monkeypatch.undo()
    monkeypatch.setattr(triple_mod, "opnorm", counted)
    after = check_order_two(t)
    assert len(calls) == after.details.get("violations", 0) == violations
    assert after.details["pairs"] == 256
    assert after.to_dict(include_matrix=True) == before


@pytest.mark.parametrize("name", ["hodge_m2.json", "mixed_1.json x mixed_2.json"])
def test_spun_spaces_independent_of_product_block_size(monkeypatch, name):
    # with one left factor per block of products, every closure round tests
    # the same candidates in the same order: the block size only sets memory
    from nccheck import algebra

    def spaces(t):
        algebras = (t.algebra(), clifford(t), clifford_gamma(t))
        return [one_forms(t).vecs] + [a.subspace.vecs for a in algebras]

    whole = spaces(_golden_triple(name))
    monkeypatch.setattr(algebra, "_PRODUCT_BLOCK_ENTRIES", 1)
    t = _golden_triple(name)
    gens = t.algebra().generators
    flat = gens.reshape(len(gens), -1)
    assert len(list(algebra.pairwise_products(flat, flat, [t.hilbert_dim]))) == len(gens)
    for got, want in zip(spaces(t), whole):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_spun_one_forms_match_pairwise_oracle():
    # the golden files, the golden pairs' products in both J modes, seeded
    # random triples and a generic dense triple
    triples = [_golden_triple(name) for name in sorted(os.listdir(GOLDEN))]
    triples += [
        product_triple(_golden_triple(a), _golden_triple(b), mode)
        for a, b in GOLDEN_KOSZUL_PAIRS
        for mode in ("plain", "koszul")
    ]
    triples += [random_triple(seed) for seed in range(50)]
    triples.append(triple_from_document(dense_document(12, 0)))
    assert len(triples) == 63
    for t in triples:
        assert subspace_equal(one_forms(t), pairwise_one_forms(t), 1e-9), t.name


def _conjugation_case(name):
    """A golden file, a golden pair's product in one J mode ('a x b (mode)'),
    or a seeded triple on permuted block generators ('block[seed]')."""
    if name.startswith("block["):
        rng = np.random.default_rng(int(name[6:-1]))
        gens = random_block_generators(rng, True, permuted=True)
        n = gens[0].shape[0]
        # a diagonal D keeps the blocks and gives one-forms outside A
        return FiniteSpectralTriple(gens, np.diag(rng.standard_normal(n)).astype(complex))
    if " x " in name:
        pair, mode = name[:-1].split(" (")
        first, second = (_golden_triple(part) for part in pair.split(" x "))
        return product_triple(first, second, mode)
    return _golden_triple(name)


def _closures(t):
    """A, Omega^1, Cl_D and, for a graded triple, Cl^gamma."""
    spaces = [t.algebra().subspace, one_forms(t), clifford(t).subspace]
    return spaces + ([clifford_gamma(t).subspace] if t.grading is not None else [])


@pytest.mark.parametrize(
    "name",
    sorted(os.listdir(GOLDEN))
    + [f"{a} x {b} ({mode})" for a, b in GOLDEN_KOSZUL_PAIRS for mode in ("plain", "koszul")]
    + [f"block[{seed}]" for seed in range(10)],
)
def test_closures_unchanged_by_conjugating_the_block_layout(name):
    # a random permutation interleaves the blocks of exact nonzeros; a random
    # unitary leaves one block, so the spin is the dense one.  Conjugated
    # back, every closure equals the one spun on the given blocks.
    t = _conjugation_case(name)
    n = t.hilbert_dim
    rng = np.random.default_rng(n)
    perm = np.eye(n)[rng.permutation(n)]
    unitary, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    want = _closures(t)
    for u in (perm, unitary):
        uh = u.conj().T
        moved = FiniteSpectralTriple(
            [u @ g @ uh for g in t.algebra_generators],
            u @ t.dirac @ uh,
            grading=None if t.grading is None else u @ t.grading @ uh,
        )
        got = _closures(moved)
        assert len(got) == len(want)
        for space, ref in zip(got, want):
            back = MatrixSubspace(n, (uh @ space.basis_matrices() @ u).reshape(space.dim, -1))
            assert back.dim == ref.dim and subspace_equal(back, ref), name


def test_one_forms_connected_only_through_the_seeds():
    # A is diagonal, so its generators split {0}, {1}; the seeds [D, b] join
    # them, and Omega^1 = span{E01, E10}
    t = FiniteSpectralTriple([np.diag([1.0, 2.0]).astype(complex)], S1)
    assert one_forms(t).dim == 2
    assert subspace_equal(one_forms(t), pairwise_one_forms(t))
