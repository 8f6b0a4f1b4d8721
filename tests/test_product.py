import json
import os

import numpy as np
import pytest

from nccheck.algebra import (
    OperatorAlgebra,
    circ_image,
    commutant_dimension,
    commutes_with_all,
    generate_star_algebra,
)
from nccheck.catalog import example_evenspin, example_hodge_m2, evenspin_omega
from nccheck.numlin import PAULI, MatrixSubspace, circ, kron, opnorm, span, subspace_equal
from nccheck.product import (
    GradedAlgebraPair,
    alt_dirac,
    alt_dirac_intertwine_check,
    graded_algebra,
    homogeneous_parts,
    lemma_21b_check,
    lemma_25_check,
    one_forms_decomposition_check,
    plain_vs_koszul_order_two,
    product_sign_check,
    product_triple,
    random_graded_pair,
    verify_gct,
)
from nccheck.serialize import triple_from_document
from nccheck.triple import (
    FiniteSpectralTriple,
    TripleValidationError,
    check_order_two,
    check_signs,
    clifford,
)
from oracles import graded_product

S0, S1, S2, S3 = PAULI
GOLDEN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "golden")


def rand_mat(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_homogeneous_parts_sum_and_degrees():
    rng = np.random.default_rng(0)
    x = rand_mat(rng, 2)
    even, odd = homogeneous_parts(x, S3)
    assert opnorm(even + odd - x) < 1e-12
    assert opnorm(S3 @ even @ S3 - even) < 1e-12  # even: gamma x gamma = x
    assert opnorm(S3 @ odd @ S3 + odd) < 1e-12  # odd: gamma x gamma = -x
    # a random x is mixed: neither relation holds
    assert opnorm(S3 @ x @ S3 - x) > 1e-3 and opnorm(S3 @ x @ S3 + x) > 1e-3


def test_graded_product_even_b_is_kron():
    rng = np.random.default_rng(1)
    a = rand_mat(rng, 2)
    b_even = np.diag(rng.standard_normal(2)).astype(complex)  # sigma3-even
    assert opnorm(graded_product(a, b_even, S3, S3, "left") - kron(a, b_even)) < 1e-12


def test_graded_product_sign_rule_on_vectors():
    # (a . b)(v x w) = (-1)^{|b||v|} av x bw on homogeneous vectors
    rng = np.random.default_rng(2)
    gamma1 = gamma2 = S3
    a = rand_mat(rng, 2)
    b_odd = np.array([[0, 1.5], [0.7, 0]], dtype=complex)
    prod = graded_product(a, b_odd, gamma1, gamma2, "left")
    for vi, deg in ((np.array([1.0, 0]), 0), (np.array([0, 1.0]), 1)):
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        got = prod @ np.kron(vi, w)
        want = (-1) ** deg * np.kron(a @ vi, b_odd @ w)
        assert np.linalg.norm(got - want) < 1e-12


def test_graded_product_right_odd_a():
    rng = np.random.default_rng(3)
    a_odd = np.array([[0, 2.0], [1.0, 0]], dtype=complex)
    b = rand_mat(rng, 2)
    got = graded_product(a_odd, b, S3, S3, "right")
    assert opnorm(got - kron(a_odd, b @ S3)) < 1e-12


def test_koszul_multiplication_rule():
    # (a . b)(c . d) = (-1)^{|b||c|} (ac) . (bd) on homogeneous inputs
    rng = np.random.default_rng(4)
    for _ in range(100):
        n1 = int(rng.integers(2, 4))
        n2 = int(rng.integers(2, 4))
        s1 = np.diag(np.where(rng.random(n1) < 0.5, 1.0, -1.0)).astype(complex)
        s2 = np.diag(np.where(rng.random(n2) < 0.5, 1.0, -1.0)).astype(complex)
        def homog(n, g, deg):
            x = rand_mat(rng, n)
            e, o = homogeneous_parts(x, g)
            return e if deg == 0 else o
        da, db, dc, dd = (int(rng.integers(0, 2)) for _ in range(4))
        a, c = homog(n1, s1, da), homog(n1, s1, dc)
        b, d = homog(n2, s2, db), homog(n2, s2, dd)
        lhs = graded_product(a, b, s1, s2, "left") @ graded_product(c, d, s1, s2, "left")
        rhs = (-1) ** (db * dc) * graded_product(a @ c, b @ d, s1, s2, "left")
        assert opnorm(lhs - rhs) < 1e-10


def test_graded_algebra_full_factors():
    rng = np.random.default_rng(5)
    b1 = generate_star_algebra([rand_mat(rng, 2)] + [S1, S2])
    b2 = generate_star_algebra([S1, S2])
    for side in ("left", "right"):
        g = graded_algebra(b1, b2, S3, S3, side)
        assert g.dim == 16  # full matrix algebra on the tensor space


def _graded_factor(rng, n, parities):
    """A grading in general position with both signs, and the algebra of one
    random generator of each given parity (0 even, 1 odd)."""
    signs = np.where(np.arange(n) < n // 2, 1.0, -1.0)
    q, _ = np.linalg.qr(rand_mat(rng, n))
    gamma = q @ np.diag(signs) @ q.conj().T
    gamma = (gamma + gamma.conj().T) / 2
    gens = [homogeneous_parts(rand_mat(rng, n), gamma)[p] for p in parities]
    return generate_star_algebra(gens), gamma


def _golden_clifford_pair():
    ts = []
    for name in ("mixed_1.json", "mixed_2.json"):
        with open(os.path.join(GOLDEN, name)) as fh:
            ts.append(triple_from_document(json.load(fh)))
    return GradedAlgebraPair(clifford(ts[0]), clifford(ts[1]), ts[0].grading, ts[1].grading)


@pytest.mark.parametrize(
    "first, second",
    [((2, (0,)), (3, (1,))), ((4, (1, 1)), (2, (0, 0))), ((3, (0, 1)), (4, (1, 0, 1))),
     ((2, (1,)), (2, (0, 1))), (None, None)],
    ids=["even_x_odd", "odd_x_even", "mixed_x_mixed", "odd_x_mixed", "golden_clifford"],
)
def test_graded_algebra_stack_matches_graded_product(first, second):
    # the one-broadcast stack is the per-pair definition, bit for bit
    if first is None:
        pair = _golden_clifford_pair()
    else:
        rng = np.random.default_rng([8, *first[1], *second[1]])
        b1, g1 = _graded_factor(rng, *first)
        b2, g2 = _graded_factor(rng, *second)
        pair = GradedAlgebraPair(b1, b2, g1, g2)  # checks grading invariance
    for side in ("left", "right"):
        got = graded_algebra(pair.b1, pair.b2, pair.gamma1, pair.gamma2, side)
        want = span(
            [graded_product(x, y, pair.gamma1, pair.gamma2, side)
             for x in pair.b1.basis_matrices() for y in pair.b2.basis_matrices()]
        )
        assert np.array_equal(got.subspace.vecs, want.vecs), side


def test_graded_algebra_rejects_non_finite_factor():
    vecs = np.eye(4, dtype=complex)
    vecs[1, 2] = np.nan
    bad = OperatorAlgebra(MatrixSubspace(2, vecs), True)
    good = generate_star_algebra([S1, S2])
    for b1, b2 in ((bad, good), (good, bad)):
        for side in ("left", "right"):
            with pytest.raises(ValueError):
                graded_algebra(b1, b2, S3, S3, side)


def test_graded_algebra_pair_rejects_non_invariant_factor():
    # sigma1 is odd for sigma3, so the algebra of 1 and sigma3 + sigma1 is not
    # invariant under conjugation by sigma3
    alg = generate_star_algebra([S3 + S1])
    with pytest.raises(ValueError, match="b2 is not invariant under its grading"):
        GradedAlgebraPair(generate_star_algebra([S3]), alg, S3, S3)


def test_product_triple_requires_even_first_factor():
    t2 = example_hodge_m2()
    bare = FiniteSpectralTriple(
        t2.algebra_generators, t2.dirac, grading=None, real_structure=t2.real_structure
    )
    with pytest.raises(TripleValidationError):
        product_triple(bare, t2, "plain")
    with pytest.raises(TripleValidationError):
        product_triple(example_evenspin(), bare, "koszul")  # koszul needs gamma2


def test_plain_and_koszul_agree_on_even_tensor_anything():
    # Sigma acts as the identity when the first-factor vector is even
    t1, t2 = example_evenspin(), example_evenspin()
    pk = product_triple(t1, t2, "koszul")
    pp = product_triple(t1, t2, "plain")
    n1, n2 = t1.hilbert_dim, t2.hilbert_dim
    p_plus = (np.eye(n1) + t1.grading) / 2
    rng = np.random.default_rng(6)
    v = p_plus @ (rng.standard_normal(n1) + 1j * rng.standard_normal(n1))
    w = rng.standard_normal(n2) + 1j * rng.standard_normal(n2)
    x = np.kron(v, w)
    # J acts on vectors as v -> K conj(v) for its kernel K
    jk = pk.real_structure.j.kernel
    jp = pp.real_structure.j.kernel
    assert np.linalg.norm(jk @ np.conj(x) - jp @ np.conj(x)) < 1e-9


def test_alt_dirac_examples():
    t1, t2 = example_evenspin(), example_evenspin()
    zero2 = FiniteSpectralTriple(
        t2.algebra_generators,
        np.zeros_like(t2.dirac),
        grading=t2.grading,
        real_structure=t2.real_structure,
    )
    dt = alt_dirac(t1, zero2)
    assert opnorm(dt - kron(t1.dirac, t2.grading)) < 1e-12
    # D~ != D generically
    full = alt_dirac(t1, t2)
    p = product_triple(t1, t2, "plain")
    assert opnorm(full - p.dirac) > 1.0
    rep = alt_dirac_intertwine_check(t1, t2)
    assert rep.details["eligible"] and rep.holds
    assert opnorm(full - full.conj().T) < 1e-12


def test_product_sign_check_catalog_and_flipped():
    rep = product_sign_check(example_evenspin(), example_evenspin())
    assert rep.holds
    assert rep.details["product_signs"][0] == 1
    assert rep.details["product_signs"][2] == 1
    # flip the second factor's grading to 1 x sigma2: J-degree flips, eps'' = -1
    base = example_evenspin()
    flipped = FiniteSpectralTriple(
        base.algebra_generators,
        base.dirac,
        grading=kron(np.eye(4), S2),
        real_structure=base.real_structure,
    )
    s = check_signs(flipped)
    assert s.tuple()[2] == -1
    rep = product_sign_check(example_evenspin(), flipped)
    assert rep.details["product_signs"][2] == -1
    assert rep.holds  # eps'' = eps''_1 eps''_2 still verified


def test_prop22_on_strictly_even_pair_and_plain_failure():
    kos, plain = plain_vs_koszul_order_two(example_evenspin(), example_evenspin())
    assert kos.holds
    assert not plain.holds
    assert plain.witness is not None and plain.witness.norm > 1e-6


def test_lemma_checks_on_evenspin_pair():
    t1, t2 = example_evenspin(), example_evenspin()
    r13 = one_forms_decomposition_check(t1, t2)
    assert r13.details["lemma13_holds"]
    assert not r13.details["gamma1_in_clifford1"]  # Lemma 2 clause skipped
    assert lemma_21b_check(t1, t2).holds
    r25 = lemma_25_check(t1, t2)
    assert r25.holds
    assert not r25.details["unconjugated_variant_holds"]


def test_plain_and_koszul_products_share_derived_structures():
    t1, t2 = example_hodge_m2(), example_hodge_m2()
    kos = product_triple(t1, t2, "koszul")
    plain = product_triple(t1, t2, "plain")
    plain.share_derived(kos)
    assert clifford(plain) is clifford(kos)  # built once, for both
    fresh = product_triple(t1, t2, "plain")
    assert subspace_equal(clifford(fresh).subspace, clifford(kos).subspace)
    # the checks give the same verdicts on passed-in products as on their own
    kos_two, plain_two = plain_vs_koszul_order_two(t1, t2, koszul=kos, plain=plain)
    assert (kos_two.holds, plain_two.holds) == tuple(
        r.holds for r in plain_vs_koszul_order_two(t1, t2)
    )
    assert product_sign_check(t1, t2, product=kos).to_dict() == product_sign_check(t1, t2).to_dict()
    assert (
        alt_dirac_intertwine_check(t1, t2, product=kos).to_dict()
        == alt_dirac_intertwine_check(t1, t2).to_dict()
    )
    other = product_triple(example_evenspin(), example_evenspin(), "plain")
    with pytest.raises(ValueError):
        other.share_derived(kos)


def test_lemma13_with_zero_first_dirac():
    # D1 = 0: the product one-forms reduce to gamma1 A1 (x) Omega^1_2
    t1 = example_evenspin()
    z1 = FiniteSpectralTriple(
        t1.algebra_generators,
        np.zeros_like(t1.dirac),
        grading=t1.grading,
        real_structure=t1.real_structure,
    )
    t2 = example_hodge_m2()
    rep = one_forms_decomposition_check(z1, t2)
    assert rep.details["lemma13_holds"]
    prod = product_triple(z1, t2, "plain")
    from nccheck.triple import one_forms

    lhs = one_forms(prod)
    rhs = span(
        [kron(z1.grading @ a, w) for a in z1.algebra_basis()
         for w in one_forms(t2).basis_matrices()]
    )
    assert subspace_equal(lhs, rhs)


def test_leftright_generator_images():
    # the four conjugation images of the Koszul J on the strictly even pair
    t1, t2 = example_evenspin(), example_evenspin()
    prod = product_triple(t1, t2, "koszul")
    j = prod.real_structure.j
    j1, j2 = t1.real_structure.j, t2.real_structure.j
    n1, n2 = t1.hilbert_dim, t2.hilbert_dim
    om = evenspin_omega()
    for a1 in t1.algebra_generators:
        lhs = j.conjugate(kron(a1, np.eye(n2)).conj().T)
        assert opnorm(lhs - kron(circ(j1, a1), np.eye(n2))) < 1e-10
    lhs = j.conjugate(kron(om, np.eye(n2)).conj().T)
    assert opnorm(lhs - kron(circ(j1, om), t2.grading)) < 1e-10
    for a2 in t2.algebra_generators:
        lhs = j.conjugate(kron(np.eye(n1), a2))
        assert opnorm(lhs - kron(np.eye(n1), j2.conjugate(a2))) < 1e-10
    lhs = j.conjugate(kron(t1.grading, om))
    assert opnorm(lhs - kron(np.eye(n1), j2.conjugate(om))) < 1e-10


def test_gct_trivial_and_explicit():
    # scalars against scalars: both sides are the full algebra
    scal2 = generate_star_algebra([np.eye(2, dtype=complex)])
    pair = GradedAlgebraPair(scal2, scal2, S3, S3)
    rep = verify_gct(pair)
    assert rep.holds and rep.details["dim_lhs_commutant"] == 16
    # M2 against the diagonal algebra
    m2 = generate_star_algebra([S1, S2])
    diag = generate_star_algebra([S3])
    rep = verify_gct(GradedAlgebraPair(m2, diag, S3, S3))
    assert rep.holds


def test_gct_randomized_and_easy_inclusion():
    rng = np.random.default_rng(7)
    for _ in range(30):
        pair = random_graded_pair(rng, 4)
        rep = verify_gct(pair)
        assert rep.details["easy_inclusion"]
        assert rep.holds, rep.details


def test_koszul_kernel_unitary_and_involutive_here():
    t1, t2 = example_evenspin(), example_evenspin()
    p = product_triple(t1, t2, "koszul")
    k = p.real_structure.j.kernel
    n = k.shape[0]
    assert opnorm(k @ k.conj().T - np.eye(n)) < 1e-12
    assert opnorm(p.real_structure.j.squared() - np.eye(n)) < 1e-12
