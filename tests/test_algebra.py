import numpy as np
import pytest

from nccheck import algebra
from nccheck._kernels import orthonormalize_rows
from nccheck.algebra import (
    OperatorAlgebra,
    circ_image,
    commutant,
    commutant_constraint_gram,
    commutant_dimension,
    generate_star_algebra,
    block_layout,
    pairwise_products,
)
from nccheck.catalog import TRANSPOSE_PERM
from nccheck.numlin import (
    PAULI,
    AntilinearOperator,
    MatrixSubspace,
    left_mult_matrix,
    right_mult_matrix,
    span,
    subspace_equal,
)
from nccheck.product import graded_algebra, random_graded_pair
from oracles import closure_defect, random_block_generators

S0, S1, S2, S3 = PAULI


def rand_mat(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def rand_j(rng, n):
    q, _ = np.linalg.qr(rand_mat(rng, n))
    return AntilinearOperator(q @ q.T)  # J^2 = 1


def test_generate_examples():
    assert generate_star_algebra([S1, S2]).dim == 4  # sigma1, sigma2 generate M2
    assert generate_star_algebra([S0]).dim == 1
    # powers of a matrix with distinct eigenvalues span the diagonal
    assert generate_star_algebra([np.diag([1.0, 2.0]).astype(complex)]).dim == 2
    # empty generators with unital=True -> scalars: needs a dimension, so the
    # one-generator identity case stands in
    assert generate_star_algebra([np.eye(3, dtype=complex)]).dim == 1


def test_generated_algebra_closure_invariants():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        gens = [rand_mat(rng, n) for _ in range(int(rng.integers(1, 3)))]
        alg = generate_star_algebra(gens)
        assert closure_defect(alg) < 1e-9
        eye = np.eye(n, dtype=complex)
        assert alg.subspace.contains(eye)


def test_commutant_examples():
    full = generate_star_algebra([S1, S2])
    assert commutant(full).dim == 1  # Schur
    scalars = generate_star_algebra([np.eye(3, dtype=complex)])
    assert commutant(scalars).dim == 9


def test_double_commutant_diagonal():
    diag = generate_star_algebra([np.diag([1.0, 2.0]).astype(complex)])
    cc = commutant(commutant(diag))
    assert subspace_equal(cc.subspace, diag.subspace)


def test_double_commutant_random():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        gens = [rand_mat(rng, n) for _ in range(int(rng.integers(1, 3)))]
        alg = generate_star_algebra(gens)
        cc = commutant(commutant(alg))
        assert subspace_equal(cc.subspace, alg.subspace)


def test_commutant_depends_only_on_generators():
    rng = np.random.default_rng(2)
    gens = [rand_mat(rng, 3)]
    alg = generate_star_algebra(gens)
    direct = commutant(alg)
    regenerated = commutant(generate_star_algebra(list(alg.basis_matrices())))
    assert subspace_equal(direct.subspace, regenerated.subspace)


def test_rank_nullity_of_constraint_system():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        alg = generate_star_algebra([rand_mat(rng, n)])
        gram = commutant_constraint_gram(alg.basis_matrices())
        rank = int(np.sum(np.linalg.eigvalsh(gram) > 1e-9))
        assert rank + commutant(alg).dim == n * n


def test_constraint_gram_matches_explicit_sum():
    rng = np.random.default_rng(6)
    for n in range(1, 5):
        for k in (1, 2, 3):
            gens = np.stack([rand_mat(rng, n) for _ in range(k)])
            eye = np.eye(n)
            want = 0
            for g in gens:
                m = np.kron(eye, g.T) - np.kron(g, eye)  # vec(Xg - gX), row-major
                want = want + m.conj().T @ m
            assert np.allclose(commutant_constraint_gram(gens), want, atol=1e-12)


def _block_rows(stack):
    """Rows of concatenated flattened diagonal blocks, one row per list of blocks."""
    return np.stack([np.concatenate([b.reshape(-1) for b in m]) for m in stack])


def test_pairwise_products_match_naive(monkeypatch):
    # one dense 3 x 3 block, then diagonal blocks of sizes 2, 1 and 3
    rng = np.random.default_rng(7)
    for sizes in ([3], [2, 1, 3]):
        left = [[rand_mat(rng, s) for s in sizes] for _ in range(5)]
        right = [[rand_mat(rng, s) for s in sizes] for _ in range(4)]
        width = sum(s * s for s in sizes)
        want = _block_rows([[x @ y for x, y in zip(a, b)] for a in left for b in right])
        # one block; blocks of one left factor; blocks of two (4 * width entries each)
        for entries, n_blocks in ((1 << 21, 1), (1, 5), (2 * 4 * width, 3)):
            monkeypatch.setattr(algebra, "_PRODUCT_BLOCK_ENTRIES", entries)
            blocks = list(pairwise_products(_block_rows(left), _block_rows(right), sizes))
            assert len(blocks) == n_blocks
            assert np.allclose(np.vstack(blocks), want, atol=1e-12)
        square = np.vstack(list(pairwise_products(_block_rows(left), _block_rows(left), sizes)))
        want = _block_rows([[x @ y for x, y in zip(a, b)] for a in left for b in left])
        assert np.allclose(square, want, atol=1e-12)


def test_block_layout_components():
    e01 = np.zeros((4, 4), dtype=complex)
    e01[0, 1] = 1
    e23 = np.roll(np.roll(e01, 2, axis=0), 2, axis=1)
    # an entry (i, j) joins i and j in both directions: (0, 1) alone, then
    # (0, 1) and (3, 2), which only the adjoint of E23 would show
    assert [b.tolist() for b in block_layout(4, [e01])] == [[0, 1], [2], [3]]
    assert [b.tolist() for b in block_layout(4, [e01], [e23.T])] == [[0, 1], [2, 3]]
    # a chain 3-1, 1-2 with an interleaved index 0 on its own
    chain = np.zeros((4, 4))
    chain[3, 1] = chain[1, 2] = 1e-300
    assert [b.tolist() for b in block_layout(4, chain)] == [[0], [1, 2, 3]]
    assert [b.tolist() for b in block_layout(2, np.ones((1, 4)))] == [[0, 1]]


def test_spin_closure_connected_only_through_an_adjoint():
    # the shift E01 + E12 is upper triangular; with its adjoint it generates
    # M3, so the blocks must join (i, j) and (j, i)
    shift = np.diag([1.0, 1.0], 1).astype(complex)
    alg = generate_star_algebra([shift])
    assert alg.dim == 9 and subspace_equal(alg.subspace, _all_pairs_closure([shift], True))
    gens = [np.kron(np.eye(2), shift)]  # two copies: two blocks
    alg = generate_star_algebra(gens)
    assert alg.dim == 9 and subspace_equal(alg.subspace, _all_pairs_closure(gens, True))


def test_spin_closure_connected_only_through_the_space():
    # diagonal multipliers split {0}, {1}; the all-ones seed joins them, and
    # its left module under the diagonal is {[[a, a], [b, b]]}
    diag = np.diag([1.0, 2.0]).astype(complex)
    ones = np.ones((2, 2), dtype=complex)
    space = algebra.spin(span([ones]), span([diag]).basis_matrices(), 1e-9)
    assert space.dim == 2
    assert space.contains(np.array([[1, 1], [0, 0]], dtype=complex))
    assert space.contains(np.array([[0, 0], [1, 1]], dtype=complex))


def _all_pairs_closure(generators, unital, tol=1e-9):
    """Reference closure: adjoints and all pairwise basis products, every round."""
    n = generators[0].shape[0]
    space = span(list(generators) + ([np.eye(n)] if unital else []), tol)
    while True:
        basis = list(space.basis_matrices())
        cand = [b.conj().T for b in basis] + [a @ b for a in basis for b in basis]
        stack = np.stack([c.reshape(-1) for c in cand])
        grown = orthonormalize_rows(stack, tol, against=space.vecs)
        if len(grown) == 0:
            return space
        space = MatrixSubspace(n, np.vstack([space.vecs, grown]))


@pytest.mark.parametrize("unital", [True, False], ids=["unital", "non_unital"])
def test_spinning_matches_all_pairs_closure_within_work_bound(monkeypatch, unital):
    real = algebra.residual_norms
    rows = []

    def counted(vecs, basis):
        rows.append(len(vecs))
        return real(vecs, basis)

    monkeypatch.setattr(algebra, "residual_norms", counted)
    rng = np.random.default_rng(11 if unital else 12)
    # a random unitary basis (one block), then a permuted one (interleaved)
    for permuted in [False] * 25 + [True] * 25:
        gens = random_block_generators(rng, unital, permuted)
        rows.clear()
        alg = generate_star_algebra(gens, unital)
        tested = sum(rows)
        want = _all_pairs_closure(gens, unital)
        assert alg.dim == want.dim and subspace_equal(alg.subspace, want)
        assert closure_defect(alg) <= 1e-9
        # spinning tests each accepted row once against each multiplier
        multipliers = span(gens + [g.conj().T for g in gens]).dim
        assert tested <= alg.dim * multipliers


def test_commutant_dimension_redraws_a_degenerate_central_element(monkeypatch):
    # diag(1, 2, 3) (x) 1_2 generates C^3 (x) 1_2: a 3-dim center, commutant
    # sum m_i^2 = 12; a zero first draw gives z = 0, which separates nothing
    alg = generate_star_algebra([np.kron(np.diag([1.0, 2.0, 3.0]), np.eye(2))])
    real = np.random.default_rng
    draws = []

    class FirstDrawZero:
        def __init__(self, seed):
            self.rng = real(seed)

        def standard_normal(self, size):
            draws.append(size)
            out = self.rng.standard_normal(size)
            return 0 * out if len(draws) <= 2 else out  # real and imaginary parts

    monkeypatch.setattr(np.random, "default_rng", FirstDrawZero)
    assert commutant_dimension(alg) == 12
    assert len(draws) == 4


def test_left_mult_algebra_commutant_is_right_mult():
    # M2 acting on M2 = C^4 by left multiplication: commutant is the
    # right-multiplication copy, dimension 4
    lm2 = generate_star_algebra([left_mult_matrix(S1), left_mult_matrix(S2)])
    assert lm2.dim == 4
    c = commutant(lm2)
    r = span([right_mult_matrix(p) for p in PAULI])
    assert c.dim == 4 and subspace_equal(c.subspace, r)


def test_commutant_dimension_matches_basis_computation(monkeypatch):
    real = algebra.residual_norms
    rows = []

    def counted(vecs, basis):
        rows.append(len(vecs))
        return real(vecs, basis)

    rng = np.random.default_rng(4)
    algs = []
    for _ in range(30):
        n = int(rng.integers(2, 5))
        algs.append(generate_star_algebra([rand_mat(rng, n) for _ in range(int(rng.integers(1, 3)))]))
    for _ in range(10):
        alg = generate_star_algebra(random_block_generators(rng, True))
        algs += [alg, circ_image(rand_j(rng, alg.ambient_dim), alg)]
    pair = random_graded_pair(rng)
    graded = graded_algebra(pair.b1, pair.b2, pair.gamma1, pair.gamma2)
    assert len(graded.generators) == graded.dim  # stores no generators: the basis
    algs.append(graded)
    monkeypatch.setattr(algebra, "residual_norms", counted)
    for alg in algs:
        rows.clear()
        dim = commutant_dimension(alg)
        assert sum(rows) == len(alg.generators) * alg.dim  # k commutators per generator
        assert dim == commutant(alg).dim


@pytest.mark.parametrize("unital", [True, False], ids=["unital", "non_unital"])
def test_stored_generators_regenerate_the_algebra(unital):
    rng = np.random.default_rng(13 if unital else 14)
    for _ in range(10):
        alg = generate_star_algebra(random_block_generators(rng, unital), unital)
        img = circ_image(rand_j(rng, alg.ambient_dim), alg)
        for b in (alg, img):
            again = generate_star_algebra(list(b.generators), unital)
            assert subspace_equal(again.subspace, b.subspace)


def test_commutant_dimension_rejects_a_span_that_is_not_product_closed():
    e12 = np.array([[0, 1], [0, 0]], dtype=complex)
    alg = OperatorAlgebra(span([e12, e12.T]), True)  # E12 E21 = E11 lies outside
    with pytest.raises(ValueError, match="not product-closed"):
        commutant_dimension(alg)


def test_circ_image_left_to_right():
    j = AntilinearOperator(TRANSPOSE_PERM)  # a -> a^* on M2 = C^4
    lm2 = generate_star_algebra([left_mult_matrix(S1), left_mult_matrix(S2)])
    img = circ_image(j, lm2)
    r = span([right_mult_matrix(p) for p in PAULI])
    assert subspace_equal(img.subspace, r)


def test_circ_image_scalars_fixed():
    j = AntilinearOperator(np.eye(3))
    scalars = generate_star_algebra([np.eye(3, dtype=complex)])
    img = circ_image(j, scalars)
    assert img.dim == 1 and img.subspace.contains(np.eye(3))


def test_circ_image_involutive():
    rng = np.random.default_rng(5)
    for _ in range(10):
        j = rand_j(rng, 3)
        alg = generate_star_algebra([rand_mat(rng, 3)])
        back = circ_image(j, circ_image(j, alg))
        assert subspace_equal(back.subspace, alg.subspace)
