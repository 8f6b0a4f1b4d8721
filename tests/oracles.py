"""Reference computations the tests compare the engine against.

Each is the direct, per-element form of something the engine computes in
bulk, or an input whose derived dimensions are known apart from the engine;
none is reachable from a command.
"""

import numpy as np

from nccheck._kernels import orthonormalize_rows, residual_norms
from nccheck.algebra import pairwise_products
from nccheck.numlin import MatrixSubspace, as_matrix, kron
from nccheck.product import homogeneous_parts
from nccheck.serialize import SCHEMA_VERSION, matrix_to_json


def closure_defect(alg):
    """Max residual of an algebra's pairwise basis products and adjoints
    against its span.

    Zero within the closure's tolerance certifies the product/adjoint
    closure invariants.
    """
    basis = alg.basis_matrices()
    k = basis.shape[0]
    if k == 0:
        return 0.0
    vecs = alg.subspace.vecs
    adjs = np.conj(np.transpose(basis, (0, 2, 1))).reshape(k, -1)
    res = max(residual_norms(p, vecs).max() for p in pairwise_products(vecs, vecs, [alg.ambient_dim]))
    return float(max(res, residual_norms(adjs, vecs).max()))


def pairwise_one_forms(t):
    """Omega^1_D(A) as the span of all k^2 products a [D, b], a and b over
    the algebra basis, orthonormalised in one stack."""
    basis = t.algebra_basis()
    db = (t.dirac @ basis - basis @ t.dirac).reshape(len(basis), -1)
    products = np.vstack(list(pairwise_products(t.algebra().subspace.vecs, db, [t.hilbert_dim])))
    return MatrixSubspace(t.hilbert_dim, orthonormalize_rows(products, t.tol))


def dense_document(n, seed):
    """A seeded generic document on C^n: two random generators and a random
    Hermitian D, no grading or J.

    A generic pair generates M_n, and a non-scalar D gives one-forms whose
    left M_n-module is M_n, so A, Omega^1 and Cl_D all have dimension n^2.
    """
    rng = np.random.default_rng(seed)

    def rand():
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    gens = [rand(), rand()]
    d = rand()
    return {
        "schema_version": SCHEMA_VERSION,
        "algebra_generators": [matrix_to_json(g) for g in gens],
        "dirac": matrix_to_json(d + d.conj().T),
        "metadata": {"name": f"dense_{n}[{seed}]"},
    }


# (d, m) blocks of sum M_d (x) 1_m on sum C^d (x) C^m, at most 6 dimensions
_BLOCK_LAYOUTS = (
    [(2, 1), (1, 2)],
    [(2, 2)],
    [(1, 1), (1, 1), (1, 1)],
    [(2, 1), (1, 1)],
    [(3, 1), (1, 2)],
    [(2, 1), (2, 1)],
    [(1, 3), (2, 1)],
    [(2, 3)],
)


def random_block_generators(rng, unital, permuted=False):
    """1-3 generators of a proper *-subalgebra of M_n, plus one that is zero
    or redundant; without a unit, a block on which every generator vanishes
    when there is room for one.

    The blocks are put in a random unitary basis, where no entry is an exact
    zero, or, when ``permuted``, in a random permutation of the basis, where
    they interleave.
    """

    def rand(d):
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

    layout = _BLOCK_LAYOUTS[rng.integers(len(_BLOCK_LAYOUTS))]
    n_alg = sum(d * m for d, m in layout)
    n = n_alg + (0 if unital or n_alg == 6 else 1)
    if permuted:
        p = rng.permutation(n)

        def move(g):
            return g[np.ix_(p, p)]
    else:
        u, _ = np.linalg.qr(rand(n))

        def move(g):
            return u @ g @ u.conj().T

    gens = []
    for _ in range(int(rng.integers(1, 4))):
        g = np.zeros((n, n), dtype=complex)
        at = 0
        for d, m in layout:
            g[at : at + d * m, at : at + d * m] = np.kron(rand(d), np.eye(m))
            at += d * m
        gens.append(move(g))
    kind = rng.integers(3)
    if kind == 0:
        gens.append(np.zeros((n, n), dtype=complex))
    elif kind == 1:
        gens.append(gens[0] @ gens[-1] + 2 * gens[0])
    else:
        gens.append(gens[-1].conj().T)
    return gens


def graded_product(a, b, gamma1, gamma2, side="left"):
    """Koszul graded products on H1 (x) H2.

    left:  (a . b)(v (x) w) = (-1)^{|b||v|} a v (x) b w, i.e. a gamma1^{|b|} (x) b
    right: (a .' b)(v (x) w) = (-1)^{|a||w|} a v (x) b w, i.e. a (x) b gamma2^{|a|}
    Mixed inputs are split into homogeneous parts and summed bilinearly.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if side == "left":
        b_even, b_odd = homogeneous_parts(b, gamma2)
        return kron(a, b_even) + kron(a @ gamma1, b_odd)
    if side == "right":
        a_even, a_odd = homogeneous_parts(a, gamma1)
        return kron(a_even, b) + kron(a_odd, b @ gamma2)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")
