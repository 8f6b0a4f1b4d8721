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
    res = max(residual_norms(p, vecs).max() for p in pairwise_products(basis, basis))
    return float(max(res, residual_norms(adjs, vecs).max()))


def pairwise_one_forms(t):
    """Omega^1_D(A) as the span of all k^2 products a [D, b], a and b over
    the algebra basis, orthonormalised in one stack."""
    basis = t.algebra_basis()
    db = t.dirac @ basis - basis @ t.dirac
    products = np.vstack(list(pairwise_products(basis, db)))
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
