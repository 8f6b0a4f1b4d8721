"""Reference computations the tests compare the engine against.

Each is the direct, per-element form of something the engine computes in
bulk; none is reachable from a command.
"""

import numpy as np

from nccheck._kernels import residual_norms
from nccheck.algebra import pairwise_products
from nccheck.numlin import as_matrix, kron
from nccheck.product import homogeneous_parts


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
    res = max(residual_norms(p, vecs).max() for p in pairwise_products(basis))
    return float(max(res, residual_norms(adjs, vecs).max()))


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
