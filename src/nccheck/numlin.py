"""Dense complex linear algebra: matrices, antilinear operators, subspaces.

Matrices are plain numpy complex arrays.  The inner product on matrix space
is the unnormalized trace pairing <X, Y> = Tr(X^* Y), which on row-major
flattened matrices is the ordinary complex dot product, so subspaces of
matrix space are stored as stacks of orthonormal flattened rows.
"""

from __future__ import annotations

import numpy as np

from ._kernels import orthonormalize_rows, residual_norms

DEFAULT_TOL = 1e-9

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def as_matrix(m):
    """Coerce to a square complex matrix, validating shape and finiteness."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def adjoint(m):
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def commutator(a, b):
    return a @ b - b @ a


def opnorm(m):
    """Operator (spectral) norm; the norm used for violation witnesses."""
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def is_unitary(k, tol=DEFAULT_TOL):
    n = k.shape[0]
    return opnorm(k @ adjoint(k) - np.eye(n)) <= tol * (1 + opnorm(k))


class AntilinearOperator:
    """Antilinear map v -> K conj(v) for a unitary kernel K (K = 1 is
    entrywise conjugation).

    Stores the kernel only; J^{-1} acts as v -> conj(K^* v).  As linear
    maps, J^2 = K conj(K), and conjugation of a linear operator X is
    J X J^{-1} = K conj(X) K^*.
    """

    def __init__(self, kernel, tol=DEFAULT_TOL):
        self.kernel = as_matrix(kernel)
        if not is_unitary(self.kernel, tol):
            raise ValueError("antilinear operator kernel is not unitary")

    @property
    def dim(self):
        return self.kernel.shape[0]

    def squared(self):
        """J^2 as a linear operator (matrix)."""
        return self.kernel @ np.conj(self.kernel)

    def conjugate(self, x):
        """J X J^{-1} for a linear operator X (a linear operator again)."""
        return self.kernel @ np.conj(x) @ self.kernel.conj().T


def circ(j, x):
    """x° = J x^* J^{-1}: complex-linear, antimultiplicative.

    Equals K x^T K^* for kernel K.
    """
    x = np.asarray(x)
    if x.shape[0] != j.dim:
        raise ValueError(f"dimension mismatch: operator {x.shape[0]} vs J {j.dim}")
    return j.kernel @ x.T @ j.kernel.conj().T


class MatrixSubspace:
    """Linear subspace of n x n matrix space with an orthonormal basis.

    Basis vectors are stored flattened (row-major) as the rows of ``vecs``;
    orthonormality is with respect to the trace pairing.
    """

    def __init__(self, ambient_dim, vecs):
        self.ambient_dim = int(ambient_dim)
        self.vecs = np.ascontiguousarray(vecs, dtype=complex)
        if self.vecs.ndim != 2 or self.vecs.shape[1] != self.ambient_dim**2:
            raise ValueError("basis stack does not match ambient dimension")

    @property
    def dim(self):
        return self.vecs.shape[0]

    def basis_matrices(self):
        n = self.ambient_dim
        return self.vecs.reshape(self.dim, n, n)

    def residual(self, x):
        """Distance from a matrix to the subspace (Frobenius)."""
        v = np.asarray(x, dtype=complex).reshape(1, -1)
        return float(residual_norms(v, self.vecs)[0])

    def contains(self, x, tol=DEFAULT_TOL):
        return self.residual(x) <= tol

    def contains_all(self, other, tol=DEFAULT_TOL):
        """Containment of another subspace, checked on its basis."""
        if other.dim == 0:
            return True
        return bool(np.all(residual_norms(other.vecs, self.vecs) <= tol))


def span(matrices, tol=DEFAULT_TOL, ambient_dim=None):
    """Orthonormal basis of the linear span of the given matrices.

    Candidates whose residual after (two-pass) orthogonalization is <= tol
    are discarded.  Empty input gives the zero subspace when ambient_dim says
    where it lives.
    """
    mats = [as_matrix(m) for m in matrices]
    if not mats:
        if ambient_dim is None:
            raise ValueError("span of empty input with unknown ambient dimension")
        return MatrixSubspace(ambient_dim, np.zeros((0, ambient_dim**2), dtype=complex))
    n = mats[0].shape[0]
    for m in mats:
        if m.shape[0] != n:
            raise ValueError("span input matrices have mixed dimensions")
    stack = np.stack([m.reshape(-1) for m in mats])
    return MatrixSubspace(n, orthonormalize_rows(stack, tol))


def subspace_equal(s, t, tol=DEFAULT_TOL):
    """Mutual containment of two subspaces, within tol per basis vector."""
    if s.ambient_dim != t.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return s.contains_all(t, tol) and t.contains_all(s, tol)


def subspace_witness(big, small, tol=DEFAULT_TOL):
    """Element of ``big`` with largest component orthogonal to ``small``.

    Returns (matrix, residual_norm) or None when big is contained in small.
    """
    if big.dim == 0:
        return None
    res = residual_norms(big.vecs, small.vecs)
    i = int(np.argmax(res))
    if res[i] <= tol:
        return None
    v = big.vecs[i] - (small.vecs.conj() @ big.vecs[i]) @ small.vecs
    v = v / np.linalg.norm(v)
    n = big.ambient_dim
    return v.reshape(n, n), float(res[i])


def kron(a, b):
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def left_mult_matrix(a):
    """L_a on M_n viewed as C^{n^2} (row-major): vec(aX) = (a (x) I) vec(X)."""
    a = as_matrix(a)
    return np.kron(a, np.eye(a.shape[0], dtype=complex))


def right_mult_matrix(a):
    """R_a on M_n viewed as C^{n^2}: vec(Xa) = (I (x) a^T) vec(X)."""
    a = as_matrix(a)
    return np.kron(np.eye(a.shape[0], dtype=complex), a.T)
