"""Hot numeric kernels: re-orthogonalized Gram-Schmidt and residual norms.

Gram-Schmidt runs inside every span() call and every closure round of
generated algebras, with a sequential dependency over rows; each step is a
pair of BLAS matrix-vector products against the rows accepted so far.
"""

from __future__ import annotations

import numpy as np


def orthonormalize_rows(vecs, tol, against=None):
    """Orthonormal basis (rows) of span(vecs) relative to ``against``.

    Two-pass modified Gram-Schmidt: each row is projected off the orthonormal
    rows of ``against`` (when given, they must already be orthonormal), then
    off previously accepted rows, twice for rank-decision stability.  Rows
    whose residual norm is <= tol are dropped; the accepted rows are
    returned in order and span the component of span(vecs) orthogonal to
    ``against``.
    """
    vecs = np.ascontiguousarray(vecs, dtype=np.complex128)
    if vecs.ndim != 2:
        raise ValueError("expected a 2-d stack of row vectors")
    m, d = vecs.shape
    tol = float(tol)
    if against is None or against.shape[0] == 0:
        against = np.zeros((0, d), dtype=np.complex128)
    else:
        against = np.ascontiguousarray(against, dtype=np.complex128)
    against_conj = against.conj()
    out = np.empty((m, d), dtype=np.complex128)
    count = 0
    for r in range(m):
        v = vecs[r].copy()
        for _ in range(2):
            if against.shape[0]:
                v -= against_conj.dot(v).dot(against)
            if count:
                v -= np.conj(out[:count].dot(v.conj())).dot(out[:count])
        nrm = np.linalg.norm(v)
        if nrm > tol:
            out[count] = v / nrm
            count += 1
    return out[:count].copy()


def residual_norms(vecs, basis):
    """Norms of each row of ``vecs`` after projecting onto span(basis rows)."""
    vecs = np.asarray(vecs, dtype=np.complex128)
    if basis.shape[0] == 0:
        return np.linalg.norm(vecs, axis=1)
    coeff = vecs.dot(basis.conj().T)
    return np.linalg.norm(vecs - coeff.dot(basis), axis=1)
