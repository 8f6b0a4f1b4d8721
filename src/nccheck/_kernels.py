"""Hot numeric kernels: panel-blocked Gram-Schmidt and residual norms.

Gram-Schmidt runs inside every span() call and every closure round of
generated algebras.  Candidate rows are taken in panels: each panel is
projected twice off the rows accepted before it, each time with two BLAS
matrix-matrix products, so the accepted basis is streamed from memory four
times per panel rather than four times per row, and only the rows accepted
inside the panel are left to the sequential row-by-row step.
"""

from __future__ import annotations

import numpy as np

# Candidate rows projected off the accepted basis together.  32 rows make
# the projections GEMMs; the panel and its conjugate (2 x 32 rows) stay small
# next to the basis, so the peak memory of a closure round hardly moves.
_PANEL_ROWS = 32


def _project_off(rows, basis):
    """rows -= (rows basis^*) basis, for orthonormal basis rows; the
    coefficients come from conjugating the small ``rows``, not the basis."""
    if basis.shape[0]:
        rows -= np.conj(rows.conj() @ basis.T) @ basis


def orthonormalize_rows(vecs, tol, against=None):
    """Orthonormal basis (rows) of span(vecs) relative to ``against``.

    Rows are accepted greedily in input order: a row is kept when its
    residual off the orthonormal rows of ``against`` (when given, they must
    already be orthonormal) and off the rows accepted before it has norm
    > tol, and the kept row is that residual, normalised.  The accepted rows
    span the component of span(vecs) orthogonal to ``against``.

    Reorthogonalised block classical Gram-Schmidt ("twice is enough",
    Giraud-Langou-Rozloznik-van den Eshof, Numer. Math. 101, 2005) in panels
    of ``_PANEL_ROWS`` rows (Barlow-Smoktunowicz, Numer. Math. 123, 2013):
    each panel is projected off ``against`` and off the rows accepted so
    far, twice, then each of its rows off the rows accepted inside the same
    panel, twice, before its norm decides.
    """
    vecs = np.asarray(vecs)
    if vecs.ndim != 2:
        raise ValueError("expected a 2-d stack of row vectors")
    m, d = vecs.shape
    tol = float(tol)
    against = np.zeros((0, d)) if against is None else against
    out = np.empty((m, d), dtype=np.complex128)
    count = 0
    for start in range(0, m, _PANEL_ROWS):
        panel = np.array(vecs[start : start + _PANEL_ROWS], dtype=np.complex128)
        for _ in range(2):
            _project_off(panel, against)
            _project_off(panel, out[:count])
        first = count
        for v in panel:
            # off the few rows accepted in this panel: GEMVs, which cost less
            # per call than _project_off's GEMMs on small stacks
            for _ in range(2):
                if count > first:
                    inner = out[first:count]
                    v -= np.conj(inner.dot(v.conj())).dot(inner)
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
