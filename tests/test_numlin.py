import numpy as np
import pytest

from nccheck import _kernels
from nccheck.numlin import (
    PAULI,
    AntilinearOperator,
    adjoint,
    circ,
    opnorm,
    span,
    subspace_equal,
    subspace_witness,
)

S0, S1, S2, S3 = PAULI


def rand_mat(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def rand_antilinear(rng, n, sign=1):
    q, _ = np.linalg.qr(rand_mat(rng, n))
    if sign == 1:
        return AntilinearOperator(q @ q.T)
    jn = np.block([[np.zeros((n // 2, n // 2)), np.eye(n // 2)],
                   [-np.eye(n // 2), np.zeros((n // 2, n // 2))]]).astype(complex)
    return AntilinearOperator(q @ jn @ q.T)


def test_adjoint_examples():
    assert np.allclose(adjoint(S0), S0)
    assert np.allclose(adjoint(S2), S2)  # Pauli matrices are Hermitian
    m = np.array([[0, 1], [0, 0]], dtype=complex)
    assert np.allclose(adjoint(m), np.array([[0, 0], [1, 0]]))


def test_circ_plain_conjugation_is_transpose():
    j = AntilinearOperator(np.eye(2))
    rng = np.random.default_rng(0)
    x = rand_mat(rng, 2)
    assert opnorm(circ(j, x) - x.T) < 1e-12
    assert opnorm(circ(j, S2) + S2) < 1e-12  # sigma2^T = -sigma2


def test_circ_antimultiplicative_random():
    rng = np.random.default_rng(1)
    j = AntilinearOperator(np.eye(3))
    x, y = rand_mat(rng, 3), rand_mat(rng, 3)
    assert opnorm(circ(j, x @ y) - circ(j, y) @ circ(j, x)) < 1e-12


@pytest.mark.parametrize("sign", [1, -1])
def test_circ_involutive_up_to_sign(sign):
    rng = np.random.default_rng(2)
    for _ in range(20):
        j = rand_antilinear(rng, 4, sign)
        assert opnorm(j.squared() - sign * np.eye(4)) < 1e-10
        x = rand_mat(rng, 4)
        back = adjoint(circ(j, adjoint(circ(j, x))))
        assert opnorm(back - x) < 1e-10


def test_circ_dimension_mismatch():
    j = AntilinearOperator(np.eye(2))
    with pytest.raises(ValueError):
        circ(j, np.eye(3))


def test_span_examples():
    assert span([S0, 2 * S0]).dim == 1
    assert span(list(PAULI)).dim == 4
    assert span([S1, S2, S1 @ S2]).dim == 3  # s1 s2 = i s3 is independent


def test_span_discards_dependent_vectors():
    s = span([S1, S2, S1 + S2, 1e-14 * S3])
    assert s.dim == 2


def test_span_empty_input():
    z = span([], ambient_dim=3)
    assert z.dim == 0 and z.ambient_dim == 3
    assert z.residual(np.eye(3)) > 1.0  # nothing is contained in it but 0
    with pytest.raises(ValueError):
        span([])  # ambient dimension unknown


def test_subspace_equal_examples():
    s = span([S1, S2])
    t = span([(S1 + S2) / np.sqrt(2), (S1 - S2) / np.sqrt(2)])
    assert subspace_equal(s, t)
    assert not subspace_equal(span([S1]), span([S2]))


def test_random_matrices_span_everything():
    rng = np.random.default_rng(3)
    mats = [rand_mat(rng, 2) for _ in range(50)]
    assert subspace_equal(span(mats), span(list(PAULI)))


def test_span_idempotent_and_equivalence():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(2, 4))
        mats = [rand_mat(rng, n) for _ in range(int(rng.integers(1, 5)))]
        s = span(mats)
        again = span(list(s.basis_matrices()))
        assert subspace_equal(s, again)  # idempotent + reflexive
    # symmetry / transitivity on rotated bases
    s = span([S1, S3])
    t = span([(S1 + S3), (S1 - S3)])
    u = span([S3, S1])
    assert subspace_equal(s, t) and subspace_equal(t, u) and subspace_equal(s, u)


def test_subspace_witness_direction():
    big = span([S1, S2])
    small = span([S1])
    w = subspace_witness(big, small)
    assert w is not None
    mat, res = w
    assert res > 0.9
    assert small.residual(mat) > 0.9


def _row_projector(rows):
    return rows.conj().T @ rows  # orthogonal projector onto the span of orthonormal rows


def test_orthonormalize_rows_matches_svd():
    rng = np.random.default_rng(5)
    # 12 rows of rank 5 in C^9, plus a zero row
    vecs = (rng.standard_normal((12, 5)) + 1j * rng.standard_normal((12, 5))) @ (
        rng.standard_normal((5, 9)) + 1j * rng.standard_normal((5, 9))
    )
    vecs[7] = 0
    _, sv, vh = np.linalg.svd(vecs)
    rank = int(np.sum(sv > 1e-9 * sv[0]))
    out = _kernels.orthonormalize_rows(vecs, 1e-9)
    assert out.shape == (rank, 9) and rank == 5
    assert np.allclose(out @ out.conj().T, np.eye(rank), atol=1e-12)
    assert np.allclose(_row_projector(out), _row_projector(vh[:rank]), atol=1e-10)
    # relative to orthonormal rows: the output is orthogonal to them and
    # together they span span(vecs) + span(against)
    against = np.linalg.qr(rng.standard_normal((9, 2)) + 1j * rng.standard_normal((9, 2)))[0].T
    rel = _kernels.orthonormalize_rows(vecs, 1e-9, against=against)
    assert rel.shape == (5, 9)
    assert np.allclose(rel @ against.conj().T, 0, atol=1e-12)
    both = np.vstack([vecs, against])
    _, sv, vh = np.linalg.svd(both)
    rank = int(np.sum(sv > 1e-9 * sv[0]))
    assert rank == 7
    assert np.allclose(_row_projector(np.vstack([against, rel])), _row_projector(vh[:rank]), atol=1e-10)


def _row_by_row(vecs, tol, against=None):
    """The row-by-row two-pass Gram-Schmidt the panel kernel replaced: each
    row is projected off ``against`` and the accepted rows with two GEMVs
    each, twice."""
    vecs = np.ascontiguousarray(vecs, dtype=np.complex128)
    m, d = vecs.shape
    if against is None or against.shape[0] == 0:
        against = np.zeros((0, d), dtype=np.complex128)
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


def _complex_rows(rng, m, d):
    return rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))


def _assert_panel_kernel_matches_row_by_row(vecs, tol, against=None):
    new = _kernels.orthonormalize_rows(vecs, tol, against=against)
    old = _row_by_row(vecs, tol, against=against)
    assert new.shape == old.shape  # the same rows accepted ...
    np.testing.assert_allclose(new, old, rtol=0, atol=1e-10)  # ... as the same residuals
    return new


_P = _kernels._PANEL_ROWS
_PANEL_SIZES = [0, 1, _P - 1, _P, _P + 1, 3 * _P + 5]


@pytest.mark.parametrize("with_against", [False, True])
@pytest.mark.parametrize("m", _PANEL_SIZES)
def test_panel_kernel_matches_row_by_row(m, with_against):
    rng = np.random.default_rng(1000 + m)
    d = 80  # 3P + 5 rows overflow C^80, so later panels drop whole rows
    against = None
    if with_against:
        against = np.linalg.qr(_complex_rows(rng, d, 7))[0].T
    vecs = _complex_rows(rng, m, d)
    if m > 4:
        # rank-deficient rows: an exact duplicate, a zero row, a combination
        # of rows of the same and of an earlier panel, a row of span(against)
        vecs[m // 2] = vecs[1]
        vecs[m - 1] = 0
        vecs[m - 2] = 2 * vecs[0] - 1j * vecs[m - 4]
        if against is not None:
            vecs[m - 3] = (1 + 1j) * against[2] - against[5]
    out = _assert_panel_kernel_matches_row_by_row(vecs, 1e-9, against)
    prior = np.zeros((0, d)) if against is None else against
    assert out.shape == (np.linalg.matrix_rank(np.vstack([prior, vecs])) - len(prior), d)
    np.testing.assert_allclose(out @ out.conj().T, np.eye(out.shape[0]), atol=1e-12)
    if against is not None:
        np.testing.assert_allclose(out @ against.conj().T, 0, atol=1e-12)


@pytest.mark.parametrize("with_against", [False, True])
def test_panel_kernel_keeps_rank_decisions_at_the_tolerance(with_against):
    # every third row lies at 0.1 tol or 10 tol from the span of the rows
    # before it (and of ``against``); the first are dropped, the second kept
    rng = np.random.default_rng(7)
    tol, d, m = 1e-5, 120, 3 * _P + 5
    frame = np.linalg.qr(_complex_rows(rng, d, d).T)[0].T  # orthonormal rows
    against = frame[:5] if with_against else None
    vecs = np.empty((m, d), dtype=complex)
    fresh = iter(frame[5:])
    near, far = 0, 0
    for r in range(m):
        if r % 3 != 2:
            vecs[r] = next(fresh)
            continue
        # in the span of rows r // 2 and r - 1 (and of ``against``)
        base = vecs[r // 2] - 1j * vecs[r - 1] + (frame[0] if with_against else 0)
        off = frame[-1 - r // 3]  # orthogonal to every row and to ``against``
        near_row = r % 2 == 0
        near, far = near + near_row, far + (not near_row)
        vecs[r] = base + (0.1 if near_row else 10.0) * tol * off
    out = _assert_panel_kernel_matches_row_by_row(vecs, tol, against)
    assert out.shape[0] == m - near and far > 0 and near > 0


def test_panel_kernel_takes_non_contiguous_input():
    rng = np.random.default_rng(3)
    big = _complex_rows(rng, 2 * (_P + 3), 3 * 40)
    vecs = big[::2, ::3]  # P + 3 strided rows in C^40
    assert not vecs.flags.c_contiguous
    against = np.asfortranarray(np.linalg.qr(_complex_rows(rng, 40, 4))[0].T)
    _assert_panel_kernel_matches_row_by_row(vecs, 1e-9, against)
    _assert_panel_kernel_matches_row_by_row(np.asfortranarray(vecs.real), 1e-9)
    empty = np.zeros((0, 40), dtype=complex)
    _assert_panel_kernel_matches_row_by_row(vecs, 1e-9, empty)


def test_antilinear_operator_requires_unitary_kernel():
    with pytest.raises(ValueError):
        AntilinearOperator(np.diag([1.0, 2.0]).astype(complex))
