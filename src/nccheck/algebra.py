"""Generated *-algebras and commutants inside a matrix algebra."""

from __future__ import annotations

import numpy as np

from ._kernels import orthonormalize_rows, residual_norms
from .numlin import (
    DEFAULT_TOL,
    MatrixSubspace,
    as_matrix,
    circ,
    span,
)

# Above this ambient matrix-space dimension (n^2), materializing commutant
# bases via a dense eigensolve is avoided; callers should use
# commutant_dimension + containment checks instead.
_DENSE_COMMUTANT_LIMIT = 2100


class OperatorAlgebra:
    """A *-closed (optionally unital) subalgebra given by an orthonormal basis
    and a stack of generators with a *-closed span (by default the basis)."""

    def __init__(self, subspace, unital, generators=None):
        self.subspace = subspace
        self.unital = bool(unital)
        self.generators = subspace.basis_matrices() if generators is None else generators

    @property
    def ambient_dim(self):
        return self.subspace.ambient_dim

    @property
    def dim(self):
        return self.subspace.dim

    def basis_matrices(self):
        return self.subspace.basis_matrices()


# Entries of one block of pairwise products (8 MiB of complex128) in block
# coordinates.  In a spinning round the block, a GEMM result and the residual
# filter's two temporaries are alive together, so four blocks set the peak
# memory of a large closure; each GEMM still has hundreds of rows.
_PRODUCT_BLOCK_ENTRIES = 1 << 19


def block_layout(n, *stacks):
    """Index sets, in order of their smallest index, of the components of the
    graph on 0..n-1 that joins i and j when a matrix of ``stacks`` has an
    exact nonzero (i, j) or (j, i) entry.  Sums, products and adjoints of
    such matrices are zero off these diagonal blocks, exactly (the first step
    of block diagonalisation, Murota-Kanno-Kojima-Kojima, JJIAM 27, 2010)."""
    pattern = np.eye(n, dtype=bool)
    for s in stacks:
        pattern |= (np.asarray(s).reshape(-1, n, n) != 0).any(axis=0)
    pattern |= pattern.T
    label, lower = None, np.arange(n)
    while not np.array_equal(label, lower):  # each index takes its neighbours' least label
        label, lower = lower, np.where(pattern, lower, n).min(axis=1)
    return [np.flatnonzero(label == r) for r in sorted(set(label.tolist()))]


def pairwise_products(left, right, sizes):
    """Flattened products left[a] @ right[b], in row order a * len(right) + b.

    A row holds a block-diagonal matrix as its diagonal blocks of the given
    sizes, each flattened row-major, one after the other; a dense n x n
    matrix is one block of size n.  Yields blocks of consecutive rows a; each
    takes one GEMM per diagonal block, of the stacked rows of ``left[a0:a1]``
    against the side-by-side ``right``.
    """
    k, width = right.shape
    ends = np.cumsum([s * s for s in sizes])
    sides = [right[:, e - s * s : e].reshape(k, s, s).transpose(1, 0, 2).reshape(s, k * s)
             for s, e in zip(sizes, ends)]  # [j, (b, l)]
    chunk = max(1, _PRODUCT_BLOCK_ENTRIES // (k * width))
    for start in range(0, left.shape[0], chunk):
        rows = left[start : start + chunk]
        c = rows.shape[0]
        block = np.empty((c, k, width), dtype=complex)
        for s, e, side in zip(sizes, ends, sides):
            # written through a view, so the GEMM result is the only temporary
            block[:, :, e - s * s : e].reshape(c, k, s, s)[...] = (
                (rows[:, e - s * s : e].reshape(c * s, s) @ side).reshape(c, s, k, s).transpose(0, 2, 1, 3)
            )
        yield block.reshape(c * k, width)


def spin(space, mult, tol):
    """Close the subspace ``space`` under left multiplication by ``mult``.

    Spinning, the MeatAxe step (R. A. Parker, 1984): each round multiplies
    only the rows added by the round before (at first all of ``space``) on
    the left by ``mult`` and orthonormalises the products with a residual
    > tol against the span into the rows of the next round.  It runs on the
    coordinates inside the ``block_layout`` of ``space`` and ``mult``, which
    hold every product, and scatters the basis to n x n matrices at the end;
    the dropped coordinates are exact zeros, so no norm changes.
    """
    n = space.ambient_dim
    blocks = block_layout(n, space.vecs, mult)
    vecs, gens = space.vecs, mult.reshape(len(mult), n * n)
    if len(blocks) > 1:  # one block is the dense loop, with no copy
        coords = np.concatenate([(b[:, None] * n + b).ravel() for b in blocks])
        vecs, gens = vecs[:, coords], gens[:, coords]
    frontier = vecs
    while frontier.shape[0] and gens.shape[0] and vecs.shape[0] < vecs.shape[1]:
        products = pairwise_products(gens, frontier, [len(b) for b in blocks])
        new = [p[residual_norms(p, vecs) > tol] for p in products]
        frontier = orthonormalize_rows(np.vstack(new), tol, against=vecs)
        del new  # free the candidate rows before the grown basis is allocated
        vecs = np.vstack([vecs, frontier])
    if len(blocks) > 1:
        dense = np.zeros((vecs.shape[0], n * n), dtype=complex)
        dense[:, coords] = vecs
        vecs = dense
    return MatrixSubspace(n, vecs)


def generate_star_algebra(generators, unital=True, tol=DEFAULT_TOL):
    """Smallest *-closed (unital) subalgebra containing the generators.

    It is the span of the words s_1 ... s_k in S = generators and adjoints
    (and 1 when unital), *-closed as (s_1 ... s_k)^* = s_k^* ... s_1^*.
    Every word is s_1 times a shorter one, so span(S, 1) spun under an
    orthonormal basis ``mult`` of span(S) is closed after at most
    dim(result) * dim span(S) tested products.  ``mult`` is kept as generators.
    """
    gens = [as_matrix(g) for g in generators]
    if not gens:
        raise ValueError("empty generator list: ambient dimension unknown")
    n = gens[0].shape[0]
    adjs = [g.conj().T for g in gens]
    mult = span(gens + adjs, tol).basis_matrices()
    ones = [np.eye(n, dtype=complex)] if unital else []
    space = span(gens + ones + adjs, tol)
    if space.dim == 0:
        raise ValueError("span collapsed to zero: tolerance too large for the inputs")
    return OperatorAlgebra(spin(space, mult, tol), unital, mult)


def _basis_stack(b):
    if isinstance(b, OperatorAlgebra):
        return b.basis_matrices()
    if isinstance(b, MatrixSubspace):
        return b.basis_matrices()
    return np.stack([as_matrix(m) for m in b])


def _generator_stack(b):
    return b.generators if isinstance(b, OperatorAlgebra) else _basis_stack(b)


def _null_rows(gram, tol):
    """Orthonormal rows spanning the null space of a Hermitian PSD Gram: its
    eigenvectors with eigenvalue <= tol * max(1, lambda_max)."""
    evals, evecs = np.linalg.eigh(gram)
    lam_max = float(evals[-1]) if evals.size else 0.0
    return np.ascontiguousarray(evecs[:, evals <= tol * max(1.0, lam_max)].T)


def commutant_constraint_gram(generators):
    """Hermitian PSD Gram matrix A = sum_g M_g^* M_g of the commutation map.

    M_g vec(X) = vec(Xg - gX) in row-major flattening, i.e.
    M_g = I (x) g^T - g (x) I, so
    A = I (x) sum conj(g) g^T + sum g^* g (x) I - T - T^*, T = sum g (x) conj(g).
    T comes from one GEMM over the generator stack, permuted once; both sums
    are partial traces of that GEMM, and the two Kronecker terms are added in
    place on block-diagonal index views, so A is the only n^2 x n^2 array
    besides T.
    """
    g = np.asarray(generators, dtype=complex)
    k, n, _ = g.shape
    flat = g.reshape(k, n * n)
    m = (flat.T @ flat.conj()).reshape(n, n, n, n)  # m[i,j,k,l] = sum g_ij conj(g_kl)
    s1 = np.trace(m, axis1=1, axis2=3).T  # sum conj(g) g^T
    s2 = np.trace(m, axis1=0, axis2=2).T  # sum g^* g
    a = m.transpose(0, 2, 1, 3).reshape(n * n, n * n)  # T[(i,k),(j,l)] = m[i,j,k,l]
    del m
    a += a.conj().T
    np.negative(a, out=a)
    blocks = a.reshape(n, n, n, n)
    idx = np.arange(n)
    blocks[idx, :, idx, :] += s1  # I (x) s1
    blocks[:, idx, :, idx] += s2  # s2 (x) I
    return a


def commutant(b, tol=DEFAULT_TOL):
    """Commutant {X : [X, g] = 0 for all basis g} as a unital algebra.

    Computed as the joint null space of the maps X -> Xg - gX via the
    eigendecomposition of the assembled constraint Gram matrix; eigenvalues
    <= tol * max(1, lambda_max) count as null.
    """
    basis = _basis_stack(b)
    n = basis.shape[1]
    if n * n > _DENSE_COMMUTANT_LIMIT:
        raise ValueError(
            f"dense commutant basis on ambient dim {n} is too large; "
            "use commutant_dimension / containment checks"
        )
    if basis.shape[0] == 0:
        vecs = np.eye(n * n, dtype=complex)
        return OperatorAlgebra(MatrixSubspace(n, vecs), True)
    vecs = _null_rows(commutant_constraint_gram(basis), tol)  # flattened commutant matrices
    return OperatorAlgebra(MatrixSubspace(n, vecs), True)


_SEPARATION_DRAWS = 4  # random central elements commutant_dimension tries
_SEPARATION_SEED = 7  # seed of those draws


def commutant_dimension(b, tol=DEFAULT_TOL):
    """dim of the commutant of a *-closed unital algebra, without a basis.

    Uses the finite-dimensional structure theory: decompose H under the
    algebra's center into isotypic blocks (d_i, m_i); the commutant has
    dimension sum m_i^2.  The center is the null space of the k x k Gram
    sum_g <[c_i, g], [c_j, g]> over the basis c_i and the generators g (a
    *-closed generating span): one stack of k n x n commutators per g.
    """
    if isinstance(b, OperatorAlgebra) and not b.unital:
        raise ValueError("commutant_dimension expects a unital *-algebra")
    basis = _basis_stack(b)
    k, n, _ = basis.shape
    if k == 0:
        raise ValueError("commutant_dimension of the zero algebra")
    flat = basis.reshape(k, n * n)
    gram = np.zeros((k, k), dtype=complex)
    for g in _generator_stack(b):
        comm = (basis @ g - g @ basis).reshape(k, n * n)
        if residual_norms(comm, flat).max() > tol * 100:
            raise ValueError("input is not product-closed; cannot use structure theory")
        gram += comm.conj() @ comm.T
    center_coeff = _null_rows(gram, tol)
    c = center_coeff.shape[0]
    # generic Hermitian central element separates the isotypic blocks: it is
    # a distinct scalar on each one, so its eigenspaces are the blocks; a draw
    # can miss (probability zero, but not under rounding), so it is redrawn
    rng = np.random.default_rng(_SEPARATION_SEED)
    for _ in range(_SEPARATION_DRAWS):
        w = rng.standard_normal(c) + 1j * rng.standard_normal(c)
        z = ((w @ center_coeff) @ flat).reshape(n, n)
        z = z + z.conj().T
        zvals, zvecs = np.linalg.eigh(z)
        gap = 1e-6 * max(1.0, float(zvals[-1] - zvals[0]))
        cuts = [0, *(i for i in range(1, n) if zvals[i] - zvals[i - 1] > gap), n]
        if len(cuts) - 1 == c:
            break
    else:
        raise ValueError(f"no central element in {_SEPARATION_DRAWS} draws separated the blocks")
    total = 0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        v = zvecs[:, lo:hi]
        # the compressed algebra p C p, p = v v^*, is a full matrix algebra
        # M_d; v^* C v is isometric to it
        block = (v.conj().T @ basis @ v).reshape(k, -1)
        d2 = orthonormalize_rows(block, 1e-7).shape[0]
        d = int(round(np.sqrt(d2)))
        if d * d != d2:
            raise ValueError(f"block algebra dimension {d2} is not a perfect square")
        m = (hi - lo) / d
        mi = int(round(m))
        if abs(m - mi) > 1e-6:
            raise ValueError(f"non-integral multiplicity {m}")
        total += mi * mi
    return total


def circ_image(j, b, tol=DEFAULT_TOL):
    """Algebra {b° : b in B} = J B^* J^{-1}, spanned basiswise.

    *-closed because B is; unital when B is.  circ is an antiautomorphism
    that commutes with *, so the images of B's generators generate it.
    """
    basis = _basis_stack(b)
    if basis.shape[1] != j.dim:
        raise ValueError("dimension mismatch between J and algebra")
    imgs = [circ(j, m) for m in basis]
    sub = span(imgs, tol)
    unital = b.unital if isinstance(b, OperatorAlgebra) else True
    gens = np.array([circ(j, g) for g in _generator_stack(b)], dtype=complex)
    return OperatorAlgebra(sub, unital, gens.reshape(-1, j.dim, j.dim))


def commutes_with_all(x, b, tol=DEFAULT_TOL):
    """Largest Frobenius commutator norm of x against the basis of b.

    The Frobenius norm bounds the operator norm, so containment verdicts
    are conservative.
    """
    basis = _basis_stack(b)
    comm = x @ basis - basis @ x
    worst = float(np.sqrt((np.abs(comm) ** 2).reshape(len(basis), -1).sum(axis=1).max()))
    return worst <= tol, worst
