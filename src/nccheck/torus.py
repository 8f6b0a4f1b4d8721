"""Band-limited model of the flat-torus Hodge triple.

Vectors live in H_N: matrix-valued trigonometric polynomials with modes
|m|, |n| <= N, stored as coefficient arrays of shape (2N+1, 2N+1, 2, 2) with
inner product <a, b> = (1/2) sum Tr(a_k^* b_k).  Operators carry a degree d
(their maximum mode shift) and map H_N into H_{N+d} exactly, so every
polynomial operator identity can be tested with no truncation error: the
verdicts are independent of N above the minimal band.

Every operator is a ``BandOp``: a callback on batched coefficient arrays,
built from a few primitives (multiplications, D, gamma, the reality
operators) by composition and sums.  A primitive shifts modes and acts on
each 2x2 fibre c by a map c -> A c B, which on the row-major (..., 4) view
of the coefficients is one GEMM with the 4x4 matrix kron(A, B^T).  An
operator of degree d and mode orientation s (-1 if it is antilinear, since
complex conjugation sends mode k to -k, else +1) maps the basis vector
e_{k,f} into the modes s*k + [-d, d]^2.  Operators are therefore evaluated on
colour-class probes, one per (k mod (2d+1), f), and each basis column is read
from its own window of a probe's image (column colouring, Curtis-Powell-Reid
1974).  Every verdict is decided on the windows, by the largest column norm
of a difference against the tolerance; a difference is scattered into its
dense matrix on the basis of H_N only for a number that a report prints.
"""

from __future__ import annotations

import numpy as np

from .numlin import DEFAULT_TOL, PAULI
from .triple import ConditionReport, Witness, ko_dimensions

S0, S1, S2, S3 = PAULI

MIN_BAND = 3
# the suite's verdicts do not depend on the band, while the probe images of
# its high-degree commutators (degree 6 in prop12_offband_order_two, which
# holds the peak) grow with it: band 8 takes 18 s and 290 MB peak RSS on a
# 2-core machine with one BLAS thread (38 s and 288 MB when the signs and
# adjoints were decided on dense matrices)
MAX_BAND = 8

# fibre maps c -> A c B as 4x4 matrices kron(A, B^T) on row-major fibres
_SIGMA1_CONJ = np.kron(S1, S1.T)  # c -> sigma1 c sigma1
_SIGMA3_CONJ = np.kron(S3, S3.T)  # c -> sigma3 c sigma3
_NEG_S1_LEFT = np.kron(-S1, S0)  # c -> -sigma1 c
_NEG_S2_LEFT = np.kron(-S2, S0)  # c -> -sigma2 c


def _width(band):
    return 2 * band + 1


def zero_coeffs(band, batch=()):
    return np.zeros((*batch, _width(band), _width(band), 2, 2), dtype=complex)


class TorusVector:
    """Element of H_N: coefficients c[m+N, n+N] for the mode e^{i(mx+ny)}."""

    def __init__(self, band, coeffs=None):
        self.band = int(band)
        w = _width(self.band)
        if coeffs is None:
            coeffs = np.zeros((w, w, 2, 2), dtype=complex)
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (w, w, 2, 2):
            raise ValueError(f"coefficients have shape {coeffs.shape}, expected {(w, w, 2, 2)}")
        self.coeffs = coeffs

    def pad(self, band):
        if band < self.band:
            raise ValueError("cannot shrink the band")
        return TorusVector(band, _pad_batch(self.coeffs, self.band, band))

    def inner(self, other):
        band = max(self.band, other.band)
        a = self.pad(band).coeffs
        b = other.pad(band).coeffs
        return 0.5 * complex(np.vdot(a, b))

    def norm(self):
        return float(np.sqrt(self.inner(self).real))

    def __add__(self, other):
        band = max(self.band, other.band)
        return TorusVector(band, self.pad(band).coeffs + other.pad(band).coeffs)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, z):
        return TorusVector(self.band, z * self.coeffs)


def trig_monomial(mode, matrix, band=None):
    """The matrix-valued monomial ``matrix * e^{i(mx+ny)}``."""
    m, n = mode
    band = max(abs(m), abs(n)) if band is None else band
    out = zero_coeffs(band)
    out[m + band, n + band] = np.asarray(matrix, dtype=complex)
    return TorusVector(band, out)


def trig_adjoint(f):
    """Pointwise adjoint f*(x,y): coefficient at k is f_{-k}^*."""
    c = np.conj(np.transpose(f.coeffs[::-1, ::-1], (0, 1, 3, 2)))
    return TorusVector(f.band, c)


def trig_mult(f, g):
    """Pointwise product of matrix trig polynomials (mode convolution)."""
    band = f.band + g.band
    out = zero_coeffs(band)
    wf = _width(f.band)
    wg = _width(g.band)
    for a in range(wf):
        for b in range(wf):
            fc = f.coeffs[a, b]
            if not fc.any():
                continue
            out[a : a + wg, b : b + wg] += fc @ g.coeffs
    return TorusVector(band, out)


class BandOp:
    """Linear or antilinear operator with a declared band degree.

    ``fn(arr, band)`` acts on batched coefficient arrays of shape
    (..., 2*band+1, 2*band+1, 2, 2) and returns the array at band + degree.
    The image of mode k lies in the modes flip*k + [-degree, degree]^2.
    Composition degrees add; sums take the max degree.
    """

    def __init__(self, degree, fn, antilinear=False, label=""):
        self.degree = int(degree)
        self.fn = fn
        self.antilinear = bool(antilinear)
        self.label = label

    @property
    def flip(self):
        """Mode orientation: -1 for an antilinear operator, whose complex
        conjugation sends mode k to -k, else +1."""
        return -1 if self.antilinear else 1

    def apply(self, arr, band):
        return self.fn(arr, band), band + self.degree

    def __call__(self, v):
        out, band = self.apply(v.coeffs, v.band)
        return TorusVector(band, out)

    def __matmul__(self, other):
        def fn(arr, band):
            mid, b2 = other.apply(arr, band)
            out, _ = self.apply(mid, b2)
            return out

        anti = self.antilinear != other.antilinear
        return BandOp(self.degree + other.degree, fn,
                      anti, f"({self.label} . {other.label})")

    def __add__(self, other):
        if self.antilinear != other.antilinear:
            raise ValueError("cannot add linear and antilinear operators")
        deg = max(self.degree, other.degree)

        def fn(arr, band):
            a, _ = self.apply(arr, band)
            b, _ = other.apply(arr, band)
            return _pad_batch(a, band + self.degree, band + deg) + _pad_batch(
                b, band + other.degree, band + deg
            )

        return BandOp(deg, fn, self.antilinear, f"({self.label} + {other.label})")

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, z):
        return BandOp(
            self.degree,
            lambda arr, band: z * self.apply(arr, band)[0],
            self.antilinear,
            f"({z} * {self.label})",
        )


def _pad_batch(arr, band, target):
    if target == band:
        return arr
    d = target - band
    w = _width(band)
    out = zero_coeffs(target, batch=arr.shape[:-4])
    out[..., d : d + w, d : d + w, :, :] = arr
    return out


def commutator_op(a, b):
    return a @ b - b @ a


def identity_op():
    return BandOp(0, lambda arr, band: arr.copy(), label="1")


def _fibre(arr, kernel):
    """Apply the 4x4 fibre map ``kernel`` to every 2x2 fibre: one GEMM."""
    return (arr.reshape(-1, 4) @ kernel.T).reshape(arr.shape)


def dirac_op():
    """D = i L_{sigma1} d/dx + i L_{sigma2} d/dy: mode (m,n) maps by
    -(m sigma1 + n sigma2); band preserving."""

    def fn(arr, band):
        modes = np.arange(-band, band + 1)
        return (modes[:, None, None, None] * _fibre(arr, _NEG_S1_LEFT)
                + modes[None, :, None, None] * _fibre(arr, _NEG_S2_LEFT))

    return BandOp(0, fn, label="D")


def _mult_op(f, fibre_map, label):
    """Multiplication by f: each nonzero mode block fc of f shifts the input
    by its mode and maps every fibre by the 4x4 matrix ``fibre_map(fc)``."""
    d = f.band
    wf = _width(d)
    blocks = [(a, b, fibre_map(f.coeffs[a, b]))
              for a in range(wf) for b in range(wf) if f.coeffs[a, b].any()]

    def fn(arr, band):
        w = _width(band)
        out = zero_coeffs(band + d, batch=arr.shape[:-4])
        for a, b, kernel in blocks:
            out[..., a : a + w, b : b + w, :, :] += _fibre(arr, kernel)
        return out

    return BandOp(d, fn, label=f"{label}[{d}]")


def left_mult(f):
    """L_f: pointwise left multiplication by a matrix trig polynomial."""
    return _mult_op(f, lambda fc: np.kron(fc, S0), "L")


def right_mult(f):
    """R_f: pointwise right multiplication."""
    return _mult_op(f, lambda fc: np.kron(S0, fc.T), "R")


def grading_op():
    """gamma a = sigma3 a sigma3, pointwise."""
    return BandOp(0, lambda arr, band: _fibre(arr, _SIGMA3_CONJ), label="gamma")


def j0_op():
    """Entrywise pointwise complex conjugation: flips modes, conjugates."""

    def fn(arr, band):
        return np.conj(arr[..., ::-1, ::-1, :, :])

    return BandOp(0, fn, antilinear=True, label="J0")


def j1_op():
    """J1 = L_{sigma1} R_{sigma1} J0."""

    def fn(arr, band):
        return _fibre(np.conj(arr[..., ::-1, ::-1, :, :]), _SIGMA1_CONJ)

    return BandOp(0, fn, antilinear=True, label="J1")


def j2_op():
    """Pointwise matrix Hermitian conjugation a -> a^*."""

    def fn(arr, band):
        return np.conj(np.swapaxes(arr[..., ::-1, ::-1, :, :], -1, -2))

    return BandOp(0, fn, antilinear=True, label="J2")


def twist_op():
    """tau = J1 J2: pointwise a -> sigma1 a^t sigma1 (linear)."""

    def fn(arr, band):
        return _fibre(np.swapaxes(arr, -1, -2), _SIGMA1_CONJ)

    return BandOp(0, fn, label="tau")


def tau_of_poly(f):
    """tau applied to a multiplier: sigma1 f^t sigma1 pointwise (no mode flip)."""
    return TorusVector(f.band, S1 @ np.swapaxes(f.coeffs, -1, -2) @ S1)


def unitarity_defect(u):
    """Max coefficient norm of u^* u - 1 as a trig polynomial."""
    prod = trig_mult(trig_adjoint(u), u)
    ref = trig_monomial((0, 0), S0, band=prod.band)
    return float(np.abs(prod.coeffs - ref.coeffs).max())


def ju_op(u, tol=DEFAULT_TOL):
    """J_U = L_U R_U J2 for a unitary matrix trig polynomial U."""
    if unitarity_defect(u) > tol:
        raise ValueError("U is not unitary as a trig polynomial")
    return left_mult(u) @ right_mult(u) @ j2_op()


def tau_u_op(u, tol=DEFAULT_TOL):
    """tau_U = L_U R_U tau; requires tau(U) = U^*."""
    defect = tau_of_poly(u) - trig_adjoint(u)
    if float(np.abs(defect.coeffs).max()) > tol:
        raise ValueError("tau(U) != U^*: incompatible twist unitary")
    return left_mult(u) @ right_mult(u) @ twist_op()


# -- exact identity testing ------------------------------------------------
#
# Basis vectors whose modes agree mod c = 2d+1 have disjoint images under an
# operator of degree d, so one probe per colour class (k mod c, f) carries all
# their columns.  Each window entry has one nonzero contribution, from the
# same arithmetic as on e_{k,f} alone: the columns are bitwise those of the
# identity stack.

_PROBE_CACHE = {}


def _probes(band, colours):
    """Probe stack (colours^2 * 4, w, w, 2, 2): probe (p, q, f) is the sum of
    the basis vectors at coefficient index (a, b) = (p, q) mod colours and
    fibre f."""
    key = (band, colours)
    if key not in _PROBE_CACHE:
        w = _width(band)
        a, b, f = np.arange(w)[:, None, None], np.arange(w)[:, None], np.arange(4)
        probes = np.zeros((colours, colours, 4, w, w, 4), dtype=complex)
        probes[a % colours, b % colours, f, a, b, f] = 1.0
        _PROBE_CACHE[key] = probes.reshape(colours * colours * 4, w, w, 2, 2)
    return _PROBE_CACHE[key]


def _window_index(cols, band, degree, flip, offset=0):
    """Fancy index (w, w, 4, 2d+1, 2d+1) of the windows: entry [a, b, f, i, j]
    addresses column (cols[a], cols[b], f) at the coefficient rows
    (rows[a, i], rows[b, j]) of band + degree + offset, where the image of
    index a starts at flip * (a - band) + band + offset."""
    a = np.arange(_width(band))
    start = (a if flip != -1 else a[::-1]) + offset
    rows = start[:, None] + np.arange(2 * degree + 1)
    return (cols[:, None, None, None, None], cols[None, :, None, None, None],
            np.arange(4)[:, None, None], rows[:, None, None, :, None], rows[None, :, None, None, :])


def _probe_windows(ops, band):
    """Windows (w, w, 4, 2d+1, 2d+1, 4) of the matrices of operators of one
    linearity type at d = their largest degree: entry [a, b, f, i, j, g] is
    the coefficient (i, j, g) of the window of column (a, b, f)."""
    flip = ops[0].flip
    if any(op.flip != flip for op in ops):
        raise ValueError("cannot compare operators of different linearity type")
    degree = max(op.degree for op in ops)
    w = _width(band)
    colours = min(w, 2 * degree + 1)
    probes = _probes(band, colours)
    index = _window_index(np.arange(w) % colours, band, degree, flip)
    wo = _width(band + degree)
    out = []
    for op in ops:
        img, lb = op.apply(probes, band)
        img = _pad_batch(img, lb, band + degree).reshape(colours, colours, 4, wo, wo, 4)
        out.append(img[index])
    return out


def _scatter(windows, band, flip, out_band=None):
    """The dense matrix whose columns hold ``windows`` (from ``_probe_windows``),
    laid out at ``out_band`` (default: band + their degree), zeros elsewhere."""
    degree = windows.shape[3] // 2
    out_band = band + degree if out_band is None else out_band
    w, wo = _width(band), _width(out_band)
    dense = np.zeros((w, w, 4, wo, wo, 4), dtype=complex)
    dense[_window_index(np.arange(w), band, degree, flip, out_band - band - degree)] = windows
    return dense.reshape(w * w * 4, -1).T


def op_matrix(op, band, out_band=None):
    """Matrix of a band operator on H_band: column k is the image of the k-th
    basis vector, laid out at ``out_band`` (default: band + degree).  It is
    read off the operator's images of the colour-class probes, not of every
    basis vector, and equals the identity-stack evaluation bitwise.

    For an antilinear operator the returned matrix M represents
    v -> M conj(v); compose such matrices only with linear ones in mind.
    """
    (windows,) = _probe_windows([op], band)
    return _scatter(windows, band, op.flip, out_band)


def _largest_column(windows):
    """Largest column norm of the matrix whose columns hold ``windows``."""
    w = windows.shape[0]
    return float(np.linalg.norm(windows.reshape(w * w * 4, -1), axis=1).max())


def _operator_norm(dense):
    """Operator 2-norm from the largest eigenvalue of dense^H dense: unlike the
    SVD, it gave the same bits with 1 and 2 OpenBLAS threads for the witnesses
    at bands 3 and 4 (2-core machine; other thread counts not checked)."""
    return float(np.sqrt(np.linalg.eigvalsh(dense.conj().T @ dense)[-1]))


def _difference_report(name, diff, band, tol):
    """Verdict on diff = 0 for the matrix of a difference of two operators.

    The witness carries the worst basis mode and the operator 2-norm of the
    difference (exact: uniform mode weights make the coefficient matrix the
    operator matrix in an orthonormal basis).
    """
    worst = np.linalg.norm(diff, axis=0)
    idx = int(np.argmax(worst))
    if worst[idx] <= tol:
        return ConditionReport(name, True, None, {"band": band, "max_basis_residual": float(worst[idx])})
    opn = _operator_norm(diff)
    w = _width(band)
    mode_flat = idx // 4
    mode = (mode_flat // w - band, mode_flat % w - band)
    return ConditionReport(
        name,
        False,
        Witness((mode, idx % 4), None, opn),
        {"band": band, "max_basis_residual": float(worst[idx]), "operator_norm": opn},
    )


def operator_identity(lhs, rhs, band, tol=DEFAULT_TOL, name="identity"):
    """Compare two band operators on the full basis of H_band, with outputs
    in the common grown band, for a report that prints its residual.

    Both sides act on the probes of their common degree.  A difference that
    vanishes on every window holds with residual 0; any other is scattered
    into its dense matrix, so its report is exactly the dense route's.
    """
    la, ra = _probe_windows([lhs, rhs], band)
    diff = la - ra
    if not diff.any():
        return ConditionReport(name, True, None, {"band": band, "max_basis_residual": 0.0})
    return _difference_report(name, _scatter(diff, band, lhs.flip), band, tol)


def _vanishes(op, band, tol):
    """op = 0 on H_band, decided on its own probe windows (freed on return)."""
    (windows,) = _probe_windows([op], band)
    return _largest_column(windows) <= tol


def _norm(op, band):
    """Operator 2-norm of op on H_band, from its dense matrix: only for a
    number that a report prints."""
    (windows,) = _probe_windows([op], band)
    return _operator_norm(_scatter(windows, band, op.flip))


def operators_equal(lhs, rhs, band, tol=DEFAULT_TOL):
    return operator_identity(lhs, rhs, band, tol).holds


# -- the paper's torus checks ----------------------------------------------


def scalar_family():
    """Generator monomials 1, u, v, u*, v*.

    Ordered so that the first second-order violation found for J1 is the
    generator pair (u, v) with commutator 2i L_{sigma3} of norm 2.  The
    infinite-dimensional algebra is represented by generator-level evidence.
    """
    order = [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)]
    return [(f"u^{a}v^{b}", trig_monomial((a, b), S0)) for a, b in order]


def multiplier_family():
    """Matrix trig polynomials used for the conjugation-table identities."""
    return [
        ("sigma2*u", trig_monomial((1, 0), S2)),
        ("sigma1", trig_monomial((0, 0), S1)),
        ("mix", TorusVector(1, _mix_coeffs())),
    ]


def _mix_coeffs():
    out = zero_coeffs(1)
    out[1 + 0, 1 + 0] = S3 + 0.5 * S0
    out[1 + 1, 1 + 0] = 0.5 * (S1 + 1j * S2)
    out[1 - 1, 1 + 1] = 0.25 * S2
    return out


def _order_commutators(order, dirac, j, family):
    """The commutators of the order-``order`` condition over ``family``, as
    ((i, label_a), (k, label_b), [a, b°]) in scan order.

    order 0: [L_a, (L_b)°] ; order 1: [[D, L_a], (L_b)°] ;
    order 2: [[D, L_a], ([D, L_b])°]  with x° = J x^* J, which is J x^* J^{-1}
    because J^2 = 1 for every J the suite passes here (``j1_involution``,
    ``j2_involution`` and ``prop12_*_ju_squared`` certify it).  The adjoint
    is structural: (L_f)^* = L_{f*} and [D, L_f]^* = -[D, L_{f*}].
    """

    def left(f):
        lf = left_mult(f)
        return lf if order == 0 else commutator_op(dirac, lf)

    def circ(f):
        lf = left_mult(trig_adjoint(f))
        star = lf if order < 2 else (-1.0) * commutator_op(dirac, lf)
        return j @ star @ j

    lefts = [left(fa) for _, fa in family]
    circs = [circ(fb) for _, fb in family]
    for i, (la, _) in enumerate(family):
        for k, (lb, _) in enumerate(family):
            yield (i, la), (k, lb), commutator_op(lefts[i], circs[k])


def _order_condition(name, dirac, j, family, band, tol):
    """Zeroth/first/second order condition over a scalar-monomial family
    (see ``_order_commutators``).  Each commutator is decided on its own probe
    windows; the first violating pair in scan order is the witness, and its
    norm, the operator norm of the commutator, is the one dense evaluation.
    """
    order = 0 if name.endswith("order_zero") else (1 if name.endswith("order_one") else 2)
    first = None
    violations = 0
    for a, b, comm in _order_commutators(order, dirac, j, family):
        if not _vanishes(comm, band, tol):
            violations += 1
            if first is None:
                first = Witness((a, b), None, _norm(comm, band))
    details = {"family_size": len(family)}
    if first is not None:
        details["violations"] = violations
    return ConditionReport(name, first is None, first, details)


def zero_op(degree=0, antilinear=False):
    return BandOp(
        degree,
        lambda arr, band: _pad_batch(np.zeros_like(arr), band, band + degree),
        antilinear,
        label="0",
    )


def _sign_identity(name, lhs, rhs, band, tol):
    """Detect lhs = +- rhs as band operators: (+1, -1 or None, report).

    Both sides are evaluated once; lhs = rhs is decided on the windows la - ra
    and lhs = -rhs on la + ra.  Only when neither holds are both differences
    scattered into dense matrices, for the residual that the report prints.
    """
    la, ra = _probe_windows([lhs, rhs], band)
    plus = _largest_column(la - ra) <= tol
    minus = _largest_column(la + ra) <= tol
    if plus and minus:
        return None, ConditionReport(name, False, None, {"value": None, "degenerate": True})
    if plus or minus:
        v = 1 if plus else -1
        return v, ConditionReport(name, True, None, {"value": v})
    norm = min(_operator_norm(_scatter(diff, band, lhs.flip)) for diff in (la - ra, la + ra))
    return None, ConditionReport(
        name, False, Witness(None, None, norm), {"value": None, "residual": norm}
    )


# -- Hochschild cycle on the torus ----------------------------------------


def torus_hochschild_cycle():
    """c = -(i/2) u*v* (x) (u (x) v - v (x) u), entries as scalar monomials."""
    uval = (1, 0)
    vval = (0, 1)
    uv_star = (-1, -1)
    return [
        (-0.5j, (uv_star, uval, vval)),
        (0.5j, (uv_star, vval, uval)),
    ]


def monomial_chain_boundary(chains):
    """Hochschild boundary for chains of scalar monomials (modes add under
    multiplication); returns the boundary as a dict of mode tuples."""
    out = {}

    def addmode(a, b):
        return (a[0] + b[0], a[1] + b[1])

    for coeff, entries in chains:
        n = len(entries) - 1
        for i in range(n):
            merged = entries[:i] + (addmode(entries[i], entries[i + 1]),) + entries[i + 2 :]
            out[merged] = out.get(merged, 0.0) + coeff * (-1) ** i
        wrap = (addmode(entries[n], entries[0]),) + entries[1:n]
        out[wrap] = out.get(wrap, 0.0) + coeff * (-1) ** n
    return out


def torus_hochschild_check(band, tol=1e-12):
    """Boundary of the orientation cycle vanishes and pi_D(c) = L_{sigma3}."""
    chains = torus_hochschild_cycle()
    boundary = monomial_chain_boundary(chains)
    bnorm = float(np.sqrt(sum(abs(c) ** 2 for c in boundary.values())))
    d = dirac_op()
    rep = None
    for coeff, entries in chains:
        acc = left_mult(trig_monomial(entries[0], S0))
        for mode in entries[1:]:
            acc = acc @ commutator_op(d, left_mult(trig_monomial(mode, S0)))
        term = coeff * acc
        rep = term if rep is None else rep + term
    target = left_mult(trig_monomial((0, 0), S3))
    ident = operator_identity(rep, target, band, tol, "hochschild_represents_grading")
    boundary_rep = ConditionReport(
        "hochschild_boundary_zero", bnorm <= tol, None, {"boundary_norm": bnorm}
    )
    return boundary_rep, ident


# -- the suite --------------------------------------------------------------


def default_prop12_unitaries():
    """The two constant shapes compatible with tau (diagonal and
    antidiagonal phases) plus a nonconstant diagonal example."""
    th1 = np.pi / 5
    u_diag = trig_monomial((0, 0), np.diag([np.exp(1j * th1), np.exp(-1j * th1)]))
    th2 = np.pi / 7
    u_anti = trig_monomial(
        (0, 0), np.array([[0, np.exp(1j * th2)], [np.exp(-1j * th2), 0]])
    )
    poly = zero_coeffs(1)
    poly[1 + 1, 1 + 0] = np.diag([1.0, 0.0])  # u in the upper-left entry
    poly[1 - 1, 1 + 0] = np.diag([0.0, 1.0])  # u* in the lower-right
    u_poly = TorusVector(1, poly)
    return [("diag", u_diag), ("antidiag", u_anti), ("offband", u_poly)]


# Expected verdict per suite check; cmd_torus exits 0 iff every actual
# verdict matches (the J1 second-order failure and the untwisted J2 sign
# are expected *failures* with recorded witnesses).
TORUS_EXPECTED = {
    "grading_self_adjoint": True,
    "grading_involutive": True,
    "grading_commutes_algebra": True,
    "grading_anticommutes_dirac": True,
    "dirac_self_adjoint": True,
    "generator_sigma1_from_u": True,
    "generator_sigma2_from_v": True,
    "j0_involution": True,
    "j1_involution": True,
    "j2_involution": True,
    "j1_factorization": True,
    "tau_equals_j1_j2": True,
    "tau_involution": True,
    "tau_commutes_j2": True,
    "j1_order_zero": True,
    "j1_order_one": True,
    "j1_order_two": False,
    "sign_eps_j1": True,
    "sign_eps_prime_j1": True,
    "sign_eps_double_prime_j1": True,
    "ko_j1_contains_0": True,
    "sign_eps_prime_j2_untwisted": False,
    "j2_order_zero": True,
    "j2_order_one": True,
    "j2_order_two": True,
    "sign_eps_prime_j2_twisted": True,
    "sign_eps_j2": True,
    "sign_eps_double_prime_j2": True,
    "eq_lr_j0_L": True,
    "eq_lr_j0_R": True,
    "eq_lr_j1_L": True,
    "eq_lr_j1_R": True,
    "eq_lr_j2_L": True,
    "eq_lr_j2_R": True,
    "hochschild_boundary_zero": True,
    "hochschild_represents_grading": True,
    "gamma_conj_outside_clifford_evidence": True,
    "gamma_sigma3_orientation_axioms": True,
}
for _tag in ("diag", "antidiag", "offband"):
    TORUS_EXPECTED.update(
        {
            f"prop12_{_tag}_ju_squared": True,
            f"prop12_{_tag}_order_two": True,
            f"prop12_{_tag}_twisted_intertwine": True,
            f"prop12_{_tag}_commutes_grading": True,
            f"prop12_{_tag}_tau_squared": True,
            f"prop12_{_tag}_tau_commutes_ju": True,
        }
    )


def run_torus_suite(band, tol=DEFAULT_TOL):
    """Execute every torus check at the given band; MIN_BAND <= band <= MAX_BAND
    (the orientation cycle needs two mode shifts of headroom, and the probe
    images of the high-degree commutators grow with the band)."""
    if band < MIN_BAND:
        raise ValueError(f"band must be >= {MIN_BAND} (orientation cycle headroom)")
    if band > MAX_BAND:
        raise ValueError(f"band must be <= {MAX_BAND} (probe images grow with the band)")
    reports = []
    d = dirac_op()
    gam = grading_op()
    ident = identity_op()
    j0, j1, j2, tau = j0_op(), j1_op(), j2_op(), twist_op()
    fam = scalar_family()
    u_mon = trig_monomial((1, 0), S0)
    v_mon = trig_monomial((0, 1), S0)

    def check(name, lhs, rhs):
        reports.append(operator_identity(lhs, rhs, band, tol, name))

    def sign(name, lhs, rhs):
        value, rep = _sign_identity(name, lhs, rhs, band, tol)
        reports.append(rep)
        return value

    # grading axioms for gamma a = sigma3 a sigma3
    reports.append(_adjoint_identity("grading_self_adjoint", gam, gam, band, tol))
    check("grading_involutive", gam @ gam, ident)
    worst = None
    for label, f in fam:
        comm = commutator_op(gam, left_mult(f))
        if worst is None and not _vanishes(comm, band, tol):
            worst = Witness((label,), None, _norm(comm, band))
    reports.append(
        ConditionReport("grading_commutes_algebra", worst is None, worst, {"family_size": len(fam)})
    )
    check("grading_anticommutes_dirac", gam @ d + d @ gam, zero_op())
    reports.append(_adjoint_identity("dirac_self_adjoint", d, d, band, tol))

    # -u*[D,u] = L_{sigma1},  -v*[D,v] = L_{sigma2}
    check(
        "generator_sigma1_from_u",
        (-1.0) * (left_mult(trig_adjoint(u_mon)) @ commutator_op(d, left_mult(u_mon))),
        left_mult(trig_monomial((0, 0), S1)),
    )
    check(
        "generator_sigma2_from_v",
        (-1.0) * (left_mult(trig_adjoint(v_mon)) @ commutator_op(d, left_mult(v_mon))),
        left_mult(trig_monomial((0, 0), S2)),
    )

    # reality operators: involutions and factorizations
    check("j0_involution", j0 @ j0, ident)
    check("j1_involution", j1 @ j1, ident)
    check("j2_involution", j2 @ j2, ident)
    s1c = trig_monomial((0, 0), S1)
    check("j1_factorization", left_mult(s1c) @ right_mult(s1c) @ j0, j1)
    check("tau_equals_j1_j2", j1 @ j2, tau)
    check("tau_involution", tau @ tau, ident)
    check("tau_commutes_j2", tau @ j2 - j2 @ tau, zero_op(antilinear=True))

    # Prop 9: J1 is a real structure; second order fails
    reports.append(_order_condition("j1_order_zero", d, j1, fam, band, tol))
    reports.append(_order_condition("j1_order_one", d, j1, fam, band, tol))
    reports.append(_order_condition("j1_order_two", d, j1, fam, band, tol))

    e1 = sign("sign_eps_j1", j1 @ j1, ident)
    ep1 = sign("sign_eps_prime_j1", j1 @ d, d @ j1)
    epp1 = sign("sign_eps_double_prime_j1", j1 @ gam, gam @ j1)
    ko = sorted(ko_dimensions(e1, ep1, epp1)) if None not in (e1, ep1, epp1) else None
    reports.append(ConditionReport("ko_j1_contains_0", ko is not None and 0 in ko, None, {"ko_set": ko}))

    # Prop 10: untwisted J2 has no eps'; the twist repairs it
    sign("sign_eps_prime_j2_untwisted", j2 @ d, d @ j2)
    reports.append(_order_condition("j2_order_zero", d, j2, fam, band, tol))
    reports.append(_order_condition("j2_order_one", d, j2, fam, band, tol))
    reports.append(_order_condition("j2_order_two", d, j2, fam, band, tol))
    sign("sign_eps_prime_j2_twisted", tau @ j2 @ d, d @ j2 @ tau)
    sign("sign_eps_j2", j2 @ j2, ident)
    sign("sign_eps_double_prime_j2", j2 @ gam, gam @ j2)

    # the conjugation table
    for label, m in multiplier_family():
        mstar = trig_adjoint(m)
        mbar = TorusVector(m.band, np.conj(m.coeffs[::-1, ::-1]))
        mj1 = TorusVector(m.band, S1 @ mbar.coeffs @ S1)
        checks = [
            ("eq_lr_j0_L", j0 @ left_mult(m) @ j0, left_mult(mbar)),
            ("eq_lr_j0_R", j0 @ right_mult(m) @ j0, right_mult(mbar)),
            ("eq_lr_j1_L", j1 @ left_mult(m) @ j1, left_mult(mj1)),
            ("eq_lr_j1_R", j1 @ right_mult(m) @ j1, right_mult(mj1)),
            ("eq_lr_j2_L", j2 @ left_mult(m) @ j2, right_mult(mstar)),
            ("eq_lr_j2_R", j2 @ right_mult(m) @ j2, left_mult(mstar)),
        ]
        for name, lhs, rhs in checks:
            got = operator_identity(lhs, rhs, band, tol, name)
            prev = next((r for r in reports if r.name == name), None)
            if prev is None:
                got.details["multipliers"] = [label] if got.holds else []
                reports.append(got)
            else:
                prev.holds = prev.holds and got.holds
                if got.holds:
                    prev.details.setdefault("multipliers", []).append(label)
                elif prev.witness is None:
                    prev.witness = got.witness

    # Prop 12 family
    for tag, u in default_prop12_unitaries():
        ju = ju_op(u, tol)
        tu = tau_u_op(u, tol)
        check(f"prop12_{tag}_ju_squared", ju @ ju, ident)
        # a degree-carrying U grows every commutator band by 2 deg(U); trim
        # the quantification family to the generators for those to keep the
        # suite inside its time budget (verdicts are band-exact either way)
        fam_u = fam if u.band == 0 else fam[:3]
        reports.append(_order_condition(f"prop12_{tag}_order_two", d, ju, fam_u, band, tol))
        # the twisted relation tau_U J_U D = eps' D J_U tau_U holds with a
        # definite sign (measured -1 with the paper's displayed gamma-carrying
        # J's; the gamma-flipped choice gives +1, same KO column)
        sign(f"prop12_{tag}_twisted_intertwine", tu @ ju @ d, d @ ju @ tu)
        check(f"prop12_{tag}_commutes_grading", ju @ gam - gam @ ju, zero_op(ju.degree, antilinear=True))
        check(f"prop12_{tag}_tau_squared", tu @ tu, ident)
        check(f"prop12_{tag}_tau_commutes_ju", tu @ ju - ju @ tu, zero_op(ju.degree + tu.degree, antilinear=True))

    # orientation: Hochschild cycle for the grading L_{sigma3}
    brep, hrep = torus_hochschild_check(band, 1e-12)
    reports.append(brep)
    reports.append(hrep)

    # conj-by-sigma3 grading is not in Cl_D(A): it fails to commute with
    # R_{sigma1} in the commutant, while the orientation grading L_{sigma3}
    # does commute (generator-level evidence, not a closure computation)
    rs1 = right_mult(trig_monomial((0, 0), S1))
    bad = commutator_op(gam, rs1)
    bad_commutes = _vanishes(bad, band, tol)
    ls3 = left_mult(trig_monomial((0, 0), S3))
    good = _vanishes(commutator_op(ls3, rs1), band, tol)
    reports.append(
        ConditionReport(
            "gamma_conj_outside_clifford_evidence",
            (not bad_commutes) and good,
            None,
            {
                "conj_grading_commutator_norm": 0.0 if bad_commutes else _norm(bad, band),
                "orientation_grading_commutes": good,
            },
        )
    )
    # L_{sigma3} satisfies the grading axioms over the scalar algebra
    ax = [
        _vanishes(ls3 @ ls3 - ident, band, tol),
        _adjoint_identity("", ls3, ls3, band, tol).holds,
        _vanishes(ls3 @ d + d @ ls3, band, tol),
    ]
    com_ok = all(_vanishes(commutator_op(ls3, left_mult(f)), band, tol) for _, f in fam)
    reports.append(
        ConditionReport(
            "gamma_sigma3_orientation_axioms",
            all(ax) and com_ok,
            None,
            {"squares_to_one": ax[0], "self_adjoint": ax[1],
             "anticommutes_dirac": ax[2], "commutes_algebra": com_ok},
        )
    )
    return reports


def _adjoint_identity(name, op, expected_adjoint, band, tol):
    """<op u, w> = <u, expected_adjoint w> over the band basis, for linear
    band-preserving operators: their matrices are block diagonal, and window
    entry [a, b, f, 0, 0, g] is the entry (g, f) of the 4x4 block at mode
    (a, b), so each block of expected_adjoint must be op's conjugate transpose.
    """
    if op.antilinear or expected_adjoint.antilinear or op.degree or expected_adjoint.degree:
        raise ValueError("adjoint identities need linear band-preserving operators")
    la, ra = _probe_windows([op, expected_adjoint], band)
    defect = float(np.abs(la.conj() - np.swapaxes(ra, 2, 5)).max())
    return ConditionReport(name or "adjoint_identity", defect <= tol, None, {"defect": defect})
