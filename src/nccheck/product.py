"""Products of spectral triples: graded products, Koszul real structures,
the alternative Dirac operator, and the graded commutant theorem."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import orthonormalize_rows, residual_norms
from .algebra import (
    OperatorAlgebra,
    commutant,
    commutes_with_all,  # unused here; perfbench's tracer test expects it in this module
    generate_star_algebra,
)
from .numlin import (
    DEFAULT_TOL,
    MatrixSubspace,
    as_matrix,
    kron,
    opnorm,
    span,
    subspace_equal,
    subspace_witness,
)
from .triple import (
    ConditionReport,
    FiniteSpectralTriple,
    RealStructure,
    TripleValidationError,
    Witness,
    check_order_two,
    check_signs,
    clifford,
    one_forms,
)


def homogeneous_parts(x, gamma):
    """Even/odd parts (X +- gamma X gamma)/2 relative to a grading.

    ``x`` is one matrix (validated) or a stack of matrices, split one by one.
    """
    x = as_matrix(x) if np.ndim(x) == 2 else x
    conj = gamma @ x @ gamma
    return (x + conj) / 2, (x - conj) / 2


@dataclass
class GradedAlgebraPair:
    """Two unital subalgebras with gradings, each invariant under its grading."""

    b1: OperatorAlgebra
    b2: OperatorAlgebra
    gamma1: np.ndarray
    gamma2: np.ndarray

    def __post_init__(self):
        for tag, alg, g in (("b1", self.b1, self.gamma1), ("b2", self.b2, self.gamma2)):
            conj = (g @ alg.basis_matrices() @ g).reshape(alg.dim, -1)
            if not np.all(residual_norms(conj, alg.subspace.vecs) <= 1e-7):
                raise ValueError(f"{tag} is not invariant under its grading")


def _kron_stack(a, b):
    """Kronecker products a[i] (x) b[j] of two stacks of square matrices,
    in row order i * len(b) + j; one broadcast multiply forms every entry
    a[i, p, r] b[j, q, s] exactly as np.kron does for one pair."""
    k1, n1, _ = a.shape
    k2, n2, _ = b.shape
    out = a[:, None, :, None, :, None] * b[None, :, None, :, None, :]
    return out.reshape(k1 * k2, n1 * n2, n1 * n2)


def graded_algebra(b1, b2, gamma1, gamma2, side="left", tol=DEFAULT_TOL):
    """Span of the graded products x . y (``left``) or x .' y (``right``) of
    the basis elements x of b1 and y of b2; an algebra when the factors are
    grading-invariant (closure asserted by callers/tests).

    The products are the rows of one stack, in row order i * dim b2 + j for
    x_i and y_j, each equal to ``graded_product(x_i, y_j, ...)``, the
    per-pair definition kept as a test oracle in tests/oracles.py.  The
    factor whose degree enters the sign rule (b2 for left, b1 for right) is
    split into homogeneous parts once, every Kronecker product is formed by
    one broadcast, and the stack is orthonormalised in one call.
    """
    xs = b1.basis_matrices()
    ys = b2.basis_matrices()
    if side == "left":
        y_even, y_odd = homogeneous_parts(ys, gamma2)
        stack = _kron_stack(xs, y_even)
        stack += _kron_stack(xs @ gamma1, y_odd)
    elif side == "right":
        x_even, x_odd = homogeneous_parts(xs, gamma1)
        stack = _kron_stack(x_even, ys)
        stack += _kron_stack(x_odd, ys @ gamma2)
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if not np.all(np.isfinite(stack)):
        raise ValueError("matrix has non-finite entries")
    n = stack.shape[1]
    basis = orthonormalize_rows(stack.reshape(len(stack), n * n), tol)
    return OperatorAlgebra(MatrixSubspace(n, basis), b1.unital and b2.unital)


def koszul_kernel(k1, k2, gamma1, gamma2):
    """Kernel of the Koszul-signed product real structure.

    J(v (x) w) = (-1)^{|v||w|} J1 v (x) J2 w is antilinear with kernel
    (K1 (x) K2) . conj(Sigma), Sigma = 1 - 2 P1^- (x) P2^-, where Pi^-
    projects on the gamma_i = -1 eigenspace.  The conjugate enters because
    the kernel acts after entrywise conjugation; in a gamma-eigenbasis Sigma
    is a real diagonal and the conjugate is invisible.
    """
    n1 = gamma1.shape[0]
    n2 = gamma2.shape[0]
    p1 = (np.eye(n1) - gamma1) / 2
    p2 = (np.eye(n2) - gamma2) / 2
    sigma = np.eye(n1 * n2, dtype=complex) - 2 * kron(p1, p2)
    return kron(k1, k2) @ np.conj(sigma)


def product_triple(t1, t2, j_mode="plain", tol=None, name=None):
    """Product triple: A = A1 (x) A2, D = D1 (x) 1 + gamma1 (x) D2.

    The first factor must carry a grading; odd-odd products are rejected.
    gamma = gamma1 (x) gamma2 when both factors are graded.  When both carry
    real structures the product gets one: plain kernel K1 (x) K2, or the
    Koszul-signed kernel (which needs both gradings).  Twists compose as
    tau1 (x) tau2 (identity for an untwisted factor).
    """
    if t1.grading is None:
        raise TripleValidationError(
            "first_factor_even", "product requires the first factor to carry a grading"
        )
    tol = t1.tol if tol is None else tol
    n1, n2 = t1.hilbert_dim, t2.hilbert_dim
    gens = [kron(g, np.eye(n2)) for g in t1.algebra_generators]
    gens += [kron(np.eye(n1), g) for g in t2.algebra_generators]
    dirac = kron(t1.dirac, np.eye(n2)) + kron(t1.grading, t2.dirac)
    grading = None
    if t2.grading is not None:
        grading = kron(t1.grading, t2.grading)
    real = None
    if t1.real_structure is not None and t2.real_structure is not None:
        k1 = t1.real_structure.j.kernel
        k2 = t2.real_structure.j.kernel
        if j_mode == "plain":
            kernel = kron(k1, k2)
        elif j_mode == "koszul":
            if t2.grading is None:
                raise TripleValidationError(
                    "second_factor_grading", "koszul real structure needs both gradings"
                )
            kernel = koszul_kernel(k1, k2, t1.grading, t2.grading)
        else:
            raise ValueError(f"unknown j_mode {j_mode!r}")
        tw1 = t1.real_structure.twist
        tw2 = t2.real_structure.twist
        twist = None
        if tw1 is not None or tw2 is not None:
            twist = kron(
                tw1 if tw1 is not None else np.eye(n1),
                tw2 if tw2 is not None else np.eye(n2),
            )
        real = RealStructure(kernel, twist, tol)
    label = name or f"product[{j_mode}]({t1.name or '?'}, {t2.name or '?'})"
    return FiniteSpectralTriple(
        gens, dirac, grading=grading, real_structure=real, tol=tol, name=label
    )


def alt_dirac(t1, t2):
    """The right-handed Dirac operator D~ = D1 (x) gamma2 + 1 (x) D2."""
    if t2.grading is None:
        raise TripleValidationError("second_factor_grading", "alt_dirac needs gamma2")
    return kron(t1.dirac, t2.grading) + kron(np.eye(t1.hilbert_dim), t2.dirac)


def verify_gct(pair, tol=DEFAULT_TOL, want_witness=True):
    """Graded commutant theorem: (B1 . B2)' = B1' .' B2'.

    Each side is one stacked graded-product build (``graded_algebra``)
    followed by a commutant: the commutant of B1 . B2 on the left, the right
    graded product of the factor commutants on the right.  The two are
    compared as subspaces; the easy inclusion B1' .' B2' in (B1 . B2)' is
    also reported separately.
    """
    left_alg = graded_algebra(pair.b1, pair.b2, pair.gamma1, pair.gamma2, "left", tol)
    lhs = commutant(left_alg, tol)
    c1 = commutant(pair.b1, tol)
    c2 = commutant(pair.b2, tol)
    rhs = graded_algebra(c1, c2, pair.gamma1, pair.gamma2, "right", tol)
    inclusion = lhs.subspace.contains_all(rhs.subspace, tol)
    equal = inclusion and subspace_equal(lhs.subspace, rhs.subspace, tol)
    return ConditionReport(
        "graded_commutant_theorem",
        equal,
        None if equal or not want_witness
        else _difference_witness(lhs.subspace, rhs.subspace, tol),
        {
            "dim_b1": pair.b1.dim,
            "dim_b2": pair.b2.dim,
            "dim_graded_product": left_alg.dim,
            "dim_lhs_commutant": lhs.dim,
            "dim_rhs": rhs.dim,
            "easy_inclusion": inclusion,
        },
    )


def random_graded_pair(rng, dim_max=4):
    """Seeded random instance for graded-commutant trials.

    Each factor: a random +-1 grading (conjugated into general position) and
    1-3 random homogeneous generators, even or odd with equal probability;
    algebras so generated are automatically grading-invariant.
    """

    def one_factor():
        n = int(rng.integers(2, dim_max + 1))
        signs = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        if np.all(signs == signs[0]):
            signs[0] = -signs[0]
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        gamma = q @ np.diag(signs).astype(complex) @ q.conj().T
        gamma = (gamma + gamma.conj().T) / 2
        gens = []
        for _ in range(int(rng.integers(1, 4))):
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            even, odd = homogeneous_parts(x, gamma)
            gens.append(even if rng.random() < 0.5 else odd)
        return generate_star_algebra(gens, True), gamma

    b1, g1 = one_factor()
    b2, g2 = one_factor()
    return GradedAlgebraPair(b1, b2, g1, g2)


# -- product structure checks ----------------------------------------------


def _lemma_report(name, holds, details, witness=None):
    return ConditionReport(name, holds, witness, details)


def _difference_witness(s, t, tol):
    """An element of s or t with the largest component outside the other;
    None when the two subspaces are equal within tol."""
    found = subspace_witness(s, t, tol) or subspace_witness(t, s, tol)
    return Witness(None, *found) if found else None


def one_forms_decomposition_check(t1, t2, product=None, tol=None):
    """Lemma: Omega^1 of the product decomposes as
    Omega^1_1 (x) A2 + gamma1 A1 (x) Omega^1_2; when gamma1 lies in Cl_1 the
    product Clifford algebra additionally equals Cl_1 (x) Cl_2.

    Both identities are evaluated unconditionally; the details record whether
    the hypotheses behind them ([gamma1, A1] = 0, gamma1 in Cl_1) hold.
    """
    tol = t1.tol if tol is None else tol
    prod = product if product is not None else product_triple(t1, t2, "plain", tol)
    lhs = one_forms(prod)
    a1 = t1.algebra_basis()
    a2 = t2.algebra_basis()
    om1 = one_forms(t1).basis_matrices()
    om2 = one_forms(t2).basis_matrices()
    mats = np.concatenate([_kron_stack(om1, a2), _kron_stack(t1.grading @ a1, om2)])
    rhs = span(mats, tol, ambient_dim=prod.hilbert_dim)
    ok13 = subspace_equal(lhs, rhs, tol)
    gamma1_in_cl1 = clifford(t1).subspace.contains(t1.grading, tol)
    cl = clifford(prod)
    cl12 = span(_kron_stack(clifford(t1).basis_matrices(), clifford(t2).basis_matrices()), tol)
    cl_prod_equal = subspace_equal(cl.subspace, cl12, tol)
    return _lemma_report(
        "one_forms_decomposition",
        ok13 and (cl_prod_equal or not gamma1_in_cl1),
        {
            "lemma13_holds": ok13,
            "dim_product_one_forms": lhs.dim,
            "dim_decomposition": rhs.dim,
            "gamma1_in_clifford1": gamma1_in_cl1,
            "clifford_product_equal": cl_prod_equal,
            "gamma1_commutes_algebra1": bool(t1.grading_commutes_algebra),
        },
        None if ok13 else _difference_witness(lhs, rhs, tol),
    )


def lemma_21b_check(t1, t2, product=None, tol=None):
    """Cl_D(A) of the product vs the left graded product Cl_1 . Cl_2."""
    tol = t1.tol if tol is None else tol
    prod = product if product is not None else product_triple(t1, t2, "plain", tol)
    if t2.grading is None:
        raise TripleValidationError("second_factor_grading", "lemma 21b needs gamma2")
    cl = clifford(prod)
    right = graded_algebra(clifford(t1), clifford(t2), t1.grading, t2.grading, "left", tol)
    ok = subspace_equal(cl.subspace, right.subspace, tol)
    return _lemma_report(
        "clifford_graded_product",
        ok,
        {"dim_clifford_product": cl.dim, "dim_graded": right.dim},
        None if ok else _difference_witness(cl.subspace, right.subspace, tol),
    )


def lemma_25_check(t1, t2, product=None, tol=None):
    """J Cl_D(A) J^{-1} of the Koszul product as a right graded product.

    The generator images land in (J1 Cl_1 J1^{-1}) .' (J2 Cl_2 J2^{-1}), so
    that is the subspace identity asserted here; whether the factor Clifford
    algebras coincide with their own J-conjugates (making the unconjugated
    right product equal as well) is recorded in the details.
    """
    tol = t1.tol if tol is None else tol
    prod = product if product is not None else product_triple(t1, t2, "koszul", tol)
    if prod.real_structure is None:
        raise TripleValidationError("real_structure_required", "lemma 25 needs J")
    j = prod.real_structure.j
    cl = clifford(prod)
    conj_basis = [j.conjugate(x) for x in cl.basis_matrices()]
    lhs = span(conj_basis, tol)
    j1 = t1.real_structure.j
    j2 = t2.real_structure.j
    cl1c = span([j1.conjugate(x) for x in clifford(t1).basis_matrices()], tol)
    cl2c = span([j2.conjugate(x) for x in clifford(t2).basis_matrices()], tol)
    rhs = graded_algebra(
        OperatorAlgebra(cl1c, True), OperatorAlgebra(cl2c, True),
        t1.grading, t2.grading, "right", tol,
    )
    ok = subspace_equal(lhs, rhs.subspace, tol)
    literal = graded_algebra(clifford(t1), clifford(t2), t1.grading, t2.grading, "right", tol)
    literal_ok = subspace_equal(lhs, literal.subspace, tol)
    return _lemma_report(
        "conjugated_clifford_right_product",
        ok,
        {
            "dim_conjugated": lhs.dim,
            "dim_right_graded": rhs.dim,
            "unconjugated_variant_holds": literal_ok,
        },
        None if ok else _difference_witness(lhs, rhs.subspace, tol),
    )


def alt_dirac_intertwine_check(t1, t2, tol=None, product=None):
    """J_koszul D = eps' D~ J_koszul with eps' = eps'_1, for eligible pairs
    (eps'_1 eps''_1 = eps'_2); reports eligibility in the details.
    ``product``, when given, is the Koszul product of t1 and t2."""
    tol = t1.tol if tol is None else tol
    s1 = check_signs(t1)
    s2 = check_signs(t2)
    e1, ep1, epp1 = s1.tuple()
    _, ep2, _ = s2.tuple()
    eligible = None not in (ep1, epp1, ep2) and ep1 * epp1 == ep2
    prod = product if product is not None else product_triple(t1, t2, "koszul", tol)
    dtil = alt_dirac(t1, t2)
    k = prod.real_structure.j.kernel
    d = prod.dirac
    if ep1 is None:
        return _lemma_report("alt_dirac_intertwine", False, {"eligible": False})
    lhs = k @ np.conj(d)
    rhs = ep1 * (dtil @ k)
    res = opnorm(lhs - rhs)
    holds = res <= tol * (1 + opnorm(d))
    return _lemma_report(
        "alt_dirac_intertwine",
        holds,
        {"eligible": eligible, "eps_prime": ep1, "residual": res},
        None if holds else Witness(None, lhs - rhs, res),
    )


def product_sign_check(t1, t2, tol=None, product=None):
    """Koszul product signs: eps'' = eps''_1 eps''_2 always; when both
    eps''_i = +1 additionally eps = eps_1 eps_2.  D-degenerate eps' values
    are reported, never asserted.  ``product``, when given, is the Koszul
    product of t1 and t2."""
    tol = t1.tol if tol is None else tol
    prod = product if product is not None else product_triple(t1, t2, "koszul", tol)
    s1, s2, sp = check_signs(t1), check_signs(t2), check_signs(prod)
    e1, _, epp1 = s1.tuple()
    e2, _, epp2 = s2.tuple()
    ep, _, eppp = sp.tuple()
    details = {
        "factor_signs": [s1.tuple(), s2.tuple()],
        "product_signs": sp.tuple(),
        "eps_prime_degenerate": sp.eps_prime.degenerate,
    }
    ok = True
    if epp1 is not None and epp2 is not None:
        ok = ok and (eppp == epp1 * epp2)
        if epp1 == epp2 == 1 and e1 is not None and e2 is not None:
            ok = ok and (ep == e1 * e2)
    return _lemma_report("product_signs", ok, details)


def plain_vs_koszul_order_two(t1, t2, tol=None, koszul=None, plain=None):
    """Run the second-order check under both product real structures.

    Returns (koszul_report, plain_report); the paper's positive result is
    about the Koszul mode and its negative remark about the plain mode.
    ``koszul`` and ``plain``, when given, are those products of t1 and t2.
    """
    tol = t1.tol if tol is None else tol
    kos = koszul if koszul is not None else product_triple(t1, t2, "koszul", tol)
    pla = plain if plain is not None else product_triple(t1, t2, "plain", tol)
    return check_order_two(kos, tol), check_order_two(pla, tol)
