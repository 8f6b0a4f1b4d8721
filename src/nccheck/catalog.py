"""Executable versions of the paper's finite examples plus random generators."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numlin import (
    DEFAULT_TOL,
    PAULI,
    AntilinearOperator,
    kron,
    left_mult_matrix,
    right_mult_matrix,
)
from .triple import FiniteSpectralTriple, RealStructure

S0, S1, S2, S3 = PAULI

# kernel of a -> a^* on M_2 viewed as C^4 (row-major): the transpose
# permutation composed with entrywise conjugation
TRANSPOSE_PERM = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


@dataclass
class NamedExample:
    """A catalog entry: builder plus the expected checker verdicts.

    ``expected`` maps condition names to verdicts; the test suite runs the
    checkers and requires exact agreement.  ``witness`` (for product pairs)
    holds the explicit commutant element of the counterexample together with
    the generator family it must commute with and the algebra it must avoid.
    """

    name: str
    kind: str  # 'triple' | 'pair'
    build: callable
    expected: dict = field(default_factory=dict)
    notes: str = ""


def example_evenspin():
    """M2 represented on M2 (x) C^2 by left multiplication.

    D(a (x) v) = [sigma1, a] (x) sigma1 v, gamma = 1 (x) sigma3,
    J(a (x) v) = a^* (x) conj(v).  Even-spin but not spin: the grading lies
    outside the Clifford algebra.  One-forms are freely generated by
    omega = 1 (x) sigma1.
    """
    gens = [kron(left_mult_matrix(S1), np.eye(2)), kron(left_mult_matrix(S2), np.eye(2))]
    dirac = kron(left_mult_matrix(S1) - right_mult_matrix(S1), S1)
    grading = kron(np.eye(4), S3)
    j = AntilinearOperator(kron(TRANSPOSE_PERM, np.eye(2)))
    return FiniteSpectralTriple(
        gens, dirac, grading=grading, real_structure=RealStructure(j), name="evenspin"
    )


def example_hodge_m2():
    """A = H = M2 with D = [sigma1, .] and J(a) = a^*: spin and Hodge.

    The stored grading is conjugation by sigma3 (the Z2-grading of H that
    makes D odd and under which J has a definite sign).  No operator on this
    H satisfies every strict grading axiom: anything commuting with the full
    left-multiplication algebra is a right multiplication, and no right
    multiplication anticommutes with D, so the conjugation grading fails
    [gamma, A] = 0 and is recorded with a validation warning.
    """
    gens = [left_mult_matrix(S1), left_mult_matrix(S2)]
    dirac = left_mult_matrix(S1) - right_mult_matrix(S1)
    grading = kron(S3, S3)  # conjugation by sigma3 in row-major coordinates
    j = AntilinearOperator(TRANSPOSE_PERM)
    return FiniteSpectralTriple(
        gens, dirac, grading=grading, real_structure=RealStructure(j), name="hodge_m2"
    )


def evenspin_omega():
    """The generating one-form 1 (x) sigma1 of the even-spin example."""
    return kron(np.eye(4), S1)


def example_mixed():
    """The even-spin triple paired with the M2 Hodge triple.

    The plain product fails even-spin.  The recorded witness is the one-form
    omega (x) 1 = 1 (x) sigma1 (x) 1; it commutes with the generator families
    A1 (x) 1, 1 (x) A2 and omega (x) 1 and lies outside A1 (x) A2.  (Against
    the full product Clifford algebra the element fails to commute with the
    gamma1 (x) Omega^1_2 one-forms; the classification's own witness comes
    from the dimension deficit instead.)
    """
    t1 = example_evenspin()
    t2 = example_hodge_m2()
    witness = kron(kron(np.eye(4), S1), np.eye(4))
    return t1, t2, witness


def example_evenspin_pair():
    """Two copies of the even-spin triple.

    The plain product fails even-spin with witness 1 (x) sigma1 (x) 1 (x)
    sigma2: it commutes with the full product Clifford-plus-grading algebra
    but does not lie in J A J^{-1}.
    """
    t1 = example_evenspin()
    t2 = example_evenspin()
    witness = kron(kron(np.eye(4), S1), kron(np.eye(4), S2))
    return t1, t2, witness


def random_triple(seed):
    """Seeded random triple on C^n, 2 <= n <= 4, guaranteeing only the type
    invariants.

    The grading is block diagonal diag(1_p, -1_q); generators are then drawn
    block diagonal (even) and the Dirac block off-diagonal (odd), so the
    construction always validates strictly.  J = K conj with K = Q Q^T for a
    random unitary Q, so J^2 = +1.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    p = int(rng.integers(1, n))
    signs = np.concatenate([np.ones(p), -np.ones(n - p)])
    grading = np.diag(signs).astype(complex)
    mask_even = (signs[:, None] * signs[None, :]) > 0
    gens = []
    for _ in range(int(rng.integers(1, 3))):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        gens.append(g * mask_even)
    d = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    d = (d + d.conj().T) * ~mask_even
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    real = RealStructure(AntilinearOperator(q @ q.T))
    return FiniteSpectralTriple(
        gens, d, grading=grading, real_structure=real, tol=DEFAULT_TOL, name=f"random[{seed}]"
    )


def catalog_entries():
    """Every named example with its expected verdict map."""
    return [
        NamedExample(
            name="evenspin",
            kind="triple",
            build=example_evenspin,
            expected={
                "spin": False,
                "even_spin": True,
                "hodge": True,
                "order_zero": True,
                "order_one": True,
                "order_two": True,
                "one_forms_dim": 4,
                "clifford_dim": 8,
                "clifford_gamma_dim": 16,
                "gamma_in_clifford": False,
                "signs": (1, -1, 1),
                "ko_set": {0, 2},
            },
            notes="even-spin holds, spin fails: gamma is outside Cl_D(A)",
        ),
        NamedExample(
            name="hodge_m2",
            kind="triple",
            build=example_hodge_m2,
            expected={
                "spin": True,
                "even_spin": False,
                "hodge": True,
                "order_zero": True,
                "order_one": True,
                "order_two": True,
                "one_forms_dim": 4,
                "clifford_dim": 4,
                "gamma_in_clifford": False,
                "signs": (1, -1, 1),
                "ko_set": {0, 2},
            },
            notes="one-forms land inside the algebra, so A = Cl_D(A)",
        ),
        NamedExample(
            name="mixed",
            kind="pair",
            build=example_mixed,
            expected={
                "plain_even_spin": False,
                "witness_outside_algebra": True,
                "witness_commutes_generator_family": True,
            },
            notes="even-spin times Hodge: plain product fails even-spin",
        ),
        NamedExample(
            name="evenspin_pair",
            kind="pair",
            build=example_evenspin_pair,
            expected={
                "plain_even_spin": False,
                "witness_in_clifford_gamma_commutant": True,
                "witness_outside_circ_algebra": True,
            },
            notes="two even-spin copies: plain product fails even-spin",
        ),
    ]
