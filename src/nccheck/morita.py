"""J-implemented Morita equivalence and the spin / even-spin / Hodge classes."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    _DENSE_COMMUTANT_LIMIT,
    circ_image,
    commutant,
    commutant_dimension,
    commutes_with_all,
)
from .numlin import DEFAULT_TOL, subspace_witness
from .triple import clifford, clifford_gamma


@dataclass
class MoritaTest:
    """Outcome of one B1 = (B2°)' comparison with diagnostics."""

    equivalent: bool
    contained: bool
    dim_b1: int
    dim_circ_commutant: int
    worst_commutator: float
    witness: np.ndarray | None = None
    witness_residual: float | None = None

    def to_dict(self):
        return {
            "equivalent": self.equivalent,
            "contained": self.contained,
            "dim_b1": self.dim_b1,
            "dim_circ_commutant": self.dim_circ_commutant,
            "worst_commutator": self.worst_commutator,
            "witness_residual": self.witness_residual,
        }


def _basis_pairs(b1, c, tol):
    """(contained, largest Frobenius commutator, witness, its operator norm)
    over the basis pairs of B1 x C, one commutator stack per x serving both
    norms; the witness has the largest operator norm, the first on ties."""
    cb = c.basis_matrices()
    worst, witness, wres = 0.0, None, None
    for x in b1.basis_matrices():
        cms = x @ cb - cb @ x
        frob = np.sqrt((np.abs(cms) ** 2).reshape(len(cb), -1).sum(axis=1).max())
        worst = max(worst, float(frob))
        norms = np.linalg.norm(cms, 2, axis=(1, 2))
        i = int(np.argmax(norms))
        if wres is None or norms[i] > wres:  # a copy, so the stack is freed
            witness, wres = cms[i].copy(), float(norms[i])
    if worst <= tol:  # generators of norm above 1 can fail where the basis passes
        return True, worst, None, None
    return False, worst, witness, wres


def morita_test(b1, b2, j, tol=DEFAULT_TOL):
    """Test B1 ~_J B2, i.e. B1 = (B2°)' as subspaces.

    Containment B1 in (B2°)' is decided on the *-closed generating spans
    (B1 lies in a commutant iff its generators do, x in (B2°)' iff x commutes
    with B2°'s), so worst_commutator is over generator pairs; a failure
    compares every basis pair instead.  Equality then reduces to dim B1 =
    dim (B2°)', with the commutant dimension taken from the structure theory
    of the small algebra B2° (no commutant basis on large H).  When equality
    fails and the ambient space is small enough, an explicit witness in the
    larger space is extracted.
    """
    if b1.ambient_dim != b2.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    c = circ_image(j, b2, tol)
    gens = c.generators  # none when B2° is the scalars
    results = [commutes_with_all(x, gens, tol) for x in b1.generators] if len(gens) else []
    contained = all(ok for ok, _ in results)
    worst = max((w for _, w in results), default=0.0)
    witness = wres = None
    if not contained:
        contained, worst, witness, wres = _basis_pairs(b1, c, tol)
    dim_cc = commutant_dimension(c, tol)
    equivalent = contained and (b1.dim == dim_cc)
    if contained and not equivalent and b1.ambient_dim ** 2 <= _DENSE_COMMUTANT_LIMIT:
        found = subspace_witness(commutant(c, tol).subspace, b1.subspace, tol)
        if found is not None:
            witness, wres = found
    return MoritaTest(equivalent, contained, b1.dim, dim_cc, worst, witness, wres)


@dataclass
class MoritaClassification:
    spin: bool
    even_spin: bool | None
    hodge: bool
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "spin": self.spin,
            "even_spin": self.even_spin,
            "hodge": self.hodge,
            "diagnostics": {
                k: (v.to_dict() if isinstance(v, MoritaTest) else v)
                for k, v in self.diagnostics.items()
            },
        }


def classify(t, tol=None):
    """Evaluate spin (6a), even-spin (6b), Hodge (6c) for a finite triple.

    even_spin is None (undefined, not false) when no grading is present.
    A-bar is A itself in finite dimension.
    """
    if t.real_structure is None:
        raise ValueError("classification requires a real structure")
    tol = t.tol if tol is None else tol
    j = t.real_structure.j
    a = t.algebra()
    cl = clifford(t)
    spin_test = morita_test(cl, a, j, tol)
    hodge_test = morita_test(cl, cl, j, tol)
    even_test = None
    if t.grading is not None:
        clg = clifford_gamma(t)
        even_test = morita_test(clg, a, j, tol)
    diag = {
        "dim_algebra": a.dim,
        "dim_clifford": cl.dim,
        "spin": spin_test,
        "hodge": hodge_test,
    }
    if even_test is not None:
        diag["dim_clifford_gamma"] = clifford_gamma(t).dim
        diag["even_spin"] = even_test
    return MoritaClassification(
        spin=spin_test.equivalent,
        even_spin=None if even_test is None else even_test.equivalent,
        hodge=hodge_test.equivalent,
        diagnostics=diag,
    )
