"""Finite spectral triples and the reality / order / sign condition checkers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import block_layout, commutes_with_all, generate_star_algebra, spin
from .numlin import (
    DEFAULT_TOL,
    AntilinearOperator,
    adjoint,
    as_matrix,
    circ,
    commutator,
    opnorm,
    span,
)


class TripleValidationError(ValueError):
    """Raised when constructor input violates a type invariant."""

    def __init__(self, invariant, message):
        self.invariant = invariant
        super().__init__(f"{invariant}: {message}")


@dataclass
class Witness:
    """Violation evidence: which pair failed, the violating matrix, its norm."""

    indices: tuple | None
    matrix: np.ndarray | None
    norm: float

    def to_dict(self, include_matrix=True):
        d = {"indices": list(self.indices) if self.indices is not None else None,
             "norm": self.norm}
        if include_matrix and self.matrix is not None:
            from .serialize import matrix_to_json

            d["matrix"] = matrix_to_json(self.matrix)
        return d


@dataclass
class ConditionReport:
    name: str
    holds: bool
    witness: Witness | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self, include_matrix=False):
        return {
            "name": self.name,
            "holds": bool(self.holds),
            "witness": self.witness.to_dict(include_matrix) if self.witness else None,
            "details": _jsonable(self.details),
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        from .serialize import matrix_to_json

        return matrix_to_json(obj)
    if isinstance(obj, set):
        return sorted(obj)
    return obj


class RealStructure:
    """Antilinear isometry J plus an optional twist tau.

    The twist, when present, must satisfy tau = tau^* = tau^{-1} and commute
    with J (as maps) -- commutation with the algebra is checked by the triple.
    """

    def __init__(self, j, twist=None, tol=DEFAULT_TOL):
        if not isinstance(j, AntilinearOperator):
            j = AntilinearOperator(j, tol)
        self.j = j
        self.twist = None
        if twist is not None:
            t = as_matrix(twist)
            if opnorm(t - adjoint(t)) > tol:
                raise TripleValidationError("twist_self_adjoint", "tau != tau^*")
            if opnorm(t @ t - np.eye(t.shape[0])) > tol:
                raise TripleValidationError("twist_involutive", "tau^2 != 1")
            # [tau, J] = 0 as maps  <=>  tau K = K conj(tau)
            if opnorm(t @ j.kernel - j.kernel @ np.conj(t)) > tol:
                raise TripleValidationError("twist_commutes_J", "[tau, J] != 0")
            self.twist = t


# Largest |D| whose square is a finite float.
_MAX_DIRAC_NORM = float(np.sqrt(np.finfo(float).max))

# Complex entries a closure basis may hold (2 GiB of complex128).  Every
# closure lies in the blocks of g, [D, g] and gamma: at most sum n_k^2
# elements of n^2 entries each (n^4 for a dense triple).
CLOSURE_BUDGET_ENTRIES = 1 << 27


class FiniteSpectralTriple:
    """(A, H, D, gamma, J, tau) with concrete matrices on H = C^n.

    Validation is strict for every type invariant except the grading's
    commutation with the algebra, which is recorded in ``warnings`` instead
    of rejected: the paper's finite Hodge-type example carries a natural
    Z2-grading of H that makes D odd but does not commute with A, and the
    catalog requires it to be constructible.
    """

    def __init__(
        self,
        algebra_generators,
        dirac,
        grading=None,
        real_structure=None,
        tol=DEFAULT_TOL,
        name=None,
    ):
        self.dirac = as_matrix(dirac)
        n = self.dirac.shape[0]
        self.hilbert_dim = n
        self.algebra_generators = [as_matrix(g) for g in algebra_generators]
        self.tol = float(tol)
        self.name = name
        self.warnings = []
        if not self.algebra_generators:
            raise TripleValidationError("algebra_generators_nonempty", "no algebra generators")
        for i, g in enumerate(self.algebra_generators):
            if g.shape[0] != n:
                raise TripleValidationError(
                    "generator_dimension", f"generator {i} has dim {g.shape[0]}, expected {n}"
                )
        g = None if grading is None else as_matrix(grading)
        if g is not None and g.shape[0] != n:
            raise TripleValidationError("grading_dimension", "gamma has wrong dimension")
        # the budget, from the blocks of Cl^gamma's generators, before the SVDs below
        blocks = block_layout(n, _leibniz_generators(self) + ([] if g is None else [g]))
        entries = sum(len(b) ** 2 for b in blocks) * n * n
        if entries > CLOSURE_BUDGET_ENTRIES:
            raise TripleValidationError(
                "closure_size_budget", f"hilbert_dim {n}: a closure basis may need {entries} "
                f"complex entries, over the budget of {CLOSURE_BUDGET_ENTRIES}"
            )
        dirac_norm = opnorm(self.dirac)
        if not dirac_norm <= _MAX_DIRAC_NORM:  # order-two commutators scale as |D|^2
            raise TripleValidationError(
                "dirac_norm_squared_finite", f"|D|^2 overflows a float: |D| = {dirac_norm:.3e}"
            )
        if opnorm(self.dirac - adjoint(self.dirac)) > tol * (1 + dirac_norm):
            raise TripleValidationError("dirac_self_adjoint", "D != D^*")
        self.grading = None
        if g is not None:
            if opnorm(g - adjoint(g)) > tol:
                raise TripleValidationError("grading_self_adjoint", "gamma != gamma^*")
            if opnorm(g @ g - np.eye(n)) > tol:
                raise TripleValidationError("grading_involutive", "gamma^2 != 1")
            if opnorm(g @ self.dirac + self.dirac @ g) > tol * (1 + dirac_norm):
                raise TripleValidationError("grading_anticommutes_dirac", "{gamma, D} != 0")
            worst = 0.0
            for a in self.algebra_generators:
                worst = max(worst, opnorm(commutator(g, a)))
            self.grading_commutes_algebra = worst <= tol
            if not self.grading_commutes_algebra:
                self.warnings.append(
                    f"grading_commutes_algebra: max |[gamma, a]| = {worst:.3e}; "
                    "gamma grades H and anticommutes with D but is not a "
                    "spectral-triple grading in the strict sense"
                )
            self.grading = g
        else:
            self.grading_commutes_algebra = None
        self.real_structure = None
        if real_structure is not None:
            if not isinstance(real_structure, RealStructure):
                real_structure = RealStructure(real_structure, tol=tol)
            if real_structure.j.dim != n:
                raise TripleValidationError("real_structure_dimension", "J has wrong dimension")
            if real_structure.twist is not None:
                worst = 0.0
                for a in self.algebra_generators:
                    worst = max(worst, opnorm(commutator(real_structure.twist, a)))
                if worst > tol:
                    raise TripleValidationError("twist_commutes_algebra", f"[tau, a] != 0 ({worst:.2e})")
            self.real_structure = real_structure
        # A, Omega^1, Cl_D and Cl^gamma, keyed by name, each built on first use
        self._derived = {}

    # -- cached derived structures ------------------------------------

    def share_derived(self, other):
        """Use ``other``'s cached A, Omega^1, Cl_D and Cl^gamma from now on.

        They depend on the generators, D, gamma and tol but never on J, so
        triples that differ only in their real structure may share them.
        """
        mine = [self.dirac, self.grading, *self.algebra_generators]
        theirs = [other.dirac, other.grading, *other.algebra_generators]
        same = self.tol == other.tol and len(mine) == len(theirs)
        if not (same and all(map(np.array_equal, mine, theirs))):
            raise ValueError("share_derived needs the same generators, D, grading and tol")
        self._derived = other._derived

    def algebra(self):
        """The generated unital *-algebra A."""
        if "algebra" not in self._derived:
            self._derived["algebra"] = generate_star_algebra(
                self.algebra_generators, True, self.tol
            )
        return self._derived["algebra"]

    def algebra_basis(self):
        return self.algebra().basis_matrices()

    @property
    def is_even(self):
        """Grading present and satisfying every grading axiom."""
        return self.grading is not None and bool(self.grading_commutes_algebra)


def one_forms(t):
    """Omega^1_D(A) = span{a [D, b]}, spun as the left A-module generated by
    the [D, b], b over A's basis: A is unital and every a is a word in A's
    generators, so spinning under the generators reaches every a [D, b]."""
    if "one_forms" not in t._derived:
        basis = t.algebra_basis()
        seeds = span(t.dirac @ basis - basis @ t.dirac, t.tol, t.hilbert_dim)
        mult = t.algebra().generators
        t._derived["one_forms"] = spin(seeds, mult, t.tol)
    return t._derived["one_forms"]


def _leibniz_generators(t):
    """The generators g of A and the commutators [D, g]."""
    return t.algebra_generators + [commutator(t.dirac, g) for g in t.algebra_generators]


def clifford(t):
    """Cl_D(A): the *-algebra generated by A and the one-forms.

    Closed over g and [D, g] alone: by the Leibniz rule [D, g_1 g_2] =
    [D, g_1] g_2 + g_1 [D, g_2], a one-form a[D, b] expands into words in g
    and [D, g], which spinning reaches (``generate_star_algebra``), and
    [D, g] = 1 [D, g] is itself a one-form.
    """
    if "clifford" not in t._derived:
        t._derived["clifford"] = generate_star_algebra(_leibniz_generators(t), True, t.tol)
    return t._derived["clifford"]


def clifford_gamma(t):
    """Cl^gamma_D(A): generated by Cl_D(A) and the grading, so, as in
    ``clifford``, closed over g, [D, g] and gamma."""
    if t.grading is None:
        raise TripleValidationError("grading_required", "clifford_gamma needs a grading")
    if "clifford_gamma" not in t._derived:
        gens = _leibniz_generators(t) + [t.grading]
        t._derived["clifford_gamma"] = generate_star_algebra(gens, True, t.tol)
    return t._derived["clifford_gamma"]


# -- order conditions ----------------------------------------------------


def _require_real(t):
    if t.real_structure is None:
        raise TripleValidationError("real_structure_required", "check needs J")
    return t.real_structure.j


def _order_family(t, family):
    if family == "basis":
        return list(t.algebra_basis())
    if family == "generators":
        return list(t.algebra_generators)
    return list(family)


def _order_check(name, left_list, right_list, tol):
    first = None
    worst = 0.0
    violations = 0
    for i, x in enumerate(left_list):
        for jdx, y in enumerate(right_list):
            c = commutator(x, y)
            if np.linalg.norm(c) <= tol:  # the Frobenius norm bounds opnorm
                continue
            nrm = opnorm(c)
            if nrm > tol:
                violations += 1
                worst = max(worst, nrm)
                if first is None:
                    first = Witness((i, jdx), c, nrm)
    details = {"pairs": len(left_list) * len(right_list)}
    if first is None:
        return ConditionReport(name, True, None, details)
    details.update({"violations": violations, "max_norm": worst})
    return ConditionReport(name, False, first, details)


def check_order_zero(t, tol=None, family="basis"):
    """[a, b°] = 0 for a, b over the algebra basis."""
    j = _require_real(t)
    tol = t.tol if tol is None else tol
    fam = _order_family(t, family)
    rights = [circ(j, b) for b in fam]
    return _order_check("order_zero", fam, rights, tol)


def check_order_one(t, tol=None, family="basis"):
    """[[D, a], b°] = 0."""
    j = _require_real(t)
    tol = t.tol if tol is None else tol
    fam = _order_family(t, family)
    lefts = [commutator(t.dirac, a) for a in fam]
    rights = [circ(j, b) for b in fam]
    return _order_check("order_one", lefts, rights, tol)


def check_order_two(t, tol=None, family="basis"):
    """[[D, a], [D, b]°] = 0 -- the second-order condition."""
    j = _require_real(t)
    tol = t.tol if tol is None else tol
    fam = _order_family(t, family)
    lefts = [commutator(t.dirac, a) for a in fam]
    rights = [circ(j, commutator(t.dirac, b)) for b in fam]
    return _order_check("order_two", lefts, rights, tol)


# -- KO signs ------------------------------------------------------------


@dataclass
class SignResult:
    """One sign of the real-structure relations: +1, -1, or undefined.

    ``degenerate`` marks the case where both signs register (e.g. D = 0).
    """

    value: int | None
    degenerate: bool
    residual_plus: float
    residual_minus: float
    report: ConditionReport


def _sign_from_residuals(name, rp, rm, scale, tol):
    reg_p = rp <= tol * scale
    reg_m = rm <= tol * scale
    if reg_p and reg_m:
        return SignResult(None, True, rp, rm, ConditionReport(
            name, False, None,
            {"value": None, "degenerate": True, "residual_plus": rp, "residual_minus": rm}))
    if reg_p or reg_m:
        v = 1 if reg_p else -1
        return SignResult(v, False, rp, rm, ConditionReport(
            name, True, None,
            {"value": v, "residual_plus": rp, "residual_minus": rm}))
    return SignResult(None, False, rp, rm, ConditionReport(
        name, False, Witness(None, None, min(rp, rm)),
        {"value": None, "residual_plus": rp, "residual_minus": rm}))


@dataclass
class SignTriple:
    eps: SignResult
    eps_prime: SignResult
    eps_double_prime: SignResult | None
    twisted: bool

    def tuple(self):
        e = self.eps.value
        ep = self.eps_prime.value
        epp = self.eps_double_prime.value if self.eps_double_prime else None
        return e, ep, epp

    def reports(self):
        out = [self.eps.report, self.eps_prime.report]
        if self.eps_double_prime is not None:
            out.append(self.eps_double_prime.report)
        return out


def check_signs(t, tol=None):
    """Detect (eps, eps', eps'') from J^2, JD vs DJ (twisted when tau is
    present), and J gamma vs gamma J.

    A sign registers when the defect norm is <= tol * (1 + |D|); if both
    signs register the result is flagged degenerate.
    """
    j = _require_real(t)
    tol = t.tol if tol is None else tol
    n = t.hilbert_dim
    k = j.kernel
    d = t.dirac
    j2 = j.squared()
    eye = np.eye(n)
    eps = _sign_from_residuals("sign_eps", opnorm(j2 - eye), opnorm(j2 + eye), 1.0, tol)

    scale = 1.0 + opnorm(d)
    tau = t.real_structure.twist
    if tau is None:
        # JD = eps' DJ  <=>  K conj(D) = eps' D K
        lhs = k @ np.conj(d)
        rhs = d @ k
        name = "sign_eps_prime"
    else:
        # tau J D = eps' D J tau  <=>  tau K conj(D) = eps' D K conj(tau)
        lhs = tau @ k @ np.conj(d)
        rhs = d @ k @ np.conj(tau)
        name = "sign_eps_prime_twisted"
    eps_prime = _sign_from_residuals(name, opnorm(lhs - rhs), opnorm(lhs + rhs), scale, tol)

    eps_dp = None
    if t.grading is not None:
        g = t.grading
        lhs = k @ np.conj(g)
        rhs = g @ k
        eps_dp = _sign_from_residuals(
            "sign_eps_double_prime", opnorm(lhs - rhs), opnorm(lhs + rhs), 1.0, tol
        )
    return SignTriple(eps, eps_prime, eps_dp, tau is not None)


# KO-dimension table: per even column the two admissible (eps, eps', eps'')
# choices (two J's related by the grading); odd columns carry (eps, eps').
KO_TABLE_EVEN = {
    0: ((1, 1, 1), (1, -1, 1)),
    2: ((-1, 1, -1), (1, -1, 1)),
    4: ((-1, 1, 1), (-1, -1, 1)),
    6: ((1, 1, -1), (-1, -1, -1)),
}
KO_TABLE_ODD = {1: (1, -1), 3: (-1, 1), 5: (-1, -1), 7: (1, 1)}


def ko_dimensions(eps, eps_prime, eps_double_prime=None):
    """All KO-dimension residues mod 8 whose sign lists match the tuple.

    Returns a set: even columns admit two sign choices and several tuples
    match more than one column.
    """
    if eps is None or eps_prime is None:
        raise ValueError("ko_dimensions requires defined signs")
    out = set()
    if eps_double_prime is None:
        for dim, pair in KO_TABLE_ODD.items():
            if pair == (eps, eps_prime):
                out.add(dim)
    else:
        want = (eps, eps_prime, eps_double_prime)
        for dim, choices in KO_TABLE_EVEN.items():
            if want in choices:
                out.add(dim)
    return out


# -- equivalences (4) and (5) ---------------------------------------------


def clifford_circ_in_commutant(t, b, tol=None):
    """Cl_D(A)° subset of B' for a unital *-algebra B on H: with B = A the
    condition equivalent to orders 0 and 1 (4), with B = Cl_D(A) the one
    equivalent to all three orders (5).

    Decided on generators: B' contains Cl° iff it contains the circ images
    of Cl's generating span, and x lies in B' iff it commutes with B's.
    Returns (holds, worst), worst the largest commutator norm of the first
    failing image against B's generators, 0.0 when the inclusion holds.
    """
    j = _require_real(t)
    tol = t.tol if tol is None else tol
    if len(b.generators) == 0:  # B is the scalars
        return True, 0.0
    for g in clifford(t).generators:
        ok, worst = commutes_with_all(circ(j, g), b.generators, tol)
        if not ok:
            return False, worst
    return True, 0.0
