import numpy as np
import pytest

from nccheck import torus
from nccheck.numlin import PAULI
from nccheck.torus import (
    MIN_BAND,
    TORUS_EXPECTED,
    BandOp,
    TorusVector,
    _adjoint_identity,
    _difference_report,
    _order_commutators,
    _sign_identity,
    commutator_op,
    default_prop12_unitaries,
    dirac_op,
    grading_op,
    identity_op,
    j0_op,
    j1_op,
    j2_op,
    ju_op,
    left_mult,
    monomial_chain_boundary,
    multiplier_family,
    op_matrix,
    operator_identity,
    operators_equal,
    right_mult,
    run_torus_suite,
    scalar_family,
    tau_of_poly,
    tau_u_op,
    torus_hochschild_check,
    torus_hochschild_cycle,
    trig_adjoint,
    trig_monomial,
    trig_mult,
    twist_op,
    zero_op,
)

S0, S1, S2, S3 = PAULI
BAND = 3


@pytest.fixture(scope="module")
def suite():
    return {r.name: r for r in run_torus_suite(BAND)}


def test_band_too_small_rejected():
    with pytest.raises(ValueError):
        run_torus_suite(MIN_BAND - 1)


def test_dirac_examples():
    d = dirac_op()
    const = trig_monomial((0, 0), S0, band=BAND)
    assert d(const).norm() < 1e-15  # derivatives of constants vanish
    u = trig_monomial((1, 0), S0, band=BAND)
    out = d(u)
    want = trig_monomial((1, 0), -S1, band=BAND)
    assert (out - want).norm() < 1e-15


def test_dirac_self_adjoint_random():
    rng = np.random.default_rng(0)
    d = dirac_op()
    for _ in range(5):
        v = TorusVector(BAND, rng.standard_normal((7, 7, 2, 2)) + 1j * rng.standard_normal((7, 7, 2, 2)))
        w = TorusVector(BAND, rng.standard_normal((7, 7, 2, 2)) + 1j * rng.standard_normal((7, 7, 2, 2)))
        assert abs(d(v).inner(w) - v.inner(d(w))) < 1e-12


def test_left_mult_identity_and_band_growth():
    ident = left_mult(trig_monomial((0, 0), S0))
    rng = np.random.default_rng(1)
    v = TorusVector(2, rng.standard_normal((5, 5, 2, 2)) + 0j)
    assert (ident(v) - v.pad(2)).norm() < 1e-15
    u = left_mult(trig_monomial((1, 0), S0))
    assert u(v).band == 3  # band grows by the multiplier degree


def test_generator_commutator_identities(suite):
    assert suite["generator_sigma1_from_u"].holds  # -u*[D,u] = L_sigma1
    assert suite["generator_sigma2_from_v"].holds  # -v*[D,v] = L_sigma2


def test_reality_entry_formulas_on_constants():
    m = np.array([[1.0, 2.0j], [3.0, 4.0 - 1j]])
    v = trig_monomial((0, 0), m)
    out1 = j1_op()(v).coeffs[0, 0]
    want1 = np.array([[np.conj(m[1, 1]), np.conj(m[1, 0])],
                      [np.conj(m[0, 1]), np.conj(m[0, 0])]])
    assert np.abs(out1 - want1).max() < 1e-15
    out2 = j2_op()(v).coeffs[0, 0]
    assert np.abs(out2 - m.conj().T).max() < 1e-15
    # tau swaps the diagonal
    outt = twist_op()(v).coeffs[0, 0]
    want_t = np.array([[m[1, 1], m[0, 1]], [m[1, 0], m[0, 0]]])
    assert np.abs(outt - want_t).max() < 1e-15
    # tau on the matrix unit E11 gives E22
    e11 = trig_monomial((0, 0), np.diag([1.0, 0.0]))
    oute = twist_op()(e11).coeffs[0, 0]
    assert np.abs(oute - np.diag([0.0, 1.0])).max() < 1e-15


def test_j_involutions_on_random_band3():
    rng = np.random.default_rng(2)
    arr = rng.standard_normal((7, 7, 2, 2)) + 1j * rng.standard_normal((7, 7, 2, 2))
    v = TorusVector(3, arr)
    for op in (j0_op(), j1_op(), j2_op()):
        assert (op(op(v)) - v).norm() < 1e-12


def test_operator_identity_witness_for_j2_dirac():
    # -J2 D J2 equals R_sigma1 i d/dx + R_sigma2 i d/dy, not +-D
    d = dirac_op()
    j2 = j2_op()
    conj = (-1.0) * (j2 @ d @ j2)

    def rhs_fn(arr, band):
        modes = np.arange(-band, band + 1)
        out = np.einsum("...mnij,mnjk->...mnik", arr,
                        -(modes[:, None, None, None] * S1[None, None]
                          + modes[None, :, None, None] * S2[None, None]))
        return out

    rhs = BandOp(0, rhs_fn, label="R-form")
    assert operators_equal(conj, rhs, BAND)
    rep_plus = operator_identity(conj, d, BAND)
    rep_minus = operator_identity(conj, (-1.0) * d, BAND)
    assert not rep_plus.holds and not rep_minus.holds
    assert rep_plus.witness.norm > 1.0


def test_trig_mult_and_adjoint():
    u = trig_monomial((1, 0), S0)
    ustar = trig_adjoint(u)
    prod = trig_mult(ustar, u)
    ref = trig_monomial((0, 0), S0, band=prod.band)
    assert (prod - ref).norm() < 1e-15


def test_tau_poly_compat_and_ju_validation():
    theta = np.pi / 5
    u = trig_monomial((0, 0), np.diag([np.exp(1j * theta), np.exp(-1j * theta)]))
    assert (tau_of_poly(u) - trig_adjoint(u)).norm() < 1e-15
    ju_op(u)  # constructs fine
    bad = trig_monomial((0, 0), np.diag([np.exp(1j * theta), np.exp(1j * theta)]))
    with pytest.raises(ValueError):
        tau_u_op(bad)  # tau(U) != U^*
    with pytest.raises(ValueError):
        ju_op(trig_monomial((0, 0), np.diag([2.0, 0.5]).astype(complex)))


def test_suite_matches_expected_verdicts(suite):
    for name, want in TORUS_EXPECTED.items():
        assert name in suite, f"missing check {name}"
        assert suite[name].holds == want, f"{name}: {suite[name].details}"


def test_j1_second_order_witness_norm_two(suite):
    rep = suite["j1_order_two"]
    assert not rep.holds
    (ia, la), (jb, lb) = rep.witness.indices
    assert (la, lb) == ("u^1v^0", "u^0v^1")
    assert abs(rep.witness.norm - 2.0) <= 1e-9


@pytest.mark.parametrize("band", [3, 4])
def test_j1_second_order_witness_is_exact(band):
    # [[D, L_u], J1(-[D, L_{v*}])J1] = 2i L_{sigma3 uv}, a unitary times 2
    d = dirac_op()
    j1 = j1_op()
    u = trig_monomial((1, 0), S0)
    v_star = trig_adjoint(trig_monomial((0, 1), S0))
    circ = j1 @ ((-1.0) * commutator_op(d, left_mult(v_star))) @ j1
    lhs = commutator_op(commutator_op(d, left_mult(u)), circ)
    rhs = 2j * left_mult(trig_monomial((1, 1), S3))
    assert operator_identity(lhs, rhs, band).holds


def test_sign_values(suite):
    assert suite["sign_eps_j1"].details["value"] == 1
    assert suite["sign_eps_prime_j1"].details["value"] == -1
    assert suite["sign_eps_double_prime_j1"].details["value"] == 1
    assert suite["ko_j1_contains_0"].details["ko_set"] == [0, 2]
    assert suite["sign_eps_prime_j2_untwisted"].details["value"] is None
    assert suite["sign_eps_prime_j2_twisted"].details["value"] == -1


def test_hochschild_cycle_exact():
    boundary = monomial_chain_boundary(torus_hochschild_cycle())
    assert all(abs(c) < 1e-15 for c in boundary.values())
    brep, hrep = torus_hochschild_check(BAND)
    assert brep.holds and hrep.holds
    assert brep.details["boundary_norm"] <= 1e-12


def test_band_exactness_of_suite_verdicts(suite):
    other = {r.name: r.holds for r in run_torus_suite(4)}
    for name, rep in suite.items():
        assert other[name] == rep.holds


def test_band_exactness_randomized_identities():
    # identity verdicts (true and false alike) are independent of the band
    rng = np.random.default_rng(3)
    j2 = j2_op()
    for k in range(100):
        mode = (int(rng.integers(-1, 2)), int(rng.integers(-1, 2)))
        mat = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        f = trig_monomial(mode, mat)
        fstar = trig_adjoint(f)
        if k % 2 == 0:
            lhs, rhs = j2 @ left_mult(f) @ j2, right_mult(fstar)  # true identity
        else:
            g = trig_monomial(mode, mat + np.eye(2))
            lhs, rhs = left_mult(f), left_mult(g)  # false identity
        v3 = operators_equal(lhs, rhs, 3)
        v4 = operators_equal(lhs, rhs, 4)
        assert v3 == v4
        assert v3 == (k % 2 == 0)


def test_scalar_family_order():
    fam = scalar_family()
    assert [lbl for lbl, _ in fam][:3] == ["u^0v^0", "u^1v^0", "u^0v^1"]


# -- probe evaluation against the identity stack -------------------------------


def _identity_stack_matrix(op, band, out_band=None):
    """Reference for op_matrix: the operator applied to every basis vector of
    H_band, with the images padded to ``out_band``."""
    w = 2 * band + 1
    dim = w * w * 4
    img, lb = op.apply(np.eye(dim, dtype=complex).reshape(dim, w, w, 2, 2), band)
    return _pad_rows(img.reshape(dim, -1).T, lb, lb if out_band is None else out_band)


def _pad_rows(mat, band, out_band):
    """A matrix with rows at ``band`` re-laid out at the larger ``out_band``."""
    d = out_band - band
    w, wo = 2 * band + 1, 2 * out_band + 1
    full = np.zeros((mat.shape[1], wo, wo, 2, 2), dtype=complex)
    full[:, d : d + w, d : d + w] = mat.T.reshape(-1, w, w, 2, 2)
    return full.reshape(mat.shape[1], -1).T


def _random_multiplier(rng, band):
    shape = (2 * band + 1, 2 * band + 1, 2, 2)
    return TorusVector(band, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _probe_cases():
    """Primitives, multipliers, compositions and order-condition commutators,
    with both orientations, several degrees and inexact entries."""
    d, gam, tau = dirac_op(), grading_op(), twist_op()
    j0, j1, j2 = j0_op(), j1_op(), j2_op()
    rng = np.random.default_rng(10)
    unitaries = dict(default_prop12_unitaries())
    mults = list(unitaries.values())
    mults += [dict(multiplier_family())["mix"], _random_multiplier(rng, 1), _random_multiplier(rng, 2)]
    cases = [d, gam, j0, j1, j2, tau]
    cases += [op(f) for f in mults for op in (left_mult, right_mult)]
    lf, rg = left_mult(mults[-2]), right_mult(mults[-1])
    ju = ju_op(unitaries["offband"])
    cases += [
        j1 @ lf @ j2,
        d @ rg @ j0,
        ju @ d @ tau_u_op(unitaries["diag"]),
        lf @ d - 0.5j * (d @ lf),
        commutator_op(gam, rg),
    ]
    # the commutators of the suite's order conditions: orders 0, 1 and 2 for
    # J1 and J2, order 2 for J_U with a degree-carrying U on its trimmed family
    fam = scalar_family()
    for order, j, family in [(o, j, fam) for j in (j1, j2) for o in (0, 1, 2)] + [(2, ju, fam[:3])]:
        cases += [comm for _, _, comm in _order_commutators(order, d, j, family)]
    return cases


@pytest.mark.parametrize("band", [3, 4, 5])
def test_probe_matrices_equal_identity_stack(band):
    for op in _probe_cases():
        ref = _identity_stack_matrix(op, band)
        assert np.array_equal(op_matrix(op, band), ref), op.label
        grown = band + op.degree + 2
        ref = _pad_rows(ref, band + op.degree, grown)
        assert np.array_equal(op_matrix(op, band, grown), ref), op.label


@pytest.mark.parametrize("band", [3, 4])
def test_probe_identity_matches_dense_route(band):
    d, j1, j2 = dirac_op(), j1_op(), j2_op()
    rng = np.random.default_rng(11)
    f, g = _random_multiplier(rng, 1), _random_multiplier(rng, 2)
    j1_second_order = [c for _, _, c in _order_commutators(2, d, j1, scalar_family())]
    pairs = [
        (j2 @ d, d @ j2),
        (left_mult(f), right_mult(f)),
        (left_mult(f) @ j1, j1 @ left_mult(g)),
        (j1_second_order[7], zero_op(j1_second_order[7].degree)),
        # holds with rounding residuals, and exactly
        (left_mult(g) @ left_mult(f), left_mult(trig_mult(g, f))),
        (j1_second_order[0], zero_op(j1_second_order[0].degree)),
    ]
    for lhs, rhs in pairs:
        out_band = band + max(lhs.degree, rhs.degree)
        dense = _difference_report(
            "x",
            _identity_stack_matrix(lhs, band, out_band) - _identity_stack_matrix(rhs, band, out_band),
            band,
            1e-9,
        )
        got = operator_identity(lhs, rhs, band, name="x")
        assert got.holds == dense.holds
        assert got.details == dense.details
        if not dense.holds:
            assert got.witness.indices == dense.witness.indices
            assert got.witness.norm == dense.witness.norm
    verdicts = [operator_identity(lhs, rhs, band) for lhs, rhs in pairs]
    assert [r.holds for r in verdicts] == [False] * 4 + [True] * 2
    assert verdicts[4].details["max_basis_residual"] > 0
    assert verdicts[5].details["max_basis_residual"] == 0

    # signs, decided on the windows of lhs -+ rhs, against the dense differences
    gam, tau = grading_op(), twist_op()
    values = []
    for lhs, rhs in [(j1 @ j1, identity_op()), (j1 @ d, d @ j1), (j2 @ d, d @ j2), (tau @ j2 @ d, d @ j2 @ tau)]:
        out_band = band + max(lhs.degree, rhs.degree)
        la, ra = (_identity_stack_matrix(op, band, out_band) for op in (lhs, rhs))
        plus, minus = (_difference_report("x", m, band, 1e-9) for m in (la - ra, la + ra))
        value, rep = _sign_identity("x", lhs, rhs, band, 1e-9)
        assert value == (None if plus.holds == minus.holds else 1 if plus.holds else -1)
        assert rep.details.get("degenerate", False) == (plus.holds and minus.holds)
        residual = None if plus.holds or minus.holds else min(plus.witness.norm, minus.witness.norm)
        assert rep.details.get("residual") == residual
        values.append(value)
    assert values == [1, -1, None, -1]

    # adjoints, from the degree-0 windows, against the identity embedding
    f0, g0 = _random_multiplier(rng, 0), _random_multiplier(rng, 0)
    embed = _identity_stack_matrix(identity_op(), band)
    holds = []
    for op, adj in [(gam, gam), (d, d), (left_mult(f0), left_mult(trig_adjoint(f0))), (left_mult(f0), left_mult(g0))]:
        la, ra = (_identity_stack_matrix(x, band) for x in (op, adj))
        rep = _adjoint_identity("x", op, adj, band, 1e-9)
        assert rep.details["defect"] == float(np.abs(la.conj().T @ embed - embed.conj().T @ ra).max())
        holds.append(rep.holds)
    assert holds == [True, True, True, False]
    with pytest.raises(ValueError):
        _adjoint_identity("x", left_mult(f), left_mult(trig_adjoint(f)), band, 1e-9)


def test_suite_builds_dense_matrices_only_for_printed_numbers(monkeypatch):
    # the first j1_order_two violation, the conj-grading commutator norm and
    # both differences of the untwisted J2 sign; every verdict is decided on
    # the probe windows
    calls, real = [], torus._scatter

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    def never(*args, **kwargs):
        raise AssertionError("op_matrix was called")

    monkeypatch.setattr(torus, "_scatter", counting)
    monkeypatch.setattr(torus, "op_matrix", never)
    reports = run_torus_suite(3)
    assert len(calls) == 4
    assert {r.name: r.holds for r in reports} == TORUS_EXPECTED



def test_mixed_linearity_rejected():
    d, j1 = dirac_op(), j1_op()
    with pytest.raises(ValueError):
        d + j1
    with pytest.raises(ValueError):
        operator_identity(d, j1, 3)
