import numpy as np
import pytest

from nccheck.numlin import PAULI
from nccheck.torus import (
    MIN_BAND,
    TORUS_EXPECTED,
    BandOp,
    TorusVector,
    commutator_op,
    dirac_op,
    grading_op,
    identity_op,
    j0_op,
    j1_op,
    j2_op,
    ju_op,
    left_mult,
    monomial_chain_boundary,
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
    assert len(scalar_family(extended=True)) == 9
