"""The side of the 2-cocycle identity in ``verify_twist``.

``apply_twist`` twists by J Delta J^-1, for which the identity is
(J x 1)(Delta x id)(J) = (1 x J)(id x Delta)(J).  The R-matrix of a
quasitriangular Hopf algebra is such a twist, with Delta^R = Delta^cop;
its inverse is one only for the mirrored convention J^-1 Delta J, so
the two tell the sides apart on any non-cocommutative double."""

import pytest

from hopfkit import (
    TensorSquareElement,
    apply_twist,
    drinfeld_double,
    taft,
    tensor_hopf,
    verify_hopf,
    verify_twist,
)
from hopfkit.fields import CyclotomicField
from hopfkit.hopf import op_cop
from hopfkit.qt import double_base_projection, double_projection
from hopfkit.splitting import theorem_twist


@pytest.fixture(scope="module")
def double_taft3_cyc3():
    return drinfeld_double(taft(CyclotomicField(3), 3, "z"))


def _flipped_comul(H):
    return {(i, k, j): v for (i, j, k), v in H.comul.entries.items()}


def test_r_is_a_twist_onto_the_coopposite_double_h4(double_h4):
    D = double_h4.hopf
    tw = verify_twist(D, double_h4.R)
    assert tw.verified, tw.report.first_failure()
    HJ, _ = apply_twist(D, tw)
    cop, _rep, _repaired = op_cop(D, "cop")
    assert HJ.comul == cop.comul
    assert HJ.comul != D.comul
    assert verify_hopf(HJ).ok


def test_r_inverse_is_rejected_double_h4(double_h4):
    tw = verify_twist(double_h4.hopf, double_h4.R_inv)
    assert not tw.verified
    assert [c.name for c in tw.report.checks if not c.ok] == ["2-cocycle identity"]


def test_r_is_a_twist_onto_the_coopposite_double_taft3(double_taft3_cyc3):
    D = double_taft3_cyc3.hopf
    assert D.dim == 81
    tw = verify_twist(D, double_taft3_cyc3.R, inverse_candidates=[double_taft3_cyc3.R_inv])
    assert tw.verified, tw.report.first_failure()
    HJ, _ = apply_twist(D, tw)
    # the coopposite of a Hopf algebra with invertible antipode is a Hopf
    # algebra with antipode S^-1; the full axiom run is the D(H4) test's
    assert HJ.comul.entries == _flipped_comul(D)
    assert HJ.antipode == D.antipode.inverse()


def test_r_inverse_is_rejected_double_taft3(double_taft3_cyc3):
    tw = verify_twist(double_taft3_cyc3.hopf, double_taft3_cyc3.R_inv,
                      inverse_candidates=[double_taft3_cyc3.R])
    assert not tw.verified
    assert [c.name for c in tw.report.checks if not c.ok] == ["2-cocycle identity"]


def test_theorem_twist_on_the_factors_of_double_of_double_h4(double_h4):
    # T = K1 (x) K2 for the two projections of D(D(H4)) onto K = D(H4) that
    # double_splitting uses; J verifies, and J^-1 fails only the identity
    DQ = drinfeld_double(double_h4.hopf)
    assert DQ.hopf.dim == 256
    K = double_h4.hopf
    pi1 = double_base_projection(DQ, double_h4)
    pi2 = double_projection(DQ.hopf, K, double_h4.R.to_matrix().rows)
    T = tensor_hopf(K, K)
    tw = theorem_twist(T, DQ, pi1, pi2)
    assert tw.verified, tw.report.first_failure()
    inv = verify_twist(T, tw.J_inv, inverse_candidates=[tw.J])
    assert not inv.verified
    assert [c.name for c in inv.report.checks if not c.ok] == ["2-cocycle identity"]


def _round_trip(D, R, R_inv):
    """D twisted by its R and back by the verified inverse twist."""
    tw = verify_twist(D, R, inverse_candidates=[R_inv])
    assert tw.verified, tw.report.first_failure()
    HJ, _ = apply_twist(D, tw)
    assert HJ.comul != D.comul
    back = verify_twist(HJ, TensorSquareElement(HJ, tw.J_inv.coeffs),
                        inverse_candidates=[TensorSquareElement(HJ, R.coeffs)])
    assert back.verified, back.report.first_failure()
    H2, _ = apply_twist(HJ, back)
    return H2


def test_r_twist_round_trip_restores_the_coproduct_double_h4(double_h4):
    D = double_h4.hopf
    assert _round_trip(D, double_h4.R, double_h4.R_inv).comul == D.comul


def test_r_twist_round_trip_restores_the_coproduct_double_taft3(double_taft3_cyc3):
    D = double_taft3_cyc3.hopf
    assert _round_trip(D, double_taft3_cyc3.R, double_taft3_cyc3.R_inv).comul == D.comul
