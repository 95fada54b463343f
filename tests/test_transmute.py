from fractions import Fraction

import pytest

from hopfkit import (
    HopfMorphism,
    PreconditionError,
    TensorSquareElement,
    braided_dual,
    check_braided_projection,
    tensor_hopf,
    tensor_qt,
    transmute,
    verify_rmatrix,
)
from hopfkit.fields import Rationals
from hopfkit.linalg import Matrix
from hopfkit.qt import braided_coinvariants, componentwise_r, double_base_projection
from hopfkit.hopf import coinvariants

QQ = Rationals()


def _first_factor_projection(T, A, B):
    f = T.field
    P = Matrix.zeros(f, A.dim, T.dim)
    for i in range(A.dim):
        for j in range(B.dim):
            P.rows[i][i * B.dim + j] = B.counit[j]
    m = HopfMorphism(T, A, P)
    assert m.verify().ok
    return m


def test_transmute_trivial_input_is_identity(kz2):
    q = verify_rmatrix(kz2, TensorSquareElement.unit(kz2))
    bd = transmute(q)
    assert bd.report.ok
    assert bd.braided_comul == kz2.comul
    assert bd.braided_antipode == kz2.antipode


def test_transmute_sweedler_changes_coproduct(h4, h4_r0):
    bd = transmute(h4_r0)
    assert bd.report.ok
    # braided Delta(x) = x (x) a + a (x) x, different from the ordinary one
    entries = sorted(bd.braided_comul.first_index().get(2, []))
    assert entries == [(1, 2, Fraction(1)), (2, 1, Fraction(1))]
    assert bd.braided_comul != h4.comul


def test_transmute_full_family(h4, h4_rfamily):
    for R in h4_rfamily[:4]:
        q = verify_rmatrix(h4, R)
        bd = transmute(q)
        assert bd.report.ok


def test_transmuted_coinvariants_match_ordinary(split_input):
    Q, pi = split_input
    bd = transmute(Q)
    assert bd.report.ok
    underline = braided_coinvariants(bd, pi)
    ordinary = coinvariants(Q.hopf, pi, "right")
    assert underline == ordinary


def test_transmute_quotient_version(split_input):
    Q, pi = split_input
    bk = transmute(Q, pi)
    assert bk.report.ok
    assert bk.hopf.dim == 4


def test_braided_projection_compatibility(split_input):
    Q, pi = split_input
    rep = check_braided_projection(Q, pi)
    assert rep.ok


def test_braided_projection_identity(double_kz2):
    from hopfkit.hopf import identity_morphism

    pi = identity_morphism(double_kz2.hopf)
    pi.verify()
    rep = check_braided_projection(double_kz2, pi)
    assert rep.ok


def test_braided_projection_onto_the_base_of_double_h4(double_h4, h4_r_fullrank):
    # neither the identity nor onto a commutative target
    pi = double_base_projection(double_h4, h4_r_fullrank)
    assert not pi.target.algebra.is_commutative()
    rep = check_braided_projection(double_h4, pi)
    assert rep.ok, rep.first_failure()
    assert len(rep.checks) == 3


def test_braided_projection_rejects_an_unverified_r(h4, kz2, h4_r_fullrank):
    # R2 = 1 (x) g is not an R-matrix on kZ2, but (eps x eps)(R2) = 1, so
    # the R pushed onto H4 verifies and only the R on H4 (x) kZ2 is at fault
    T = tensor_hopf(h4, kz2)
    r2 = TensorSquareElement(kz2, {(0, 1): QQ.one})
    Q = verify_rmatrix(T, componentwise_r(T, h4_r_fullrank.R, r2))
    assert not Q.verified
    with pytest.raises(PreconditionError, match="not verified"):
        check_braided_projection(Q, _first_factor_projection(T, h4, kz2))


def test_braided_projection_detects_corruption(split_input):
    Q, pi = split_input
    f = Q.hopf.field
    bad = Matrix(f, [list(r) for r in pi.matrix.rows])
    bad.rows[1][2] = f.add(bad.rows[1][2], f.one)
    bad_pi = HopfMorphism(Q.hopf, pi.target, bad)
    with pytest.raises(PreconditionError):
        check_braided_projection(Q, bad_pi)


def test_braided_dual_trivial_r_is_ordinary_dual(kz2):
    q = verify_rmatrix(kz2, TensorSquareElement.unit(kz2))
    bd = braided_dual(q)
    assert bd.report.ok
    # with R = 1 (x) 1 the braided product is the ordinary dual product
    f = kz2.field
    for a in range(2):
        for b in range(2):
            expected = {
                c: kz2.comul.get(c, a, b)
                for c in range(2)
                if not f.is_zero(kz2.comul.get(c, a, b))
            }
            got = {
                k: v for (k, v) in bd.product.pair_index().get((a, b), [])
            }
            assert got == expected


def test_braided_dual_nontrivial(kz2, kz2_rfamily):
    nontrivial = [R for R in kz2_rfamily if len(R.coeffs) == 4][0]
    q = verify_rmatrix(kz2, nontrivial)
    bd = braided_dual(q)
    assert bd.report.ok


def test_braided_dual_pairing_map_checks_on_double(double_kz2):
    bd = braided_dual(double_kz2)
    assert bd.report.ok
    names = {c.name for c in bd.report.checks}
    assert "pairing map is multiplicative for the braided product" in names
    assert "pairing map intertwines the coproducts" in names


def test_braided_dual_sweedler(h4_r_fullrank):
    bd = braided_dual(h4_r_fullrank)
    assert bd.report.ok
