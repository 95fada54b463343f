from fractions import Fraction

import pytest

import oracle
from hopfkit import (
    HopfMorphism,
    TensorSquareElement,
    apply_twist,
    drinfeld_double,
    dual_hopf,
    is_factorizable,
    lr_maps,
    monodromy,
    phi_maps,
    ribbon_check,
    tensor_qt,
    verify_hopf,
    verify_rmatrix,
    verify_twist,
)
from hopfkit.errors import PreconditionError, UsageError
from hopfkit.fields import PrimeField, Rationals
from hopfkit.hopf import is_normal_left_coideal_subalgebra, tt_mul, tt_flip
from hopfkit.linalg import Matrix, SparseMatrix
from hopfkit.qt import double_base_projection

QQ = Rationals()


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------

def test_unit_r_matrix_on_cocommutative(kz2, kz3, kz4, ks3_gf7):
    for H in (kz2, kz3, kz4, ks3_gf7):
        q = verify_rmatrix(H, TensorSquareElement.unit(H))
        assert q.verified and q.triangular


def test_unit_r_matrix_fails_on_noncocommutative(h4, taft37):
    for H in (h4, taft37):
        q = verify_rmatrix(H, TensorSquareElement.unit(H))
        assert not q.verified
        failed = {c.name for c in q.report.failures}
        assert "R Delta(h) = flipped-Delta(h) R" in failed


def test_kz2_derived_family(kz2, kz2_rfamily):
    assert len(kz2_rfamily) == 2  # the unit and the nontrivial one
    for R in kz2_rfamily:
        q = verify_rmatrix(kz2, R)
        assert q.verified and q.triangular


def test_sweedler_family_verifies(h4, h4_rfamily):
    assert len(h4_rfamily) >= 3
    for R in h4_rfamily:
        q = verify_rmatrix(h4, R)
        assert q.verified


def test_sweedler_corrupted_r_fails(h4):
    # flip the sign of the a (x) a coefficient of the triangular member
    R = TensorSquareElement.from_triples(
        h4, [[0, 0, "1/2"], [0, 1, "1/2"], [1, 0, "1/2"], [1, 1, "1/2"]]
    )
    q = verify_rmatrix(h4, R)
    assert not q.verified


def test_rmatrix_check_does_not_invert_the_antipode(double_kz3_gf7, monkeypatch):
    # (S x id)(R) is the inverse of every R-matrix, so S^-1 is never needed
    def no_inverse(self):
        raise AssertionError("SparseMatrix.inverse called")

    monkeypatch.setattr(SparseMatrix, "inverse", no_inverse)
    assert verify_rmatrix(double_kz3_gf7.hopf, double_kz3_gf7.R).verified


def test_non_invertible_r_gets_distinct_error(kz2):
    R = TensorSquareElement.from_triples(kz2, [[0, 0, "1"], [0, 1, "1"]])
    # (1 (x) (1 + g)) is a zero divisor in the group algebra square
    q = verify_rmatrix(kz2, R)
    assert not q.verified
    assert q.report.checks[0].name == "R is invertible"
    assert not q.report.checks[0].ok


def test_yang_baxter_derived(kz2_rfamily, kz2, h4_rfamily, h4, double_kz2):
    from hopfkit.hopf import t3_embed, t3_mul

    cases = [(kz2, R) for R in kz2_rfamily] + [(h4, R) for R in h4_rfamily[:3]]
    cases.append((double_kz2.hopf, double_kz2.R))
    for H, R in cases:
        f = H.field
        r12 = t3_embed(f, R.coeffs, (0, 1), H.unit)
        r13 = t3_embed(f, R.coeffs, (0, 2), H.unit)
        r23 = t3_embed(f, R.coeffs, (1, 2), H.unit)
        lhs = t3_mul(H, t3_mul(H, r12, r13), r23)
        rhs = t3_mul(H, t3_mul(H, r23, r13), r12)
        assert lhs == rhs


# ----------------------------------------------------------------------
# monodromy and the pairing maps
# ----------------------------------------------------------------------

def test_monodromy_of_triangular_is_unit(kz2, kz2_rfamily):
    for R in kz2_rfamily:
        q = verify_rmatrix(kz2, R)
        assert monodromy(q).is_unit_element()


def test_monodromy_rank_of_double(double_kz2):
    mono = monodromy(double_kz2)
    # oracle: flatten to a matrix and row-reduce with independent arithmetic
    raw = oracle.export_hopf(double_kz2.hopf)
    rows = [[Fraction(0)] * 4 for _ in range(4)]
    for (i, j), v in mono.coeffs.items():
        rows[i][j] = Fraction(v)
    assert oracle.rank(None, rows) == 4


def test_phi_rank_collapses_for_unit_r(kz2):
    q = verify_rmatrix(kz2, TensorSquareElement.unit(kz2))
    maps = phi_maps(q)
    assert maps.phi.rank() == 1
    assert not is_factorizable(q)


def test_is_factorizable_needs_a_verified_r(kz2):
    q = verify_rmatrix(kz2, TensorSquareElement(kz2, {}))
    assert not q.verified
    with pytest.raises(PreconditionError):
        is_factorizable(q)


def test_phi_full_rank_on_double(double_kz2):
    maps = phi_maps(double_kz2)
    assert maps.phi.rank() == 4
    assert is_factorizable(double_kz2)
    assert maps.normal.ok


def test_phi_rank_deficient_on_sweedler(h4, h4_rfamily):
    for R in h4_rfamily:
        q = verify_rmatrix(h4, R)
        assert phi_maps(q).phi.rank() < 4
        assert not is_factorizable(q)


def test_phi_flip_rank_agrees(h4_r_fullrank, double_kz2, double_h4):
    for q in (h4_r_fullrank, double_kz2, double_h4):
        maps = phi_maps(q)
        assert maps.phi.rank() == maps.phi_flip.rank()


def test_phi_image_is_normal_left_coideal_subalgebra(double_kz2, h4_r_fullrank, split_input):
    for q in (double_kz2, h4_r_fullrank, split_input[0]):
        assert phi_maps(q).normal.ok


def test_phi_image_with_projection_is_normal(split_input):
    Q, pi = split_input
    maps = phi_maps(Q, pi)
    assert maps.normal.ok
    assert is_normal_left_coideal_subalgebra(Q.hopf, maps.image).ok


def test_lr_rank_unit(kz2):
    q = verify_rmatrix(kz2, TensorSquareElement.unit(kz2))
    maps = lr_maps(q)
    assert maps.l.rank() == 1
    assert not maps.full_rank
    assert maps.self_test.ok


def test_lr_full_rank_on_derived_sweedler(h4_r_fullrank):
    maps = lr_maps(h4_r_fullrank)
    assert maps.full_rank
    assert maps.self_test.ok


def test_lr_double_not_full_rank_but_factorizable(double_kz2):
    # the canonical double R-matrix spans only one tensor leg, so the
    # first-leg pairing map has rank dim(K), not dim(D(K))
    maps = lr_maps(double_kz2)
    assert maps.l.rank() == 2
    assert not maps.full_rank
    assert maps.self_test.ok
    assert is_factorizable(double_kz2)


def test_lr_is_algebra_and_anticoalgebra_map(h4_r_fullrank):
    # l(f g) = l(f) l(g) with the dual product, and
    # Delta(l(f)) = (l (x) l)(flipped dual coproduct)
    q = h4_r_fullrank
    H = q.hopf
    f = H.field
    maps = lr_maps(q)
    d = H.dim
    for a in range(d):
        for b in range(d):
            prod = [f.zero] * d
            for c in range(d):
                val = H.comul.get(c, a, b)
                if not f.is_zero(val):
                    lc = maps.l.column(c)
                    for t in range(d):
                        prod[t] = f.add(prod[t], f.mul(val, lc[t]))
            assert prod == H.algebra.product(maps.l.column(a), maps.l.column(b))
    for a in range(d):
        lhs = H.comul_of(maps.l.column(a))
        rhs = {}
        for (u, v, c) in H.mul.third_index().get(a, []):
            from hopfkit.hopf import tt_outer, _put

            for key, val in tt_outer(H, maps.l.column(v), maps.l.column(u)).items():
                _put(f, rhs, key, f.mul(c, val))
        assert lhs == rhs


# ----------------------------------------------------------------------
# twists
# ----------------------------------------------------------------------

def test_unit_twist(kz2):
    tw = verify_twist(kz2, TensorSquareElement.unit(kz2))
    assert tw.verified


def test_corollary_twist_verifies(double_kz2):
    # J = sum (1 (x) R^i) (x) (R_i (x) 1) on K (x) K for K = D(kZ2)
    from hopfkit.splitting import double_splitting

    cert = double_splitting(double_kz2)
    assert cert.j.verified
    assert any("literal form" in c.name and c.ok for c in cert.checks.checks)


def test_twist_fails_normalization(kz2):
    T = verify_rmatrix(kz2, TensorSquareElement.unit(kz2))  # just for the host
    from hopfkit.hopf import tensor_hopf

    H = tensor_hopf(kz2, kz2)
    assert verify_hopf(H).ok
    # J = 1 (x) g for the group-like g = g1 (x) 1 at flat index 2
    J = TensorSquareElement.from_triples(H, [[0, 2, "1"]])
    tw = verify_twist(H, J)
    assert not tw.verified
    assert any(c.name == "(eps x id)(J) = 1" and not c.ok for c in tw.report.checks)


def test_identity_twist_leaves_structure(h4, h4_r0):
    tw = verify_twist(h4, TensorSquareElement.unit(h4))
    HJ, RJ = apply_twist(h4, tw, R=h4_r0.R)
    assert HJ.comul == h4.comul
    assert RJ == h4_r0.R


def test_triangular_r_is_a_twist_and_untwists(h4, h4_r0):
    # the group-supported triangular member is a twist; twisting by it and
    # then by its inverse restores the comultiplication
    tw = verify_twist(h4, h4_r0.R)
    assert tw.verified
    HJ, _ = apply_twist(h4, tw, R=None)
    assert verify_hopf(HJ).ok
    assert HJ.comul != h4.comul
    back = verify_twist(HJ, TensorSquareElement(HJ, tw.J_inv.coeffs))
    assert back.verified
    H2, _ = apply_twist(HJ, back)
    assert H2.comul == h4.comul


def test_twist_on_commutative_leaves_coproduct(kz2):
    from hopfkit.hopf import tensor_hopf

    H = tensor_hopf(kz2, kz2)
    # embed the nontrivial Z2 R-matrix along the first factor
    half = "1/2"
    J = TensorSquareElement.from_triples(
        H, [[0, 0, half], [0, 2, half], [2, 0, half], [2, 2, "-1/2"]]
    )
    tw = verify_twist(H, J)
    assert tw.verified
    HJ, _ = apply_twist(H, tw)
    assert HJ.comul == H.comul  # commutative host: conjugation is trivial


# ----------------------------------------------------------------------
# doubles
# ----------------------------------------------------------------------

def test_double_kz2(double_kz2):
    assert double_kz2.verified
    assert double_kz2.hopf.dim == 4
    assert is_factorizable(double_kz2)


def test_double_kz3(double_kz3_gf7):
    assert double_kz3_gf7.verified
    assert double_kz3_gf7.hopf.dim == 9
    assert is_factorizable(double_kz3_gf7)


def test_double_sweedler(double_h4):
    assert double_h4.verified
    assert double_h4.hopf.dim == 16
    assert is_factorizable(double_h4)


def test_double_needs_invertible_antipode(kz2):
    broken = Matrix.zeros(QQ, 2, 2)
    broken.rows[0][0] = QQ.one
    from hopfkit.hopf import HopfAlgebra

    H = HopfAlgebra(kz2.algebra, kz2.comul, list(kz2.counit), broken)
    with pytest.raises(UsageError):
        from hopfkit.qt import double_hopf

        double_hopf(H)


def test_double_base_projection_is_hopf_surjection(double_kz2, kz2):
    q = verify_rmatrix(kz2, TensorSquareElement.unit(kz2))
    # needs a factorizable base to be interesting; use D(kZ2) onto K = kZ2
    pi = double_base_projection(double_kz2, q)
    assert pi.verify().ok
    assert pi.is_surjective()


# ----------------------------------------------------------------------
# ribbon candidates
# ----------------------------------------------------------------------

def test_ribbon_unit_on_triangular(kz2, kz2_rfamily):
    for R in kz2_rfamily:
        q = verify_rmatrix(kz2, R)
        theta = list(kz2.unit)
        assert ribbon_check(q, theta).ok


def test_ribbon_grouplike_on_triangular_kz2(kz2, kz2_rfamily):
    # with a triangular structure the monodromy is trivial, so the
    # group-like g satisfies every ribbon condition exactly
    nontrivial = [R for R in kz2_rfamily if len(R.coeffs) == 4][0]
    q = verify_rmatrix(kz2, nontrivial)
    g = [QQ.zero, QQ.one]
    rep = ribbon_check(q, g)
    assert rep.ok


def test_ribbon_failures(h4, h4_r_fullrank):
    # a is not central in sweedler
    a = [QQ.zero, QQ.one, QQ.zero, QQ.zero]
    rep = ribbon_check(h4_r_fullrank, a)
    assert not rep.ok
    assert not rep.checks[0].ok  # centrality
    # counit normalization failure
    two = [Fraction(2), QQ.zero, QQ.zero, QQ.zero]
    rep = ribbon_check(h4_r_fullrank, two)
    assert not rep.checks[1].ok


# ----------------------------------------------------------------------
# tensor products of quasitriangular structures
# ----------------------------------------------------------------------

def test_tensor_qt(double_kz2, kz2):
    qz = verify_rmatrix(kz2, TensorSquareElement.unit(kz2))
    Q = tensor_qt(double_kz2, qz)
    assert Q.verified
    assert Q.hopf.dim == 8
    assert not Q.triangular
