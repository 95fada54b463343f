import json
from fractions import Fraction

import pytest

from hopfkit import (
    HopfMorphism,
    TensorSquareElement,
    double_splitting,
    dual_hopf,
    exact_factorization,
    extension_split,
    identity_morphism,
    mueger_quotient,
    split_via_factorizable,
    split_via_fullrank,
    tensor_hopf,
    tensor_qt,
    verify_certificate,
    verify_hopf,
    verify_rmatrix,
)
from hopfkit.errors import PreconditionError
from hopfkit.fields import PrimeField, Rationals
from hopfkit.hopf import find_hopf_isomorphism, grouplikes
from hopfkit.linalg import Matrix, Subspace
from hopfkit.report import certificate_from_json, certificate_to_json, dumps_stable

QQ = Rationals()


def _subspace(field, dim, indices):
    vecs = []
    for i in indices:
        v = [field.zero] * dim
        v[i] = field.one
        vecs.append(v)
    return Subspace(field, dim, vecs)


def _first_factor_projection(T, A, B):
    f = T.field
    P = Matrix.zeros(f, A.dim, T.dim)
    for i in range(A.dim):
        for j in range(B.dim):
            P.rows[i][i * B.dim + j] = B.counit[j]
    m = HopfMorphism(T, A, P)
    assert m.verify().ok
    return m


def _second_factor_inclusion(T, A, B):
    """B -> A (x) B, c -> 1_A (x) c."""
    f = T.field
    inc = Matrix.zeros(f, T.dim, B.dim)
    for i in range(A.dim):
        for j in range(B.dim):
            inc.rows[i * B.dim + j][j] = A.unit[i]
    m = HopfMorphism(B, T, inc)
    assert m.verify().ok
    return m


# ----------------------------------------------------------------------
# exact factorization
# ----------------------------------------------------------------------

def test_exact_factorization_direct_product(kz2):
    T = tensor_hopf(kz2, kz2)
    assert verify_hopf(T).ok
    L1 = _subspace(QQ, 4, [0, 2])  # kZ2 (x) 1
    L2 = _subspace(QQ, 4, [0, 1])  # 1 (x) kZ2
    w = exact_factorization(T, L1, L2)
    assert w.bijective
    assert w.normal_l1.ok and w.normal_l2.ok


def test_exact_factorization_sweedler(h4):
    L1 = _subspace(QQ, 4, [0, 1])  # span{1, a}
    L2 = _subspace(QQ, 4, [0, 2])  # span{1, x}
    w = exact_factorization(h4, L1, L2)
    assert w.bijective
    assert w.mult_map.rank() == 4


def test_exact_factorization_dimension_mismatch(h4):
    full = Subspace.full(QQ, 4)
    w = exact_factorization(h4, full, full)
    assert not w.bijective
    assert "dimension mismatch" in w.reason


# ----------------------------------------------------------------------
# the complement quotient
# ----------------------------------------------------------------------

def test_mueger_trivial_r_gives_whole_algebra(h4):
    q = verify_rmatrix(h4, TensorSquareElement.from_triples(
        h4, [[0, 0, "1/2"], [0, 1, "1/2"], [1, 0, "1/2"], [1, 1, "-1/2"]]))
    assert q.verified
    # triangular: monodromy is the unit, the image is the scalars
    qd, qprime = mueger_quotient(q, identity_morphism(h4))
    assert qd.quotient.dim == 4
    assert qprime.verified


def test_mueger_factorizable_identity_gives_trivial(double_kz2):
    qd, qprime = mueger_quotient(double_kz2, identity_morphism(double_kz2.hopf))
    assert qd.quotient.dim == 1


def test_mueger_on_split_example(split_input):
    # every R-matrix on sweedler is triangular, so the componentwise R on
    # sweedler (x) kZ2 has trivial monodromy and the complement quotient
    # is the whole algebra
    Q, pi = split_input
    qd, qprime = mueger_quotient(Q, pi)
    assert qd.quotient.dim == 8
    assert qprime.verified


# ----------------------------------------------------------------------
# splitting along a factorizable quotient
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def factorizable_case(double_kz2, kz2):
    qz = verify_rmatrix(kz2, TensorSquareElement.unit(kz2))
    Q = tensor_qt(double_kz2, qz)
    pi = _first_factor_projection(Q.hopf, double_kz2.hopf, kz2)
    return Q, pi


def test_split_factorizable(factorizable_case):
    Q, pi = factorizable_case
    cert = split_via_factorizable(Q, pi)
    assert cert.ok, cert.checks.first_failure()
    assert cert.dims() == (4, 2)
    assert verify_certificate(cert).ok


def test_split_factorizable_identity_degenerate(double_kz2):
    cert = split_via_factorizable(double_kz2, identity_morphism(double_kz2.hopf))
    assert cert.ok
    assert cert.dims() == (4, 1)


def test_split_factorizable_needs_factorizable(h4_r_fullrank):
    with pytest.raises(PreconditionError):
        split_via_factorizable(h4_r_fullrank, identity_morphism(h4_r_fullrank.hopf))


def test_mueger_complement_matches_certificate_k2(factorizable_case):
    Q, pi = factorizable_case
    cert = split_via_factorizable(Q, pi)
    qd, _ = mueger_quotient(Q, pi)
    assert qd.quotient.dim == cert.k2.quotient.dim
    iso = find_hopf_isomorphism(qd.quotient, cert.k2.quotient)
    assert iso is not None


# ----------------------------------------------------------------------
# splitting along a full-rank quotient
# ----------------------------------------------------------------------

def test_split_fullrank_acceptance_case(split_input):
    Q, pi = split_input
    cert = split_via_fullrank(Q, pi)
    assert cert.ok, cert.checks.first_failure()
    assert cert.dims() == (4, 2)
    assert verify_certificate(cert).ok
    iso = find_hopf_isomorphism(cert.k1.quotient, pi.target)
    assert iso is not None


def test_split_fullrank_rejects_rank_deficient(kz2):
    T = tensor_hopf(kz2, kz2)
    assert verify_hopf(T).ok
    Q = verify_rmatrix(T, TensorSquareElement.unit(T))
    pi = _first_factor_projection(T, kz2, kz2)
    with pytest.raises(PreconditionError):
        split_via_fullrank(Q, pi)


def test_split_fullrank_componentwise_recovery(kz2, kz2_rfamily, h4_r_fullrank, h4):
    # H = K (x) A with a componentwise R whose K part is full rank:
    # the certificate recovers the componentwise structure
    qz = verify_rmatrix(kz2, TensorSquareElement.unit(kz2))
    Q = tensor_qt(h4_r_fullrank, qz)
    pi = _first_factor_projection(Q.hopf, h4, kz2)
    cert = split_via_fullrank(Q, pi)
    assert cert.ok
    assert cert.dims() == (4, 2)
    assert find_hopf_isomorphism(cert.k1.quotient, h4) is not None
    assert find_hopf_isomorphism(cert.k2.quotient, kz2) is not None


def _bicharacter_r_kz3(kz3_gf7):
    # R = sum q^(ij) E_i (x) E_j over the orthogonal idempotents of the
    # group algebra of Z3 over GF(7), q = 2 a primitive cube root
    f = kz3_gf7.field
    q, n = 2, 3
    omega = 2  # primitive cube root of 1 mod 7
    inv3 = f.inv(3)
    E = []
    for i in range(n):
        E.append([f.mul(inv3, pow(omega, (-i * k) % n, 7)) for k in range(n)])
    coeffs = {}
    for i in range(n):
        for j in range(n):
            c = pow(q, (i * j) % n, 7)
            for a, va in enumerate(E[i]):
                for b, vb in enumerate(E[j]):
                    key = (a, b)
                    cur = coeffs.get(key, f.zero)
                    coeffs[key] = f.add(cur, f.mul(c, f.mul(va, vb)))
    return TensorSquareElement(kz3_gf7, coeffs)


def test_paths_agree_when_both_hypotheses_hold(kz3_gf7):
    R = _bicharacter_r_kz3(kz3_gf7)
    Q = verify_rmatrix(kz3_gf7, R)
    assert Q.verified
    assert Q.factorizable and Q.full_rank
    pi = identity_morphism(kz3_gf7)
    cert1 = split_via_factorizable(Q, pi)
    cert2 = split_via_fullrank(Q, pi)
    assert cert1.ok and cert2.ok
    assert cert1.dims() == cert2.dims() == (3, 1)
    # canonical RREF quotient bases make the certificates directly comparable
    assert cert1.k1.quotient.mul == cert2.k1.quotient.mul
    assert cert1.k1.quotient.comul == cert2.k1.quotient.comul
    assert cert1.j.J == cert2.j.J
    assert cert1.f == cert2.f
    assert cert1.r_target == cert2.r_target


# ----------------------------------------------------------------------
# double splitting
# ----------------------------------------------------------------------

def test_double_splitting_dkz2(double_kz2):
    cert = double_splitting(double_kz2)
    assert cert.ok, cert.checks.first_failure()
    assert cert.source.hopf.dim == 16
    assert cert.dims() == (4, 4)
    assert verify_certificate(cert).ok


def test_double_splitting_rejects_nonfactorizable(kz2, kz2_rfamily):
    for R in kz2_rfamily:
        q = verify_rmatrix(kz2, R)
        with pytest.raises(PreconditionError):
            double_splitting(q)


# ----------------------------------------------------------------------
# extensions
# ----------------------------------------------------------------------

def test_extension_split_fullrank(split_input, kz2, h4):
    Q, pi = split_input
    iota = _second_factor_inclusion(Q.hopf, h4, kz2)
    cert, r_a = extension_split(iota, pi, Q)
    assert cert.ok
    assert r_a is not None
    qa = verify_rmatrix(kz2, r_a)
    assert qa.verified


def test_extension_split_factorizable_case(factorizable_case, kz2, double_kz2):
    Q, pi = factorizable_case
    iota = _second_factor_inclusion(Q.hopf, double_kz2.hopf, kz2)
    cert, r_a = extension_split(iota, pi, Q)
    assert cert.ok
    assert r_a is not None


def test_extension_split_neither_hypothesis(kz2):
    T = tensor_hopf(kz2, kz2)
    assert verify_hopf(T).ok
    Q = verify_rmatrix(T, TensorSquareElement.unit(T))
    pi = _first_factor_projection(T, kz2, kz2)
    iota = _second_factor_inclusion(T, kz2, kz2)
    with pytest.raises(PreconditionError, match="neither"):
        extension_split(iota, pi, Q)


# ----------------------------------------------------------------------
# certificate round-trips and tampering
# ----------------------------------------------------------------------

def test_certificate_dims_multiply(split_input, factorizable_case, double_kz2):
    certs = [
        split_via_fullrank(*split_input),
        split_via_factorizable(*factorizable_case),
        double_splitting(double_kz2),
    ]
    for cert in certs:
        k1, k2 = cert.dims()
        assert k1 * k2 == cert.source.hopf.dim


def test_certificate_serialization_roundtrip(split_input):
    cert = split_via_fullrank(*split_input)
    doc = certificate_to_json(cert)
    text = dumps_stable(doc)
    loaded = certificate_from_json(json.loads(text))
    # the loader only decodes: nothing it returns claims a verification
    assert not loaded.source.verified and not loaded.j.verified
    assert loaded.twisted is None
    rep1 = verify_certificate(cert)
    rep2 = verify_certificate(loaded)
    assert rep1.ok and rep2.ok
    assert [c.ok for c in rep1.checks] == [c.ok for c in rep2.checks]
    # serialization is stable byte for byte
    assert dumps_stable(certificate_to_json(loaded)) == text


def test_certificate_tampering_detected(split_input):
    cert = split_via_fullrank(*split_input)
    doc = json.loads(dumps_stable(certificate_to_json(cert)))
    i, j, val = doc["j"][0]
    field = cert.source.hopf.field
    doc["j"][0] = [i, j, field.show(field.add(field.parse(val), field.one))]
    tampered = certificate_from_json(doc)
    assert not verify_certificate(tampered).ok


def test_split_fullrank_rejects_unequal_coinvariants(h4, h4_r0, kz2):
    # projecting sweedler onto its group algebra pushes the triangular
    # member to the full-rank Z2 structure, but the one-sided coinvariants
    # differ, so the typed precondition fires
    f = QQ
    P = Matrix.zeros(f, 2, 4)
    P.rows[0][0] = f.one
    P.rows[1][1] = f.one
    pi = HopfMorphism(h4, kz2, P)
    assert pi.verify().ok
    with pytest.raises(PreconditionError, match="coinvariants differ"):
        split_via_fullrank(h4_r0, pi)


def test_double_splitting_dim81(double_kz3_gf7):
    cert = double_splitting(double_kz3_gf7)
    assert cert.source.hopf.dim == 81
    assert cert.ok, cert.checks.first_failure()
    k1, k2 = cert.dims()
    assert k1 * k2 == 81
    deep = [c for c in cert.checks.checks
            if c.name == "twisted componentwise R-matrix verifies directly"]
    assert len(deep) == 1 and deep[0].ok


@pytest.mark.slow
def test_double_splitting_dim256_and_check_cert(double_h4):
    # the full certificate of D(D(H4)) over Q and its check-cert round trip
    cert = double_splitting(double_h4)
    assert cert.source.hopf.dim == 256
    assert cert.ok, cert.checks.first_failure()
    assert cert.dims() == (16, 16)
    text = dumps_stable(certificate_to_json(cert))
    loaded = certificate_from_json(json.loads(text))
    rep = verify_certificate(loaded)
    assert rep.ok, rep.first_failure()
    assert [c.name for c in rep.checks] == [c.name for c in verify_certificate(cert).checks]
    assert dumps_stable(certificate_to_json(loaded)) == text


def test_certificates_are_deterministic(split_input):
    from hopfkit.report import certificate_to_json, dumps_stable

    a = split_via_fullrank(*split_input)
    b = split_via_fullrank(*split_input)
    assert dumps_stable(certificate_to_json(a)) == dumps_stable(certificate_to_json(b))
