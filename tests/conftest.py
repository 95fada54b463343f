import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hopfkit import (
    TensorSquareElement,
    cyclic_group_algebra,
    drinfeld_double,
    sweedler,
    symmetric_group_algebra,
    taft,
    tensor_hopf,
    verify_hopf,
    verify_rmatrix,
)
from hopfkit.fields import CyclotomicField, PrimeField, Rationals

import oracle


@pytest.fixture(scope="session")
def QQ():
    return Rationals()


@pytest.fixture(scope="session")
def gf7():
    return PrimeField(7)


@pytest.fixture(scope="session")
def cyc3():
    return CyclotomicField(3)


def _verified(H):
    rep = verify_hopf(H)
    assert rep.ok, rep.first_failure()
    return H


@pytest.fixture(scope="session")
def kz2(QQ):
    return _verified(cyclic_group_algebra(QQ, 2))


@pytest.fixture(scope="session")
def kz3(QQ):
    return _verified(cyclic_group_algebra(QQ, 3))


@pytest.fixture(scope="session")
def kz4(QQ):
    return _verified(cyclic_group_algebra(QQ, 4))


@pytest.fixture(scope="session")
def kz3_gf7(gf7):
    return _verified(cyclic_group_algebra(gf7, 3))


@pytest.fixture(scope="session")
def ks3_gf7(gf7):
    return _verified(symmetric_group_algebra(gf7, 3))


@pytest.fixture(scope="session")
def h4(QQ):
    return _verified(sweedler(QQ))


@pytest.fixture(scope="session")
def taft37(gf7):
    return _verified(taft(gf7, 3, 2))


@pytest.fixture(scope="session")
def h4_kz2(h4, kz2):
    return _verified(tensor_hopf(h4, kz2))


@pytest.fixture(scope="session")
def double_kz2(kz2):
    return drinfeld_double(kz2)


@pytest.fixture(scope="session")
def double_kz3_gf7(kz3_gf7):
    return drinfeld_double(kz3_gf7)


@pytest.fixture(scope="session")
def double_h4(h4):
    return drinfeld_double(h4)


@pytest.fixture(scope="session")
def kz2_rfamily(kz2):
    """All R-matrices on the group algebra of Z2, found by brute force."""
    raw = oracle.export_hopf(kz2)
    found, exhaustive = oracle.brute_force_rmatrices(raw)
    assert exhaustive or found
    return [TensorSquareElement(kz2, dict(c)) for c in found]


@pytest.fixture(scope="session")
def h4_rfamily(h4):
    """Grid slice of the one-parameter R-matrix family on sweedler."""
    raw = oracle.export_hopf(h4)
    found, _ = oracle.brute_force_rmatrices(raw)
    assert found
    return [TensorSquareElement(h4, dict(c)) for c in found]


@pytest.fixture(scope="session")
def h4_r0(h4, h4_rfamily):
    """The triangular member supported on the group part."""
    for r in h4_rfamily:
        if all(i < 2 and j < 2 for (i, j) in r.coeffs):
            return verify_rmatrix(h4, r)
    raise AssertionError("group-supported member not found")


@pytest.fixture(scope="session")
def h4_r_fullrank(h4, h4_rfamily):
    from hopfkit import lr_maps

    for r in h4_rfamily:
        q = verify_rmatrix(h4, r)
        assert q.verified
        if q.full_rank:
            return q
    raise AssertionError("no full-rank member found")


@pytest.fixture(scope="session")
def split_input(h4_r_fullrank, kz2, h4_kz2):
    """(Q, pi) for the 8-dimensional full-rank splitting example."""
    from hopfkit import HopfMorphism, tensor_qt
    from hopfkit.linalg import Matrix

    qz = verify_rmatrix(kz2, TensorSquareElement.unit(kz2))
    Q = tensor_qt(h4_r_fullrank, qz)
    H = Q.hopf
    f = H.field
    h4_alg = h4_r_fullrank.hopf
    P = Matrix.zeros(f, 4, 8)
    for i in range(4):
        for j in range(2):
            P.rows[i][i * 2 + j] = kz2.counit[j]
    pi = HopfMorphism(H, h4_alg, P)
    assert pi.verify().ok
    return Q, pi


@pytest.fixture
def solve_count(monkeypatch):
    """The dims of the algebras solve_antipode runs on, through every
    module binding of it."""
    import hopfkit.hopf as hopf_module
    import hopfkit.qt as qt_module

    calls = []
    real = hopf_module.solve_antipode

    def counted(H):
        calls.append(H.dim)
        return real(H)

    for module in (hopf_module, qt_module):
        monkeypatch.setattr(module, "solve_antipode", counted)
    return calls
