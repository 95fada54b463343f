import random
from fractions import Fraction

import pytest

from hopfkit.errors import UsageError
from hopfkit.fields import PrimeField, Rationals
from hopfkit.linalg import Matrix, Subspace, unit_vector

QQ = Rationals()


def _mat(rows):
    return Matrix(QQ, [[Fraction(x) for x in r] for r in rows])


def test_rref_identity():
    M = Matrix.identity(QQ, 4)
    R, pivots = M.rref()
    assert R == M
    assert pivots == (0, 1, 2, 3)
    assert M.rank() == 4


def test_rref_zero():
    M = Matrix.zeros(QQ, 3, 5)
    assert M.rank() == 0
    assert len(M.nullspace()) == 5


def test_rref_proportional_rows():
    M = _mat([[1, 2], [2, 4]])
    assert M.rank() == 1


def test_rref_idempotent_random():
    rng = random.Random(7)
    for _ in range(20):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        M = _mat([[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)])
        R1, p1 = M.rref()
        R2, p2 = R1.rref()
        assert R1 == R2 and p1 == p2


def test_rref_pivot_rule_deterministic():
    # pivots are chosen at the lowest column index in row-major order
    M = _mat([[0, 0, 2], [0, 3, 1], [0, 3, 3]])
    _, pivots = M.rref()
    assert pivots == (1, 2)


def test_kron_identities():
    assert Matrix.identity(QQ, 2).kron(Matrix.identity(QQ, 3)) == Matrix.identity(QQ, 6)
    assert _mat([[2]]).kron(_mat([[3]])) == _mat([[6]])


def test_kron_on_basis_vectors():
    rng = random.Random(5)
    A = _mat([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
    B = _mat([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
    K = A.kron(B)
    # K applied to e0 (x) e1 equals A e0 (x) B e1 under flat indexing
    v = [Fraction(0)] * 4
    v[0 * 2 + 1] = Fraction(1)
    got = K.apply(v)
    a0 = A.apply(unit_vector(QQ, 2, 0))
    b1 = B.apply(unit_vector(QQ, 2, 1))
    expected = [a0[i] * b1[j] for i in range(2) for j in range(2)]
    assert got == expected


def test_kron_rank_multiplicative_random():
    rng = random.Random(11)
    for _ in range(10):
        A = _mat([[rng.randint(-2, 2) for _ in range(3)] for _ in range(2)])
        B = _mat([[rng.randint(-2, 2) for _ in range(2)] for _ in range(3)])
        assert A.kron(B).rank() == A.rank() * B.rank()


def test_solve_and_nullspace():
    A = _mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    b = [Fraction(6), Fraction(12), Fraction(2)]
    x = A.solve(b)
    assert x is not None and A.apply(x) == b
    for v in A.nullspace():
        assert A.apply(v) == [QQ.zero] * 3
    assert A.rank() + len(A.nullspace()) == 3
    assert A.solve([Fraction(1), Fraction(0), Fraction(0)]) is None


def test_inverse():
    A = _mat([[1, 2], [3, 5]])
    inv = A.inverse()
    assert A @ inv == Matrix.identity(QQ, 2)
    assert _mat([[1, 2], [2, 4]]).inverse() is None


def test_matmul_shape_error():
    with pytest.raises(UsageError):
        _mat([[1, 2]]) @ _mat([[1, 2]])


def test_gfp_matrix():
    gf5 = PrimeField(5)
    M = Matrix(gf5, [[1, 2], [3, 4]])
    inv = M.inverse()
    assert inv is not None
    assert M @ inv == Matrix.identity(gf5, 2)


def test_subspace_membership_and_equality():
    V = Subspace(QQ, 3, [[1, 1, 0], [0, 0, 1]])
    assert V.dim == 2
    assert V.contains([Fraction(2), Fraction(2), Fraction(5)])
    assert not V.contains([Fraction(1), Fraction(0), Fraction(0)])
    W = Subspace(QQ, 3, [[2, 2, 2], [0, 0, 3]])
    assert V == W


def test_subspace_intersection_and_sum():
    V = Subspace(QQ, 3, [[1, 0, 0], [0, 1, 0]])
    W = Subspace(QQ, 3, [[0, 1, 0], [0, 0, 1]])
    I = V.intersect(W)
    assert I.dim == 1 and I.contains([Fraction(0), Fraction(1), Fraction(0)])
    assert V.add(W).dim == 3


def test_subspace_complement_indices():
    V = Subspace(QQ, 4, [[1, 0, 2, 0], [0, 1, 3, 0]])
    assert V.complement_indices() == [2, 3]


@pytest.mark.parametrize("rhs", [[Fraction(1)], [Fraction(1)] * 3])
def test_solve_rejects_wrong_length_rhs(rhs):
    M = _mat([[1, 0], [0, 1]])
    with pytest.raises(UsageError, match="right-hand side"):
        M.solve(rhs)
    with pytest.raises(UsageError, match="right-hand side"):
        M.solve_matrix(Matrix(QQ, [[b] for b in rhs]))

