from fractions import Fraction

import pytest

import oracle
from hopfkit.algebra import (
    abelianization,
    center,
    characters,
    minimal_polynomial,
    verify_algebra,
)
from hopfkit.catalog import cyclic_group_algebra, symmetric_table, sweedler, symmetric_group_algebra
from hopfkit.fields import PrimeField, Rationals
from hopfkit.linalg import Matrix
from hopfkit.tensors import SparseTensor3


def test_verify_algebra_passes_on_group_table(kz2):
    assert verify_algebra(kz2.algebra).ok


def test_verify_algebra_catches_mutation(kz2):
    from hopfkit.algebra import AlgebraPresentation

    mul = SparseTensor3(kz2.field, (2, 2, 2), dict(kz2.mul.entries))
    mul.set(0, 1, 1, kz2.field.zero)  # delete 1*g = g: breaks the unit law
    broken = AlgebraPresentation(kz2.field, 2, mul, kz2.unit)
    rep = verify_algebra(broken)
    assert not rep.ok
    assert rep.first_failure().witness is not None

    # deleting g*g = 1 outright leaves a valid associative algebra (k[g]/(g^2)),
    # so that break must show up at the Hopf level instead
    mul3 = SparseTensor3(kz2.field, (2, 2, 2), dict(kz2.mul.entries))
    mul3.set(1, 1, 0, kz2.field.zero)
    nilp = AlgebraPresentation(kz2.field, 2, mul3, kz2.unit)
    assert verify_algebra(nilp).ok
    from hopfkit.hopf import HopfAlgebra, verify_hopf

    broken_hopf = HopfAlgebra(nilp, kz2.comul, list(kz2.counit), kz2.antipode)
    assert not verify_hopf(broken_hopf).ok


def test_verify_algebra_sweedler(h4):
    assert verify_algebra(h4.algebra).ok


def test_center_commutative_is_everything(kz3):
    assert center(kz3.algebra).dim == 3


def test_center_ks3_is_class_sums(ks3_gf7):
    table, _ = symmetric_table(3)
    # oracle: the center of a group algebra has one dimension per conjugacy class
    assert center(ks3_gf7.algebra).dim == oracle.conjugacy_class_count(table)
    Z = center(ks3_gf7.algebra)
    f = ks3_gf7.field
    for v in Z.vectors():
        for j in range(6):
            e_j = [f.one if i == j else f.zero for i in range(6)]
            assert ks3_gf7.algebra.product(v, e_j) == ks3_gf7.algebra.product(e_j, v)


def test_center_sweedler_is_scalars(h4):
    assert center(h4.algebra).dim == 1


def test_characters_kz3_over_gf7(kz3_gf7):
    ch = characters(kz3_gf7.algebra)
    assert ch.complete
    # oracle: roots of x^3 - 1 over GF(7)
    expected = sorted(x for x in range(7) if pow(x, 3, 7) == 1)
    values = sorted(chi[1] for chi in ch.characters)
    assert values == expected == [1, 2, 4]


def test_characters_ks3_over_gf7(ks3_gf7):
    ch = characters(ks3_gf7.algebra)
    assert ch.complete
    assert len(ch.characters) == 2  # trivial and sign
    f = ks3_gf7.field
    for chi in ch.characters:
        for i in range(6):
            for j in range(6):
                lhs = f.sum(f.mul(c, chi[k]) for k, c in ks3_gf7.algebra.basis_product(i, j))
                assert lhs == f.mul(chi[i], chi[j])


def test_characters_sweedler_rational(h4):
    ch = characters(h4.algebra)
    assert ch.complete
    assert len(ch.characters) == 2
    for chi in ch.characters:
        assert chi[2] == h4.field.zero and chi[3] == h4.field.zero  # x parts vanish
    assert sorted(chi[1] for chi in ch.characters) == [Fraction(-1), Fraction(1)]


@pytest.mark.parametrize("n,p", [(2, 7), (3, 7), (4, 5)])
def test_character_count_equals_dim_when_split(n, p):
    A = cyclic_group_algebra(PrimeField(p), n)
    ch = characters(A.algebra)
    assert ch.complete
    assert len(ch.characters) == n


def test_characters_incomplete_flag_over_rationals():
    A = cyclic_group_algebra(Rationals(), 4)
    ch = characters(A.algebra)
    # x^4 - 1 has the irreducible factor x^2 + 1 over the rationals
    assert not ch.complete
    assert len(ch.characters) == 2


def test_abelianization_of_sweedler(h4):
    B, proj, _ = abelianization(h4.algebra)
    assert B.dim == 2
    assert B.is_commutative()


def test_abelianization_of_ks3(ks3_gf7):
    B, _, _ = abelianization(ks3_gf7.algebra)
    assert B.dim == 2


def test_minimal_polynomial():
    QQ = Rationals()
    M = Matrix(QQ, [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]])
    # rotation by 90 degrees: minimal polynomial x^2 + 1
    assert minimal_polynomial(M) == [Fraction(1), Fraction(0), Fraction(1)]
    N = Matrix(QQ, [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(2)]])
    assert minimal_polynomial(N) == [Fraction(-2), Fraction(1)]


def test_incomplete_flag_names_offending_factor():
    A = cyclic_group_algebra(Rationals(), 4)
    ch = characters(A.algebra)
    assert not ch.complete
    # x^2 + 1 survives root extraction over the rationals
    assert any("1, 0, 1" in obs for obs in ch.obstructions)


# ----------------------------------------------------------------------
# the sparse contraction against a plain dense reference
# ----------------------------------------------------------------------


def dense_product(A, u, v):
    """u v by scanning every (i, j, k) of the multiplication tensor."""
    f = A.field
    d = A.dim
    out = [f.zero] * d
    for i in range(d):
        for j in range(d):
            if f.is_zero(u[i]) or f.is_zero(v[j]):
                continue
            ab = f.mul(u[i], v[j])
            for k in range(d):
                out[k] = f.add(out[k], f.mul(ab, A.mul.get(i, j, k)))
    return out


def dense_associativity_witness(A):
    """First (i, j, k) in lexicographic order with (e_i e_j) e_k != e_i (e_j e_k)."""
    f = A.field
    d = A.dim
    basis = [[f.one if t == i else f.zero for t in range(d)] for i in range(d)]
    for i in range(d):
        for j in range(d):
            ij = dense_product(A, basis[i], basis[j])
            for k in range(d):
                jk = dense_product(A, basis[j], basis[k])
                if dense_product(A, ij, basis[k]) != dense_product(A, basis[i], jk):
                    return (i, j, k)
    return None


def _random_scalar(f, rng):
    from hopfkit.fields import CyclotomicField

    if isinstance(f, PrimeField):
        return rng.randrange(f.p)
    q = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    if isinstance(f, CyclotomicField):
        return f.add(f.from_rational(q), f.mul(f.from_rational(Fraction(rng.randint(-2, 2))), f.generator))
    return q


def _random_vector(f, d, rng, nonzeros):
    v = [f.zero] * d
    for i in rng.sample(range(d), nonzeros):
        v[i] = _random_scalar(f, rng)
    return v


@pytest.mark.parametrize("field_name", ["gf7", "QQ", "cyc3"])
def test_product_agrees_with_dense_reference(field_name, request):
    import random

    from hopfkit.qt import double_hopf

    f = request.getfixturevalue(field_name)
    rng = random.Random(5)
    for H in (sweedler(f), double_hopf(cyclic_group_algebra(f, 3))):
        A = H.algebra
        for nonzeros in (1, 2, A.dim // 2, A.dim):
            for _ in range(3):
                u = _random_vector(f, A.dim, rng, nonzeros)
                v = _random_vector(f, A.dim, rng, rng.randint(1, A.dim))
                assert A.product(u, v) == dense_product(A, u, v)


@pytest.mark.parametrize("double_of,entry,value", [
    ("kz3", (4, 5, 3), Fraction(2)),    # changes a coefficient
    ("kz3", (4, 5, 3), Fraction(0)),    # deletes a product
    ("kz3", (7, 7, 7), Fraction(2)),    # adds a second term to e_7 e_7
    ("kz3", (8, 3, 7), Fraction(2)),    # fills an empty pair; first failure has e_j e_k = 0
    ("h4", (15, 14, 15), Fraction(2)),  # multi-term products on both sides
])
def test_associativity_witness_matches_dense_scan(double_of, entry, value, request):
    from hopfkit.algebra import AlgebraPresentation
    from hopfkit.qt import double_hopf

    D = double_hopf(request.getfixturevalue(double_of))
    mul = SparseTensor3(D.field, D.mul.dims, dict(D.mul.entries))
    mul.set(*entry, value)
    broken = AlgebraPresentation(D.field, D.dim, mul, D.unit)
    reference = dense_associativity_witness(broken)
    check = next(c for c in verify_algebra(broken).checks if c.name == "associativity")
    assert reference is not None
    assert not check.ok
    assert check.witness == {"triple": reference}
