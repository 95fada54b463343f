"""Ideals, subalgebras, centers, skew-primitives and coinvariants over
GF(p), compared exactly with the oracle's schoolbook fixpoint and its
dense nullspaces, and the closure's product count."""

import pytest

import oracle
from hopfkit import HopfMorphism, drinfeld_double, dual_hopf, sweedler, tensor_hopf
from hopfkit.algebra import (
    AlgebraPresentation,
    center,
    left_ideal,
    subalgebra_closure,
    two_sided_ideal,
)
from hopfkit.fields import PrimeField
from hopfkit.hopf import coinvariants, grouplikes, skew_primitive_space
from hopfkit.linalg import Matrix, unit_vector

CLOSURES = {"two-sided": two_sided_ideal, "left": left_ideal, "subalgebra": subalgebra_closure}
NAMES = ("taft37", "taft37-dual", "s3", "s3-dual", "dz3", "dh4-gf13")


@pytest.fixture(scope="module")
def hopf_gf(taft37, ks3_gf7, double_kz3_gf7):
    return {
        "taft37": taft37,
        "taft37-dual": dual_hopf(taft37),
        "s3": ks3_gf7,
        "s3-dual": dual_hopf(ks3_gf7),
        "dz3": double_kz3_gf7.hopf,
        "dh4-gf13": drinfeld_double(sweedler(PrimeField(13))).hopf,
    }


def _seed_sets(H):
    """Single basis elements, spread over the basis, and one mixed pair."""
    f = H.field
    d = H.dim
    sets = [[unit_vector(f, d, i)] for i in range(1, d, max(1, d // 5))]
    mixed = unit_vector(f, d, 1)
    mixed[d - 1] = f.from_int(2)
    sets.append([mixed, unit_vector(f, d, d // 2)])
    return sets


@pytest.mark.parametrize("kind", sorted(CLOSURES))
@pytest.mark.parametrize("name", NAMES)
def test_closure_matches_schoolbook_fixpoint(hopf_gf, name, kind):
    H = hopf_gf[name]
    raw = oracle.export_hopf(H)
    for seeds in _seed_sets(H):
        got = CLOSURES[kind](H.algebra, seeds)
        assert got.basis.rows == oracle.closure(raw, seeds, kind), seeds


def _oracle_null_basis(p, rows):
    return oracle.subspace_basis(p, oracle.nullspace(p, rows))


@pytest.mark.parametrize("name", NAMES)
def test_center_matches_oracle_nullspace(hopf_gf, name):
    H = hopf_gf[name]
    raw = oracle.export_hopf(H)
    expected = _oracle_null_basis(raw["p"], oracle.center_system(raw))
    assert center(H.algebra).basis.rows == expected


@pytest.mark.parametrize("name", NAMES)
def test_skew_primitives_match_oracle_nullspace(hopf_gf, name):
    H = hopf_gf[name]
    raw = oracle.export_hopf(H)
    elements = grouplikes(H).elements
    assert H.unit in elements
    for g in elements:
        for h in elements:
            expected = _oracle_null_basis(raw["p"], oracle.skew_primitive_system(raw, g, h))
            assert skew_primitive_space(H, g, h).basis.rows == expected


def _projections(hopf_gf, kz3_gf7):
    """(H, pi) pairs: the identity of each algebra, and the projection of
    Taft(3) (x) kZ3 onto its first factor."""
    out = []
    for name in NAMES:
        H = hopf_gf[name]
        out.append((H, HopfMorphism(H, H, Matrix.identity(H.field, H.dim))))
    K = hopf_gf["taft37"]
    T = tensor_hopf(K, kz3_gf7)
    P = Matrix.zeros(T.field, K.dim, T.dim)
    for i in range(K.dim):
        for j in range(kz3_gf7.dim):
            P.rows[i][i * kz3_gf7.dim + j] = kz3_gf7.counit[j]
    pi = HopfMorphism(T, K, P)
    assert pi.verify().ok
    out.append((T, pi))
    return out


@pytest.mark.parametrize("side", ("right", "left"))
def test_coinvariants_match_oracle_nullspace(hopf_gf, kz3_gf7, side):
    dims = []
    for H, pi in _projections(hopf_gf, kz3_gf7):
        raw = oracle.export_hopf(H)
        system = oracle.coinvariant_system(raw, pi.matrix.rows, pi.target.unit, side)
        got = coinvariants(H, pi, side)
        assert got.basis.rows == _oracle_null_basis(raw["p"], system)
        dims.append(got.dim)
    # the identity has the scalars as coinvariants, the projection kZ3
    assert dims == [1] * len(NAMES) + [3]


@pytest.mark.parametrize("name, index", [("taft37", 1), ("dh4-gf13", 5)])
def test_two_sided_ideal_multiplies_each_row_once(hopf_gf, monkeypatch, name, index):
    """Semi-naive: each row of the ideal is multiplied by every basis
    element on each side once, even when the seed does not span it."""
    H = hopf_gf[name]
    A = H.algebra
    seed = [unit_vector(H.field, H.dim, index)]
    calls = []
    real = AlgebraPresentation.product_terms

    def counted(self, us, vs, acc=None):
        calls.append(1)
        return real(self, us, vs, acc)

    monkeypatch.setattr(AlgebraPresentation, "product_terms", counted)
    ideal = two_sided_ideal(A, seed)
    assert ideal.dim > 1
    assert calls
    assert len(calls) <= 2 * A.dim * ideal.dim
