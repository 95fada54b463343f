"""The structure-map laws against the oracle's schoolbook checks.

One constant at a time is changed in the multiplication, the
comultiplication or the counit of a small Hopf algebra over GF(7).  For
every changed structure the first failing basis pair or index that a
verifier reports must be the oracle's: both algebra-map checks of
verify_hopf, verify_morphism of the identity matrix onto the changed
structure, and the rejection of a supplied character.  The same holds
for the coproduct check of the 81-dimensional D(D(kZ3)), whose changed
structures fail on rows past the first with several failing pairs, and
for the intertwining check of a changed R-matrix on D(H4)."""

from fractions import Fraction

import pytest

import oracle
from hopfkit import (
    HopfAlgebra,
    HopfMorphism,
    TensorSquareElement,
    characters,
    cyclic_group_algebra,
    drinfeld_double,
    sweedler,
    symmetric_group_algebra,
    taft,
    verify_hopf,
    verify_rmatrix,
    verify_twist,
)
from hopfkit.algebra import AlgebraPresentation, multiplicativity_failure, scalar_images
from hopfkit.errors import UsageError
from hopfkit.fields import PrimeField
from hopfkit.linalg import Matrix
from hopfkit.tensors import SparseTensor3

GF7 = PrimeField(7)

BUILDERS = {
    "kS3": lambda: symmetric_group_algebra(GF7, 3),
    "H4": lambda: sweedler(GF7),
    "Taft3": lambda: taft(GF7, 3, 2),
    "DkZ3": lambda: drinfeld_double(cyclic_group_algebra(GF7, 3)).hopf,
}


def _bumped(T: SparseTensor3, key):
    out = SparseTensor3(T.field, T.dims, dict(T.entries))
    out.set(*key, GF7.add(T.get(*key), GF7.one))
    return out


def _mutants(H):
    """H with one constant raised by 1: the first, middle and last
    entries of the sorted multiplication and comultiplication, and the
    counit at the first, middle and last basis index."""
    out = []
    for kind, T in (("mul", H.mul), ("comul", H.comul)):
        keys = sorted(T.entries)
        for key in (keys[0], keys[len(keys) // 2], keys[-1]):
            mul = _bumped(T, key) if kind == "mul" else H.mul
            comul = _bumped(T, key) if kind == "comul" else H.comul
            alg = AlgebraPresentation(GF7, H.dim, mul, list(H.unit), list(H.names))
            out.append(HopfAlgebra(alg, comul, list(H.counit), H.antipode, list(H.names)))
    for i in (0, H.dim // 2, H.dim - 1):
        counit = list(H.counit)
        counit[i] = GF7.add(counit[i], GF7.one)
        out.append(HopfAlgebra(H.algebra, H.comul, counit, H.antipode, list(H.names)))
    return out


def _check(rep, name):
    (check,) = [c for c in rep.checks if c.name == name]
    return check


def _pair(H, bad):
    return None if bad is None else {"pair": (H.names[bad[0]], H.names[bad[1]])}


def _scalar_failure(raw, values):
    """The oracle's first failing pair of a scalar-valued map."""
    p = raw["p"]
    return oracle.first_unmultiplicative_pair(
        raw, [[int(c)] for c in values], lambda u, v: [oracle.s_mul(p, u[0], v[0])])


def _unital(raw, values):
    return sum(int(c) * u for c, u in zip(values, raw["unit"])) % raw["p"] == 1


@pytest.fixture(scope="module", params=sorted(BUILDERS))
def structure(request):
    H = BUILDERS[request.param]()
    assert verify_hopf(H).ok
    return H


def test_witnesses_of_changed_structures_match_the_oracle(structure):
    H = structure
    raw = oracle.export_hopf(H)
    identity = [[int(i == j) for j in range(H.dim)] for i in range(H.dim)]
    originals = characters(H.algebra).characters
    seen = set()
    for M in _mutants(H):
        mraw = oracle.export_hopf(M)
        rep = verify_hopf(M)

        bad = oracle.first_unmultiplicative_pair(
            mraw, oracle.coproduct_images(mraw),
            lambda u, v: oracle.tensor_square_product(mraw, u, v))
        assert _check(rep, "comultiplication is an algebra map").witness == _pair(M, bad)
        seen.add(bad)

        bad = _scalar_failure(mraw, M.counit)
        unital = _unital(mraw, M.counit)
        check = _check(rep, "counit is an algebra map")
        assert check.ok == (unital and bad is None)
        assert check.witness == (_pair(M, bad) if unital else None)

        mor = HopfMorphism(H, M, Matrix.identity(GF7, H.dim)).verify()
        bad = oracle.first_unmultiplicative_pair(
            raw, identity, lambda u, v: oracle.product(mraw, u, v))
        assert _check(mor, "multiplicative").witness == _pair(H, bad)
        bad = oracle.first_uncomultiplicative_index(raw, identity, mraw)
        assert _check(mor, "comultiplicative").witness == (
            None if bad is None else {"basis": H.names[bad]})

        # the characters of H and the changed counit, offered as characters
        supplied = [list(chi) for chi in originals] + [list(M.counit)]
        verdicts = []
        for chi in supplied:
            bad = _scalar_failure(mraw, chi)
            assert multiplicativity_failure(
                GF7, M.mul.pair_index(), *scalar_images(GF7, chi)) == bad
            verdicts.append(_unital(mraw, chi) and bad is None)
        if all(verdicts):
            assert len(characters(M.algebra, supplied=supplied).characters) == len(supplied)
        else:
            with pytest.raises(UsageError, match=f"functional {verdicts.index(False)} "):
                characters(M.algebra, supplied=supplied)
    # the changed structures reach more than one failing pair
    assert len(seen - {None}) > 1


def test_twist_identity_matches_the_oracle_on_double_h4(double_h4):
    D = double_h4.hopf
    raw = oracle.export_hopf(D)
    for J, holds in ((double_h4.R, True), (double_h4.R_inv, False)):
        coeffs = {k: Fraction(v) for k, v in J.coeffs.items()}
        assert oracle.twist_identity_holds(raw, coeffs) is holds
        assert _check(verify_twist(D, J).report, "2-cocycle identity").ok is holds


def test_coproduct_witnesses_at_dim_81_match_the_oracle():
    H = drinfeld_double(drinfeld_double(cyclic_group_algebra(GF7, 3)).hopf).hopf
    assert H.dim == 81
    rows = []
    for M in _mutants(H)[:6]:  # the changed multiplications and comultiplications
        i, js = oracle.first_unmultiplicative_coproduct_row(oracle.export_hopf(M))
        check = _check(verify_hopf(M), "comultiplication is an algebra map")
        assert check.witness == (None if i is None else _pair(M, (i, js[0])))
        rows.append((i, js))
    # a first failing row past e_0 with more than one failing pair
    assert any(i is not None and i > 0 and len(js) >= 2 for i, js in rows)


@pytest.fixture(scope="module")
def double_h4_gf7():
    return drinfeld_double(sweedler(GF7))


def test_intertwining_witnesses_of_changed_r_match_the_oracle(double_h4_gf7):
    D = double_h4_gf7.hopf
    raw = oracle.export_hopf(D)
    keys = sorted(double_h4_gf7.R.coeffs)
    seen = set()
    for key in (keys[0], keys[len(keys) // 2], keys[-1], (D.dim - 1, D.dim - 1)):
        coeffs = dict(double_h4_gf7.R.coeffs)
        coeffs[key] = GF7.add(coeffs.get(key, GF7.zero), GF7.one)
        Q = verify_rmatrix(D, TensorSquareElement(D, coeffs))
        bad = oracle.first_unintertwined_index(raw, {k: int(v) for k, v in coeffs.items()})
        check = _check(Q.report, "R Delta(h) = flipped-Delta(h) R")
        assert check.witness == (None if bad is None else {"basis": D.names[bad]})
        seen.add(bad)
    assert len(seen - {None, 0}) >= 1

