"""The structure-map laws against the oracle's schoolbook checks.

One constant at a time is changed in the multiplication, the
comultiplication or the counit of a small Hopf algebra over GF(7).  For
every changed structure the first failing basis pair or index that a
verifier reports must be the oracle's: both algebra-map checks of
verify_hopf, verify_morphism of the identity matrix onto the changed
structure, and the rejection of a supplied character.  The same holds
for the coproduct check of the 81-dimensional D(D(kZ3)), whose changed
structures fail on rows past the first with several failing pairs, for
the associativity triple of its changed multiplications, and for the
intertwining check of a changed R-matrix on D(H4).

The tensor-cube products of verify_rmatrix and verify_twist, formed
without a unit on a leg, equal the unit-on-a-leg products of t3_embed
and t3_mul and the oracle's, on doubles whose unit has up to 9 terms;
the coproduct axioms and the 2-cocycle identity of changed R-matrices
give the oracle's verdicts; and where the unit law fails, the literal
products and their reports are kept."""

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
from hopfkit.algebra import (
    AlgebraPresentation,
    multiplicativity_failure,
    nonzero_terms,
    scalar_images,
    unit_law_failure,
    verify_algebra,
)
from hopfkit.errors import UsageError
from hopfkit.fields import CyclotomicField, PrimeField, Rationals
from hopfkit.hopf import cocycle_sides, comul_leg, r_leg_products, t3_embed, t3_mul
from hopfkit.linalg import Matrix
from hopfkit.qt import tensor_qt
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


def test_associativity_witnesses_at_dim_81_match_the_oracle():
    H = drinfeld_double(drinfeld_double(cyclic_group_algebra(GF7, 3)).hopf).hopf
    assert H.dim == 81
    keys = sorted(H.mul.entries)
    pairs = H.mul.pair_index()

    def first_empty(start):
        return next((i, j) for i in range(start, H.dim) for j in range(H.dim) if (i, j) not in pairs)

    # a changed coefficient, a deleted product and a filled empty pair, each
    # once where the failing pair fails at several k (the witness is the
    # first) and once where it lies past the first row
    changes = [
        (keys[0], GF7.add(H.mul.get(*keys[0]), GF7.one)),
        (keys[len(keys) // 2], GF7.add(H.mul.get(*keys[len(keys) // 2]), GF7.one)),
        (keys[1], GF7.zero),
        (keys[-1], GF7.zero),
        ((*first_empty(0), H.dim // 3), GF7.one),
        ((*first_empty(H.dim // 2), H.dim // 3), GF7.one),
    ]
    triples = []
    for key, value in changes:
        mul = SparseTensor3(GF7, H.mul.dims, dict(H.mul.entries))
        mul.set(*key, value)
        broken = AlgebraPresentation(GF7, H.dim, mul, list(H.unit), list(H.names))
        triple = oracle.first_unassociative_triple(oracle.export_hopf(HopfAlgebra(broken, H.comul, list(H.counit))))
        assert triple is not None
        assert _check(verify_algebra(broken), "associativity").witness == {"triple": triple}
        triples.append(triple)
    assert len(set(triples)) == len(triples) and any(i > 0 for i, _, _ in triples)
    assert _check(verify_algebra(H.algebra), "associativity").ok
    assert oracle.first_unassociative_triple(oracle.export_hopf(H)) is None


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



# ----------------------------------------------------------------------
# the tensor-cube identities without the unit on a leg
# ----------------------------------------------------------------------

def _dkz3_gf7():
    return drinfeld_double(cyclic_group_algebra(GF7, 3))


# name -> (builder, nnz of the unit, the products also checked against
# the oracle: all four at small dims, one at dim 81, where the oracle
# takes 0.4 s a product; none over Q(z_3), which the oracle lacks)
UNIT_FREE_HOSTS = {
    "D(kZ3)/GF7": (_dkz3_gf7, 3, (0, 1, 2, 3)),
    "D(D(kZ3))/GF7": (lambda: drinfeld_double(_dkz3_gf7().hopf), 9, (0,)),
    "D(kZ3)xD(kZ3)/GF7": (lambda: tensor_qt(_dkz3_gf7(), _dkz3_gf7()), 9, (3,)),
    "D(H4)/Q": (lambda: drinfeld_double(sweedler(Rationals())), 2, (0, 1, 2, 3)),
    "D(Taft3)/Q(z3)": (lambda: drinfeld_double(taft(CyclotomicField(3), 3, "z")), 3, ()),
}


def _literal_products(H, X):
    """R13 R23, R13 R12 and the two sides of the 2-cocycle identity at X,
    each with the unit placed on a leg and multiplied out."""
    f = H.field
    r13 = t3_embed(f, X, (0, 2), H.unit)
    return (t3_mul(H, r13, t3_embed(f, X, (1, 2), H.unit)),
            t3_mul(H, r13, t3_embed(f, X, (0, 1), H.unit)),
            t3_mul(H, t3_embed(f, X, (0, 1), H.unit), comul_leg(H, X, 0)),
            t3_mul(H, t3_embed(f, X, (1, 2), H.unit), comul_leg(H, X, 1)))


def _oracle_product(raw, X, which):
    """The oracle's product number ``which`` of _literal_products."""
    embed = oracle.t3_embed
    if which < 2:
        return oracle.t3_mul(raw, embed(raw, X, (0, 2)), embed(raw, X, ((1, 2), (0, 1))[which]))
    legs = oracle.comul_legs(raw, X)
    return oracle.t3_mul(raw, embed(raw, X, ((0, 1), (1, 2))[which - 2]), legs[which - 2])


def _exact(raw, X):
    conv = int if raw["p"] else Fraction
    return {k: conv(v) for k, v in X.items()}


@pytest.mark.parametrize("name", sorted(UNIT_FREE_HOSTS))
def test_unit_free_products_equal_the_literal_ones(name):
    build, unit_nnz, oracle_checked = UNIT_FREE_HOSTS[name]
    Q = build()
    H = Q.hopf
    assert Q.verified and unit_law_failure(H.algebra) is None
    assert len(nonzero_terms(H.field, H.unit)) == unit_nnz
    raw = oracle.export_hopf(H) if oracle_checked else None
    # an R-matrix passes the 2-cocycle identity, and its inverse may not
    for X, twist in ((Q.R.coeffs, True), (Q.R_inv.coeffs, None)):
        products = r_leg_products(H, X) + cocycle_sides(H, X)
        assert products == _literal_products(H, X)
        assert twist is None or (products[2] == products[3]) is twist
        for which in oracle_checked if twist else ():
            assert products[which] == _oracle_product(raw, _exact(raw, X), which)


def test_unit_free_products_on_the_r_matrix_families(kz2_rfamily, h4_rfamily):
    """Every R-matrix the oracle finds on kZ2 and on sweedler over Q;
    their tensor-cube products cancel to zero at some entries."""
    for R in kz2_rfamily + h4_rfamily:
        H = R.host
        raw = oracle.export_hopf(H)
        products = r_leg_products(H, R.coeffs) + cocycle_sides(H, R.coeffs)
        assert products == _literal_products(H, R.coeffs)
        assert products == tuple(_oracle_product(raw, _exact(raw, R.coeffs), w) for w in range(4))
        assert products[2] == products[3]


def _changed(D, R):
    """R itself and R with one coefficient raised by 1: at the first,
    middle and last of its terms, and at the last basis pair."""
    f = D.field
    keys = sorted(R)
    out = [dict(R)]
    for key in (keys[0], keys[len(keys) // 2], keys[-1], (D.dim - 1, D.dim - 1)):
        coeffs = dict(R)
        coeffs[key] = f.add(coeffs.get(key, f.zero), f.one)
        out.append(coeffs)
    return out


@pytest.mark.parametrize("name", ["D(kZ3)/GF7", "D(H4)/GF7"])
def test_axiom_verdicts_of_changed_r_and_j_match_the_oracle(name, double_h4_gf7):
    Q = _dkz3_gf7() if name == "D(kZ3)/GF7" else double_h4_gf7
    D = Q.hopf
    raw = oracle.export_hopf(D)
    seen = set()
    # an R-matrix is a twist, so R and its changes serve as R and as J
    for coeffs in _changed(D, Q.R.coeffs):
        X = TensorSquareElement(D, coeffs)
        exact = _exact(raw, X.coeffs)
        axioms = tuple(oracle.quadratic_axiom_verdicts(raw, exact))
        cocycle = oracle.twist_identity_holds(raw, exact)
        r13_r23, r13_r12 = r_leg_products(D, X.coeffs)
        lhs, rhs = cocycle_sides(D, X.coeffs)
        assert (comul_leg(D, X.coeffs, 0) == r13_r23, comul_leg(D, X.coeffs, 1) == r13_r12) == axioms
        assert (lhs == rhs) is cocycle
        rep = verify_rmatrix(D, X).report
        if _check(rep, "R is invertible").ok:
            assert _check(rep, "(Delta x id)(R) = R13 R23").ok is axioms[0]
            assert _check(rep, "(id x Delta)(R) = R13 R12").ok is axioms[1]
        rep = verify_twist(D, X).report
        if _check(rep, "J is invertible").ok:
            assert _check(rep, "2-cocycle identity").ok is cocycle
        seen.add(axioms + (cocycle,))
    assert (True, True, True) in seen and len(seen) > 1


# the checks of verify_rmatrix and verify_twist on the changed kZ3 below,
# pinned from the unit-on-a-leg products
NON_UNITAL_REPORTS = {
    (0, 0): (
        [("R is invertible", True, None), ("(Delta x id)(R) = R13 R23", True, None),
         ("(id x Delta)(R) = R13 R12", True, None),
         ("R Delta(h) = flipped-Delta(h) R", False, {"basis": "g"})],
        [("J is invertible", True, None), ("(eps x id)(J) = 1", True, None),
         ("(id x eps)(J) = 1", True, None), ("2-cocycle identity", True, None)]),
    # here the unit-free forms would fail the first coproduct axiom
    (1, 0): (
        [("R is invertible", True, None), ("(Delta x id)(R) = R13 R23", True, None),
         ("(id x Delta)(R) = R13 R12", False, None),
         ("R Delta(h) = flipped-Delta(h) R", False, {"basis": "1"})],
        [("J is invertible", True, None), ("(eps x id)(J) = 1", False, None),
         ("(id x eps)(J) = 1", False, None), ("2-cocycle identity", False, None)]),
}


def test_non_unital_host_keeps_the_literal_products():
    H = cyclic_group_algebra(GF7, 3)
    # e_0 is the unit of kZ3, and here 1 e_1 = 2 e_1
    M = HopfAlgebra(AlgebraPresentation(GF7, 3, _bumped(H.mul, (0, 1, 1)), list(H.unit), list(H.names)),
                    H.comul, list(H.counit), H.antipode, list(H.names))
    assert unit_law_failure(M.algebra) == ("left", 1)
    for key, (r_checks, j_checks) in NON_UNITAL_REPORTS.items():
        X = TensorSquareElement(M, {key: 4 if key == (1, 0) else 1})
        assert r_leg_products(M, X.coeffs) + cocycle_sides(M, X.coeffs) == _literal_products(M, X.coeffs)
        for rep, checks in ((verify_rmatrix(M, X).report, r_checks), (verify_twist(M, X).report, j_checks)):
            assert [(c.name, c.ok, c.witness) for c in rep.checks] == checks
