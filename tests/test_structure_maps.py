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
products and their reports are kept.

The multiplicative laws on generator rows (Light's test, the generator
lemma for Delta, eps and Hopf maps, the intertwining of R) give the
verdict and witness of the full scan and of the oracle on every changed
structure that keeps the original's generators; a generating set with a
generator dropped, a changed tensor and a changed unit fall back to the
full scan; a double job checks its twisted product on generator rows;
and on random small algebras over GF(3) and GF(5) both paths agree."""

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
from hopfkit import algebra as algebra_module, hopf as hopf_module, qt as qt_module
from hopfkit.algebra import (
    AlgebraPresentation,
    generating_set,
    multiplicativity_failure,
    nonzero_terms,
    on_record,
    recorded_generators,
    row_product,
    scalar_images,
    unit_law_failure,
    verify_algebra,
)
from hopfkit.catalog import build_verified
from hopfkit.errors import UsageError
from hopfkit.fields import CyclotomicField, PrimeField, Rationals
from hopfkit.hopf import (
    cocycle_sides,
    comul_leg,
    comultiplicative_generators,
    r_leg_products,
    t3_embed,
    t3_mul,
    tensor_hopf,
)
from hopfkit.linalg import Matrix
from hopfkit.qt import canonical_double_r, tensor_qt
from hopfkit.splitting import double_splitting
from hopfkit.tensors import SparseTensor3

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the property test at the end is skipped
    st = None

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


# ----------------------------------------------------------------------
# the multiplicative laws on generator rows
# ----------------------------------------------------------------------

@pytest.fixture
def scans(monkeypatch):
    """Every multiplicativity_failure call as (source dim, number of
    generators or None, rows formed), in call order."""
    calls = []
    original = algebra_module.multiplicativity_failure

    def counted(field, mul, images, row, generators=None):
        formed = [0]

        def counting(x):
            formed[0] += 1
            return row(x)

        bad = original(field, mul, images, counting, generators)
        calls.append((len(images), None if generators is None else len(generators), formed[0]))
        return bad

    for module in (algebra_module, hopf_module, qt_module):
        monkeypatch.setattr(module, "multiplicativity_failure", counted)
    return calls


def _with_generators(M, gens):
    """M on its own tensors with the algebra generators gens, sparse
    operands [(i, a)]."""
    alg = AlgebraPresentation(M.field, M.dim, M.mul, list(M.unit), list(M.names),
                              [dict(g) for g in gens])
    return HopfAlgebra(alg, M.comul, list(M.counit), M.antipode, list(M.names))


def _full_scan_copy(M):
    """M on copied tensors with no generating set (the empty set, which
    the closure rejects for dim > 1), so every law is scanned in full."""
    f = M.field
    mul = SparseTensor3(f, M.mul.dims, dict(M.mul.entries))
    comul = SparseTensor3(f, M.comul.dims, dict(M.comul.entries))
    alg = AlgebraPresentation(f, M.dim, mul, list(M.unit), list(M.names), [])
    return HopfAlgebra(alg, comul, list(M.counit), M.antipode, list(M.names))


def _entries(rep):
    return [(c.name, c.ok, c.witness) for c in rep.checks]


def _oracle_hopf_witnesses(M):
    """The oracle's associativity triple and first failing pairs of the
    two algebra-map checks of verify_hopf, as report witnesses."""
    raw = oracle.export_hopf(M)
    triple = oracle.first_unassociative_triple(raw)
    comul = oracle.first_unmultiplicative_pair(
        raw, oracle.coproduct_images(raw), lambda u, v: oracle.tensor_square_product(raw, u, v))
    counit = _scalar_failure(raw, M.counit) if _unital(raw, M.counit) else None
    return (None if triple is None else {"triple": triple}, _pair(M, comul), _pair(M, counit))


def test_generator_path_matches_the_full_scan_on_changed_structures(structure, scans):
    H = structure
    gens = recorded_generators(H.algebra)
    assert gens is not None and len(gens) < H.dim
    identity = Matrix.identity(GF7, H.dim)
    light = lemma = 0
    for M in _mutants(H):
        G, F = _with_generators(M, gens), _full_scan_copy(M)
        del scans[:]
        rep = verify_hopf(G)
        light += scans[0][1] is not None
        lemma += sum(n is not None and rows == n for _, n, rows in scans[1:])
        assert _entries(rep) == _entries(verify_hopf(F))
        assert (_check(rep, "associativity").witness,
                _check(rep, "comultiplication is an algebra map").witness,
                _check(rep, "counit is an algebra map").witness) == _oracle_hopf_witnesses(M)
        for target in (G, F):
            mor = HopfMorphism(H, target, identity).verify()
            bad = oracle.first_unmultiplicative_pair(
                oracle.export_hopf(H), identity.rows,
                lambda u, v: oracle.product(oracle.export_hopf(M), u, v))
            assert _check(mor, "multiplicative").witness == _pair(H, bad)
    # Light's test ran on every changed structure with a unit law, and
    # the generator lemma decided some algebra-map checks alone
    assert light >= 3 and lemma >= 3


@pytest.mark.parametrize("name", ["D(kZ3)/GF7", "D(H4)/GF7"])
def test_intertwining_on_generators_matches_the_full_scan(name, double_h4_gf7):
    Q = _dkz3_gf7() if name == "D(kZ3)/GF7" else drinfeld_double(sweedler(GF7))
    D = Q.hopf
    assert comultiplicative_generators(D) is None  # nothing verified D yet
    assert verify_hopf(D).ok
    gens = comultiplicative_generators(D)
    assert gens is not None and len(gens) < D.dim
    F = _full_scan_copy(D)
    assert verify_hopf(F).ok and comultiplicative_generators(F) is None
    raw = oracle.export_hopf(D)
    seen = set()
    for coeffs in _changed(D, Q.R.coeffs):
        rep = verify_rmatrix(D, TensorSquareElement(D, coeffs)).report
        assert _entries(rep) == _entries(verify_rmatrix(F, TensorSquareElement(F, coeffs)).report)
        bad = oracle.first_unintertwined_index(raw, {k: int(v) for k, v in coeffs.items()})
        check = _check(rep, "R Delta(h) = flipped-Delta(h) R")
        assert check.witness == (None if bad is None else {"basis": D.names[bad]})
        seen.add(bad)
    # D(kZ3) is commutative and cocommutative, so every element intertwines
    assert None in seen and (len(seen) > 1) is (name == "D(H4)/GF7")


def _dkz3_squared():
    K = _dkz3_gf7().hopf
    assert verify_hopf(K).ok
    T = tensor_hopf(K, K)
    assert verify_hopf(T).ok
    return T


def test_generator_path_matches_the_full_scan_at_dim_81(scans):
    T = _dkz3_squared()
    gens = recorded_generators(T.algebra)
    assert T.dim == 81 and len(gens) == 6
    mutants = _mutants(T)
    identity = Matrix.identity(GF7, T.dim)
    T_full = _full_scan_copy(T)
    assert verify_hopf(T_full).ok
    light_failed = lemma_maps = 0
    for n, M in enumerate(mutants):
        G, F = _with_generators(M, gens), _full_scan_copy(M)
        del scans[:]
        rep = verify_hopf(G)
        hopf_scans = list(scans)
        assert _entries(rep) == _entries(verify_hopf(F))
        dim, used, rows = hopf_scans[0]
        raw = oracle.export_hopf(M)
        bad = _scalar_failure(raw, M.counit) if _unital(raw, M.counit) else None
        assert _check(rep, "counit is an algebra map").witness == _pair(M, bad)
        del scans[:]
        mor = HopfMorphism(T, G, identity).verify()
        lemma_maps += scans[0][1] == 6 and scans[0][2] == 6
        assert _entries(mor) == _entries(HopfMorphism(T_full, F, identity).verify())
        if n < 3:  # a changed multiplication
            triple = oracle.first_unassociative_triple(raw)
            assert _check(rep, "associativity").witness == (
                None if triple is None else {"triple": triple})
            light_failed += used is not None and triple is not None and rows > used
        elif n < 6:  # a changed comultiplication, on the generator rows first where unital
            i, js = oracle.first_unmultiplicative_coproduct_row(raw)
            assert _check(rep, "comultiplication is an algebra map").witness == (
                None if i is None else _pair(M, (i, js[0])))
            assert hopf_scans[1][1] == (6 if _check(rep, "comultiplication of the unit").ok else None)
    # a changed multiplication that still generates fails Light's test,
    # and the full scan after it gives the oracle's first triple; the
    # identity onto a structure with T's algebra passes on 6 rows
    assert light_failed >= 1 and lemma_maps == 6


def test_a_dropped_generator_falls_back_to_the_full_scan(scans):
    K = cyclic_group_algebra(GF7, 3)
    whole = tensor_hopf(K, K)
    expected = _entries(verify_hopf(whole))
    assert recorded_generators(whole.algebra) is not None
    T = tensor_hopf(K, K)
    T.algebra.generators = [{K.dim: GF7.one}]  # g (x) 1 alone
    del scans[:]
    assert _entries(verify_hopf(T)) == expected
    assert generating_set(T.algebra) is None and recorded_generators(T.algebra) is None
    assert on_record(T.algebra)  # the full scan found it associative
    assert [used for _, used, _ in scans] == [None, None, None]
    assert [rows for _, _, rows in scans] == [9, 9, 9]


def test_changed_tensors_keep_no_fact():
    H = symmetric_group_algebra(GF7, 3)
    assert verify_hopf(H).ok
    assert recorded_generators(H.algebra) is not None and comultiplicative_generators(H) is not None
    # a copy starts with no record, and a change after it keeps none
    copy = SparseTensor3(GF7, H.mul.dims, dict(H.mul.entries))
    assert copy.facts() == {}
    key = sorted(H.mul.entries)[len(H.mul.entries) // 2]
    H.mul.set(*key, GF7.add(H.mul.get(*key), GF7.one))
    assert not on_record(H.algebra) and recorded_generators(H.algebra) is None
    assert comultiplicative_generators(H) is None
    triple = oracle.first_unassociative_triple(oracle.export_hopf(H))
    assert _check(verify_algebra(H.algebra), "associativity").witness == {"triple": triple}
    # a changed comultiplication drops its multiplicativity record
    K = symmetric_group_algebra(GF7, 3)
    assert verify_hopf(K).ok and comultiplicative_generators(K) is not None
    K.comul.set(1, 1, 1, GF7.zero)
    assert comultiplicative_generators(K) is None and recorded_generators(K.algebra) is not None
    # and a unit changed in place is not the unit the record was made for
    K.algebra.unit[1] = GF7.one
    assert not on_record(K.algebra) and recorded_generators(K.algebra) is None
    assert unit_law_failure(K.algebra) is not None


def test_a_double_job_checks_the_twisted_product_on_generator_rows(scans, monkeypatch):
    H, _ = build_verified(GF7, {"builder": "double", "of": "Z3"}, parts := {})
    K = parts["of"]
    Q = verify_rmatrix(H, canonical_double_r(H, K.dim, K.counit, K.unit))
    del scans[:]
    cert = double_splitting(Q)
    assert cert.ok
    T = cert.twisted
    gens = recorded_generators(T.algebra)
    assert T.dim == 81 and len(gens) == 6
    at_81 = [(used, rows) for dim, used, rows in scans if dim == 81]
    # associativity (Light's test), comultiplication and counit of the
    # twisted product on its 6 generator rows; the maps out of the
    # unverified D(D(kZ3)) -- pi1, pi2 and F -- scan all 81 rows
    assert sorted(at_81, key=str) == sorted([(6, 6)] * 3 + [(None, 81)] * 3, key=str)
    # R Delta(x) = Delta^op(x) R on the same 6 generators, no basis scan
    sizes = []
    original = qt_module.tt_row

    def sized(host, images):
        sizes.append(len(images))
        return original(host, images)

    monkeypatch.setattr(qt_module, "tt_row", sized)
    assert verify_rmatrix(T, cert.r_target).verified
    assert 6 in sizes and T.dim not in sizes


def _random_presentation(p, dim, products, unit_first):
    """An algebra over GF(p) with e_0 as its unit when unit_first, else
    with the unit e_0 + e_1 of a product that need not obey it."""
    f = PrimeField(p)
    mul = SparseTensor3(f, (dim, dim, dim))
    for (i, j), vec in products.items():
        for k, c in enumerate(vec):
            mul.set(i, j, k, c % p)
    unit = [f.zero] * dim
    unit[0] = f.one
    if unit_first:
        for j in range(dim):
            for k in range(dim):
                mul.set(0, j, k, f.one if j == k else f.zero)
                mul.set(j, 0, k, f.one if j == k else f.zero)
    elif dim > 1:
        unit[1] = f.one
    return f, mul, unit


if st is not None:
    @st.composite
    def _random_cases(draw):
        p = draw(st.sampled_from((3, 5)))
        dim = draw(st.integers(1, 4))
        vector = st.lists(st.integers(0, p - 1), min_size=dim, max_size=dim)
        sparse = st.one_of(st.just([0] * dim), vector)
        products = draw(st.dictionaries(
            st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)), sparse, max_size=dim * dim))
        gens = draw(st.lists(vector, max_size=3))
        images = draw(st.lists(vector, min_size=dim, max_size=dim))
        unit_first = draw(st.sampled_from((True, True, True, False)))
        return p, dim, products, unit_first, gens, images

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_random_cases())
    def test_generator_verdicts_equal_full_scan_verdicts(case):
        p, dim, products, unit_first, gens, images = case
        f, mul, unit = _random_presentation(p, dim, products, unit_first)
        A = AlgebraPresentation(f, dim, mul, unit, None, gens)
        full = AlgebraPresentation(f, dim, SparseTensor3(f, mul.dims, dict(mul.entries)), unit, None, [])
        assert _entries(verify_algebra(A)) == _entries(verify_algebra(full))
        # a unital map A -> A with random images of e_1, ..., e_{dim-1}
        cols = [dict(nonzero_terms(f, [c % p for c in v])) for v in images]
        cols[0] = dict(nonzero_terms(f, unit)) if unit_first else cols[0]
        row = row_product(A, cols)
        used = recorded_generators(A) if on_record(A) and unit_first else None
        assert multiplicativity_failure(f, A.mul, cols, row, used) == \
            multiplicativity_failure(f, A.mul, cols, row)
else:
    def test_generator_verdicts_equal_full_scan_verdicts():
        pytest.skip("hypothesis is not installed")
