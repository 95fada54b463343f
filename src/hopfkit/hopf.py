"""Hopf algebras by structure constants and the operations on them.

Conventions, fixed once for the whole package:

* ``mul[i,j,k]``:   e_i e_j = sum_k mul[i,j,k] e_k,
* ``comul[i,j,k]``: Delta(e_i) = sum_{j,k} comul[i,j,k] e_j (x) e_k,
* ``antipode``:     matrix columns are images, S(e_j) = sum_i S[i][j] e_i,
  held as a linalg.SparseMatrix like every structure map (a Hopf
  morphism, a quotient section); a dense Matrix given to a constructor
  is read into one,
* elements of H (x) H are sparse dicts (i, j) -> scalar on the flat basis
  e_i (x) e_j, and similarly for triple tensors.

The antipode is a property of HopfAlgebra: the matrix given to the
constructor, or else the convolution inverse of the identity, solved
once on the first read by one linear system in the d^2 unknowns S[s][j],
whose rows are built sparse from the comultiplication and the pair index
and eliminated by ``linalg.solve_rows`` (no d^2 x d^2 matrix is formed);
a singular system makes it None ("no antipode") rather than raising.  No
verifier writes it, and ``antipode_source`` records which it was:
"given", "computed" (by that solve, also when it found none), or None
while it is not yet determined.

``comultiplicativity_failure`` is the one check that a linear map
intertwines two coproducts on every basis element, read by
verify_morphism and the braided maps; its multiplicative twin is
``algebra.multiplicativity_failure``.

Products in H (x) H are formed a row at a time by ``tt_row``: for fixed
right factors B_0, ..., B_{n-1} it returns x -> [x B_j for every j].
The right factors are inverted once by their legs (r -> s -> [(j, b)]),
and a term e_p (x) e_q of x walks only the right neighbours r of e_p
(the r with e_p e_r != 0) and then s of e_q that some B_j uses, so it
adds into every product at once and never looks at a pair whose product
vanishes.  The bialgebra check of verify_hopf reads Delta(e_i) Delta(e_j)
for all j off one row per i, verify_morphism reads its one-leg form
``algebra.row_product`` over the target, and tt_mul is the row of a
single right factor.

The tensor-cube identities of an R-matrix and of a twist are read off
the same rows, with no unit placed on a leg: ``r_leg_products`` forms
R13 R23 and R13 R12 from one ``row_product`` over the slices of R by a
leg, and ``cocycle_sides`` each side of the 2-cocycle identity from one
tt_row over the slices of (Delta x id)(J) or (id x Delta)(J) by the leg
that meets 1.  Both rest on 1 x = x = x 1, decided once per algebra and
unit and recorded (``algebra.unit_law_failure``); where it fails they
multiply the legs out literally, the unit on a leg by ``t3_embed`` and
the product by ``t3_mul``, which walks the same right-neighbour lists.

Once verify_algebra has recorded H's algebra and its generators, the
algebra-map checks of verify_hopf and verify_morphism run on generator
rows (``algebra.multiplicativity_failure``), and verify_hopf records a
unital multiplicative Delta on the comultiplication tensor, which
``comultiplicative_generators`` reads for the intertwining check of
qt.verify_rmatrix.  tensor_hopf gives g (x) 1 and 1 (x) h as the
generators of a tensor product, a quotient the images of the
generators, and dual_hopf none (they are searched for when asked).
"""

from __future__ import annotations

from .algebra import (
    AlgebraPresentation,
    algebra_generators,
    basis_names,
    characters,
    center,
    combine,
    dense_vector,
    left_ideal,
    multiplicativity_failure,
    nonzero_terms,
    on_record,
    quotient_algebra,
    recorded_generators,
    right_partners,
    row_product,
    same_vector,
    scalar_images,
    span_closure,
    subalgebra_closure,
    unit_law_failure,
    verify_algebra,
)
from .checks import Report
from .errors import StructureError, UsageError
from .linalg import Matrix, SparseMatrix, Subspace, nullspace_rows, solve_rows, sparse_rows, unit_vector
from .tensors import SparseTensor3

# ----------------------------------------------------------------------
# sparse tensor-square / tensor-cube arithmetic
# ----------------------------------------------------------------------


def _put(field, acc, key, val):
    cur = acc.get(key)
    new = field.add(cur, val) if cur is not None else val
    if field.is_zero(new):
        acc.pop(key, None)
    else:
        acc[key] = new


def tt_unit(H) -> dict:
    return tt_outer(H, H.unit, H.unit)


def tt_outer(H, u, v) -> dict:
    """u (x) v for vectors given dense or as dicts i -> a."""
    f = H.field
    out = {}
    vs = nonzero_terms(f, v)
    for i, a in nonzero_terms(f, u):
        for j, b in vs:
            _put(f, out, (i, j), f.mul(a, b))
    return out


def tt_row(H, images):
    """The row x -> [x images[j] for j] in H (x) H, for sparse tensor
    squares x and images[j] ((r, s) -> b); zero entries may remain after
    cancellation.

    The images are inverted once by their legs (r -> s -> [(j, b)]).  A
    term e_p (x) e_q of x walks only the right neighbours r of e_p, and
    then s of e_q, that some image uses (algebra.right_partners, joined
    once per left factor and kept for every later row), and adds into all
    the products at once."""
    f = H.field
    mul, add = f.mul, f.add
    tree = {}
    for j, image in enumerate(images):
        for (r, s), b in image.items():
            tree.setdefault(r, {}).setdefault(s, []).append((j, b))
    partners = right_partners(H.mul, {r: right_partners(H.mul, branch) for r, branch in tree.items()})

    def row(x):
        out = [{} for _ in images]
        for (p, q), a in x.items():
            for left, second_partners in partners(p):
                for right, hits in second_partners(q):
                    for j, b in hits:
                        ab = mul(a, b)
                        acc = out[j]
                        for m, cm in left:
                            lv = mul(ab, cm)
                            for n, cn in right:
                                v = mul(lv, cn)
                                cur = acc.get((m, n))
                                acc[(m, n)] = v if cur is None else add(cur, v)
        return out

    return row


def tt_mul(H, A: dict, B: dict) -> dict:
    """Product in H (x) H: the row of the one image B at A, zeros dropped."""
    return dict(nonzero_terms(H.field, tt_row(H, [B])(A)[0]))


def tt_flip(A: dict) -> dict:
    return {(j, i): v for (i, j), v in A.items()}


def tt_apply(field, A: dict, M1, M2) -> dict:
    """Apply linear maps, SparseMatrix values, legwise; None means the
    identity on that leg."""

    def columns(M):
        if M is None:
            return lambda i: [(i, field.one)]
        return M.columns.__getitem__

    column1 = columns(M1)
    column2 = columns(M2)
    out = {}
    for (i, j), v in A.items():
        for r1, a in column1(i):
            va = field.mul(v, a)
            for r2, b in column2(j):
                _put(field, out, (r1, r2), field.mul(va, b))
    return out


def t3_mul(H, A: dict, B: dict) -> dict:
    """Product in H (x) H (x) H.  B is held as a tree by its three legs,
    and each leg of a term of A walks only its right neighbours among the
    branches of that tree (algebra.right_partners, joined once per node
    and left factor)."""
    f = H.field
    mul, add = f.mul, f.add
    tree = {}
    for (l, m, n), b in B.items():
        tree.setdefault(l, {}).setdefault(m, {})[n] = b
    partners = right_partners(H.mul, {
        l: right_partners(H.mul, {m: right_partners(H.mul, leaves) for m, leaves in branch.items()})
        for l, branch in tree.items()})
    out = {}
    for (i, j, k), a in A.items():
        for first, second_partners in partners(i):
            for second, third_partners in second_partners(j):
                for third, b in third_partners(k):
                    ab = mul(a, b)
                    for p, cp in first:
                        vp = mul(ab, cp)
                        for q, cq in second:
                            vq = mul(vp, cq)
                            for r, cr in third:
                                v = mul(vq, cr)
                                cur = out.get((p, q, r))
                                out[(p, q, r)] = v if cur is None else add(cur, v)
    return dict(nonzero_terms(f, out))


def t3_embed(field, A: dict, spots, unit_vec) -> dict:
    """Place a tensor-square element on two of three legs, the unit on
    the remaining leg; spots is one of (0,1), (0,2), (1,2)."""
    other = ({0, 1, 2} - set(spots)).pop()
    out = {}
    for (i, j), v in A.items():
        for u, a in enumerate(unit_vec):
            if field.is_zero(a):
                continue
            key = [None, None, None]
            key[spots[0]] = i
            key[spots[1]] = j
            key[other] = u
            _put(field, out, tuple(key), field.mul(v, a))
    return out


def r_leg_products(H, R: dict):
    """(R13 R23, R13 R12) in H (x) H (x) H for R = sum r_pq e_p (x) e_q,
    zeros dropped.

    Where the unit law holds no unit is placed on a leg.  With the slices
    x_p = {q: r_pq} of R by first leg and z_q = {p: r_pq} by second,
    R13 R23 = sum e_p (x) e_s (x) x_p x_s and
    R13 R12 = sum z_q z_t (x) e_t (x) e_q, each family of slice products
    read off one algebra.row_product.  Otherwise both are the literal
    t3_mul of t3_embed legs."""
    f = H.field
    if unit_law_failure(H.algebra) is not None:
        r13 = t3_embed(f, R, (0, 2), H.unit)
        return (t3_mul(H, r13, t3_embed(f, R, (1, 2), H.unit)),
                t3_mul(H, r13, t3_embed(f, R, (0, 1), H.unit)))
    is_zero = f.is_zero
    by_first, by_second = {}, {}
    for (p, q), v in R.items():
        by_first.setdefault(p, {})[q] = v
        by_second.setdefault(q, {})[p] = v
    r13_r23, r13_r12 = {}, {}
    times = row_product(H.algebra, list(by_first.values()))
    for p, x in by_first.items():
        for s, prod in zip(by_first, times(x)):
            for k, v in prod.items():
                if not is_zero(v):
                    r13_r23[p, s, k] = v
    times = row_product(H.algebra, list(by_second.values()))
    for q, z in by_second.items():
        for t, prod in zip(by_second, times(z)):
            for k, v in prod.items():
                if not is_zero(v):
                    r13_r12[k, t, q] = v
    return r13_r23, r13_r12


def cocycle_sides(H, J: dict):
    """((J x 1)(Delta x id)(J), (1 x J)(id x Delta)(J)) in H (x) H (x) H,
    zeros dropped.

    Where the unit law holds no unit is placed on a leg: the leg that
    meets 1 passes through, so the left side is sum (J X_c) (x) e_c over
    the slices X_c of (Delta x id)(J) by third leg, and the right side
    sum e_a (x) (J Y_a) over the slices Y_a of (id x Delta)(J) by first
    leg, each side one tt_row at J.  Otherwise both are the literal
    t3_mul of a t3_embed leg."""
    f = H.field
    delta_first, delta_second = comul_leg(H, J, 0), comul_leg(H, J, 1)
    if unit_law_failure(H.algebra) is not None:
        return (t3_mul(H, t3_embed(f, J, (0, 1), H.unit), delta_first),
                t3_mul(H, t3_embed(f, J, (1, 2), H.unit), delta_second))
    is_zero = f.is_zero
    by_third, by_first = {}, {}
    for (a, b, c), v in delta_first.items():
        by_third.setdefault(c, {})[a, b] = v
    for (a, b, c), v in delta_second.items():
        by_first.setdefault(a, {})[b, c] = v
    lhs, rhs = {}, {}
    for c, prod in zip(by_third, tt_row(H, list(by_third.values()))(J)):
        for (m, n), v in prod.items():
            if not is_zero(v):
                lhs[m, n, c] = v
    for a, prod in zip(by_first, tt_row(H, list(by_first.values()))(J)):
        for (m, n), v in prod.items():
            if not is_zero(v):
                rhs[a, m, n] = v
    return lhs, rhs


def comul_image(comul: SparseTensor3, vec) -> dict:
    """Delta(vec) as a sparse tensor square, Delta given by its tensor."""
    f = comul.field
    out = {}
    ci = comul.first_index()
    for i, a in enumerate(vec):
        if f.is_zero(a):
            continue
        for (j, k, c) in ci.get(i, []):
            _put(f, out, (j, k), f.mul(a, c))
    return out


def comul_dict(basis_comul, i) -> dict:
    """Delta(e_i) as a sparse tensor square; basis_comul as in antipode_failure."""
    return {(j, k): c for (j, k, c) in basis_comul(i)}


def comul_leg(H, A: dict, leg: int) -> dict:
    """Apply the comultiplication to one leg of a tensor square."""
    f = H.field
    ci = H.comul.first_index()
    out = {}
    for (i, j), v in A.items():
        src = i if leg == 0 else j
        for (p, q, c) in ci.get(src, []):
            vv = f.mul(v, c)
            key = (p, q, j) if leg == 0 else (i, p, q)
            _put(f, out, key, vv)
    return out


# ----------------------------------------------------------------------
# the HopfAlgebra container
# ----------------------------------------------------------------------


class HopfAlgebra:
    def __init__(self, algebra: AlgebraPresentation, comul: SparseTensor3, counit, antipode=None, names=None):
        self.algebra = algebra
        self.field = algebra.field
        self.dim = algebra.dim
        if comul.dims != (self.dim,) * 3:
            raise UsageError("comultiplication tensor has wrong dimensions")
        if len(counit) != self.dim:
            raise UsageError("counit vector has wrong length")
        if antipode is not None and antipode.shape != (self.dim, self.dim):
            raise UsageError(
                f"antipode must be {self.dim}x{self.dim}, got {antipode.shape[0]}x{antipode.shape[1]}"
            )
        self.comul = comul
        self.counit = list(counit)
        self._antipode = None if antipode is None else SparseMatrix.of(antipode)
        self.antipode_source = "given" if antipode is not None else None
        if names:
            self.algebra.names = basis_names(names, self.dim)

    @property
    def antipode(self):
        """S as given to the constructor, or else solve_antipode(self), run
        on the first read only; None means that no antipode exists."""
        if self.antipode_source is None:
            self._antipode = solve_antipode(self)
            self.antipode_source = "computed"
        return self._antipode

    @property
    def names(self):
        return self.algebra.names

    @property
    def unit(self):
        return self.algebra.unit

    @property
    def mul(self):
        return self.algebra.mul

    def comul_of(self, vec) -> dict:
        return comul_image(self.comul, vec)

    def counit_of(self, vec):
        f = self.field
        return f.sum(f.mul(a, e) for a, e in zip(vec, self.counit))

    def apply_antipode(self, vec):
        if self.antipode is None:
            raise UsageError("this Hopf algebra has no antipode")
        return self.antipode.apply(vec)

    def basis_comul(self, i):
        return self.comul.first_index().get(i, [])

    def delta_square(self, i):
        """(Delta (x) id) Delta e_i as a list of (p, q, r, c)."""
        f = self.field
        out = {}
        for (j, k, c) in self.basis_comul(i):
            for (p, q, c2) in self.basis_comul(j):
                _put(f, out, (p, q, k), f.mul(c, c2))
        return sorted(out.items())

    def is_cocommutative(self):
        for (i, j, k), v in self.comul.items_sorted():
            if self.comul.get(i, k, j) != v:
                return False
        return True

    def __repr__(self):
        return f"HopfAlgebra(dim {self.dim} over {self.field!r})"


def solve_antipode(H: HopfAlgebra):
    """Convolution inverse of the identity, or None if the linear system
    is singular (the bialgebra has no antipode).

    The unknown S[s][j] is column s*d + j; row (i, t) is the e_t
    coordinate of S(e_i(1)) e_i(2) = eps(e_i) 1, built sparse from
    basis_comul(i) and the products e_s e_k grouped by right factor k and
    output t."""
    f = H.field
    d = H.dim
    n = d * d
    by_right = {}  # (k, t) -> [(s, mul[s,k,t])]
    for (s, k), terms in H.mul.pair_index().items():
        for (t, mv) in terms:
            by_right.setdefault((k, t), []).append((s, mv))
    rows = []
    for i in range(d):
        terms = H.basis_comul(i)
        for t in range(d):
            row = {}
            for (j, k, c) in terms:
                for (s, mv) in by_right.get((k, t), ()):
                    col = s * d + j
                    x = f.mul(c, mv)
                    cur = row.get(col)
                    row[col] = x if cur is None else f.add(cur, x)
            row = {col: a for col, a in row.items() if not f.is_zero(a)}
            b = f.mul(H.counit[i], H.unit[t])
            if not f.is_zero(b):
                row[n] = b
            rows.append(row)
    sol = solve_rows(f, rows, n)
    if sol is None:
        return None
    columns = [[] for _ in range(d)]
    for col, a in sorted(sol.items()):
        s, j = divmod(col, d)
        columns[j].append((s, a))
    S = SparseMatrix(f, d, columns)
    # the solve produces a left convolution inverse; confirm the right law
    if not _antipode_ok(H, S):
        return None
    return S


def _antipode_ok(H, S):
    return antipode_failure(H.algebra, H.basis_comul, H.counit, S.columns) is None


def antipode_failure(algebra, basis_comul, counit, columns):
    """First basis index i with S(x_(1)) x_(2) or x_(1) S(x_(2)) unequal
    to eps(x) 1 at x = e_i, or None; columns are the sparse columns of S
    and basis_comul(i) lists the (j, k, c) of Delta(e_i)."""
    f = algebra.field
    product_terms = algebra.product_terms
    for i in range(algebra.dim):
        left = {}
        right = {}
        for (j, k, c) in basis_comul(i):
            product_terms(columns[j], [(k, c)], left)
            product_terms([(j, c)], columns[k], right)
        target = dict(nonzero_terms(f, [f.mul(counit[i], u) for u in algebra.unit]))
        if not (same_vector(f, left, target) and same_vector(f, right, target)):
            return i
    return None


def coassociativity_failure(field, dim, basis_comul):
    """First basis index i with (Delta x id) Delta(e_i) unequal to
    (id x Delta) Delta(e_i), or None; basis_comul as in antipode_failure."""
    for i in range(dim):
        lhs = {}
        rhs = {}
        for (j, k, c) in basis_comul(i):
            for (p, q, c2) in basis_comul(j):
                _put(field, lhs, (p, q, k), field.mul(c, c2))
            for (p, q, c2) in basis_comul(k):
                _put(field, rhs, (j, p, q), field.mul(c, c2))
        if lhs != rhs:
            return i
    return None


def comultiplicativity_failure(field, basis_comul, M, target_comul):
    """First basis index i with (M x M) Delta(e_i) unequal to
    Delta'(M e_i), or None, for a SparseMatrix M; basis_comul and
    target_comul list the source and target coproducts Delta and Delta'
    as in antipode_failure."""
    mul = field.mul
    for i, col in enumerate(M.columns):
        lhs = tt_apply(field, comul_dict(basis_comul, i), M, M)
        rhs = {}
        for r, a in col:
            for (j, k, c) in target_comul(r):
                _put(field, rhs, (j, k), mul(a, c))
        if not same_vector(field, lhs, rhs):
            return i
    return None


def counit_failure(field, basis_comul, counit):
    """First basis index i with (eps x id) Delta(e_i) or (id x eps) Delta(e_i)
    unequal to e_i, or None; basis_comul as in antipode_failure."""
    d = len(counit)
    for i in range(d):
        left = [field.zero] * d
        right = [field.zero] * d
        for (j, k, c) in basis_comul(i):
            left[k] = field.add(left[k], field.mul(c, counit[j]))
            right[j] = field.add(right[j], field.mul(c, counit[k]))
        e_i = unit_vector(field, d, i)
        if left != e_i or right != e_i:
            return i
    return None


def verify_hopf(H: HopfAlgebra) -> Report:
    """Full axiom run; failures carry the first violating basis index or
    pair.  Once verify_algebra has recorded H's algebra and proved its
    generators, Delta and eps are checked as algebra maps on the
    generator rows (multiplicativity_failure), and a multiplicative,
    unital Delta is recorded for comultiplicative_generators."""
    f = H.field
    d = H.dim
    rep = Report()
    rep.extend(verify_algebra(H.algebra))
    bad = coassociativity_failure(f, d, H.basis_comul)
    rep.add("coassociativity", bad is None, _basis_witness(H, bad))
    bad = counit_failure(f, H.basis_comul, H.counit)
    rep.add("counit law", bad is None, _basis_witness(H, bad))

    ok = H.comul_of(H.unit) == tt_unit(H)
    rep.add("comultiplication of the unit", ok)
    # H (x) H and the field are associative with their unit laws when H is
    gens = recorded_generators(H.algebra)
    deltas = [comul_dict(H.basis_comul, i) for i in range(d)]
    bad = multiplicativity_failure(f, H.mul, deltas, tt_row(H, deltas), gens if ok else None)
    rep.add("comultiplication is an algebra map", bad is None, _pair_witness(H, bad))
    if ok and bad is None:
        mul_facts = H.mul.facts()
        H.comul.facts()[("multiplicative", id(mul_facts), tuple(H.unit))] = mul_facts

    ok = f.is_one(H.counit_of(H.unit))
    bad = multiplicativity_failure(f, H.mul, *scalar_images(f, H.counit), gens) if ok else None
    rep.add("counit is an algebra map", ok and bad is None, _pair_witness(H, bad))

    S = H.antipode
    if S is None:
        rep.add("antipode exists", False, "convolution system is singular")
        return rep
    rep.add("antipode exists", True,
            "computed by convolution inversion" if H.antipode_source == "computed" else None)
    rep.add("antipode law", _antipode_ok(H, S))
    return rep


def comultiplicative_generators(H: HopfAlgebra):
    """recorded_generators(H.algebra) where the record also holds that
    Delta is unital and multiplicative over this multiplication and unit,
    as verify_hopf records on a pass; None otherwise.  Then a law on x
    whose solutions are closed under products, such as
    R Delta(x) = Delta^op(x) R, holds on H once it holds on them."""
    mul_facts = H.mul.facts()
    if H.comul.facts().get(("multiplicative", id(mul_facts), tuple(H.unit))) is not mul_facts:
        return None
    return recorded_generators(H.algebra)


def _basis_witness(H, bad):
    """The report witness of a failing basis index, or None."""
    return None if bad is None else {"basis": H.names[bad]}


def _pair_witness(H, bad):
    """The report witness of a failing basis pair (i, j), or None."""
    return None if bad is None else {"pair": (H.names[bad[0]], H.names[bad[1]])}


# ----------------------------------------------------------------------
# morphisms
# ----------------------------------------------------------------------


class HopfMorphism:
    """A linear map source -> target; ``matrix`` holds it as a SparseMatrix
    (a dense Matrix given here is read into one)."""

    def __init__(self, source: HopfAlgebra, target: HopfAlgebra, matrix):
        if matrix.shape != (target.dim, source.dim):
            raise UsageError(
                f"morphism matrix must be {target.dim}x{source.dim}, got {matrix.shape}"
            )
        if source.field != target.field:
            raise UsageError("morphism endpoints live over different fields")
        self.source = source
        self.target = target
        self.matrix = SparseMatrix.of(matrix)
        self._report = None

    def __call__(self, vec):
        return self.matrix.apply(vec)

    def verify(self) -> Report:
        if self._report is None:
            self._report = verify_morphism(self)
        return self._report

    @property
    def verified(self) -> bool:
        return self._report is not None and self._report.ok

    def is_surjective(self):
        return self.matrix.rank() == self.target.dim

    def is_injective(self):
        return self.matrix.rank() == self.source.dim

    def __repr__(self):
        return f"HopfMorphism({self.source!r} -> {self.target!r})"


def identity_morphism(H: HopfAlgebra) -> HopfMorphism:
    return HopfMorphism(H, H, SparseMatrix.identity(H.field, H.dim))


def verify_morphism(fmor: HopfMorphism) -> Report:
    """Intertwining with multiplication, unit, comultiplication, counit
    on all basis pairs (a bijective such map then preserves S as well).
    Multiplicativity is checked on generator rows where the record
    allows it (both algebras on record, the source's generators proved,
    the map unital), and on every pair otherwise.  Every law reads the
    map's sparse columns."""
    rep = Report()
    A, B, M = fmor.source, fmor.target, fmor.matrix
    f = A.field
    columns = M.columns
    images = [dict(col) for col in columns]
    unital = same_vector(f, combine(f, images, nonzero_terms(f, A.unit)),
                         dict(nonzero_terms(f, B.unit)))
    rep.add("sends unit to unit", unital)

    gens = recorded_generators(A.algebra) if unital and on_record(B.algebra) else None
    bad = multiplicativity_failure(f, A.mul, images, row_product(B.algebra, images), gens)
    rep.add("multiplicative", bad is None, _pair_witness(A, bad))

    bad = comultiplicativity_failure(f, A.basis_comul, M, B.basis_comul)
    rep.add("comultiplicative", bad is None, _basis_witness(A, bad))

    counit = B.counit
    bad = next((i for i, col in enumerate(columns)
                if f.sum(f.mul(a, counit[r]) for r, a in col) != A.counit[i]), None)
    rep.add("preserves counit", bad is None, _basis_witness(A, bad))
    return rep


# ----------------------------------------------------------------------
# duals, tensor products, op/cop
# ----------------------------------------------------------------------


def dual_hopf(H: HopfAlgebra) -> HopfAlgebra:
    """The dual Hopf algebra on dual-basis coordinates: multiplication is
    the transpose of the comultiplication and vice versa.  Its algebra's
    generators are left to the greedy search of algebra_generators."""
    f = H.field
    d = H.dim
    mul = SparseTensor3(f, (d, d, d))
    for (i, j, k), v in H.comul.items_sorted():
        mul.set(j, k, i, v)
    comul = SparseTensor3(f, (d, d, d))
    for (i, j, k), v in H.mul.items_sorted():
        comul.set(k, i, j, v)
    if H.antipode is None:
        raise UsageError("dual requires an antipode")
    names = [f"{n}*" for n in H.names]
    alg = AlgebraPresentation(f, d, mul, list(H.counit), names)
    return HopfAlgebra(alg, comul, list(H.unit), H.antipode.transpose(), names)


def tensor_hopf(H1: HopfAlgebra, H2: HopfAlgebra) -> HopfAlgebra:
    """Componentwise structure on the flat-indexed tensor basis
    e_i (x) e_j -> i * dim2 + j, with the generators of
    tensor_generators."""
    if H1.field != H2.field:
        raise UsageError("tensor factors live over different fields")
    f = H1.field
    d1, d2 = H1.dim, H2.dim
    d = d1 * d2
    mul = SparseTensor3(f, (d, d, d))
    for (i, k, m), v1 in H1.mul.items_sorted():
        for (j, l, n), v2 in H2.mul.items_sorted():
            mul.set(i * d2 + j, k * d2 + l, m * d2 + n, f.mul(v1, v2))
    comul = SparseTensor3(f, (d, d, d))
    for (i, p, q), v1 in H1.comul.items_sorted():
        for (j, r, s), v2 in H2.comul.items_sorted():
            comul.set(i * d2 + j, p * d2 + r, q * d2 + s, f.mul(v1, v2))
    unit = [f.zero] * d
    for i, a in enumerate(H1.unit):
        for j, b in enumerate(H2.unit):
            unit[i * d2 + j] = f.mul(a, b)
    counit = [f.mul(H1.counit[i], H2.counit[j]) for i in range(d1) for j in range(d2)]
    names = [f"{a}@{b}" for a in H1.names for b in H2.names]
    if H1.antipode is None or H2.antipode is None:
        antipode = None
    else:
        antipode = H1.antipode.kron(H2.antipode)
    alg = AlgebraPresentation(f, d, mul, unit, names, tensor_generators(H1.algebra, H2.algebra))
    return HopfAlgebra(alg, comul, counit, antipode, names)


def tensor_generators(A1: AlgebraPresentation, A2: AlgebraPresentation):
    """The generators g (x) 1 and 1 (x) h of A1 (x) A2 in its flat basis,
    for the generators g of A1 and h of A2, as the function that resolves
    them when a verifier asks."""
    def generators():
        f, d2 = A1.field, A2.dim
        ones1, ones2 = nonzero_terms(f, A1.unit), nonzero_terms(f, A2.unit)
        return ([{i * d2 + j: f.mul(a, b) for i, a in g for j, b in ones2} for g in algebra_generators(A1)]
                + [{i * d2 + j: f.mul(a, b) for i, a in ones1 for j, b in h} for h in algebra_generators(A2)])

    return generators


def op_cop(H: HopfAlgebra, variant: str):
    """Flip the multiplication (op) or the comultiplication (cop), keeping
    the antipode as given; returns (hopf, report, s_inverse_repairs).

    The verifier reports whether the antipode law holds with the stated S
    and, on failure, whether substituting the inverse of S repairs it.
    """
    f = H.field
    d = H.dim
    if variant == "op":
        mul = SparseTensor3(f, (d, d, d))
        for (i, j, k), v in H.mul.items_sorted():
            mul.set(j, i, k, v)
        # a set generates the opposite algebra exactly when it generates H
        alg = AlgebraPresentation(f, d, mul, list(H.unit), list(H.names), H.algebra.generators)
        out = HopfAlgebra(alg, H.comul, list(H.counit), H.antipode, list(H.names))
    elif variant == "cop":
        comul = SparseTensor3(f, (d, d, d))
        for (i, j, k), v in H.comul.items_sorted():
            comul.set(i, k, j, v)
        out = HopfAlgebra(H.algebra, comul, list(H.counit), H.antipode, list(H.names))
    else:
        raise UsageError("variant must be 'op' or 'cop'")
    rep = verify_hopf(out)
    repaired = None
    if not rep.ok and H.antipode is not None:
        inv = H.antipode.inverse()
        if inv is not None and _antipode_ok(out, inv):
            repaired = True
            rep.add("antipode law holds with S inverse instead", True)
        else:
            repaired = False
    return out, rep, repaired


# ----------------------------------------------------------------------
# group-likes
# ----------------------------------------------------------------------


class GroupLikeData:
    def __init__(self, elements, table, orders, central_flags, complete, report):
        self.elements = elements
        self.table = table
        self.orders = orders
        self.central_flags = central_flags
        self.complete = complete
        self.report = report

    def __len__(self):
        return len(self.elements)


def grouplikes(H: HopfAlgebra, supplied=None) -> GroupLikeData:
    """Group-like elements, found as characters of the dual algebra and
    re-verified against Delta(g) = g (x) g and eps(g) = 1.  A verified
    user-supplied list is accepted where enumeration is not promised."""
    f = H.field
    dual = dual_hopf(H)
    chars = characters(dual.algebra, supplied=supplied)
    rep = Report()
    elements = []
    for chi in chars.characters:
        g = list(chi)  # coordinates of g in the basis of H
        ok = H.comul_of(g) == tt_outer(H, g, g) and f.is_one(H.counit_of(g))
        rep.add("group-like verified", ok, None if ok else {"element": g})
        if ok:
            elements.append(g)
    # group table
    table = []
    for gi in elements:
        row = []
        for gj in elements:
            prod = H.algebra.product(gi, gj)
            row.append(elements.index(prod) if prod in elements else None)
        table.append(row)
    rep.add("group-likes closed under product", all(all(x is not None for x in r) for r in table))
    orders = []
    for g in elements:
        acc = list(g)
        order = None
        for k in range(1, H.dim + 2):
            if acc == H.unit:
                order = k
                break
            acc = H.algebra.product(acc, g)
        orders.append(order)
    Z = center(H.algebra)
    central_flags = [Z.contains(g) for g in elements]
    return GroupLikeData(elements, table, orders, central_flags, chars.complete, rep)


# ----------------------------------------------------------------------
# coinvariants and coideal subalgebras
# ----------------------------------------------------------------------


def coinvariants(H: HopfAlgebra, pi: HopfMorphism, side: str = "right") -> Subspace:
    """Right: solutions of (id (x) pi) Delta h = h (x) 1; left mirrors it."""
    return coinvariant_space(H.field, H.dim, H.basis_comul, pi, side)


def coinvariant_space(field, dim, basis_comul, pi: HopfMorphism, side: str) -> Subspace:
    """Coinvariants of the coproduct listed by basis_comul (as in
    antipode_failure) under pi.  The equation for the coordinate pair
    (j, b), j the kept leg and b the pi leg, is row j * dim K + b; the
    coproduct entries are walked once."""
    if side not in ("right", "left"):
        raise UsageError("side must be 'right' or 'left'")
    f = field
    unit_K = pi.target.unit
    kd = len(unit_K)
    pushed_column = pi.matrix.columns
    rows = {}
    for i in range(dim):
        for (j, k, c) in basis_comul(i):
            kept, pushed = (j, k) if side == "right" else (k, j)
            for b, p in pushed_column[pushed]:
                row = rows.setdefault(kept * kd + b, {})
                row[i] = f.add(row.get(i, f.zero), f.mul(c, p))
        for b in range(kd):
            row = rows.setdefault(i * kd + b, {})
            row[i] = f.sub(row.get(i, f.zero), unit_K[b])
    return Subspace(f, dim, nullspace_rows(f, sparse_rows(f, rows.values()), dim))


def is_normal_left_coideal_subalgebra(H: HopfAlgebra, L: Subspace) -> Report:
    """Clauses: (a) unital subalgebra, (b) Delta(L) in H (x) L,
    (c) stability under the adjoint action h_(1) l S(h_(2))."""
    rep = Report()
    f = H.field
    vecs = L.vectors()
    ok, wit = L.contains(H.unit), None
    for u in vecs:
        for v in vecs:
            if not L.contains(H.algebra.product(u, v)):
                ok, wit = False, {"pair": (u, v)}
                break
        if not ok:
            break
    rep.add("subalgebra", ok, wit)

    ok, wit = True, None
    for v in vecs:
        tt = H.comul_of(v)
        by_first = {}
        for (j, k), c in tt.items():
            by_first.setdefault(j, [f.zero] * H.dim)[k] = c
        for j, w in sorted(by_first.items()):
            if not L.contains(w):
                ok, wit = False, {"vector": v, "first_leg": H.names[j]}
                break
        if not ok:
            break
    rep.add("left coideal", ok, wit)

    ok, wit = True, None
    if H.antipode is None:
        ok, wit = False, "no antipode available"
    else:
        # e_p (v S(e_q)) summed over Delta(e_i); v S(e_q) is formed once
        # per (v, q) and reused for every e_i
        product_terms = H.algebra.product_terms
        antipode = H.antipode.columns
        operands = [nonzero_terms(f, v) for v in vecs]
        mids = {}
        for i in range(H.dim):
            terms = H.basis_comul(i)
            for n, v in enumerate(vecs):
                out = {}
                for (p, q, c) in terms:
                    mid = mids.get((n, q))
                    if mid is None:
                        mid = mids[(n, q)] = nonzero_terms(
                            f, product_terms(operands[n], antipode[q]))
                    product_terms([(p, c)], mid, out)
                if not L.contains(dense_vector(f, H.dim, out)):
                    ok, wit = False, {"basis": H.names[i], "vector": v}
                    break
            if not ok:
                break
    rep.add("adjoint stability", ok, wit)
    return rep


class QuotientData:
    def __init__(self, projection: HopfMorphism, section: SparseMatrix, ideal: Subspace,
                 quotient: HopfAlgebra):
        self.projection = projection
        self.section = section
        self.ideal = ideal
        self.quotient = quotient

    def __repr__(self):
        return f"QuotientData(dim {self.quotient.dim} of {self.projection.source.dim})"


def quotient_by_coideal(H: HopfAlgebra, L: Subspace) -> QuotientData:
    """Quotient of H by the Hopf ideal generated by L cap ker(eps).

    Raises StructureError with a witness when the ideal fails to be a
    two-sided coideal stable under S (the signal that L was not a normal
    left coideal subalgebra).
    """
    f = H.field
    d = H.dim
    eps_kernel = Subspace(f, d, Matrix(f, [list(H.counit)]).nullspace())
    Lplus = L.intersect(eps_kernel)
    ideal = left_ideal(H.algebra, Lplus.vectors()) if Lplus.dim else Subspace.zero(f, d)

    # two-sidedness, coideal property, counit vanishing, S-stability
    for v in ideal.vectors():
        operand = nonzero_terms(f, v)
        for i in range(d):
            if not ideal.contains(dense_vector(f, d, H.algebra.product_terms(operand, [(i, f.one)]))):
                raise StructureError("ideal is not right-stable", witness={"vector": v, "basis": H.names[i]})
        if not f.is_zero(H.counit_of(v)):
            raise StructureError("counit does not vanish on the ideal", witness={"vector": v})
        if H.antipode is not None and not ideal.contains(H.apply_antipode(v)):
            raise StructureError("ideal is not antipode-stable", witness={"vector": v})

    B, proj, section = quotient_algebra(H.algebra, ideal)
    qd = B.dim
    for v in ideal.vectors():
        img = tt_apply(f, H.comul_of(v), proj, proj)
        if img:
            raise StructureError("ideal is not a coideal", witness={"vector": v})

    comul = SparseTensor3(f, (qd, qd, qd))
    comp = ideal.complement_indices()
    for t in range(qd):
        img = tt_apply(f, comul_dict(H.basis_comul, comp[t]), proj, proj)
        for (j, k), v in sorted(img.items()):
            comul.set(t, j, k, v)
    counit = [H.counit[i] for i in comp]
    antipode = None
    if H.antipode is not None:
        antipode = proj @ H.antipode @ section
    K = HopfAlgebra(B, comul, counit, antipode, B.names)
    projection = HopfMorphism(H, K, proj)
    projection.verify()
    if not projection.verified:
        raise StructureError("quotient projection failed to be a Hopf map",
                             witness=projection.verify().first_failure().name)
    if (proj @ section) != SparseMatrix.identity(f, qd):
        raise AssertionError("projection composed with section is not the identity")
    return QuotientData(projection, section, ideal, K)


# ----------------------------------------------------------------------
# skew-primitives and desk-scale isomorphism search
# ----------------------------------------------------------------------


def skew_primitive_space(H: HopfAlgebra, g, h) -> Subspace:
    """Solutions of Delta(v) = v (x) g + h (x) v for group-likes g, h:
    row (j, k), column i of the system is the (j, k) coefficient of
    Delta(e_i) - e_i (x) g - h (x) e_i, built sparse from the coproduct
    index."""
    f = H.field
    d = H.dim
    minus_g = [(k, f.neg(a)) for k, a in nonzero_terms(f, g)]
    minus_h = [(j, f.neg(a)) for j, a in nonzero_terms(f, h)]
    rows = {}
    for i in range(d):
        terms = H.basis_comul(i) + [(i, k, a) for k, a in minus_g] + [(j, i, a) for j, a in minus_h]
        for (j, k, c) in terms:
            row = rows.setdefault((j, k), {})
            row[i] = f.add(row.get(i, f.zero), c)
    return Subspace(f, d, nullspace_rows(f, sparse_rows(f, rows.values()), d))


def _iso_scalar_grid(field):
    from .fields import CyclotomicField, PrimeField

    if isinstance(field, PrimeField) and field.p <= 13:
        return [x for x in range(1, field.p)]
    if isinstance(field, CyclotomicField):
        grid = [u for u in field.roots_of_unity()]
        grid += [field.from_rational(v) for v in (2, -2)]
        return grid
    return [field.parse(s) for s in ("1", "-1", "2", "-2", "1/2", "-1/2", "3", "-3")]


def _signature(H: HopfAlgebra):
    gl = grouplikes(H)
    return (
        H.dim,
        H.algebra.is_commutative(),
        H.is_cocommutative(),
        center(H.algebra).dim,
        tuple(sorted(o for o in gl.orders if o is not None)),
        gl.complete,
    )


def _word_basis(H: HopfAlgebra, gens):
    """Products of generators spanning H, as (words, vectors): the word
    (g_1, ..., g_k) is the vector (... (1 gens[g_1]) ...) gens[g_k], read
    off span_closure with words; None if the generators do not generate."""
    f = H.field
    span, basis = span_closure(H.algebra, [H.unit], "right",
                               [nonzero_terms(f, g) for g in gens], words=True)
    if span.dim != H.dim:
        return None
    return [word[1:] for word, _ in basis], [vec for _, vec in basis]


def find_hopf_isomorphism(A: HopfAlgebra, B: HopfAlgebra, grid=None):
    """Search for a verified Hopf isomorphism A -> B at desk scale.

    Group-likes are matched by order, skew-primitive generators by their
    group-like type with images scanned over a fixed scalar grid; every
    candidate is extended along a word basis and fully verified.  Returns
    a verified HopfMorphism or None (the search is sound, not complete).
    """
    import itertools

    f = A.field
    if _signature(A) != _signature(B):
        return None
    glA, glB = grouplikes(A), grouplikes(B)
    gens = []
    gen_kinds = []
    nontrivial = [(g, o) for g, o in zip(glA.elements, glA.orders) if g != A.unit]
    for g, o in nontrivial:
        gens.append(g)
        gen_kinds.append(("grouplike", o))
    span = subalgebra_closure(A.algebra, gens)
    if span.dim < A.dim:
        pairs = [(g, h) for g in glA.elements for h in glA.elements]
        for g, h in pairs:
            P = skew_primitive_space(A, g, h)
            for v in P.vectors():
                if not span.contains(v):
                    gens.append(v)
                    gen_kinds.append(("skew", (glA.elements.index(g), glA.elements.index(h))))
                    span = subalgebra_closure(A.algebra, gens)
                    if span.dim == A.dim:
                        break
            if span.dim == A.dim:
                break
    if span.dim < A.dim:
        return None
    wb = _word_basis(A, gens)
    if wb is None:
        return None
    words, vectors = wb
    word_matrix = Matrix.from_columns(f, vectors)

    grid = grid if grid is not None else _iso_scalar_grid(f)
    candidate_sets = []
    for kind, datum in gen_kinds:
        if kind == "grouplike":
            cands = [g for g, o in zip(glB.elements, glB.orders) if o == datum]
        else:
            gi, hi = datum
            gB = _matched_grouplike(glA, glB, gi)
            hB = _matched_grouplike(glA, glB, hi)
            cands = []
            for gB_el in gB:
                for hB_el in hB:
                    P = skew_primitive_space(B, gB_el, hB_el)
                    for w in P.vectors():
                        for alpha in grid:
                            cands.append([f.mul(alpha, x) for x in w])
        if not cands:
            return None
        candidate_sets.append(cands)

    for assignment in itertools.product(*candidate_sets):
        img_cols = []
        for w in words:
            vec = list(B.unit)
            for gi in w:
                vec = B.algebra.product(vec, list(assignment[gi]))
            img_cols.append(vec)
        img_matrix = Matrix.from_columns(f, img_cols)
        M = _solve_change_of_basis(word_matrix, img_matrix)
        if M is None or M.rank() != A.dim:
            continue
        mor = HopfMorphism(A, B, M)
        if mor.verify().ok:
            return mor
    return None


def _matched_grouplike(glA, glB, idx):
    order = glA.orders[idx]
    return [g for g, o in zip(glB.elements, glB.orders) if o == order]


def _solve_change_of_basis(word_matrix: Matrix, img_matrix: Matrix):
    """M with M @ word_matrix = img_matrix, from word_matrix^T M^T = img_matrix^T."""
    Mt = word_matrix.transpose().solve_matrix(img_matrix.transpose())
    return None if Mt is None else Mt.transpose()


# ----------------------------------------------------------------------
# extensions
# ----------------------------------------------------------------------


def verify_extension(iota: HopfMorphism, pi: HopfMorphism) -> Report:
    """The four clauses of a Hopf algebra extension A -> H -> K."""
    rep = Report()
    A, H = iota.source, iota.target
    K = pi.target
    f = H.field
    rep.add("injective inclusion", iota.is_injective())
    rep.add("surjective projection", pi.is_surjective())
    image = Subspace(f, H.dim, [iota.matrix.column(i) for i in range(A.dim)])
    coinv = coinvariants(H, pi, "right")
    rep.add("image equals right coinvariants", image == coinv)
    eps_kernel_A = Subspace(f, A.dim, Matrix(f, [list(A.counit)]).nullspace())
    aplus_in_H = [iota.matrix.apply(v) for v in eps_kernel_A.vectors()]
    hap = left_ideal(H.algebra, aplus_in_H) if aplus_in_H else Subspace.zero(f, H.dim)
    kernel = Subspace(f, H.dim, pi.matrix.nullspace())
    rep.add("kernel equals H times A-plus", hap == kernel)
    return rep
