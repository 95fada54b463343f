"""Finite-dimensional associative algebras given by structure constants.

An algebra is a multiplication tensor mu (e_i e_j = sum_k mu[i,j,k] e_k)
plus the coordinate vector of the unit.  Everything downstream (axiom
checks, centers, characters) is exact linear algebra over the chosen
field.  Products contract through the sparse pair index
(``AlgebraPresentation.product_terms``).  Every subspace computed here
is read off the one sparse elimination, ``linalg.eliminate``: ideals and
subalgebras by one semi-naive closure, ``span_closure``, and the center
as the nullspace of a system built as sparse rows.

``multiplicativity_failure`` is the one check that a linear map is
multiplicative on every basis pair; the comultiplication and counit of
verify_hopf, Hopf maps, characters and the braided maps all read it.
It compares a row at a time: F(e_i) times every image F(e_j) is formed
in one pass by a row function (``row_product`` here, ``hopf.tt_row`` on
H (x) H).  The images are inverted once by first leg (r -> [(j, b)]),
and each term e_p of the left factor walks only its right neighbours
among those legs, the r with e_p e_r != 0 (``right_partners`` over
``SparseTensor3.right_index``), so a pair whose product vanishes costs
nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import gfpoly
from .checks import Report
from .errors import UsageError
from .fields import CyclotomicField, PrimeField, Rationals
from .linalg import Matrix, Subspace, eliminate, nullspace_rows, sparse_rows, unit_vector
from .tensors import SparseTensor3


def basis_names(names, dim) -> list:
    """names as a list of dim basis names; UsageError on a wrong length."""
    if len(names) != dim:
        raise UsageError(f"{len(names)} basis names given for dimension {dim}")
    return list(names)


class AlgebraPresentation:
    def __init__(self, field, dim, mul: SparseTensor3, unit, names=None):
        if mul.dims != (dim, dim, dim):
            raise UsageError("multiplication tensor has wrong dimensions")
        if len(unit) != dim:
            raise UsageError("unit vector has wrong length")
        self.field = field
        self.dim = dim
        self.mul = mul
        self.unit = list(unit)
        self.names = basis_names(names, dim) if names is not None else [f"e{i}" for i in range(dim)]

    def basis_product(self, i, j):
        return self.mul.pair_index().get((i, j), [])

    def product(self, u, v):
        f = self.field
        return dense_vector(f, self.dim, self.product_terms(nonzero_terms(f, u), nonzero_terms(f, v)))

    def product_terms(self, us, vs, acc=None):
        """(sum a e_i)(sum b e_j) for sparse operands us = [(i, a)] and
        vs = [(j, b)], added into the dict acc (k -> value, zero entries
        possible after cancellation) and returned.

        This is the one structure-constant contraction: the pair index is
        read once per call and basis pairs with an empty product are
        skipped, so a call costs O(nnz) per operand pair, not O(dim^2)."""
        f = self.field
        mul, add, zero = f.mul, f.add, f.zero
        pairs = self.mul.pair_index()
        acc = {} if acc is None else acc
        get = acc.get
        for i, a in us:
            for j, b in vs:
                terms = pairs.get((i, j))
                if terms:
                    ab = mul(a, b)
                    for k, c in terms:
                        acc[k] = add(get(k, zero), mul(ab, c))
        return acc

    def left_mult_matrix(self, v):
        """Matrix of x -> v * x."""
        cols = [self.product(v, unit_vector(self.field, self.dim, j)) for j in range(self.dim)]
        return Matrix.from_columns(self.field, cols)

    def right_mult_matrix(self, v):
        cols = [self.product(unit_vector(self.field, self.dim, j), v) for j in range(self.dim)]
        return Matrix.from_columns(self.field, cols)

    def is_commutative(self):
        for (i, j), terms in sorted(self.mul.pair_index().items()):
            for k, c in terms:
                if self.mul.get(j, i, k) != c:
                    return False
        return True

    def __repr__(self):
        return f"Algebra(dim {self.dim} over {self.field!r})"


def nonzero_terms(field, vec):
    """Sparse operand [(i, a)] of a dense vector or of a dict i -> a."""
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    return [(i, a) for i, a in items if not field.is_zero(a)]


def dense_vector(field, dim, vec: dict):
    """Dense form of a dict vector i -> a."""
    out = [field.zero] * dim
    for i, a in vec.items():
        out[i] = a
    return out


def same_vector(field, u: dict, v: dict) -> bool:
    """Equality of two dict vectors i -> a, zero entries ignored."""
    return u == v or dict(nonzero_terms(field, u)) == dict(nonzero_terms(field, v))


def verify_algebra(A: AlgebraPresentation) -> Report:
    """Associativity and two-sided unit law, with the first violating
    basis triple as witness; basis products come straight from the pair
    index."""
    rep = Report()
    f = A.field
    d = A.dim
    one = f.one
    unit = nonzero_terms(f, A.unit)
    ok = True
    witness = None
    for i in range(d):
        e_i = {i: one}
        if not same_vector(f, A.product_terms(unit, [(i, one)]), e_i):
            ok, witness = False, {"side": "left", "basis": A.names[i]}
            break
        if not same_vector(f, A.product_terms([(i, one)], unit), e_i):
            ok, witness = False, {"side": "right", "basis": A.names[i]}
            break
    rep.add("unit law", ok, witness)

    # (e_i e_j) e_k and e_i (e_j e_k) both vanish unless e_m e_k != 0 for
    # some e_m in e_i e_j, or e_j e_k != 0; every other k passes, so the
    # scan visits only these candidates, in increasing order
    ok = True
    witness = None
    mul, add, zero = f.mul, f.add, f.zero
    pairs = A.mul.pair_index()
    right_of = {}
    for (m, k) in pairs:
        right_of.setdefault(m, []).append(k)
    for i in range(d):
        for j in range(d):
            ij = pairs.get((i, j), ())
            ks = set(right_of.get(j, ()))
            for m, _c in ij:
                ks.update(right_of.get(m, ()))
            for k in sorted(ks):
                lhs = {}
                for m, c in ij:
                    for n, c2 in pairs.get((m, k), ()):
                        lhs[n] = add(lhs.get(n, zero), mul(c, c2))
                rhs = {}
                for m, c in pairs.get((j, k), ()):
                    for n, c2 in pairs.get((i, m), ()):
                        rhs[n] = add(rhs.get(n, zero), mul(c2, c))
                if not same_vector(f, lhs, rhs):
                    ok = False
                    witness = {"triple": (i, j, k)}
                    break
            if not ok:
                break
        if not ok:
            break
    rep.add("associativity", ok, witness)
    return rep


def multiplicativity_failure(field, pairs, images, row):
    """First basis pair (i, j), in increasing order, with F(e_i e_j)
    unequal to F(e_i) F(e_j), or None.

    pairs is the source multiplication's pair index and images[k] = F(e_k)
    a sparse dict (a scalar-valued map keys its nonzero values by (), see
    scalar_images).  row(x) is the list [x images[j] for j] of products
    in the target, formed in one pass (row_product, hopf.tt_row); the row
    of F(e_i) is compared in increasing j, so every pair is checked."""
    mul, add, zero = field.mul, field.add, field.zero
    for i, x in enumerate(images):
        for j, product in enumerate(row(x)):
            lhs = {}
            for k, c in pairs.get((i, j), ()):
                for t, v in images[k].items():
                    lhs[t] = add(lhs.get(t, zero), mul(c, v))
            if not same_vector(field, lhs, product):
                return i, j
    return None


def right_partners(mul: SparseTensor3, by_first: dict):
    """The function p -> [(terms of e_p e_r, by_first[r])], in increasing
    r, over the r that are right neighbours of e_p (e_p e_r != 0) and keys
    of by_first, an inverted index of right factors by first leg.  The
    join walks the shorter side: the right-neighbour list of e_p
    (SparseTensor3.right_index) or the keys of by_first.  The list of
    each p is built on its first use and kept, so later rows reuse it."""
    pairs = mul.pair_index()
    right = mul.right_index()
    firsts = sorted(by_first)
    joined = {}

    def partners(p):
        got = joined.get(p)
        if got is None:
            neighbours = right.get(p, ())
            if len(firsts) < len(neighbours):
                got = [(pairs[(p, r)], by_first[r]) for r in firsts if (p, r) in pairs]
            else:
                got = [(terms, by_first[r]) for r, terms in neighbours if r in by_first]
            joined[p] = got
        return got

    return partners


def row_product(A: AlgebraPresentation, images):
    """The row x -> [x images[j] for j] in A, for sparse dicts x and
    images[j] (k -> a).  The images are inverted once by basis index
    (r -> [(j, b)]), so a term e_p of x meets only the images with a term
    e_r such that e_p e_r != 0; zero entries may remain after cancellation."""
    f = A.field
    mul, add = f.mul, f.add
    by_first = {}
    for j, image in enumerate(images):
        for r, b in image.items():
            by_first.setdefault(r, []).append((j, b))
    partners = right_partners(A.mul, by_first)

    def row(x):
        out = [{} for _ in images]
        for p, a in x.items():
            for terms, hits in partners(p):
                for j, b in hits:
                    ab = mul(a, b)
                    acc = out[j]
                    for k, c in terms:
                        v = mul(ab, c)
                        cur = acc.get(k)
                        acc[k] = v if cur is None else add(cur, v)
        return out

    return row


def pairwise_row(images, product):
    """The row x -> [product(x, y) for y in images] of a pairwise product."""
    return lambda x: [product(x, y) for y in images]


def scalar_images(field, values):
    """The values of a scalar-valued map as multiplicativity_failure
    images, each nonzero value keyed by (), and their row."""
    def product(x, y):
        return {(): field.mul(x[()], y[()])} if x and y else {}

    images = [{(): v} if not field.is_zero(v) else {} for v in values]
    return images, pairwise_row(images, product)


def center(A: AlgebraPresentation) -> Subspace:
    """Solutions of [x, e_j] = 0 for every basis e_j, canonical RREF:
    row (j, k), column i of the system is mul[i,j,k] - mul[j,i,k], built
    sparse from the pair index."""
    f = A.field
    rows = {}
    for (i, j), terms in A.mul.pair_index().items():
        for k, c in terms:
            row = rows.setdefault((j, k), {})
            row[i] = f.add(row.get(i, f.zero), c)
            row = rows.setdefault((i, k), {})
            row[j] = f.sub(row.get(j, f.zero), c)
    return Subspace(f, A.dim, nullspace_rows(f, sparse_rows(f, rows.values()), A.dim))


def span_closure(A: AlgebraPresentation, vectors, kind) -> Subspace:
    """Smallest subspace containing vectors that is a two-sided ideal
    (kind "two-sided"), a left ideal ("left") or a subalgebra
    ("subalgebra").

    Semi-naive: the seeds are eliminated once as sparse rows; each round
    multiplies only the rows whose pivot is new, by every basis element
    on the sides of an ideal, or by every row in both orders for a
    subalgebra, and eliminates the current rows with those products.  A
    row with a new pivot is zero at every old pivot, so the old span and
    the new rows together span the new space and the products of the old
    span were taken in earlier rounds.  The first round with no new pivot
    ends it, after at most dim rounds."""
    f = A.field
    d = A.dim
    product_terms = A.product_terms
    basis = [[(i, f.one)] for i in range(d)]
    rows, pivots = eliminate(f, sparse_rows(f, vectors))
    new = rows
    while new:
        products = []
        factors = basis if kind != "subalgebra" else [list(r.items()) for r in rows]
        for row in new:
            operand = list(row.items())
            for factor in factors:
                products.append(product_terms(factor, operand))
                if kind != "left":
                    products.append(product_terms(operand, factor))
        old = set(pivots)
        rows, pivots = eliminate(f, rows + sparse_rows(f, products))
        new = [row for row, pc in zip(rows, pivots) if pc not in old]
    return Subspace(f, d, [dense_vector(f, d, row) for row in rows])


def two_sided_ideal(A: AlgebraPresentation, generators) -> Subspace:
    return span_closure(A, generators, "two-sided")


def left_ideal(A: AlgebraPresentation, generators) -> Subspace:
    return span_closure(A, generators, "left")


def subalgebra_closure(A: AlgebraPresentation, vectors) -> Subspace:
    """The unital subalgebra generated by vectors."""
    return span_closure(A, list(vectors) + [A.unit], "subalgebra")


def quotient_algebra(A: AlgebraPresentation, ideal: Subspace):
    """Quotient by a two-sided ideal: (B, projection, section).

    The quotient basis is the set of non-pivot coordinates of the ideal's
    RREF, the section lifts them coordinate-wise.  Basis products are
    read sparse off the pair index and projected column by column.
    """
    f = A.field
    comp = ideal.complement_indices()
    qdim = len(comp)
    proj = Matrix.zeros(f, qdim, A.dim)
    for r, i in enumerate(comp):
        proj.rows[r][i] = f.one
    # pivot coordinates reduce into the complement
    for row, pc in zip(ideal.basis.rows, ideal.pivots):
        for r, i in enumerate(comp):
            proj.rows[r][pc] = f.neg(row[i])
    section = Matrix.zeros(f, A.dim, qdim)
    for r, i in enumerate(comp):
        section.rows[i][r] = f.one
    proj_columns = [nonzero_terms(f, proj.column(k)) for k in range(A.dim)]
    mul = SparseTensor3(f, (qdim, qdim, qdim))
    for s in range(qdim):
        for t in range(qdim):
            prod = {}
            for k, c in A.basis_product(comp[s], comp[t]):
                for r, p in proj_columns[k]:
                    prod[r] = f.add(prod.get(r, f.zero), f.mul(c, p))
            for r, c in sorted(prod.items()):
                mul.set(s, t, r, c)
    unit = proj.apply(A.unit)
    names = [f"[{A.names[i]}]" for i in comp]
    B = AlgebraPresentation(f, qdim, mul, unit, names)
    return B, proj, section


def abelianization(A: AlgebraPresentation):
    """Quotient by the two-sided ideal generated by all commutators.

    The generators are the nonzero commutators [e_i, e_j], i < j, in
    increasing (i, j) order; only pairs in the pair index can give one."""
    f = A.field
    pairs = A.mul.pair_index()
    gens = []
    for i, j in sorted({(min(i, j), max(i, j)) for i, j in pairs if i != j}):
        comm = dict(pairs.get((i, j), ()))
        for k, c in pairs.get((j, i), ()):
            comm[k] = f.sub(comm.get(k, f.zero), c)
        comm = dict(nonzero_terms(f, comm))
        if comm:
            gens.append(comm)
    if not gens:
        return A, Matrix.identity(f, A.dim), Matrix.identity(f, A.dim)
    ideal = two_sided_ideal(A, gens)
    return quotient_algebra(A, ideal)


# ----------------------------------------------------------------------
# characters: one-dimensional representations
# ----------------------------------------------------------------------

def minimal_polynomial(M: Matrix):
    """Monic minimal polynomial of a square matrix, ascending coefficients.

    One RREF of the flattened powers I, M, ..., M^n stacked as columns:
    its first free column m is the first power that depends on the
    earlier ones, which are independent, so the nullspace vector of that
    column holds the unique monic coefficients."""
    f = M.field
    n = M.nrows
    if n == 0:
        return [f.one]
    powers = [Matrix.identity(f, n)]
    for _ in range(n):
        powers.append(powers[-1] @ M)
    stacked = Matrix.from_columns(f, [sum(P.rows, []) for P in powers])
    null = stacked.nullspace()
    return null[0][:stacked.ncols - len(null) + 1]


def _rational_roots(field, poly):
    """All roots in Q with multiplicity; complete by the rational root test."""
    roots = []
    f = list(poly)
    # strip roots at zero
    while len(f) > 1 and f[0] == 0:
        roots.append(Fraction(0))
        f = f[1:]
    while len(f) > 1:
        # integer-scale the polynomial
        lcm = math.lcm(*(c.denominator for c in f))
        g = [int(c * lcm) for c in f]
        a0, an = abs(g[0]), abs(g[-1])
        found = None
        for num in sorted(_divisors(a0)):
            for den in sorted(_divisors(an)):
                for sgn in (1, -1):
                    cand = Fraction(sgn * num, den)
                    if _poly_eval_field(field, f, cand) == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            break
        roots.append(found)
        f = _deflate_field(field, f, found)
    return roots, f


def _divisors(n):
    if n == 0:
        return []
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _poly_eval_field(field, f, x):
    acc = field.zero
    for c in reversed(f):
        acc = field.add(field.mul(acc, x), c)
    return acc


def _deflate_field(field, f, root):
    out = [field.zero] * (len(f) - 1)
    acc = field.zero
    for i in range(len(f) - 1, 0, -1):
        acc = field.add(f[i], field.mul(acc, root))
        out[i - 1] = acc
    return out


def field_roots(field, poly):
    """Roots of poly in the field: (roots with multiplicity, cofactor,
    certified) where certified means the root list is provably complete.

    GF(p) uses full factorization, the rationals use the rational root
    test; cyclotomic fields scan roots of unity and rational candidates,
    so completeness there is certified only when the cofactor splits off
    entirely.
    """
    if isinstance(field, PrimeField):
        rts = gfpoly.roots(field.p, [c % field.p for c in poly])
        flat = []
        for r, m in rts:
            flat.extend([r] * m)
        cof = list(poly)
        for r in flat:
            cof = _deflate_field(field, cof, r)
        return flat, cof, True
    if isinstance(field, Rationals):
        roots, cof = _rational_roots(field, [Fraction(c) for c in poly])
        return roots, cof, True
    if isinstance(field, CyclotomicField):
        candidates = list(field.roots_of_unity())
        candidates.append(field.zero)
        for q in (2, 3, -2, -3):
            candidates.append(field.from_rational(Fraction(q)))
        f = list(poly)
        roots = []
        progress = True
        while len(f) > 1 and progress:
            progress = False
            for cand in candidates:
                if field.is_zero(_poly_eval_field(field, f, cand)):
                    roots.append(cand)
                    f = _deflate_field(field, f, cand)
                    progress = True
                    break
        certified = len(f) <= 1
        return roots, f, certified
    raise UsageError(f"unsupported field {field!r}")


@dataclass
class CharacterList:
    characters: list
    complete: bool
    obstructions: list
    report: Report


def characters(A: AlgebraPresentation, supplied=None) -> CharacterList:
    """All algebra maps A -> k that are visible over the ground field.

    Strategy: quotient by the commutator ideal, then refine the dual of
    the abelianization into joint generalized eigenspaces of the
    transposed multiplication operators; each final piece determines one
    candidate eigenvalue tuple, verified exhaustively on basis pairs.
    Complete over prime fields; over the rationals and cyclotomic fields
    a partial-result flag is set when a minimal polynomial fails to split.

    A user-supplied list (for fields where enumeration is not promised)
    is verified functional by functional and then trusted as complete.
    """
    f = A.field
    if supplied is not None:
        rep = Report()
        accepted = []
        for idx, chi in enumerate(supplied):
            chi = [f.parse(c) if isinstance(c, str) else c for c in chi]
            ok = _is_character(A, chi)
            rep.add(f"supplied functional {idx} is a character", ok)
            if not ok:
                raise UsageError(f"supplied functional {idx} is not an algebra map")
            accepted.append(chi)
        return CharacterList(accepted, True, [], rep)
    B, proj, _section = abelianization(A)
    obstructions = []
    all_split = True

    # the transposed multiplication operators, one per basis element of B
    transposed = [B.left_mult_matrix(unit_vector(f, B.dim, j)).transpose() for j in range(B.dim)]
    pieces = [Subspace.full(f, B.dim)]
    for Mt in transposed:
        new_pieces = []
        for W in pieces:
            if W.dim == 0:
                continue
            # restrict Mt to W: solve coordinates in the W basis
            basis_cols = W.basis.transpose()
            Aw = basis_cols.solve_matrix(Mt @ basis_cols)
            if Aw is None:
                raise AssertionError("piece not invariant (unreachable)")
            mp = minimal_polynomial(Aw)
            roots, cof, certified = field_roots(f, mp)
            if len(cof) > 1:
                all_split = False
                shown = _poly_show(f, cof)
                if shown not in obstructions:
                    obstructions.append(shown)
            for lam in sorted(set(roots), key=lambda x: _scalar_sort_key(f, x)):
                shifted = Aw - Matrix.identity(f, W.dim).scale(lam)
                powered = _matrix_power(shifted, W.dim)
                kern = powered.nullspace()
                vecs = (Matrix(f, kern) @ W.basis).rows if kern else []
                piece = Subspace(f, B.dim, vecs)
                if piece.dim:
                    new_pieces.append(piece)
            # pieces for irreducible cofactors carry no k-valued characters
            # when root extraction is certified; either way they are dropped
        pieces = new_pieces
    # each piece yields one eigenvalue tuple
    rep = Report()
    found = []
    for W in pieces:
        if W.dim == 0:
            continue
        w = W.vectors()[0]
        chi_B = []
        for Mt in transposed:
            lam = f.zero
            for a, b in zip(Mt.apply(w), w):
                if not f.is_zero(b):
                    lam = f.div(a, b)
                    break
            chi_B.append(lam)
        # pull back along the abelianization projection
        chi = proj.transpose().apply(chi_B)
        consistent = _is_character(A, chi)
        if consistent:
            found.append(chi)
        rep.add(f"piece dim {W.dim} yields a character", consistent)
    uniq = []
    for chi in found:
        if chi not in uniq:
            uniq.append(chi)
    uniq.sort(key=lambda v: [_scalar_sort_key(f, c) for c in v])
    complete = isinstance(f, PrimeField) or all_split
    rep.add("multiplicativity verified on all basis pairs", True)
    return CharacterList(uniq, complete, obstructions, rep)


def _is_character(A, chi):
    f = A.field
    if not f.is_one(f.sum(f.mul(c, u) for c, u in zip(chi, A.unit))):
        return False
    return multiplicativity_failure(f, A.mul.pair_index(), *scalar_images(f, chi)) is None


def _matrix_power(M: Matrix, e: int) -> Matrix:
    acc = Matrix.identity(M.field, M.nrows)
    for _ in range(e):
        acc = acc @ M
    return acc


def _scalar_sort_key(field, x):
    return str(field.show(x))


def _poly_show(field, poly):
    return "[" + ", ".join(field.show(c) for c in poly) + "]"
