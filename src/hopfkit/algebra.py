"""Finite-dimensional associative algebras given by structure constants.

An algebra is a multiplication tensor mu (e_i e_j = sum_k mu[i,j,k] e_k)
plus the coordinate vector of the unit.  Everything downstream (axiom
checks, centers, characters) is exact linear algebra over the chosen
field.  Products contract through the sparse pair index
(``AlgebraPresentation.product_terms``).  Ideals, subalgebras and the
span of generator words come from one semi-naive closure,
``span_closure``, which holds its span as reduced rows and reduces each
product by them; the center is the nullspace of a system built as
sparse rows, read off the sparse elimination ``linalg.eliminate``.

``multiplicativity_failure`` is the one check that a linear map is
multiplicative on every basis pair; the comultiplication and counit of
verify_hopf, Hopf maps, characters, the braided maps and associativity
(multiplicativity of the left regular representation, ``compose_row``)
all read it.  It compares a row at a time: F(e_i) times every image
F(e_j) is formed in one pass by a row function (``row_product`` here,
``hopf.tt_row`` on H (x) H).  The images are inverted once by first
leg (r -> [(j, b)]), and each term e_p of the left factor walks only
its right neighbours among those legs, the r with e_p e_r != 0
(``right_partners`` over ``SparseTensor3.right_index``), so a pair
whose product vanishes costs nothing.

A law whose solutions form a subalgebra holds on A once it holds on a
generating set G.  Each construction gives its algebra's generators,
``generating_set`` proves them by one closure of the unit under right
products by G, and the proved facts (the unit law, associativity,
generation) are recorded on the multiplication tensor
(``SparseTensor3.facts``), which drops them when it changes.  Then
verify_algebra runs Light's test on the rows of G only, and
multiplicativity_failure checks F(g e_j) = F(g) F(e_j) for g in G where
``recorded_generators`` and ``on_record`` allow the generator lemma.
Every failure, and every case without the facts, is the scan of every
pair, so each witness is the first failing pair or triple.
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
    """``generators`` is what a construction knows to generate the
    algebra: a list of vectors (dense lists or sparse dicts i -> a), a
    function of no arguments that returns one, or None, for the greedy
    search of ``algebra_generators``, which resolves it once.  Nothing is
    trusted: a verifier proves generation by ``generating_set`` before it
    uses it."""

    def __init__(self, field, dim, mul: SparseTensor3, unit, names=None, generators=None):
        if mul.dims != (dim, dim, dim):
            raise UsageError("multiplication tensor has wrong dimensions")
        if len(unit) != dim:
            raise UsageError("unit vector has wrong length")
        self.field = field
        self.dim = dim
        self.mul = mul
        self.unit = list(unit)
        self.names = basis_names(names, dim) if names is not None else [f"e{i}" for i in range(dim)]
        self.generators = generators
        self._resolved = None  # (generators, their sparse operands)

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


def combine(field, vectors, terms) -> dict:
    """sum a vectors[i] over the (i, a) of terms, with no zero value;
    each vectors[i] is a sparse dict or a list of (k, c)."""
    mul, add, is_zero = field.mul, field.add, field.is_zero
    out = {}
    for i, a in terms:
        v = vectors[i]
        for k, c in v.items() if isinstance(v, dict) else v:
            x = mul(a, c)
            cur = out.get(k)
            if cur is not None:
                x = add(cur, x)
            if is_zero(x):
                out.pop(k, None)
            else:
                out[k] = x
    return out


def same_vector(field, u: dict, v: dict) -> bool:
    """Equality of two dict vectors i -> a, zero entries ignored."""
    if u == v:
        return True
    is_zero = field.is_zero
    for i, a in u.items():
        b = v.get(i)
        if b is None:
            if not is_zero(a):
                return False
        elif a != b:
            return False
    return all(i in u or is_zero(b) for i, b in v.items())


def verify_algebra(A: AlgebraPresentation) -> Report:
    """Two-sided unit law and associativity, with the first violating
    basis element or triple as witness.  Associativity is multiplicativity
    of the left regular representation e_j -> L_j = {(k, n): mu[j,k,n]},
    one multiplicativity_failure over compose_row; for its failing pair,
    k is the first with (e_i e_j) e_k != e_i (e_j e_k).

    Where the unit law holds and generating_set proves a generating set
    G, the scan is Light's test: L_{g e_j} = L_g o L_j, that is
    (g e_j) e_k = g (e_j e_k), for every g in G and all j, k, the rows of
    L_g only.  It puts G in the left nucleus {a : (a x) y = a (x y)},
    which is a subalgebra by the Teichmueller identity and holds 1, so
    it is all of A.  A failing generator row falls back to the full scan,
    whose first pair gives the witness.  A pass is recorded."""
    rep = Report()
    f = A.field
    d = A.dim
    one = f.one
    bad = unit_law_failure(A)
    rep.add("unit law", bad is None, None if bad is None else {"side": bad[0], "basis": A.names[bad[1]]})

    pairs = A.mul.pair_index()
    right = A.mul.right_index()
    L = [{(k, n): c for k, terms in right.get(j, ()) for n, c in terms} for j in range(d)]
    gens = generating_set(A) if bad is None else None
    failure = multiplicativity_failure(f, A.mul, L, compose_row(f, L), gens)
    witness = None
    if failure is not None:
        i, j = failure
        ij = pairs.get((i, j), [])
        k = next(k for k in range(d) if not same_vector(
            f, A.product_terms(ij, [(k, one)]), A.product_terms([(i, one)], pairs.get((j, k), []))))
        witness = {"triple": (i, j, k)}
    else:
        A.mul.facts()["associative"] = True
    rep.add("associativity", failure is None, witness)
    return rep


def unit_law_failure(A: AlgebraPresentation):
    """First (side, i), with i increasing and "left" before "right", such
    that 1 e_i or e_i 1 is not e_i, or None; 2 dim sparse products, run
    once per multiplication tensor and unit and recorded."""
    facts = A.mul.facts()
    key = ("unit law", tuple(A.unit))
    if key not in facts:
        f = A.field
        one = f.one
        unit = nonzero_terms(f, A.unit)
        facts[key] = next(((side, i) for i in range(A.dim)
                           for side, us, vs in (("left", unit, [(i, one)]), ("right", [(i, one)], unit))
                           if not same_vector(f, A.product_terms(us, vs), {i: one})), None)
    return facts[key]


def on_record(A: AlgebraPresentation) -> bool:
    """Whether A's record holds that its unit law holds and that it is
    associative; runs no check."""
    facts = A.mul.facts()
    key = ("unit law", tuple(A.unit))
    return facts.get("associative", False) and key in facts and facts[key] is None


def recorded_generators(A: AlgebraPresentation):
    """A's generators where the record makes the generator lemma sound
    for a map out of A: on_record(A), and the generators are proved to
    generate A.  None otherwise; starts no search and no proof."""
    resolved = A._resolved
    if resolved is None or resolved[0] is not A.generators or not on_record(A):
        return None
    gens = resolved[1]
    return gens if A.mul.facts().get(("generated by", tuple(A.unit), gens)) else None


def algebra_generators(A: AlgebraPresentation) -> tuple:
    """A's generators as a tuple of sparse operands ((i, a), ...): the
    ones its construction gave, or else a greedy search.  The search
    takes each basis element in turn that lies outside the closure of the
    ones taken so far and extends that one closure by it (span_closure's
    rounds), and records whether they generate.  Resolved once and kept
    on A."""
    given = A.generators
    if A._resolved is not None and A._resolved[0] is given:
        return A._resolved[1]
    f = A.field
    gens = given() if callable(given) else given
    if gens is None:
        by_pivot = _unit_span(A)
        gens = []
        for i in range(A.dim):
            if len(by_pivot) == A.dim:
                break
            if not _residual(f, by_pivot, {i: f.one}):
                continue  # e_i is in the closure
            g = ((i, f.one),)
            gens.append(g)
            _grow(A, by_pivot, list(by_pivot.values()), "right", gens, first=[g])
        gens = tuple(gens)
        A.mul.facts()[("generated by", tuple(A.unit), gens)] = len(by_pivot) == A.dim
    else:
        gens = tuple(tuple(nonzero_terms(f, g)) for g in gens)
    A._resolved = (given, gens)
    return gens


def _unit_span(A: AlgebraPresentation) -> dict:
    """The span of the unit as reduced rows by pivot column."""
    f = A.field
    unit = dict(nonzero_terms(f, A.unit))
    return {} if not unit else {min(unit): _insert(f, {}, unit)}


def generating_set(A: AlgebraPresentation):
    """A's generators if they generate A as a unital algebra, else None.

    G generates A when the left-nested words (... ((1 g_1) g_2) ...) g_k
    span A: each lies in every unital subalgebra that contains G, whether
    or not A is associative.  That span is one semi-naive closure of the
    unit under right products by G (span_closure's rounds, one
    row_product pass per row), run once per multiplication tensor, unit
    and generating set and recorded."""
    gens = algebra_generators(A)
    facts = A.mul.facts()
    key = ("generated by", tuple(A.unit), gens)
    if key not in facts:
        by_pivot = _unit_span(A)
        _grow(A, by_pivot, list(by_pivot.values()), "right", gens)
        facts[key] = len(by_pivot) == A.dim
    return gens if facts[key] else None


def multiplicativity_failure(field, mul, images, row, generators=None):
    """First basis pair (i, j), in increasing order, with F(e_i e_j)
    unequal to F(e_i) F(e_j), or None.

    mul is the source multiplication, its SparseTensor3 or its pair
    index, and images[k] = F(e_k) a sparse dict (a scalar-valued map keys
    its nonzero values by (), see scalar_images).  row(x) is the list
    [x images[j] for j] of products in the target, formed in one pass
    (row_product, hopf.tt_row, compose_row, pairwise_row); the row of
    F(e_i) is compared in increasing j, so every pair is checked, and its
    left sides F(e_i e_j) are formed in one pass over the right
    neighbours of e_i.

    With generators G (sparse operands [(i, a)]) the rows F(g e_j) =
    F(g) F(e_j) of each g in G are checked first, where the F(g) hold
    fewer terms than the F(e_i) (fewer_terms), and if all hold the map is
    multiplicative.  That is the generator lemma: the set
    {a : F(a b) = F(a) F(b) for all b} is a subalgebra that holds 1 and
    G, so the caller passes G only when G is proved to generate the
    source, both ends are associative with their unit laws, and F is
    unital (recorded_generators, on_record).  A failing generator row
    falls back to the full scan, which gives the first pair."""
    right = mul.right_index() if isinstance(mul, SparseTensor3) else _by_first(mul)
    mul_, add, one = field.mul, field.add, field.one

    def left_side(terms):
        """sum c images[k] over the (k, c) of terms, a new dict."""
        out = {}
        for k, c in terms:
            for t, v in images[k].items():
                cur = out.get(t)
                v = v if c == one else mul_(c, v)
                out[t] = v if cur is None else add(cur, v)
        return out

    xs = None if generators is None else [combine(field, images, g) for g in generators]
    if xs is not None and fewer_terms(xs, images):
        for g, x in zip(generators, xs):
            terms = {}  # j -> the terms of g e_j
            for i, a in g:
                for j, ij in right.get(i, ()):
                    terms.setdefault(j, []).extend((k, mul_(a, c)) for k, c in ij)
            if not all(same_vector(field, left_side(terms[j]) if j in terms else _EMPTY, product)
                       for j, product in enumerate(row(x))):
                break
        else:
            return None
    for i, x in enumerate(images):
        lhs = {j: images[terms[0][0]] if len(terms) == 1 and terms[0][1] == one else left_side(terms)
               for j, terms in right.get(i, ())}
        for j, product in enumerate(row(x)):
            if not same_vector(field, lhs.get(j, _EMPTY), product):
                return i, j
    return None


_EMPTY = {}


def fewer_terms(xs, images) -> bool:
    """Whether the rows of xs hold fewer terms than those of images: a
    row costs in proportion to its left factor, so the generator rows
    are taken only where they are the cheaper check."""
    return sum(map(len, xs)) < sum(map(len, images))


def _by_first(pairs):
    """The right-neighbour lists i -> [(j, terms)] of a pair index."""
    out = {}
    for (i, j), terms in pairs.items():
        out.setdefault(i, []).append((j, terms))
    return out


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


def compose_row(field, images):
    """The row x -> [x o images[j] for j] of compositions of linear maps
    held as sparse dicts (k, n) -> a, the map e_k -> sum a e_n.  The images
    are inverted once by middle index (m -> [(j, k, b)]), so a term (m, n)
    of x meets only the images that reach e_m; zero entries may remain
    after cancellation."""
    mul, add = field.mul, field.add
    by_middle = {}
    for j, image in enumerate(images):
        for (k, m), b in image.items():
            by_middle.setdefault(m, []).append((j, k, b))

    def row(x):
        out = [{} for _ in images]
        for (m, n), a in x.items():
            for j, k, b in by_middle.get(m, ()):
                v = mul(b, a)
                acc = out[j]
                cur = acc.get((k, n))
                acc[k, n] = v if cur is None else add(cur, v)
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


def span_closure(A: AlgebraPresentation, vectors, kind, factors=None, words=False):
    """Smallest subspace containing vectors that is a two-sided ideal
    (kind "two-sided"), a left ideal ("left"), a right ideal ("right") or
    a subalgebra ("subalgebra").  With factors, a list of sparse
    operands, the products are by those factors instead of by the basis:
    the smallest subspace containing vectors and closed under products by
    each factor on the side or sides of the kind.

    Semi-naive: the span is held as reduced rows by pivot column, each
    product is reduced by them (``_residual``), and only a product
    outside the span becomes a new row (``_insert``); only the new rows
    are multiplied, by every factor on the sides of the kind, or by every
    row in both orders for a subalgebra.  A row changed by a later
    insertion differs from the one multiplied by a multiple of a newer
    row, whose products are taken too, so the span of the rows is closed
    when no product adds a row.

    With words (kind "right" and factors) the products are of the kept
    products themselves, and it returns the subspace and a basis of it
    as (word, vector) pairs: the word (s, f_1, ..., f_k) is the vector
    (... (vectors[s] factors[f_1]) ...) factors[f_k], kept when it lies
    outside the span of the words before it, in round order."""
    f = A.field
    d = A.dim
    if factors is None and kind != "subalgebra":
        factors = [((i, f.one),) for i in range(d)]
    by_pivot = {}
    if not words:
        seeds = [_insert(f, by_pivot, v) for v in (_residual(f, by_pivot, u) for u in sparse_rows(f, vectors))
                 if v]
        _grow(A, by_pivot, seeds, kind, factors)
        return Subspace(f, d, [dense_vector(f, d, by_pivot[pc]) for pc in sorted(by_pivot)])
    basis = []

    def admit(word, vec):
        """Keep vec under word if it is outside the span; the span grows."""
        v = _residual(f, by_pivot, vec)
        if v:
            _insert(f, by_pivot, v)
            basis.append((word, vec))
        return bool(v)

    new = [((s,), vec) for s, vec in enumerate(sparse_rows(f, vectors)) if admit((s,), vec)]
    while new and len(by_pivot) < d:
        kept = []
        for word, vec in new:
            operand = list(vec.items())
            for n, factor in enumerate(factors):
                product = dict(nonzero_terms(f, A.product_terms(operand, factor)))
                if admit(word + (n,), product):
                    kept.append(basis[-1])
        new = kept
    return Subspace(f, d, [dense_vector(f, d, by_pivot[pc]) for pc in sorted(by_pivot)]), [
        (word, dense_vector(f, d, vec)) for word, vec in basis]


def _grow(A: AlgebraPresentation, by_pivot, new, kind, factors, first=None):
    """span_closure's rounds on the reduced rows by_pivot, extended in
    place, of which new are still to be multiplied; the first round
    multiplies them by first instead of factors when it is given (one new
    factor of a closed span).  Right products by fixed factors are one
    row_product pass per row."""
    f = A.field
    product_terms = A.product_terms

    def right_row(round_factors):
        return row_product(A, [dict(g) for g in round_factors]) if kind == "right" else None

    def products(row, round_factors, times):
        if times is not None:
            return times(row)
        operand = list(row.items())
        out = [product_terms(factor, operand) for factor in round_factors]
        if kind != "left":
            out += [product_terms(operand, factor) for factor in round_factors]
        return out

    times = right_row(factors)
    while new:
        if first is not None:
            round_factors, first = first, None
            round_times = right_row(round_factors)
        else:
            round_factors = factors if factors is not None else [list(r.items()) for r in by_pivot.values()]
            round_times = times
        added = []
        for row in new:
            for p in products(row, round_factors, round_times):
                v = _residual(f, by_pivot, p)
                if v:
                    added.append(_insert(f, by_pivot, v))
        new = added


def _residual(field, by_pivot, vec) -> dict:
    """vec, a dict, less its part in the span of the reduced rows held by
    pivot column (by_pivot), with no zero value: empty exactly when vec
    lies in the span.  A row is zero at every other pivot, so one
    subtraction per pivot of vec suffices."""
    mul, sub, is_zero = field.mul, field.sub, field.is_zero
    out = {k: a for k, a in vec.items() if not is_zero(a)}
    for pc in [k for k in out if k in by_pivot]:
        c = out[pc]
        for j, a in by_pivot[pc].items():
            x = out.get(j)
            x = field.neg(mul(c, a)) if x is None else sub(x, mul(c, a))
            if is_zero(x):
                del out[j]
            else:
                out[j] = x
    return out


def _insert(field, by_pivot, v) -> dict:
    """Add a nonzero residual v of by_pivot as a reduced row: scaled to
    one at its first column, its pivot, and subtracted from every row
    with a nonzero there, so each row stays zero at every other pivot.
    Returns the new row."""
    mul, sub, is_zero = field.mul, field.sub, field.is_zero
    pc = min(v)
    if not field.is_one(v[pc]):
        inv = field.inv(v[pc])
        v = {j: mul(inv, a) for j, a in v.items()}
    for row in by_pivot.values():
        c = row.get(pc)
        if c is not None:
            for j, a in v.items():
                x = row.get(j)
                x = field.neg(mul(c, a)) if x is None else sub(x, mul(c, a))
                if is_zero(x):
                    del row[j]
                else:
                    row[j] = x
    by_pivot[pc] = v
    return v


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
    read sparse off the pair index and projected column by column.  The
    quotient's generators are the images of A's.
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
            prod = combine(f, proj_columns, A.basis_product(comp[s], comp[t]))
            for r, c in sorted(prod.items()):
                mul.set(s, t, r, c)
    unit = proj.apply(A.unit)
    names = [f"[{A.names[i]}]" for i in comp]

    def generators():
        # the images of A's generators generate the quotient
        return [combine(f, proj_columns, g) for g in algebra_generators(A)]

    B = AlgebraPresentation(f, qdim, mul, unit, names, generators)
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
    f = [field.from_rational(c) for c in poly]
    # strip roots at zero
    while len(f) > 1 and f[0] == 0:
        roots.append(field.zero)
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
                    cand = field.from_rational(Fraction(sgn * num, den))
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
        roots, cof = _rational_roots(field, poly)
        return roots, cof, True
    if isinstance(field, CyclotomicField):
        candidates = list(field.roots_of_unity())
        candidates.append(field.zero)
        for q in (2, 3, -2, -3):
            candidates.append(field.from_rational(q))
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
    # the field is associative, and chi is unital here
    return multiplicativity_failure(f, A.mul, *scalar_images(f, chi), recorded_generators(A)) is None


def _matrix_power(M: Matrix, e: int) -> Matrix:
    acc = Matrix.identity(M.field, M.nrows)
    for _ in range(e):
        acc = acc @ M
    return acc


def _scalar_sort_key(field, x):
    return str(field.show(x))


def _poly_show(field, poly):
    return "[" + ", ".join(field.show(c) for c in poly) + "]"
