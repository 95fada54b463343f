"""Independent test oracles.

Everything in this module recomputes results from raw structure
constants using its own arithmetic (ints mod p, Fractions), so expected
values never flow through the code under test.  The brute-force R-matrix
solver lives here for the same reason: the derived R-matrix families used
by the tests are found by searching the axiom equations directly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


# ----------------------------------------------------------------------
# scalar helpers: p is None for the rationals, a prime for GF(p)
# ----------------------------------------------------------------------

def s_add(p, a, b):
    return (a + b) % p if p else a + b


def s_mul(p, a, b):
    return (a * b) % p if p else a * b


def s_neg(p, a):
    return (-a) % p if p else -a


def s_inv(p, a):
    if p:
        return pow(a, p - 2, p)
    return 1 / a


def s_zero(p):
    return 0 if p else Fraction(0)


def s_one(p):
    return 1 if p else Fraction(1)


def export_hopf(H):
    """Raw structure constants of a hopfkit HopfAlgebra over Q or GF(p)."""
    field = H.field
    p = getattr(field, "p", None)
    conv = (lambda x: int(x)) if p else (lambda x: Fraction(x))
    return {
        "p": p,
        "dim": H.dim,
        "mul": {k: conv(v) for k, v in H.mul.entries.items()},
        "unit": [conv(v) for v in H.unit],
        "comul": {k: conv(v) for k, v in H.comul.entries.items()},
        "counit": [conv(v) for v in H.counit],
    }


# ----------------------------------------------------------------------
# independent dense Gaussian elimination
# ----------------------------------------------------------------------

def rref(p, rows):
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    pr = 0
    for pc in range(ncols):
        sel = None
        for i in range(pr, len(rows)):
            if rows[i][pc] != s_zero(p):
                sel = i
                break
        if sel is None:
            continue
        rows[pr], rows[sel] = rows[sel], rows[pr]
        inv = s_inv(p, rows[pr][pc])
        rows[pr] = [s_mul(p, inv, x) for x in rows[pr]]
        for i in range(len(rows)):
            if i != pr and rows[i][pc] != s_zero(p):
                c = rows[i][pc]
                rows[i] = [s_add(p, x, s_neg(p, s_mul(p, c, y)))
                           for x, y in zip(rows[i], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == len(rows):
            break
    return rows, pivots


def rank(p, rows):
    return len(rref(p, rows)[1])


def nullspace(p, rows):
    ncols = len(rows[0]) if rows else 0
    R, pivots = rref(p, rows)
    pivot_set = set(pivots)
    out = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [s_zero(p)] * ncols
        v[fc] = s_one(p)
        for r, pc in enumerate(pivots):
            v[pc] = s_neg(p, R[r][fc])
        out.append(v)
    return out


def solve(p, rows, rhs):
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    ncols = len(rows[0])
    R, pivots = rref(p, aug)
    if pivots and pivots[-1] == ncols:
        return None
    x = [s_zero(p)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = R[r][ncols]
    return x


# ----------------------------------------------------------------------
# subspaces of an algebra: schoolbook closures and dense systems
# ----------------------------------------------------------------------

def product(raw, u, v):
    """Dense product of two dense vectors from the raw constants."""
    p = raw["p"]
    out = [s_zero(p)] * raw["dim"]
    for (i, j, k), c in raw["mul"].items():
        if u[i] != s_zero(p) and v[j] != s_zero(p):
            out[k] = s_add(p, out[k], s_mul(p, s_mul(p, u[i], v[j]), c))
    return out


def closure(raw, seeds, kind):
    """RREF basis of the smallest two-sided ideal, left ideal or unital
    subalgebra containing the seeds, by a schoolbook fixpoint: every
    basis row is multiplied by every basis element (by every basis row,
    for the subalgebra) until the rank stops growing."""
    p = raw["p"]
    d = raw["dim"]
    units = [[s_one(p) if i == j else s_zero(p) for j in range(d)] for i in range(d)]
    rows = [list(v) for v in seeds] + ([list(raw["unit"])] if kind == "subalgebra" else [])
    basis = [r for r in rref(p, rows)[0] if any(x != s_zero(p) for x in r)]
    while True:
        factors = basis if kind == "subalgebra" else units
        grown = list(basis)
        for u in basis:
            for e in factors:
                grown.append(product(raw, e, u))
                if kind != "left":
                    grown.append(product(raw, u, e))
        bigger = [r for r in rref(p, grown)[0] if any(x != s_zero(p) for x in r)]
        if len(bigger) == len(basis):
            return basis
        basis = bigger


def subspace_basis(p, vectors):
    """Nonzero RREF rows of the span of vectors."""
    return [r for r in rref(p, vectors)[0] if any(x != s_zero(p) for x in r)]


def center_system(raw):
    """Rows (j, k), columns i: mul[i,j,k] - mul[j,i,k]."""
    p = raw["p"]
    d = raw["dim"]
    rows = [[s_zero(p)] * d for _ in range(d * d)]
    for (i, j, k), c in raw["mul"].items():
        rows[j * d + k][i] = s_add(p, rows[j * d + k][i], c)
        rows[i * d + k][j] = s_add(p, rows[i * d + k][j], s_neg(p, c))
    return rows


def skew_primitive_system(raw, g, h):
    """Rows (j, k), columns i: the (j, k) coefficient of
    Delta(e_i) - e_i (x) g - h (x) e_i."""
    p = raw["p"]
    d = raw["dim"]
    rows = [[s_zero(p)] * d for _ in range(d * d)]
    for (i, j, k), c in raw["comul"].items():
        rows[j * d + k][i] = s_add(p, rows[j * d + k][i], c)
    for j in range(d):
        for k in range(d):
            rows[j * d + k][j] = s_add(p, rows[j * d + k][j], s_neg(p, g[k]))
            rows[j * d + k][k] = s_add(p, rows[j * d + k][k], s_neg(p, h[j]))
    return rows


def coinvariant_system(raw, P, unit_k, side):
    """Rows (kept leg, b), columns i of (id x pi) Delta(h) = h (x) 1
    (right) or (pi x id) Delta(h) = 1 (x) h (left) for the dense matrix
    P of pi."""
    p = raw["p"]
    d = raw["dim"]
    kd = len(unit_k)
    rows = [[s_zero(p)] * d for _ in range(d * kd)]
    for (i, j, k), c in raw["comul"].items():
        kept, pushed = (j, k) if side == "right" else (k, j)
        for b in range(kd):
            r = rows[kept * kd + b]
            r[i] = s_add(p, r[i], s_mul(p, c, P[b][pushed]))
    for i in range(d):
        for b in range(kd):
            rows[i * kd + b][i] = s_add(p, rows[i * kd + b][i], s_neg(p, unit_k[b]))
    return rows


# ----------------------------------------------------------------------
# sparse tensor arithmetic on raw constants
# ----------------------------------------------------------------------

def _acc(p, d, key, val):
    if val == s_zero(p):
        return
    cur = d.get(key)
    new = s_add(p, cur, val) if cur is not None else val
    if new == s_zero(p):
        d.pop(key, None)
    else:
        d[key] = new


def mul_index(raw):
    idx = {}
    for (i, j, k), v in raw["mul"].items():
        idx.setdefault((i, j), []).append((k, v))
    return idx


def comul_index(raw):
    idx = {}
    for (i, j, k), v in raw["comul"].items():
        idx.setdefault(i, []).append((j, k, v))
    return idx


def tt_mul(raw, A, B, mi=None):
    p = raw["p"]
    mi = mi or mul_index(raw)
    out = {}
    for (i, j), a in A.items():
        for (k, l), b in B.items():
            ab = s_mul(p, a, b)
            for m, cm in mi.get((i, k), []):
                vb = s_mul(p, ab, cm)
                for n, cn in mi.get((j, l), []):
                    _acc(p, out, (m, n), s_mul(p, vb, cn))
    return out


def t3_mul(raw, A, B, mi=None):
    p = raw["p"]
    mi = mi or mul_index(raw)
    out = {}
    for ka, a in A.items():
        for kb, b in B.items():
            coef = s_mul(p, a, b)
            legs = []
            for x, y in zip(ka, kb):
                legs.append(mi.get((x, y), []))
            for (m, cm) in legs[0]:
                v0 = s_mul(p, coef, cm)
                for (n, cn) in legs[1]:
                    v1 = s_mul(p, v0, cn)
                    for (o, co) in legs[2]:
                        _acc(p, out, (m, n, o), s_mul(p, v1, co))
    return out


def t3_embed(raw, A, spots):
    p = raw["p"]
    other = ({0, 1, 2} - set(spots)).pop()
    out = {}
    for (i, j), v in A.items():
        for u, a in enumerate(raw["unit"]):
            if a == s_zero(p):
                continue
            key = [None, None, None]
            key[spots[0]] = i
            key[spots[1]] = j
            key[other] = u
            _acc(p, out, tuple(key), s_mul(p, v, a))
    return out


def unit_tt(raw):
    p = raw["p"]
    out = {}
    for i, a in enumerate(raw["unit"]):
        if a == s_zero(p):
            continue
        for j, b in enumerate(raw["unit"]):
            if b != s_zero(p):
                _acc(p, out, (i, j), s_mul(p, a, b))
    return out


# ----------------------------------------------------------------------
# structure-map laws, schoolbook on dense lists
# ----------------------------------------------------------------------

def first_unmultiplicative_pair(raw, images, product):
    """First basis pair (i, j), in increasing order, with
    F(e_i e_j) != F(e_i) F(e_j), or None; images[k] is the dense list
    F(e_k) and product multiplies two such lists."""
    p = raw["p"]
    d = raw["dim"]
    for i in range(d):
        for j in range(d):
            lhs = [s_zero(p)] * len(images[0])
            for k in range(d):
                c = raw["mul"].get((i, j, k))
                if c is not None:
                    lhs = [s_add(p, x, s_mul(p, c, y)) for x, y in zip(lhs, images[k])]
            if lhs != product(images[i], images[j]):
                return i, j
    return None


def first_unassociative_triple(raw):
    """First basis triple (i, j, k), in increasing order, with
    (e_i e_j) e_k != e_i (e_j e_k), or None; both sides are summed term by
    term from the raw constants for every triple."""
    p = raw["p"]
    d = raw["dim"]
    mi = mul_index(raw)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                lhs, rhs = {}, {}
                for m, c in mi.get((i, j), []):
                    for n, c2 in mi.get((m, k), []):
                        _acc(p, lhs, n, s_mul(p, c, c2))
                for m, c in mi.get((j, k), []):
                    for n, c2 in mi.get((i, m), []):
                        _acc(p, rhs, n, s_mul(p, c2, c))
                if lhs != rhs:
                    return i, j, k
    return None


def first_uncomultiplicative_index(src, M, tgt):
    """First basis index i with (M x M) Delta(e_i) != Delta(M e_i), or
    None, for the dense matrix M (a list of rows) from src to tgt; tensor
    squares are dense over the flat basis e_a (x) e_b -> a * dim + b."""
    p = src["p"]
    n = tgt["dim"]
    for i in range(src["dim"]):
        lhs = [s_zero(p)] * (n * n)
        for (s, j, k), c in src["comul"].items():
            if s != i:
                continue
            for a in range(n):
                for b in range(n):
                    x = s_mul(p, c, s_mul(p, M[a][j], M[b][k]))
                    lhs[a * n + b] = s_add(p, lhs[a * n + b], x)
        rhs = [s_zero(p)] * (n * n)
        for (s, a, b), c in tgt["comul"].items():
            rhs[a * n + b] = s_add(p, rhs[a * n + b], s_mul(p, M[s][i], c))
        if lhs != rhs:
            return i
    return None


def coproduct_images(raw):
    """Delta(e_k) for every k, dense over the flat basis of H (x) H."""
    p = raw["p"]
    d = raw["dim"]
    out = [[s_zero(p)] * (d * d) for _ in range(d)]
    for (k, a, b), c in raw["comul"].items():
        out[k][a * d + b] = s_add(p, out[k][a * d + b], c)
    return out


def tensor_square_product(raw, u, v):
    """(a (x) b)(c (x) d) = ac (x) bd on dense elements of H (x) H."""
    p = raw["p"]
    d = raw["dim"]
    mi = mul_index(raw)
    out = [s_zero(p)] * (d * d)
    for x, a in enumerate(u):
        if a == s_zero(p):
            continue
        i, j = divmod(x, d)
        for y, b in enumerate(v):
            if b == s_zero(p):
                continue
            k, l = divmod(y, d)
            ab = s_mul(p, a, b)
            for m, cm in mi.get((i, k), []):
                for n, cn in mi.get((j, l), []):
                    out[m * d + n] = s_add(p, out[m * d + n], s_mul(p, ab, s_mul(p, cm, cn)))
    return out


def sparse_coproducts(raw):
    """Delta(e_k) for every k as a sparse dict {(a, b): value}."""
    p = raw["p"]
    out = [{} for _ in range(raw["dim"])]
    for (k, a, b), c in raw["comul"].items():
        _acc(p, out[k], (a, b), c)
    return out


def first_unmultiplicative_coproduct_row(raw):
    """(i, js): the first basis index i with Delta(e_i e_j) !=
    Delta(e_i) Delta(e_j) for some j, and every such j in increasing
    order, or (None, []); each pair is one tt_mul of two coproducts."""
    p = raw["p"]
    d = raw["dim"]
    mi = mul_index(raw)
    deltas = sparse_coproducts(raw)
    for i in range(d):
        js = []
        for j in range(d):
            lhs = {}
            for k, c in mi.get((i, j), []):
                for key, v in deltas[k].items():
                    _acc(p, lhs, key, s_mul(p, c, v))
            if lhs != tt_mul(raw, deltas[i], deltas[j], mi):
                js.append(j)
        if js:
            return i, js
    return None, []


def first_unintertwined_index(raw, R):
    """First basis index i with R Delta(e_i) != Delta^op(e_i) R for a
    sparse R = {(i, j): value}, or None."""
    mi = mul_index(raw)
    for i, delta in enumerate(sparse_coproducts(raw)):
        flipped = {(b, a): v for (a, b), v in delta.items()}
        if tt_mul(raw, R, delta, mi) != tt_mul(raw, flipped, R, mi):
            return i
    return None


def export_antipode(H):
    """The antipode of H as raw rows: column j is S(e_j)."""
    p = getattr(H.field, "p", None)
    conv = (lambda x: int(x)) if p else (lambda x: Fraction(x))
    return [[conv(v) for v in row] for row in H.antipode.rows]


def sparse_product(raw, u, v, mi=None):
    """uv for sparse vectors {i: value}."""
    p = raw["p"]
    mi = mi or mul_index(raw)
    out = {}
    for i, a in u.items():
        for j, b in v.items():
            for k, c in mi.get((i, j), []):
                _acc(p, out, k, s_mul(p, s_mul(p, a, b), c))
    return out


def adjoint_action(raw, S):
    """ad[h][t] = h_(1) e_t S(h_(2)) at h = e_h as sparse vectors, from the
    raw constants and the antipode rows S (column j is S(e_j))."""
    p = raw["p"]
    d = raw["dim"]
    mi = mul_index(raw)
    ad = [[{} for _ in range(d)] for _ in range(d)]
    for (h, a, b), c in raw["comul"].items():
        s_b = {r: S[r][b] for r in range(d) if S[r][b] != s_zero(p)}
        for t in range(d):
            left = sparse_product(raw, {a: c}, {t: s_one(p)}, mi)
            for k, v in sparse_product(raw, left, s_b, mi).items():
                _acc(p, ad[h][t], k, v)
    return ad


def action_through(p, P, ad):
    """act[h][t] = sum_u P[u][h] ad[u][t]: the action ad of a target
    algebra read through the map with matrix rows P (column h is P(e_h))."""
    act = []
    for h in range(len(P[0])):
        row = []
        for t in range(len(ad[0])):
            acc = {}
            for u in range(len(P)):
                for k, v in ad[u][t].items():
                    _acc(p, acc, k, s_mul(p, P[u][h], v))
            row.append(acc)
        act.append(row)
    return act


def braided_product(left, right, R, ad_left, ad_right, A, B):
    """(u (x) v)(w (x) z) = sum_R u ad_left[R_i](w) (x) ad_right[R^i](v) z
    for sparse elements {(a, b): value} of left (x) right, R = {(i, j):
    value} with R^i = e_i on the first leg and R_i = e_j on the second."""
    p = left["p"]
    ml, mr = mul_index(left), mul_index(right)
    out = {}
    for (u, v), a in A.items():
        for (w, z), b in B.items():
            for (i, j), r in R.items():
                coef = s_mul(p, s_mul(p, a, b), r)
                x = sparse_product(left, {u: coef}, ad_left[j][w], ml)
                y = sparse_product(right, ad_right[i][v], {z: s_one(p)}, mr)
                for m, xm in x.items():
                    for n, yn in y.items():
                        _acc(p, out, (m, n), s_mul(p, xm, yn))
    return out


def comul_legs(raw, X):
    """(Delta x id)(X) and (id x Delta)(X) for a sparse X = {(i, j): value}."""
    p = raw["p"]
    ci = comul_index(raw)
    first = {}
    second = {}
    for (i, j), v in X.items():
        for (a, b, c) in ci.get(i, []):
            _acc(p, first, (a, b, j), s_mul(p, v, c))
        for (a, b, c) in ci.get(j, []):
            _acc(p, second, (i, a, b), s_mul(p, v, c))
    return first, second


def twist_identity_holds(raw, J):
    """(J x 1)(Delta x id)(J) == (1 x J)(id x Delta)(J) for a sparse
    J = {(i, j): value}, the identity of the twist J Delta J^-1."""
    first, second = comul_legs(raw, J)
    lhs = t3_mul(raw, t3_embed(raw, J, (0, 1)), first)
    rhs = t3_mul(raw, t3_embed(raw, J, (1, 2)), second)
    return lhs == rhs


# ----------------------------------------------------------------------
# brute-force R-matrix solver
# ----------------------------------------------------------------------

RATIONAL_GRID = [Fraction(v) for v in
                 (0, 1, -1, Fraction(1, 2), -Fraction(1, 2), 2, -2,
                  Fraction(1, 4), -Fraction(1, 4))]


def rmatrix_linear_space(raw):
    """Affine solution space of the linear R-matrix conditions:
    intertwining of the flipped coproduct and both counit normalizations.
    Returns (particular, basis) over vectors of length dim^2."""
    p = raw["p"]
    d = raw["dim"]
    mi = mul_index(raw)
    ci = comul_index(raw)
    rows = []
    rhs = []
    # R Delta(e_t) - flipped-Delta(e_t) R = 0, linear in the d^2 unknowns
    for t in range(d):
        delta = ci.get(t, [])
        coeff = {}
        for (k, l) in itertools.product(range(d), range(d)):
            col = k * d + l
            for (pp, q, c) in delta:
                for m, cm in mi.get((k, pp), []):
                    for n, cn in mi.get((l, q), []):
                        key = (m, n, col)
                        _acc(p, coeff, key, s_mul(p, c, s_mul(p, cm, cn)))
                for m, cm in mi.get((q, k), []):
                    for n, cn in mi.get((pp, l), []):
                        key = (m, n, col)
                        _acc(p, coeff, key, s_neg(p, s_mul(p, c, s_mul(p, cm, cn))))
        by_eq = {}
        for (m, n, col), v in coeff.items():
            by_eq.setdefault((m, n), {})[col] = v
        for eq in sorted(by_eq):
            row = [s_zero(p)] * (d * d)
            for col, v in by_eq[eq].items():
                row[col] = v
            rows.append(row)
            rhs.append(s_zero(p))
    # (eps (x) id) R = 1 and (id (x) eps) R = 1
    for j in range(d):
        row = [s_zero(p)] * (d * d)
        for i in range(d):
            row[i * d + j] = raw["counit"][i]
        rows.append(row)
        rhs.append(raw["unit"][j])
    for i in range(d):
        row = [s_zero(p)] * (d * d)
        for j in range(d):
            row[i * d + j] = raw["counit"][j]
        rows.append(row)
        rhs.append(raw["unit"][i])
    particular = solve(p, rows, rhs)
    if particular is None:
        return None, []
    return particular, nullspace(p, rows)


def quadratic_axioms_hold(raw, coeffs, mi=None):
    """The two coproduct axioms, checked exactly on a candidate."""
    return all(quadratic_axiom_verdicts(raw, coeffs, mi))


def quadratic_axiom_verdicts(raw, coeffs, mi=None):
    """(Delta x id)(R) == R13 R23, then (id x Delta)(R) == R13 R12, each
    evaluated only when it is read."""
    mi = mi or mul_index(raw)
    lhs1, lhs2 = comul_legs(raw, coeffs)
    r13 = t3_embed(raw, coeffs, (0, 2))
    r23 = t3_embed(raw, coeffs, (1, 2))
    r12 = t3_embed(raw, coeffs, (0, 1))
    yield lhs1 == t3_mul(raw, r13, r23, mi)
    yield lhs2 == t3_mul(raw, r13, r12, mi)


def is_invertible_tt(raw, coeffs):
    p = raw["p"]
    d = raw["dim"]
    mi = mul_index(raw)
    rows = [[s_zero(p)] * (d * d) for _ in range(d * d)]
    for (i, j), v in coeffs.items():
        for k in range(d):
            for m, cm in mi.get((i, k), []):
                vm = s_mul(p, v, cm)
                for l in range(d):
                    for n, cn in mi.get((j, l), []):
                        r = m * d + n
                        c = k * d + l
                        rows[r][c] = s_add(p, rows[r][c], s_mul(p, vm, cn))
    return rank(p, rows) == d * d


_RMATRIX_CACHE = {}


def brute_force_rmatrices(raw, enumeration_bound=100000, require_invertible=True):
    """All R-matrices in the searched space: the affine linear-solution
    space, fully enumerated over GF(p) when p^m stays under the bound,
    or scanned over a fixed rational grid per free parameter.

    Returns (list of coefficient dicts, exhaustive flag).  Exhaustive
    means the full linear space was enumerated, so an empty list proves
    there is no R-matrix at all.

    The search is run once per session for each structure and pair of
    parameters; every call gets its own copies of the found dicts.
    """
    key = (raw["p"], raw["dim"], tuple(sorted(raw["mul"].items())), tuple(raw["unit"]),
           tuple(sorted(raw["comul"].items())), tuple(raw["counit"]),
           enumeration_bound, require_invertible)
    if key not in _RMATRIX_CACHE:
        _RMATRIX_CACHE[key] = _search_rmatrices(raw, enumeration_bound, require_invertible)
    found, exhaustive = _RMATRIX_CACHE[key]
    return [dict(c) for c in found], exhaustive


def _search_rmatrices(raw, enumeration_bound, require_invertible):
    p = raw["p"]
    d = raw["dim"]
    particular, basis = rmatrix_linear_space(raw)
    if particular is None:
        return [], True
    m = len(basis)
    exhaustive = False
    if p:
        if p ** m <= enumeration_bound:
            space = itertools.product(range(p), repeat=m)
            exhaustive = True
        else:
            space = itertools.product(range(min(p, 5)), repeat=m)
    else:
        space = itertools.product(RATIONAL_GRID, repeat=m)
    mi = mul_index(raw)
    found = []
    for coeffs_tuple in space:
        vec = list(particular)
        for c, b in zip(coeffs_tuple, basis):
            if c == s_zero(p):
                continue
            vec = [s_add(p, x, s_mul(p, c, y)) for x, y in zip(vec, b)]
        cand = {}
        for i in range(d):
            for j in range(d):
                v = vec[i * d + j]
                if v != s_zero(p):
                    cand[(i, j)] = v
        if not quadratic_axioms_hold(raw, cand, mi):
            continue
        if require_invertible and not is_invertible_tt(raw, cand):
            continue
        found.append(cand)
    return found, exhaustive


# ----------------------------------------------------------------------
# small group-theory oracles
# ----------------------------------------------------------------------

def conjugacy_class_count(table):
    n = len(table)
    inverse = [None] * n
    for i in range(n):
        for j in range(n):
            if table[i][j] == 0:
                inverse[i] = j
    seen = set()
    classes = 0
    for g in range(n):
        if g in seen:
            continue
        classes += 1
        for h in range(n):
            seen.add(table[table[h][g]][inverse[h]])
    return classes


def grouplikes_by_scan(raw):
    """Exhaustive scan for group-likes over a small prime field."""
    p = raw["p"]
    assert p is not None and p ** raw["dim"] <= 10 ** 7
    d = raw["dim"]
    ci = comul_index(raw)
    out = []
    for vec in itertools.product(range(p), repeat=d):
        if all(v == 0 for v in vec):
            continue
        eps = sum(raw["counit"][i] * vec[i] for i in range(d)) % p
        if eps != 1:
            continue
        delta = {}
        for i, a in enumerate(vec):
            if a == 0:
                continue
            for (j, k, c) in ci.get(i, []):
                _acc(p, delta, (j, k), s_mul(p, a, c))
        outer = {}
        for i, a in enumerate(vec):
            if a == 0:
                continue
            for j, b in enumerate(vec):
                if b:
                    _acc(p, outer, (i, j), s_mul(p, a, b))
        if delta == outer:
            out.append(list(vec))
    return out
