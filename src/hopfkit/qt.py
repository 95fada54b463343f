"""R-matrices and everything built from them: verification, monodromy,
the dual-to-algebra maps, twists, Drinfeld doubles, ribbon candidates,
and the braided (transmuted) structures.

The Drinfeld double and the braided dual read the dual of K from
dual_hopf(K); structure constants are contracted through
AlgebraPresentation.product_terms, and elements of H (x) H are formed
with tt_apply and tt_outer.  R = sum R^i (x) R_i has R^i on the first
leg.

Elements of H (x) H are TensorSquareElement values: a sparse coefficient
grid over the host's flat tensor basis, with exact multiplication and
inversion inside the algebra H (x) H.  Inversion first tries closed-form
candidates (e.g. (S (x) id)(R)) confirmed by multiplication, then falls
back to the regular-representation linear solve, built as sparse rows.
verify_rmatrix forms R Delta(e_i) for every i as one hopf.tt_row, and
apply_twist J Delta(e_i) likewise; the fixed right factor on the other
side (R, J^-1) is one single-image row, built once for every i.  The
tensor-cube sides of the coproduct axioms and of the 2-cocycle identity
come from hopf.r_leg_products and hopf.cocycle_sides, which place no
unit on a leg when the unit law holds.  The intertwining
R Delta(x) = Delta^op(x) R is checked on generators where verify_hopf
has recorded Delta multiplicative (hopf.comultiplicative_generators);
the double's generators are those of the dual factor (x) 1 and
1 (x) those of K (hopf.tensor_generators).

Transmutation holds the adjoint action h_(1) v S(h_(2)) once, as sparse
columns.  transmute and check_braided_projection share braided_product,
over the braiding e_q (x) e_r -> sum_R ad_{R_i}(e_r) (x) ad'_{R^i}(e_q)
(ad' acts on the right factor), formed once per basis pair a check meets.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .algebra import (
    AlgebraPresentation,
    combine,
    fewer_terms,
    multiplicativity_failure,
    nonzero_terms,
    pairwise_row,
    row_product,
    same_vector,
    verify_algebra,
)
from .checks import Report
from .errors import PreconditionError, UsageError
from .fields import parse_scalar
from .hopf import (
    HopfAlgebra,
    HopfMorphism,
    _basis_witness,
    _pair_witness,
    _put,
    antipode_failure,
    coassociativity_failure,
    cocycle_sides,
    coinvariant_space,
    comul_dict,
    comultiplicative_generators,
    comultiplicativity_failure,
    comul_image,
    comul_leg,
    counit_failure,
    dual_hopf,
    is_normal_left_coideal_subalgebra,
    r_leg_products,
    solve_antipode,
    tt_apply,
    tt_flip,
    tt_mul,
    tt_outer,
    tt_row,
    tt_unit,
    tensor_generators,
    tensor_hopf,
    _antipode_ok,
)
from .linalg import SparseMatrix, Subspace, solve_rows
from .tensors import SparseTensor3


class TensorSquareElement:
    """Element sum rho[i][j] e_i (x) e_j of H (x) H for a host H."""

    __slots__ = ("host", "coeffs")

    def __init__(self, host: HopfAlgebra, coeffs: dict):
        self.host = host
        f = host.field
        self.coeffs = {k: v for k, v in coeffs.items() if not f.is_zero(v)}

    # -- constructors ---------------------------------------------------

    @classmethod
    def unit(cls, host):
        return cls(host, tt_unit(host))

    @classmethod
    def from_triples(cls, host, triples):
        f = host.field
        d = host.dim
        if not isinstance(triples, list):
            raise UsageError(f"tensor {triples!r} must be a list of [i, j, scalar]")
        coeffs = {}
        for item in triples:
            if not (isinstance(item, (list, tuple)) and len(item) == 3
                    and all(isinstance(x, int) and not isinstance(x, bool) for x in item[:2])):
                raise UsageError(f"tensor entry {item!r} must be [i, j, scalar]")
            i, j, c = item
            if not (0 <= i < d and 0 <= j < d):
                raise UsageError(f"tensor index ({i}, {j}) out of range for dim {d}")
            val = parse_scalar(f, c, item)
            cur = coeffs.get((i, j), f.zero)
            coeffs[(i, j)] = f.add(cur, val)
        return cls(host, coeffs)

    # -- arithmetic -------------------------------------------------------

    def __mul__(self, other):
        self._same_host(other)
        return TensorSquareElement(self.host, tt_mul(self.host, self.coeffs, other.coeffs))

    def __add__(self, other):
        self._same_host(other)
        f = self.host.field
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            _put(f, out, k, v)
        return TensorSquareElement(self.host, out)

    def __sub__(self, other):
        f = self.host.field
        return self + TensorSquareElement(other.host, {k: f.neg(v) for k, v in other.coeffs.items()})

    def __eq__(self, other):
        return (
            isinstance(other, TensorSquareElement)
            and self.host.dim == other.host.dim
            and self.coeffs == other.coeffs
        )

    def _same_host(self, other):
        if self.host.dim != other.host.dim or self.host.field != other.host.field:
            raise UsageError("tensor-square elements live on different hosts")

    def flip(self):
        return TensorSquareElement(self.host, tt_flip(self.coeffs))

    def is_unit_element(self):
        return self.coeffs == tt_unit(self.host)

    def map_legs(self, M1, M2, new_host=None):
        host = new_host if new_host is not None else self.host
        return TensorSquareElement(host, tt_apply(self.host.field, self.coeffs, M1, M2))

    def to_matrix(self) -> SparseMatrix:
        """The d x d matrix whose (i, j) entry is the coefficient of e_i (x) e_j."""
        columns = [[] for _ in range(self.host.dim)]
        for (i, j), v in sorted(self.coeffs.items()):
            columns[j].append((i, v))
        return SparseMatrix(self.host.field, self.host.dim, columns)

    def to_triples(self):
        f = self.host.field
        return [[i, j, f.show(v)] for (i, j), v in sorted(self.coeffs.items())]

    def inverse(self, candidates=()):
        """Two-sided inverse in H (x) H or None.

        Closed-form candidates are tried first and confirmed by
        multiplication; otherwise the dim^2 x dim^2 left-regular system,
        whose column (k, l) is self * (e_k (x) e_l), is built as sparse
        rows and solved by ``solve_rows``; that right inverse is returned
        only if it is a left inverse too.
        """
        one = tt_unit(self.host)
        for cand in candidates:
            if cand is None:
                continue
            if (
                tt_mul(self.host, self.coeffs, cand.coeffs) == one
                and tt_mul(self.host, cand.coeffs, self.coeffs) == one
            ):
                return cand
        f = self.host.field
        d = self.host.dim
        n = d * d
        rows = [{} for _ in range(n)]
        for k in range(d):
            units = [{(k, l): f.one} for l in range(d)]
            for l, column in enumerate(tt_row(self.host, units)(self.coeffs)):
                for (i, j), v in column.items():
                    if not f.is_zero(v):
                        rows[i * d + j][k * d + l] = v
        for (i, j), v in one.items():
            rows[i * d + j][n] = v
        sol = solve_rows(f, rows, n)
        if sol is None:
            return None
        inv = TensorSquareElement(self.host, {divmod(col, d): v for col, v in sol.items()})
        if tt_mul(self.host, inv.coeffs, self.coeffs) != one:
            return None
        return inv

    def __repr__(self):
        return f"TensorSquareElement(nnz={len(self.coeffs)} on dim {self.host.dim})"


def antipode_leg_candidates(H: HopfAlgebra, R: TensorSquareElement):
    """Inverse candidates for an R-matrix, made lazily: (S (x) id)(R), which
    is the inverse of every R-matrix, and only when that fails
    (id (x) S^-1)(R), the one candidate that needs S inverted.  An
    antipode not yet determined is not solved for: the candidates only
    save the regular-representation solve, which is cheaper."""
    S = H.antipode if H.antipode_source else None
    if S is None:
        return
    yield R.map_legs(S, None)
    sinv = S.inverse()
    if sinv is not None:
        yield R.map_legs(None, sinv)


# ----------------------------------------------------------------------
# quasitriangular structures
# ----------------------------------------------------------------------


@dataclass
class QTStructure:
    hopf: HopfAlgebra
    R: TensorSquareElement
    report: Report
    verified: bool
    triangular: bool = False
    factorizable: bool = False
    full_rank: bool = False
    R_inv: TensorSquareElement = None

    @property
    def field(self):
        return self.hopf.field


def require_verified(Q: QTStructure):
    """PreconditionError unless verify_rmatrix verified Q."""
    if not Q.verified:
        raise PreconditionError("the quasitriangular structure is not verified")


def verify_rmatrix(H: HopfAlgebra, R: TensorSquareElement) -> QTStructure:
    """Invertibility, both coproduct axioms, and the coproduct-flip
    intertwining on every basis element; flags are computed, not claimed.

    The x with R Delta(x) = Delta^op(x) R form a subalgebra that holds 1
    when Delta is a unital algebra map and H is associative, so where
    verify_hopf has recorded that (hopf.comultiplicative_generators) the
    intertwining is checked on H's generators, where their coproducts
    hold fewer terms (algebra.fewer_terms); a failing generator, or a
    missing record, gives the scan of every basis element and its first
    failing one as witness.

    For R = sum r_pq e_p (x) e_q the right sides of the coproduct axioms
    are taken in closed form, R13 R23 = sum r_pq r_st e_p (x) e_s (x) e_q e_t
    and R13 R12 = sum r_pq r_st e_p e_s (x) e_t (x) e_q, which holds when
    1 x = x = x 1; the unit law is decided once per algebra and unit, and
    where it fails the unit is placed on a leg and multiplied out
    (hopf.r_leg_products).  Either way the comparison is exact."""
    f = H.field
    rep = Report()
    rinv = R.inverse(candidates=antipode_leg_candidates(H, R))
    rep.add("R is invertible", rinv is not None)
    if rinv is None:
        return QTStructure(H, R, rep, False)

    r13_r23, r13_r12 = r_leg_products(H, R.coeffs)
    rep.add("(Delta x id)(R) = R13 R23", comul_leg(H, R.coeffs, 0) == r13_r23)
    rep.add("(id x Delta)(R) = R13 R12", comul_leg(H, R.coeffs, 1) == r13_r12)

    # R Delta(x) for every x in one row; Delta^op(x) R through one row of
    # the fixed right factor R; x over the generators where the record
    # allows it, and over the basis otherwise or where one fails
    deltas = [comul_dict(H.basis_comul, i) for i in range(H.dim)]
    times_r = tt_row(H, [R.coeffs])

    def first_failure(xs):
        return next((i for i, lhs in enumerate(tt_row(H, xs)(R.coeffs))
                     if not same_vector(f, lhs, times_r(tt_flip(xs[i]))[0])), None)

    gens = comultiplicative_generators(H)
    xs = None if gens is None else [combine(f, deltas, g) for g in gens]
    if xs is not None and fewer_terms(xs, deltas) and first_failure(xs) is None:
        bad = None
    else:
        bad = first_failure(deltas)
    rep.add("R Delta(h) = flipped-Delta(h) R", bad is None, _basis_witness(H, bad))

    verified = rep.ok
    q = QTStructure(H, R, rep, verified, R_inv=rinv)
    if verified:
        # the ranks of phi_maps(q).phi and lr_maps(q).l, without the images
        mono = monodromy(q)
        q.triangular = mono.is_unit_element()
        q.factorizable = mono.to_matrix().rank() == H.dim
        q.full_rank = R.to_matrix().rank() == H.dim
    return q


def monodromy(Q: QTStructure) -> TensorSquareElement:
    """The element R_21 R, multiplied out inside H (x) H."""
    return Q.R.flip() * Q.R


@dataclass
class PhiMaps:
    phi: SparseMatrix
    phi_flip: SparseMatrix
    image: Subspace
    image_flip: Subspace
    normal: Report


def phi_maps(Q: QTStructure, pi: HopfMorphism = None) -> PhiMaps:
    """Matrices of f -> (f (x) id)(R21 R) and f -> (id (x) f)(R21 R) from
    dual coordinates (precomposed with pi when given), images in RREF,
    plus the normal-left-coideal-subalgebra check on the image."""
    H = Q.hopf
    f = H.field
    M = monodromy(Q).to_matrix()
    phi = M.transpose()
    phi_flip = M
    if pi is not None:
        Pt = pi.matrix.transpose()
        phi = phi @ Pt
        phi_flip = phi_flip @ Pt
    image = Subspace(f, H.dim, [phi.column(j) for j in range(phi.ncols)])
    image_flip = Subspace(f, H.dim, [phi_flip.column(j) for j in range(phi_flip.ncols)])
    normal = is_normal_left_coideal_subalgebra(H, image)
    return PhiMaps(phi, phi_flip, image, image_flip, normal)


def is_factorizable(Q: QTStructure) -> bool:
    """Whether the monodromy pairing has full rank, as verify_rmatrix found."""
    if not Q.verified:
        raise PreconditionError("is_factorizable needs a verified R-matrix")
    return Q.factorizable


@dataclass
class LRMaps:
    l: SparseMatrix
    r: SparseMatrix
    full_rank: bool
    image_l: Subspace
    image_r: Subspace
    self_test: Report = None


def lr_maps(Q: QTStructure, pi: HopfMorphism = None) -> LRMaps:
    """l(f) = (f (x) id)(R) and r(f) = (id (x) f)(R) as matrices from dual
    coordinates (precomposed with pi when given); full rank means l is
    surjective onto H.  Without pi, the standard commutation identity
    (f_(1) -> h) l(f_(2)) = l(f_(1)) (h <- f_(2)) is evaluated on all
    basis pairs as a self-test."""
    H = Q.hopf
    f = H.field
    Rm = Q.R.to_matrix()
    l = Rm.transpose()
    r = Rm
    if pi is not None:
        Pt = pi.matrix.transpose()
        l = l @ Pt
        r = r @ Pt
    image_l = Subspace(f, H.dim, [l.column(j) for j in range(l.ncols)])
    image_r = Subspace(f, H.dim, [r.column(j) for j in range(r.ncols)])
    full = image_l.dim == H.dim
    self_test = None
    if pi is None:
        self_test = Report()
        ok, wit = True, None
        d = H.dim
        mul_out = H.mul.third_index()
        product_terms = H.algebra.product_terms
        columns = l.columns
        for a in range(d):
            dual_comul = mul_out.get(a, [])  # (p, q, c): Delta*(e^a) = sum c e^p (x) e^q
            for i in range(d):
                lhs = {}
                rhs = {}
                for (p, q, c) in dual_comul:
                    # c e_j for e_j (x) e_p in Delta(e_i), and c e_k for e_q (x) e_k
                    hpull = [(j, f.mul(c, cc)) for (j, k, cc) in H.basis_comul(i) if k == p]
                    product_terms(hpull, columns[q], lhs)
                    hpush = [(k, f.mul(c, cc)) for (j, k, cc) in H.basis_comul(i) if j == q]
                    product_terms(columns[p], hpush, rhs)
                if not same_vector(f, lhs, rhs):
                    ok, wit = False, {"dual_basis": a, "basis": H.names[i]}
                    break
            if not ok:
                break
        self_test.add("pull-push commutation identity", ok, wit)
    return LRMaps(l, r, full, image_l, image_r, self_test)


# ----------------------------------------------------------------------
# twists
# ----------------------------------------------------------------------


@dataclass
class Twist:
    host: HopfAlgebra
    J: TensorSquareElement
    J_inv: TensorSquareElement
    report: Report
    verified: bool


def verify_twist(H: HopfAlgebra, J: TensorSquareElement, inverse_candidates=()) -> Twist:
    """Normalization (eps on either leg gives 1) and the 2-cocycle identity
    (J x 1)(Delta x id)(J) = (1 x J)(id x Delta)(J), all exact.

    This is the identity for the twisted coproduct J Delta J^-1 that
    apply_twist forms; an R-matrix R passes it, with Delta^R = Delta^cop,
    and R^-1 in general does not.

    When 1 x = x = x 1, decided once per algebra and unit, the leg that
    meets 1 passes through: the left side is sum (J X_c) (x) e_c over the
    slices X_c of (Delta x id)(J) by third leg, and the right side
    sum e_a (x) (J Y_a) over the slices Y_a of (id x Delta)(J) by first
    leg; where the unit law fails both are multiplied out with the unit
    on a leg (hopf.cocycle_sides)."""
    f = H.field
    rep = Report()
    jinv = J.inverse(candidates=inverse_candidates)
    rep.add("J is invertible", jinv is not None)
    if jinv is None:
        return Twist(H, J, None, rep, False)
    left = [f.zero] * H.dim
    right = [f.zero] * H.dim
    for (i, j), v in J.coeffs.items():
        left[j] = f.add(left[j], f.mul(H.counit[i], v))
        right[i] = f.add(right[i], f.mul(H.counit[j], v))
    rep.add("(eps x id)(J) = 1", left == H.unit)
    rep.add("(id x eps)(J) = 1", right == H.unit)
    lhs, rhs = cocycle_sides(H, J.coeffs)
    rep.add("2-cocycle identity", lhs == rhs)
    return Twist(H, J, jinv, rep, rep.ok)


def apply_twist(H: HopfAlgebra, twist: Twist, R: TensorSquareElement = None):
    """Conjugate the comultiplication by J (and carry R to J21 R J^-1).

    The twisted antipode is u S(.) u^-1 for u = m (id x S)(J) (Majid,
    Foundations of Quantum Group Theory, 2.3), verified and falling back
    to convolution inversion if the candidate fails.  Its column j is
    u (S(e_j) u^-1), formed by product_terms; u^-1 solves u x = 1 over
    the sparse rows of left multiplication by u.
    """
    if not twist.verified:
        raise PreconditionError("apply_twist needs a verified twist")
    f = H.field
    d = H.dim
    J, Jinv = twist.J, twist.J_inv
    # J Delta(e_i) for every i in one row, then times J^-1 through one row
    # of that fixed right factor
    deltas = [comul_dict(H.basis_comul, i) for i in range(d)]
    times_jinv = tt_row(H, [Jinv.coeffs])
    comul = SparseTensor3(f, (d, d, d))
    for i, j_delta in enumerate(tt_row(H, deltas)(J.coeffs)):
        for (j, k), v in sorted(times_jinv(j_delta)[0].items()):
            comul.set(i, j, k, v)
    # the twisted bialgebra; its antipode is decided below and given to HJ
    bialgebra = HopfAlgebra(H.algebra, comul, list(H.counit), None, list(H.names))
    antipode = None
    if H.antipode is not None:
        product_terms = H.algebra.product_terms
        s_columns = H.antipode.columns
        u = {}
        for (i, j), v in J.coeffs.items():
            product_terms([(i, v)], s_columns[j], u)
        u = nonzero_terms(f, u)
        # row t of the system u x = 1 holds the e_t coordinates of the products u e_k
        rows = [{} for _ in range(d)]
        for k in range(d):
            for t, v in product_terms(u, [(k, f.one)]).items():
                if not f.is_zero(v):
                    rows[t][k] = v
        for t, v in nonzero_terms(f, H.unit):
            rows[t][d] = v
        uinv = solve_rows(f, rows, d)
        if uinv is not None:
            uinv = sorted(uinv.items())
            cand = SparseMatrix.from_columns(f, d, [
                product_terms(u, nonzero_terms(f, product_terms(column, uinv)))
                for column in s_columns])
            if _antipode_ok(bialgebra, cand):
                antipode = cand
    if antipode is None:
        antipode = solve_antipode(bialgebra)
    HJ = HopfAlgebra(H.algebra, comul, list(H.counit), antipode, list(H.names))
    RJ = None
    if R is not None:
        RJ = TensorSquareElement(HJ, times_jinv(tt_mul(H, tt_flip(J.coeffs), R.coeffs))[0])
    return HJ, RJ


# ----------------------------------------------------------------------
# Drinfeld double
# ----------------------------------------------------------------------


def double_hopf(K: HopfAlgebra) -> HopfAlgebra:
    """The double on (dual of K, coopposite) (x) K with the smash-type
    product f [h_(1) -> g <- S^-1(h_(3))] (x) h_(2) k; basis pair (a, h)
    sits at flat index a * dim + h.  The dual factor is dual_hopf(K)."""
    f = K.field
    n = K.dim
    if K.antipode is None:
        raise UsageError("the double needs an antipode")
    Sinv = K.antipode.inverse()
    if Sinv is None:
        raise UsageError("the double needs an invertible antipode")
    Kd = dual_hopf(K)
    d = n * n
    one = f.one
    product_terms = K.algebra.product_terms
    dual_terms = Kd.algebra.product_terms
    mul_pairs = K.mul.pair_index()
    sinv_columns = Sinv.columns

    # psi[(p, r)][b] is the functional c -> e^b(S^-1(e_r) e_c e_p), sparse
    psi = {}

    def functionals(p, r):
        if (p, r) not in psi:
            rows = {}
            for c in range(n):
                left = nonzero_terms(f, product_terms(sinv_columns[r], [(c, one)]))
                for b, v in product_terms(left, [(p, one)]).items():
                    if not f.is_zero(v):
                        rows.setdefault(b, []).append((c, v))
            psi[(p, r)] = rows
        return psi[(p, r)]

    mul = SparseTensor3(f, (d, d, d))
    for h in range(n):
        d2 = K.delta_square(h)
        for a in range(n):
            for b in range(n):
                # sum over Delta^2(h) of (e^a psi) (x) e_q, keyed (c, q)
                left = {}
                for (p, q, r), c2 in d2:
                    fun = dual_terms([(a, c2)], functionals(p, r).get(b, ()))
                    for c, v in fun.items():
                        _put(f, left, (c, q), v)
                for k in range(n):
                    out = {}
                    for (c, q), v in left.items():
                        for w, mv in mul_pairs.get((q, k), ()):
                            _put(f, out, c * n + w, f.mul(v, mv))
                    for t, v in out.items():
                        mul.set(a * n + h, b * n + k, t, v)

    comul = SparseTensor3(f, (d, d, d))
    for a in range(n):
        for (u, v, c1) in Kd.basis_comul(a):
            for h in range(n):
                for (p, q, c2) in K.basis_comul(h):
                    comul.add_to(a * n + h, v * n + p, u * n + q, f.mul(c1, c2))

    unit = [f.mul(Kd.unit[a], K.unit[h]) for a in range(n) for h in range(n)]
    counit = [f.mul(Kd.counit[a], K.counit[h]) for a in range(n) for h in range(n)]
    names = [f"{K.names[a]}*@{K.names[h]}" for a in range(n) for h in range(n)]
    # as an algebra generated by those of the dual factor (x) 1 and 1 (x) K's
    alg = AlgebraPresentation(f, d, mul, unit, names, tensor_generators(Kd.algebra, K.algebra))

    # antipode: S(f (x) h) = (eps (x) S(h)) * (f o S^-1 (x) 1)
    columns = []
    for sinv_row in Sinv.transpose().columns:
        second = [(c * n + w, v) for (c, w), v in tt_outer(K, dict(sinv_row), K.unit).items()]
        for s_column in K.antipode.columns:
            first = tt_outer(K, Kd.unit, dict(s_column))
            first = [(c * n + w, v) for (c, w), v in first.items()]
            columns.append(alg.product_terms(first, second))
    return HopfAlgebra(alg, comul, counit, SparseMatrix.from_columns(f, d, columns), names)


def canonical_double_r(D: HopfAlgebra, n: int, counit, unit) -> TensorSquareElement:
    f = D.field
    coeffs = {}
    for i in range(n):
        for a in range(n):
            ca = counit[a]
            if f.is_zero(ca):
                continue
            for k in range(n):
                uk = unit[k]
                if f.is_zero(uk):
                    continue
                _put(f, coeffs, (a * n + i, i * n + k), f.mul(ca, uk))
    return TensorSquareElement(D, coeffs)


def drinfeld_double(K: HopfAlgebra) -> QTStructure:
    """Build the double of K with its canonical R-matrix and verify it."""
    D = double_hopf(K)
    R = canonical_double_r(D, K.dim, K.counit, K.unit)
    Q = verify_rmatrix(D, R)
    if not Q.verified:
        raise AssertionError(
            f"canonical double R-matrix failed verification: {Q.report.first_failure().name}"
        )
    return Q


def double_base_projection(DQ: QTStructure, KQ: QTStructure) -> HopfMorphism:
    """The surjection D(K) -> K sending f (x) k to S(r_R(f)) k, where r_R
    pairs the dual leg against the chosen R-matrix on K."""
    K = KQ.hopf
    r_images = K.antipode @ KQ.R.to_matrix()  # column a is S(r_R(e^a))
    pi = double_projection(DQ.hopf, K, [dict(column) for column in r_images.columns])
    pi.verify()
    return pi


def double_projection(D: HopfAlgebra, K: HopfAlgebra, images) -> HopfMorphism:
    """The linear map D(K) -> K sending e^a (x) e_h to images[a] e_h, each
    images[a] a vector, dense or a dict."""
    f = K.field
    product_terms = K.algebra.product_terms
    columns = [product_terms(nonzero_terms(f, x), [(h, f.one)]) for x in images for h in range(K.dim)]
    return HopfMorphism(D, K, SparseMatrix.from_columns(f, K.dim, columns))


def componentwise_r(T: HopfAlgebra, r1: TensorSquareElement, r2: TensorSquareElement):
    """The componentwise element r1 (x) r2 of T (x) T, T the tensor product
    of the hosts of r1 and r2 in its flat basis."""
    f = T.field
    d2 = r2.host.dim
    coeffs = {}
    for (i, j), v1 in r1.coeffs.items():
        for (k, l), v2 in r2.coeffs.items():
            _put(f, coeffs, (i * d2 + k, j * d2 + l), f.mul(v1, v2))
    return TensorSquareElement(T, coeffs)


def tensor_qt(Q1: QTStructure, Q2: QTStructure) -> QTStructure:
    """Componentwise R-matrix on the tensor product Hopf algebra."""
    H = tensor_hopf(Q1.hopf, Q2.hopf)
    return verify_rmatrix(H, componentwise_r(H, Q1.R, Q2.R))


# ----------------------------------------------------------------------
# ribbon candidates
# ----------------------------------------------------------------------


def ribbon_check(Q: QTStructure, theta) -> Report:
    """Centrality, counit one, S-invariance, and the coproduct identity
    Delta(theta) = (R21 R)^-1 (theta (x) theta)."""
    H = Q.hopf
    f = H.field
    rep = Report()
    product_terms = H.algebra.product_terms
    terms = nonzero_terms(f, theta)
    ok = all(same_vector(f, product_terms(terms, [(j, f.one)]), product_terms([(j, f.one)], terms))
             for j in range(H.dim))
    rep.add("central", ok)
    rep.add("counit is one", f.is_one(H.counit_of(theta)))
    if H.antipode is not None:
        rep.add("fixed by the antipode", H.apply_antipode(theta) == list(theta))
    mono = monodromy(Q)
    cands = []
    if Q.R_inv is not None:
        # (R21 R)^-1 = R^-1 (R^-1)_21
        cands.append(TensorSquareElement(
            H, tt_mul(H, Q.R_inv.coeffs, tt_flip(Q.R_inv.coeffs))))
    mono_inv = mono.inverse(candidates=cands)
    if mono_inv is None:
        rep.add("monodromy invertible", False)
        return rep
    lhs = H.comul_of(theta)
    rhs = tt_mul(H, mono_inv.coeffs, tt_outer(H, theta, theta))
    rep.add("coproduct identity", lhs == rhs)
    return rep


# ----------------------------------------------------------------------
# transmutation
# ----------------------------------------------------------------------


@dataclass
class BraidedHopfData:
    hopf: HopfAlgebra
    R: TensorSquareElement
    braided_comul: SparseTensor3
    braided_antipode: SparseMatrix
    action: list  # action[i][t] is ad_{e_i}(e_t) as a sparse operand
    report: Report = dc_field(default=None)

    def braided_comul_of(self, vec) -> dict:
        return comul_image(self.braided_comul, vec)

    def basis_braided_comul(self, i):
        return self.braided_comul.first_index().get(i, [])


def adjoint_action_matrices(H: HopfAlgebra):
    """ad_{e_i}(e_t) = e_i_(1) e_t S(e_i_(2)) as a sparse operand, one list
    of columns t per basis index i."""
    f = H.field
    product_terms = H.algebra.product_terms
    antipode = H.antipode.columns

    def ad(i, t):
        col = {}
        for (p, q, c) in H.basis_comul(i):
            mid = nonzero_terms(f, product_terms([(p, c)], [(t, f.one)]))
            product_terms(mid, antipode[q], col)
        return nonzero_terms(f, col)

    return [[ad(i, t) for t in range(H.dim)] for i in range(H.dim)]


def braided_product(left: AlgebraPresentation, right: AlgebraPresentation,
                    R: TensorSquareElement, ad_left, ad_right):
    """(u (x) v)(w (x) z) = sum u x (x) y z on left (x) right, over the
    braiding v (x) w -> sum x (x) y = sum_R ad_left_{R_i}(w) (x)
    ad_right_{R^i}(v), as a function of two sparse tensors; the braiding of
    a basis pair is formed on its first use and kept by that function."""
    f = left.field
    mul, add, zero = f.mul, f.add, f.zero
    left_pairs = left.mul.pair_index()
    right_pairs = right.mul.pair_index()
    table = {}

    def braiding(q, r):
        if (q, r) not in table:
            acc = {}
            for (i, j), rv in R.coeffs.items():
                for x, a in ad_left[j][r]:
                    ra = mul(rv, a)
                    for y, b in ad_right[i][q]:
                        acc[(x, y)] = add(acc.get((x, y), zero), mul(ra, b))
            table[(q, r)] = [(key, v) for key, v in acc.items() if not f.is_zero(v)]
        return table[(q, r)]

    def product(A, B):
        out = {}
        for (p, q), a in A.items():
            for (r, s), b in B.items():
                ab = mul(a, b)
                for (x, y), c in braiding(q, r):
                    lterms = left_pairs.get((p, x))
                    rterms = right_pairs.get((y, s))
                    if lterms and rterms:
                        abc = mul(ab, c)
                        for m, cm in lterms:
                            v = mul(abc, cm)
                            for n, cn in rterms:
                                out[(m, n)] = add(out.get((m, n), zero), mul(v, cn))
        return out

    return product


def transmute(Q: QTStructure, pi: HopfMorphism = None) -> BraidedHopfData:
    """The braided (transmuted) structure on the carrier: same algebra,
    braided coproduct a_(1) S(R_i) (x) ad_{R^i}(a_(2)) and braided
    antipode R_i S(ad_{R^i}(a)); with pi, the structure is induced on the
    quotient through the pushed-forward R-matrix; Q must be verified."""
    require_verified(Q)
    if pi is not None:
        if not pi.verify().ok or not pi.is_surjective():
            raise PreconditionError("transmute needs a verified surjective quotient map")
        KQ = verify_rmatrix(pi.target, Q.R.map_legs(pi.matrix, pi.matrix, new_host=pi.target))
        if not KQ.verified:
            raise PreconditionError("pushed-forward R-matrix failed verification")
        return transmute(KQ)
    H = Q.hopf
    f = H.field
    d = H.dim
    product_terms = H.algebra.product_terms
    antipode = H.antipode.columns
    ad = adjoint_action_matrices(H)
    bc = SparseTensor3(f, (d, d, d))
    for t in range(d):
        for (p, q, ct) in H.basis_comul(t):
            for (i, j), rv in Q.R.coeffs.items():
                left = product_terms([(p, f.mul(ct, rv))], antipode[j])
                for (u, v), x in tt_outer(H, left, dict(ad[i][q])).items():
                    bc.add_to(t, u, v, x)
    columns = []
    for t in range(d):
        col = {}
        for (i, j), rv in Q.R.coeffs.items():
            for u, x in ad[i][t]:
                product_terms([(j, f.mul(rv, x))], antipode[u], col)
        columns.append(col)
    data = BraidedHopfData(H, Q.R, bc, SparseMatrix.from_columns(f, d, columns), ad)
    data.report = _verify_braided(data)
    return data


def _verify_braided(data: BraidedHopfData) -> Report:
    H = data.hopf
    f = H.field
    d = H.dim
    rep = Report()

    bad = counit_failure(f, data.basis_braided_comul, H.counit)
    rep.add("braided counit law", bad is None, _basis_witness(H, bad))
    bad = coassociativity_failure(f, d, data.basis_braided_comul)
    rep.add("braided coassociativity", bad is None, _basis_witness(H, bad))

    rep.add("braided coproduct of the unit",
            data.braided_comul_of(H.unit) == tt_unit(H))

    deltas = [comul_dict(data.basis_braided_comul, t) for t in range(d)]
    product = braided_product(H.algebra, H.algebra, data.R, data.action, data.action)
    bad = multiplicativity_failure(f, H.mul, deltas, pairwise_row(deltas, product))
    rep.add("braided coproduct is multiplicative for the braiding", bad is None,
            _pair_witness(H, bad))

    bad = antipode_failure(H.algebra, data.basis_braided_comul, H.counit,
                           data.braided_antipode.columns)
    rep.add("braided antipode is the braided convolution inverse", bad is None,
            _basis_witness(H, bad))
    return rep


def braided_coinvariants(data: BraidedHopfData, pi: HopfMorphism) -> Subspace:
    """Solutions of (id (x) pi) braided-Delta(h) = h (x) 1."""
    H = data.hopf
    return coinvariant_space(H.field, H.dim, data.basis_braided_comul, pi, "right")


def check_braided_projection(Q: QTStructure, pi: HopfMorphism) -> Report:
    """The projection is a braided coalgebra map, is equivariant for the
    adjoint actions, and the braided coproduct pushed through it makes the
    carrier a comodule algebra (the braided compatibility square); Q must
    be verified."""
    require_verified(Q)
    rep = Report()
    H = Q.hopf
    f = H.field
    d = H.dim
    P = pi.matrix
    P_columns = P.columns
    BH = transmute(Q)
    BK = transmute(Q, pi)
    # ad_K[i][t] is the action of e_i in H on e_t in K, through pi(e_i)
    ad_K = [[list(combine(f, column, P_columns[i]).items()) for column in zip(*BK.action)]
            for i in range(d)]

    bad = comultiplicativity_failure(f, BH.basis_braided_comul, P, BK.basis_braided_comul)
    rep.add("projection intertwines the braided coproducts", bad is None, _basis_witness(H, bad))

    wit = next(({"pair": (H.names[i], H.names[t])} for i in range(d) for t in range(d)
                if combine(f, P_columns, BH.action[i][t]) != combine(f, ad_K[i], P_columns[t])),
               None)
    rep.add("projection is equivariant for the adjoint actions", wit is None, wit)

    # (id x pi) o braided-Delta is multiplicative for the braided product on H (x) K
    pushed = [tt_apply(f, comul_dict(BH.basis_braided_comul, t), None, P) for t in range(d)]
    product = braided_product(H.algebra, BK.hopf.algebra, Q.R, BH.action, ad_K)
    bad = multiplicativity_failure(f, H.mul, pushed, pairwise_row(pushed, product))
    rep.add("braided comodule-algebra compatibility", bad is None, _pair_witness(H, bad))
    return rep


# ----------------------------------------------------------------------
# braided dual
# ----------------------------------------------------------------------


@dataclass
class BraidedDualData:
    product: SparseTensor3
    antipode: SparseMatrix
    report: Report


def braided_dual(Q: QTStructure) -> BraidedDualData:
    """The braided algebra structure on the dual of the carrier: product
    <S(f_1) f_3, S(g_1)>_R f_2 g_2 and antipode
    <S^2(f_3) S(f_1), f_4>_R S(f_2); verified for associativity, unit,
    the braided convolution law, and the intertwining of the monodromy
    pairing map with the braided structures; Q must be verified."""
    require_verified(Q)
    H = Q.hopf
    f = H.field
    d = H.dim
    one = f.one
    Hd = dual_hopf(H)
    dual_terms = Hd.algebra.product_terms
    dual_antipode = Hd.antipode.columns

    def pair_r(x: dict, y: dict):
        """<x, y>_R = sum R_ij x_i y_j for dual vectors x and y."""
        acc = f.zero
        for (i, j), rv in Q.R.coeffs.items():
            if i in x and j in y:
                acc = f.add(acc, f.mul(f.mul(x[i], y[j]), rv))
        return acc

    product = SparseTensor3(f, (d, d, d))
    for a in range(d):
        # S(f_1) f_3 with the coefficient of f_1 (x) f_2 (x) f_3, and f_2
        lefts = [(q, dual_terms(dual_antipode[p], [(m, c1)]))
                 for (p, q, m), c1 in Hd.delta_square(a)]
        for b in range(d):
            acc = {}
            for q, left in lefts:
                for (r, s, c2) in Hd.basis_comul(b):
                    coef = f.mul(c2, pair_r(left, dict(dual_antipode[r])))
                    if not f.is_zero(coef):
                        dual_terms([(q, coef)], [(s, one)], acc)
            for c, v in acc.items():
                product.set(a, b, c, v)

    square = (Hd.antipode @ Hd.antipode).columns
    columns = []
    for a in range(d):
        col = {}
        for (p, q, m), c1 in Hd.delta_square(a):
            for (x, y, c2) in Hd.basis_comul(p):
                left = dual_terms(square[q], dual_antipode[x])
                coef = f.mul(f.mul(c1, c2), pair_r(left, {m: one}))
                for c, v in dual_antipode[y]:
                    _put(f, col, c, f.mul(coef, v))
        columns.append(col)
    antipode = SparseMatrix.from_columns(f, d, columns)

    rep = Report()
    dual_alg = AlgebraPresentation(f, d, product, list(H.counit))
    unit_law, associativity = verify_algebra(dual_alg).checks
    rep.add("braided dual product associative", associativity.ok, associativity.witness)
    rep.add("counit functional is the braided unit", unit_law.ok)
    bad = antipode_failure(dual_alg, Hd.basis_comul, H.unit, antipode.columns)
    rep.add("braided dual antipode law", bad is None, None if bad is None else {"dual_basis": bad})

    # the monodromy pairing map intertwines the braided structures
    bh = transmute(Q)
    phi = monodromy(Q).to_matrix().transpose()
    images = [dict(col) for col in phi.columns]
    bad = multiplicativity_failure(f, product, images, row_product(H.algebra, images))
    rep.add("pairing map is multiplicative for the braided product", bad is None,
            None if bad is None else {"pair": bad})

    bad = comultiplicativity_failure(f, Hd.basis_comul, phi, bh.basis_braided_comul)
    rep.add("pairing map intertwines the coproducts", bad is None,
            None if bad is None else {"dual_basis": bad})
    return BraidedDualData(product, antipode, rep)
