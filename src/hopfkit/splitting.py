"""Certificate-producing splitting machinery.

A split certificate witnesses that a quasitriangular Hopf algebra (H, R)
is a twisted tensor product: quotients K1, K2 with projections, the
twist J on K1 (x) K2, the comparison map F = (pi1 (x) pi2) o Delta onto
the twisted tensor product, and the carried R-matrix identity
(F (x) F)(R) = J21 Rtilde J^-1.  Every identity is stored as a named
check.  Every splitting, the double included, ends in the same
construction, twisted_tensor_certificate.

verify_certificate re-checks, from the stored data alone, the
identities that make the splitting: the projections are surjective Hopf
maps, (pi1 x pi2)(R21 R) = 1 x 1, J is a twist, and F is a bijective
Hopf map onto the twisted tensor product that carries R to
J21 Rtilde J^-1.  It does not repeat the construction's checks on the
coideal subalgebras, the pushed R-matrices, the twisted Hopf axioms, the
direct R-matrix check or the checks particular to one splitting path.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .checks import Report
from .errors import PreconditionError
from .algebra import nonzero_terms, same_vector
from .hopf import (
    HopfAlgebra,
    HopfMorphism,
    QuotientData,
    _put,
    coinvariants,
    comul_dict,
    dual_hopf,
    grouplikes,
    is_normal_left_coideal_subalgebra,
    quotient_by_coideal,
    tensor_hopf,
    tt_apply,
    tt_flip,
    tt_outer,
    verify_extension,
    verify_hopf,
    verify_morphism,
)
from .linalg import Matrix, SparseMatrix, Subspace
from .qt import (
    QTStructure,
    TensorSquareElement,
    Twist,
    apply_twist,
    componentwise_r,
    double_base_projection,
    double_projection,
    drinfeld_double,
    lr_maps,
    monodromy,
    phi_maps,
    require_verified,
    verify_rmatrix,
    verify_twist,
)


@dataclass
class FactorizationWitness:
    l1: Subspace
    l2: Subspace
    mult_map: Matrix
    bijective: bool
    reason: str
    normal_l1: Report
    normal_l2: Report


def exact_factorization(H: HopfAlgebra, L1: Subspace, L2: Subspace) -> FactorizationWitness:
    """Multiplication map L1 (x) L2 -> H on basis pairs; bijective iff the
    matrix is square of full rank."""
    f = H.field
    for name, L in (("L1", L1), ("L2", L2)):
        for u in L.vectors():
            for v in L.vectors():
                if not L.contains(H.algebra.product(u, v)):
                    raise PreconditionError(f"{name} is not a subalgebra")
    cols = []
    for u in L1.vectors():
        for v in L2.vectors():
            cols.append(H.algebra.product(u, v))
    mult = Matrix.from_columns(f, cols) if cols else Matrix.zeros(f, H.dim, 0)
    if L1.dim * L2.dim != H.dim:
        return FactorizationWitness(
            L1, L2, mult, False,
            f"dimension mismatch: {L1.dim} * {L2.dim} != {H.dim}",
            is_normal_left_coideal_subalgebra(H, L1),
            is_normal_left_coideal_subalgebra(H, L2),
        )
    bij = mult.rank() == H.dim
    return FactorizationWitness(
        L1, L2, mult, bij,
        "" if bij else "multiplication map is singular",
        is_normal_left_coideal_subalgebra(H, L1),
        is_normal_left_coideal_subalgebra(H, L2),
    )


@dataclass
class SplitCertificate:
    source: QTStructure
    k1: QuotientData
    k2: QuotientData
    r_k1: TensorSquareElement
    r_k2: TensorSquareElement
    tensor: HopfAlgebra
    twisted: HopfAlgebra  # None when J is not a verified twist
    j: Twist
    r_tilde: TensorSquareElement
    r_target: TensorSquareElement  # J21 Rtilde J^-1; None when J is not a verified twist
    f: SparseMatrix  # the comparison map F; None when J is not a verified twist
    checks: Report
    witness: FactorizationWitness = None

    @property
    def ok(self):
        return self.checks.ok

    def dims(self):
        return (self.k1.quotient.dim, self.k2.quotient.dim)


def _on_middle_legs(T: HopfAlgebra, K1: HopfAlgebra, K2: HopfAlgebra, A: dict) -> dict:
    """Each x (x) y of A in K2 (x) K1 as (1 (x) x) (x) (y (x) 1) in T (x) T,
    T = K1 (x) K2 in its flat basis."""
    f = T.field
    d2 = K2.dim
    units = tt_outer(T, K1.unit, K2.unit)
    out = {}
    for (x, y), v in A.items():
        for (a, b), u in units.items():
            _put(f, out, (a * d2 + x, y * d2 + b), f.mul(v, u))
    return out


def theorem_twist(T: HopfAlgebra, Q: QTStructure, pi1: HopfMorphism, pi2: HopfMorphism) -> Twist:
    """J = J_23 = (pi2 (x) pi1)(R^-1) on the middle legs of T (x) T,
    T = K1 (x) K2, that is sum (1 (x) pi2(S(R^i))) (x) (pi1(R_i) (x) 1)
    for R = sum R^i (x) R_i.  The closed-form inverse candidate
    (pi2 (x) pi1)(R), on the same legs, is confirmed by multiplication.
    verify_twist checks it for the twist J Delta J^-1 of apply_twist."""
    if Q.R_inv is None:
        raise PreconditionError("theorem_twist needs the inverse of R")
    f = T.field
    K1, K2 = pi1.target, pi2.target
    J = _on_middle_legs(T, K1, K2, tt_apply(f, Q.R_inv.coeffs, pi2.matrix, pi1.matrix))
    cand = _on_middle_legs(T, K1, K2, tt_apply(f, Q.R.coeffs, pi2.matrix, pi1.matrix))
    return verify_twist(T, TensorSquareElement(T, J),
                        inverse_candidates=[TensorSquareElement(T, cand)])


def comparison_map(H: HopfAlgebra, target: HopfAlgebra, pi1: HopfMorphism,
                   pi2: HopfMorphism) -> SparseMatrix:
    """The sparse columns of (pi1 (x) pi2) o Delta into the flat tensor basis."""
    f = H.field
    d2 = pi2.target.dim
    cols = []
    for t in range(H.dim):
        delta = comul_dict(H.basis_comul, t)
        cols.append(sorted((x * d2 + y, v)
                           for (x, y), v in tt_apply(f, delta, pi1.matrix, pi2.matrix).items()))
    return SparseMatrix(f, target.dim, cols)


def build_certificate(Q: QTStructure, L1: Subspace, L2: Subspace) -> SplitCertificate:
    """Run the twisted-tensor-product construction from two normal left
    coideal subalgebras and record every identity as a check."""
    H = Q.hopf
    checks = Report()
    witness = exact_factorization(H, L1, L2)
    checks.add("L1 is a normal left coideal subalgebra", witness.normal_l1.ok)
    checks.add("L2 is a normal left coideal subalgebra", witness.normal_l2.ok)
    checks.add("exact factorization is bijective", witness.bijective, witness.reason or None)
    cert = twisted_tensor_certificate(Q, quotient_by_coideal(H, L1),
                                      quotient_by_coideal(H, L2), checks)
    cert.witness = witness
    return cert


def twisted_tensor_certificate(Q: QTStructure, k1: QuotientData, k2: QuotientData,
                               checks: Report) -> SplitCertificate:
    """The construction every splitting ends in.  From the quotients K1, K2
    of (H, R): check the projections and the pushed R-matrices, build the
    twist J of theorem_twist on K1 (x) K2, twist the tensor product, and
    check that F = (pi1 (x) pi2) o Delta is a Hopf isomorphism onto it
    carrying R to J21 Rtilde J^-1.  Each identity is appended to checks;
    a J that is not a twist ends the construction at its failing check."""
    H = Q.hopf
    f = H.field
    pi1, pi2 = k1.projection, k2.projection
    K1, K2 = k1.quotient, k2.quotient
    checks.add("pi1 is a verified Hopf surjection", pi1.verify().ok and pi1.is_surjective())
    checks.add("pi2 is a verified Hopf surjection", pi2.verify().ok and pi2.is_surjective())

    mono = monodromy(Q)
    pushed = tt_apply(f, mono.coeffs, pi1.matrix, pi2.matrix)
    checks.add("(pi1 x pi2)(R21 R) = 1 x 1",
               pushed == tt_outer(K1, K1.unit, K2.unit))

    r_k1 = Q.R.map_legs(pi1.matrix, pi1.matrix, new_host=K1)
    r_k2 = Q.R.map_legs(pi2.matrix, pi2.matrix, new_host=K2)
    q1 = verify_rmatrix(K1, r_k1)
    q2 = verify_rmatrix(K2, r_k2)
    checks.add("pushed R-matrix verifies on K1", q1.verified)
    checks.add("pushed R-matrix verifies on K2", q2.verified)

    T = tensor_hopf(K1, K2)
    r_tilde = componentwise_r(T, r_k1, r_k2)
    twist = theorem_twist(T, Q, pi1, pi2)
    checks.add("J is a verified twist on K1 x K2", twist.verified)
    if not twist.verified:
        return SplitCertificate(Q, k1, k2, r_k1, r_k2, T, None, twist, r_tilde,
                                None, None, checks)

    twisted, r_target = apply_twist(T, twist, R=r_tilde)
    checks.add("twisted tensor product passes the Hopf axioms", verify_hopf(twisted).ok)

    F = comparison_map(H, twisted, pi1, pi2)
    frep = HopfMorphism(H, twisted, F).verify()
    checks.add("F is a Hopf map onto the twisted tensor product", frep.ok,
               None if frep.ok else frep.first_failure().name)
    checks.add("F is bijective", F.rank() == H.dim)
    carried = tt_apply(f, Q.R.coeffs, F, F)
    checks.add("(F x F)(R) equals the twisted componentwise R-matrix",
               carried == r_target.coeffs)
    checks.add("twisted componentwise R-matrix verifies directly",
               verify_rmatrix(twisted, r_target).verified)
    return SplitCertificate(Q, k1, k2, r_k1, r_k2, T, twisted, twist, r_tilde,
                            r_target, F, checks)


# ----------------------------------------------------------------------
# the published entry points
# ----------------------------------------------------------------------


def mueger_quotient(Q: QTStructure, pi: HopfMorphism):
    """Quotient of H by the Hopf ideal generated by the monodromy image
    of the dual of the given quotient; returns (QuotientData, QTStructure
    on the complement quotient)."""
    require_verified(Q)
    _require_surjection(pi)
    maps = phi_maps(Q, pi)
    qd = quotient_by_coideal(Q.hopf, maps.image)
    piprime = qd.projection
    r_prime = Q.R.map_legs(piprime.matrix, piprime.matrix, new_host=qd.quotient)
    q_prime = verify_rmatrix(qd.quotient, r_prime)
    if not q_prime.verified:
        raise AssertionError("pushed R-matrix on the complement quotient failed")
    return qd, q_prime


def split_via_factorizable(Q: QTStructure, pi: HopfMorphism) -> SplitCertificate:
    """Split (H, R) along a quotient whose pushed R-matrix is
    factorizable: L1 = right coinvariants, L2 = monodromy image."""
    require_verified(Q)
    _require_surjection(pi)
    if not _pushed_qt(Q, pi).factorizable:
        raise PreconditionError("the quotient quasitriangular structure is not factorizable")
    L1 = coinvariants(Q.hopf, pi, "right")
    L2 = phi_maps(Q, pi).image
    return build_certificate(Q, L1, L2)


def split_via_fullrank(Q: QTStructure, pi: HopfMorphism) -> SplitCertificate:
    """Split (H, R) along a quotient with equal one-sided coinvariants and
    a full-rank pushed R-matrix: L1 = coinvariants, L2 = image of the
    pulled-back first-leg pairing map."""
    require_verified(Q)
    _require_surjection(pi)
    H = Q.hopf
    f = H.field
    right = coinvariants(H, pi, "right")
    left = coinvariants(H, pi, "left")
    if right != left:
        raise PreconditionError(
            f"left and right coinvariants differ (dims {left.dim} vs {right.dim})"
        )
    if not _pushed_qt(Q, pi).full_rank:
        raise PreconditionError("the quotient quasitriangular structure is not full rank")
    L1 = right
    lmaps = lr_maps(Q, pi=pi)
    L2 = lmaps.image_l
    cert = build_certificate(Q, L1, L2)
    # the proof's commutation identity: conjugating the pairing image by
    # coinvariants is trivial, a_(1) l(f) S(a_(2)) = eps(a) l(f)
    ok, wit = True, None
    product_terms = H.algebra.product_terms
    antipode = H.antipode.columns
    images = lmaps.l.columns
    for a_vec in L1.vectors():
        delta_a = H.comul_of(a_vec)
        eps_a = H.counit_of(a_vec)
        for b, lf in enumerate(images):
            acc = {}
            for (p, q), c in delta_a.items():
                mid = nonzero_terms(f, product_terms(lf, antipode[q]))
                product_terms([(p, c)], mid, acc)
            if not same_vector(f, acc, {t: f.mul(eps_a, x) for t, x in lf}):
                ok, wit = False, {"dual_basis": b}
                break
        if not ok:
            break
    cert.checks.add("coinvariants commute with the pairing image", ok, wit)
    return cert


def double_splitting(KQ: QTStructure) -> SplitCertificate:
    """For factorizable (K, R): certify that the double of K is a twisted
    tensor square of K.

    twisted_tensor_certificate runs on two projections of the double onto
    K, the first sending f (x) k to S(r_R(f)) k and the second to
    l_R(f) k.  Two checks follow its own: the second projection carries
    the canonical double R-matrix to R itself, and the twist of the
    construction coincides with the literal J.  For R = sum R^i (x) R_i
    the code's literal J is sum (1 (x) R_i) (x) (R^i (x) 1) = (R_21)_23 on
    the middle legs of (K (x) K) (x) (K (x) K); its check keeps the name
    "... sum (1 x R^i) x (R_i x 1)" so that reports keep their bytes.
    This J is a twist for J Delta J^-1 also on a non-commutative K: the
    double of sweedler's H4 passes every check.
    """
    require_verified(KQ)
    if not KQ.factorizable:
        raise PreconditionError("double_splitting needs a factorizable input")
    K = KQ.hopf
    DQ = drinfeld_double(K)

    pi1 = double_base_projection(DQ, KQ)  # f (x) k -> S(r_R(f)) k
    pi2 = double_projection(DQ.hopf, K, KQ.R.to_matrix().rows)  # f (x) k -> l_R(f) k
    cert = twisted_tensor_certificate(DQ, _quotient_data_from_projection(pi1),
                                      _quotient_data_from_projection(pi2), Report())
    cert.checks.add("second factor carries the original R-matrix", cert.r_k2 == KQ.R)

    literal = _on_middle_legs(cert.tensor, K, K, tt_flip(KQ.R.coeffs))
    cert.checks.add("the twist equals the literal form sum (1 x R^i) x (R_i x 1)",
                    cert.j.J == TensorSquareElement(cert.tensor, literal))
    return cert


def _quotient_data_from_projection(pi: HopfMorphism) -> QuotientData:
    """QuotientData for a surjection onto a concrete target: the section
    is any exact right inverse, the ideal is the kernel, both read off
    eliminations of the projection's sparse rows."""
    f = pi.source.field
    section = pi.matrix.solve_matrix(SparseMatrix.identity(f, pi.target.dim))
    ideal = Subspace(f, pi.source.dim, pi.matrix.nullspace())
    return QuotientData(pi, section, ideal, pi.target)


def extension_split(iota: HopfMorphism, pi: HopfMorphism, Q: QTStructure):
    """Split an extension along its quotient and transport the certified
    R-matrix on the complement back to the extension kernel."""
    ext = verify_extension(iota, pi)
    if not ext.ok:
        raise PreconditionError(
            f"not an extension: {ext.first_failure().name}"
        )
    qk = _pushed_qt(Q, pi)
    fact = qk.factorizable
    right = coinvariants(Q.hopf, pi, "right")
    left = coinvariants(Q.hopf, pi, "left")
    full = qk.full_rank and right == left
    if fact:
        cert = split_via_factorizable(Q, pi)
    elif full:
        cert = split_via_fullrank(Q, pi)
    else:
        raise PreconditionError(
            "the quotient is neither factorizable nor full rank with equal "
            f"coinvariants (factorizable={qk.factorizable}, full_rank={qk.full_rank}, "
            f"coinvariants_equal={right == left})"
        )
    A = iota.source
    f = A.field
    to_k2 = cert.k2.projection.matrix @ iota.matrix
    inv = to_k2.inverse()
    cert.checks.add("kernel maps isomorphically onto K2", inv is not None)
    r_a = None
    if inv is not None:
        r_a = cert.r_k2.map_legs(inv, inv, new_host=A)
        qa = verify_rmatrix(A, r_a)
        cert.checks.add("transported R-matrix verifies on the kernel", qa.verified)
    return cert, r_a


# ----------------------------------------------------------------------
# the obstruction criterion
# ----------------------------------------------------------------------


@dataclass
class ObstructionReport:
    clause: str
    witnesses: dict = dc_field(default_factory=dict)
    details: dict = dc_field(default_factory=dict)


def _odd_prime_factors(n: int):
    out = []
    d = 3
    m = n
    while m % 2 == 0:
        m //= 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 2
    if m > 1:
        out.append(m)
    return out


def obstruction_check(H: HopfAlgebra) -> ObstructionReport:
    """Clauses of the group-part criterion, evaluated in order with
    short-circuiting:

    i    trivial character group;
    ii   a nontrivial character is central in the dual;
    iii  a nontrivial group-like is central;
    iv_possible  every odd prime divisor of the character group order
         admits an order-p pair pairing to 1 (consistent with an R-matrix);
    no_qt  some odd prime divisor has all order-p pairings different
         from 1, which rules out any R-matrix.
    """
    f = H.field
    gH = grouplikes(H)
    dual = dual_hopf(H)
    gD = grouplikes(dual)
    details = {
        "n_grouplikes": len(gH),
        "n_characters": len(gD),
        "complete": gH.complete and gD.complete,
    }
    if not (gH.complete and gD.complete):
        return ObstructionReport("inconclusive", {"reason": "incomplete group data"}, details)

    n_chars = len(gD)
    if n_chars == 1:
        return ObstructionReport("i", {}, details)

    unit_dual = dual.unit
    central_nontrivial = [
        i for i, (el, c) in enumerate(zip(gD.elements, gD.central_flags))
        if c and el != unit_dual
    ]
    if central_nontrivial:
        return ObstructionReport("ii", {"central_characters": central_nontrivial}, details)

    unit_H = H.unit
    central_gl = [
        i for i, (el, c) in enumerate(zip(gH.elements, gH.central_flags))
        if c and el != unit_H
    ]
    if central_gl:
        return ObstructionReport("iii", {"central_grouplikes": central_gl}, details)

    primes = _odd_prime_factors(n_chars)
    details["odd_primes"] = primes
    details["p_squared_divides_dim"] = {p: (H.dim % (p * p) == 0) for p in primes}
    pairings = {}
    for p in primes:
        alphas = [i for i, o in enumerate(gD.orders) if o == p]
        gs = [i for i, o in enumerate(gH.orders) if o == p]
        table = []
        all_nontrivial = True
        for ai in alphas:
            alpha = gD.elements[ai]
            for gi in gs:
                g = gH.elements[gi]
                val = f.sum(f.mul(a, b) for a, b in zip(alpha, g))
                table.append({"alpha": ai, "g": gi, "value": f.show(val)})
                if f.is_one(val):
                    all_nontrivial = False
        pairings[p] = table
        if all_nontrivial:
            return ObstructionReport(
                "no_qt",
                {"prime": p, "pairings": table,
                 "p_squared_divides_dim": H.dim % (p * p) == 0},
                details,
            )
    return ObstructionReport("iv_possible", {"pairings": pairings}, details)


def verify_certificate(cert: SplitCertificate) -> Report:
    """Re-check the certificate's defining identities (listed in the module
    docstring) from the stored data alone: the componentwise R-matrix, the
    twisted tensor product and its coproduct are rebuilt from the factor
    R-matrices and J, never trusted from the construction path."""
    rep = Report()
    Q = cert.source
    f = Q.hopf.field
    pi1, pi2 = cert.k1.projection, cert.k2.projection
    rep.add("pi1 is a Hopf map", verify_morphism(pi1).ok)
    rep.add("pi2 is a Hopf map", verify_morphism(pi2).ok)
    rep.add("pi1 is surjective", pi1.is_surjective())
    rep.add("pi2 is surjective", pi2.is_surjective())

    mono = monodromy(Q)
    pushed = tt_apply(f, mono.coeffs, pi1.matrix, pi2.matrix)
    rep.add("(pi1 x pi2)(R21 R) = 1 x 1",
            pushed == tt_outer(cert.k1.quotient, cert.k1.quotient.unit, cert.k2.quotient.unit))

    twist = verify_twist(cert.tensor, cert.j.J, inverse_candidates=[cert.j.J_inv])
    rep.add("twist axioms", twist.verified)
    missing = ("the twist is invalid" if not twist.verified
               else "the certificate stores no F" if cert.f is None else None)
    if missing:
        rep.add("F is a Hopf map", False, f"not evaluable: {missing}")
        rep.add("(F x F)(R) = J21 Rtilde J^-1", False, f"not evaluable: {missing}")
        return rep
    r_tilde = componentwise_r(cert.tensor, cert.r_k1, cert.r_k2)
    twisted, r_expected = apply_twist(cert.tensor, twist, R=r_tilde)
    rep.add("F is a Hopf map", HopfMorphism(Q.hopf, twisted, cert.f).verify().ok)
    rep.add("F is bijective", cert.f.rank() == Q.hopf.dim)
    carried = tt_apply(f, Q.R.coeffs, cert.f, cert.f)
    rep.add("(F x F)(R) = J21 Rtilde J^-1", carried == r_expected.coeffs)
    return rep


def _pushed_qt(Q: QTStructure, pi: HopfMorphism) -> QTStructure:
    """R pushed onto the quotient pi.target, verified there; a
    PreconditionError when it fails verification."""
    qk = verify_rmatrix(pi.target, Q.R.map_legs(pi.matrix, pi.matrix, new_host=pi.target))
    if not qk.verified:
        raise PreconditionError("pushed R-matrix on the quotient failed verification")
    return qk


def _require_surjection(pi: HopfMorphism):
    if not pi.verify().ok:
        raise PreconditionError("the quotient map is not a verified Hopf map")
    if not pi.is_surjective():
        raise PreconditionError("the quotient map is not surjective")
