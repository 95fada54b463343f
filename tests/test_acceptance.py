"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured runtime.  Tolerances are exact (zero) throughout; the
runtime budgets are asserted as stated.
"""

import json
import random
import time
from fractions import Fraction

import pytest

import oracle
from hopfkit import (
    HopfAlgebra,
    HopfMorphism,
    TensorSquareElement,
    cyclic_group_algebra,
    double_splitting,
    drinfeld_double,
    dual_hopf,
    is_factorizable,
    lr_maps,
    monodromy,
    obstruction_check,
    phi_maps,
    split_via_fullrank,
    sweedler,
    symmetric_group_algebra,
    taft,
    tensor_hopf,
    tensor_qt,
    transmute,
    verify_certificate,
    verify_hopf,
    verify_rmatrix,
)
from hopfkit.catalog import trivial_hopf
from hopfkit.checks import Report
from hopfkit.cli import execute, parse_jobspec
from hopfkit.fields import CyclotomicField, PrimeField, Rationals
from hopfkit.hopf import coinvariants, tt_apply, tt_outer
from hopfkit.linalg import Matrix
from hopfkit.qt import braided_coinvariants, check_braided_projection
from hopfkit.report import dumps_stable
from hopfkit.tensors import SparseTensor3

QQ = Rationals()
GF7 = PrimeField(7)


def _catalog():
    h4 = sweedler(QQ)
    verify_hopf(h4)
    ks3 = symmetric_group_algebra(GF7, 3)
    verify_hopf(ks3)
    out = {
        "kZ2": cyclic_group_algebra(QQ, 2),
        "kZ3": cyclic_group_algebra(QQ, 3),
        "kZ4": cyclic_group_algebra(QQ, 4),
        "kS3": ks3,
        "sweedler": h4,
        "taft(3)/GF7": taft(GF7, 3, 2),
        "dual(sweedler)": dual_hopf(h4),
        "dual(kS3)": dual_hopf(ks3),
        "sweedler@kZ2": tensor_hopf(h4, cyclic_group_algebra(QQ, 2)),
        "D(kZ2)": drinfeld_double(cyclic_group_algebra(QQ, 2)).hopf,
        "D(kZ3)/GF7": drinfeld_double(cyclic_group_algebra(GF7, 3)).hopf,
        "D(sweedler)": drinfeld_double(h4).hopf,
    }
    return out


def _random_scalar(field, rng):
    if isinstance(field, PrimeField):
        return rng.randrange(field.p)
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def _mutate(H, rng):
    f = H.field
    which = rng.choice(("mul", "comul"))
    src = H.mul if which == "mul" else H.comul
    d = H.dim
    i, j, k = (rng.randrange(d) for _ in range(3))
    old = src.get(i, j, k)
    new = _random_scalar(f, rng)
    while new == old:
        new = _random_scalar(f, rng)
    clone = SparseTensor3(f, (d, d, d), dict(src.entries))
    clone.set(i, j, k, new)
    from hopfkit.algebra import AlgebraPresentation

    if which == "mul":
        alg = AlgebraPresentation(f, d, clone, list(H.unit), list(H.names))
        return HopfAlgebra(alg, H.comul, list(H.counit), H.antipode)
    return HopfAlgebra(H.algebra, clone, list(H.counit), H.antipode)


def test_acceptance_1_axiom_suite():
    t0 = time.perf_counter()
    rng = random.Random(0xACCE551)
    catalog = _catalog()
    for name, H in catalog.items():
        assert verify_hopf(H).ok, f"{name} failed the axiom suite"
    mutations_checked = 0
    for name, H in catalog.items():
        for _ in range(50):
            broken = _mutate(H, rng)
            rep = verify_hopf(broken)
            assert not rep.ok, f"a single-constant mutation of {name} passed all axioms"
            mutations_checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1 (axiom suite): PASS - {len(catalog)} algebras verified, "
          f"{mutations_checked} mutations all fail, {elapsed:.1f}s < 60s")


def test_acceptance_2_qt_verification():
    t0 = time.perf_counter()
    catalog = _catalog()
    for name, H in catalog.items():
        q = verify_rmatrix(H, TensorSquareElement.unit(H))
        if H.is_cocommutative():
            assert q.verified and q.triangular, f"unit R-matrix failed on {name}"
        else:
            assert not q.verified, f"unit R-matrix cannot intertwine on {name}"
            assert any(
                c.name == "R Delta(h) = flipped-Delta(h) R" and not c.ok
                for c in q.report.checks
            )
    kz2 = catalog["kZ2"]
    found, _ = oracle.brute_force_rmatrices(oracle.export_hopf(kz2))
    assert len(found) == 2
    for coeffs in found:
        assert verify_rmatrix(kz2, TensorSquareElement(kz2, dict(coeffs))).verified
    h4 = catalog["sweedler"]
    found, _ = oracle.brute_force_rmatrices(oracle.export_hopf(h4))
    assert len(found) >= 3
    full_rank_seen = False
    for coeffs in found:
        q = verify_rmatrix(h4, TensorSquareElement(h4, dict(coeffs)))
        assert q.verified
        assert not is_factorizable(q)
        full_rank_seen = full_rank_seen or lr_maps(q).full_rank
    assert full_rank_seen
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 2 (QT verification): PASS - unit R on cocommutative catalog, "
          f"{len(found)} derived members on sweedler, none factorizable, "
          f"full rank witnessed, {elapsed:.1f}s < 30s")


def _fullrank_split_case():
    h4 = sweedler(QQ)
    verify_hopf(h4)
    kz2 = cyclic_group_algebra(QQ, 2)
    verify_hopf(kz2)
    found, _ = oracle.brute_force_rmatrices(oracle.export_hopf(h4))
    q_full = None
    for coeffs in found:
        q = verify_rmatrix(h4, TensorSquareElement(h4, dict(coeffs)))
        if q.full_rank:
            q_full = q
            break
    assert q_full is not None
    qz = verify_rmatrix(kz2, TensorSquareElement.unit(kz2))
    Q = tensor_qt(q_full, qz)
    f = Q.hopf.field
    P = Matrix.zeros(f, 4, 8)
    for i in range(4):
        for j in range(2):
            P.rows[i][i * 2 + j] = kz2.counit[j]
    pi = HopfMorphism(Q.hopf, h4, P)
    assert pi.verify().ok
    return Q, pi


def test_acceptance_3_fullrank_split():
    t0 = time.perf_counter()
    Q, pi = _fullrank_split_case()
    cert = split_via_fullrank(Q, pi)
    assert cert.ok, cert.checks.first_failure()
    assert cert.dims() == (4, 2)
    assert verify_certificate(cert).ok
    f = Q.hopf.field
    mono = monodromy(Q)
    pushed = tt_apply(f, mono.coeffs,
                      cert.k1.projection.matrix, cert.k2.projection.matrix)
    assert pushed == tt_outer(cert.k1.quotient, cert.k1.quotient.unit, cert.k2.quotient.unit)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 3 (full-rank split): PASS - dims (4, 2), certificate "
          f"re-verified, monodromy condition exact, {elapsed:.1f}s < 30s")


def test_acceptance_4_double_splitting():
    t0 = time.perf_counter()
    KQ = drinfeld_double(cyclic_group_algebra(QQ, 2))
    cert = double_splitting(KQ)
    assert cert.source.hopf.dim == 16
    assert cert.ok, cert.checks.first_failure()
    assert any("literal form" in c.name and c.ok for c in cert.checks.checks)
    assert verify_certificate(cert).ok
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 4 (double splitting): PASS - dim 16 certificate with the "
          f"literal twist, {elapsed:.1f}s < 120s")


def test_acceptance_5_obstruction():
    t0 = time.perf_counter()
    T7 = taft(GF7, 3, 2)
    assert verify_hopf(T7).ok
    ob = obstruction_check(T7)
    assert ob.clause == "no_qt"
    assert ob.witnesses["prime"] == 3
    assert len(ob.witnesses["pairings"]) == 4
    assert all(w["value"] != "1" for w in ob.witnesses["pairings"])
    c3 = CyclotomicField(3)
    Tc = taft(c3, 3, "z")
    assert verify_hopf(Tc).ok
    obc = obstruction_check(Tc)
    assert obc.clause == "no_qt"
    assert len(obc.witnesses["pairings"]) == 4
    found, exhaustive = oracle.brute_force_rmatrices(oracle.export_hopf(T7))
    assert exhaustive and found == []
    assert obstruction_check(cyclic_group_algebra(GF7, 3)).clause == "ii"
    assert obstruction_check(symmetric_group_algebra(GF7, 3)).clause == "ii"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 5 (obstruction): PASS - no_qt over GF(7) and Q(z_3) with "
          f"pairing witnesses, brute force finds 0 of 0 candidates at dim 9, "
          f"clause ii on kZ3 and kS3, {elapsed:.1f}s < 300s")


def test_acceptance_6_transmutation():
    t0 = time.perf_counter()
    h4 = sweedler(QQ)
    verify_hopf(h4)
    found, _ = oracle.brute_force_rmatrices(oracle.export_hopf(h4))
    assert found
    braided_ok = 0
    for coeffs in found[:3]:
        q = verify_rmatrix(h4, TensorSquareElement(h4, dict(coeffs)))
        bd = transmute(q)
        names = {c.name: c.ok for c in bd.report.checks}
        assert names["braided coassociativity"]
        assert names["braided coproduct is multiplicative for the braiding"]
        assert bd.report.ok
        braided_ok += 1
    Q, pi = _fullrank_split_case()
    bd = transmute(Q)
    assert bd.report.ok
    assert braided_coinvariants(bd, pi) == coinvariants(Q.hopf, pi, "right")
    assert check_braided_projection(Q, pi).ok
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 6 (transmutation): PASS - braided axioms exact on "
          f"{braided_ok} derived members, coinvariant subspaces agree, "
          f"projection compatibility holds, {elapsed:.1f}s < 60s")


def test_acceptance_7_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(0x5EED)
    report = Report()

    # field axioms on random triples
    ok = True
    for field in (QQ, GF7, CyclotomicField(3)):
        for _ in range(25):
            if isinstance(field, PrimeField):
                a, b, c = (rng.randrange(field.p) for _ in range(3))
            elif isinstance(field, CyclotomicField):
                a, b, c = (
                    tuple(Fraction(rng.randint(-3, 3)) for _ in range(field.degree))
                    for _ in range(3)
                )
            else:
                a, b, c = (Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(3))
            ok = ok and field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
            ok = ok and field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
    report.add("field axioms", ok)

    # RREF idempotence
    ok = True
    for _ in range(10):
        M = Matrix(QQ, [[Fraction(rng.randint(-4, 4)) for _ in range(4)] for _ in range(3)])
        R1, p1 = M.rref()
        ok = ok and R1.rref() == (R1, p1)
    report.add("rref idempotence", ok)

    # Yang-Baxter for verified structures
    from hopfkit.hopf import t3_embed, t3_mul

    kz2 = cyclic_group_algebra(QQ, 2)
    verify_hopf(kz2)
    dq = drinfeld_double(kz2)
    h4 = sweedler(QQ)
    verify_hopf(h4)
    found, _ = oracle.brute_force_rmatrices(oracle.export_hopf(h4))
    structures = [dq] + [verify_rmatrix(h4, TensorSquareElement(h4, dict(c))) for c in found[:2]]
    ok = True
    for q in structures:
        H, f = q.hopf, q.hopf.field
        r12 = t3_embed(f, q.R.coeffs, (0, 1), H.unit)
        r13 = t3_embed(f, q.R.coeffs, (0, 2), H.unit)
        r23 = t3_embed(f, q.R.coeffs, (1, 2), H.unit)
        ok = ok and t3_mul(H, t3_mul(H, r12, r13), r23) == t3_mul(H, t3_mul(H, r23, r13), r12)
    report.add("yang-baxter", ok)

    # rank of the pairing map agrees with its flip, image is a normal
    # left coideal subalgebra
    ok = True
    for q in structures:
        maps = phi_maps(q)
        ok = ok and maps.phi.rank() == maps.phi_flip.rank()
        ok = ok and maps.normal.ok
    report.add("monodromy pairing ranks and normality", ok)

    # dimensions multiply in every certificate produced here
    Q, pi = _fullrank_split_case()
    certs = [split_via_fullrank(Q, pi), double_splitting(dq)]
    ok = all(c.dims()[0] * c.dims()[1] == c.source.hopf.dim for c in certs)
    report.add("certificate dimensions multiply", ok)

    # determinism of reports
    job_doc = json.dumps({
        "field": {"kind": "gfp", "p": 7},
        "object": {"builder": "taft", "p": 3, "omega": "2"},
        "tasks": ["verify", "analyze", "obstruct"],
    })
    r1, _, _ = execute(parse_jobspec(job_doc))
    r2, _, _ = execute(parse_jobspec(job_doc))
    report.add("byte-identical reports", dumps_stable(r1) == dumps_stable(r2))

    assert report.ok, report.first_failure()
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE 7 (property suites): PASS - "
          + ", ".join(c.name for c in report.checks)
          + f", {elapsed:.1f}s")
