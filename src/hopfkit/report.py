"""Stable JSON codecs for algebras, morphisms and split certificates,
plus the canonical structure-constant hash embedded in every report.

All scalars serialize as strings through the field's parser/printer, so
serialization is exact and byte-stable: identical inputs always produce
identical documents.
"""

from __future__ import annotations

import hashlib
import json

from .algebra import AlgebraPresentation
from .checks import Report
from .errors import UsageError
from .fields import Field, field_from_json
from .hopf import HopfAlgebra, HopfMorphism, QuotientData
from .linalg import Matrix, Subspace
from .tensors import SparseTensor3


def dumps_stable(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def matrix_to_json(M: Matrix):
    f = M.field
    return [[f.show(v) for v in row] for row in M.rows]


def matrix_from_json(field: Field, rows) -> Matrix:
    return Matrix(field, [[field.parse(v) for v in row] for row in rows])


def tensor3_to_json(T: SparseTensor3):
    f = T.field
    return [[i, j, k, f.show(v)] for (i, j, k), v in T.items_sorted()]


def tensor3_from_json(field: Field, dim: int, triples) -> SparseTensor3:
    out = SparseTensor3(field, (dim, dim, dim))
    for item in triples:
        if len(item) != 4:
            raise UsageError(f"structure constant entry {item!r} must be [i, j, k, scalar]")
        i, j, k, c = item
        out.add_to(int(i), int(j), int(k), field.parse(c))
    return out


def vector_to_json(field: Field, v):
    return [field.show(x) for x in v]


def vector_from_json(field: Field, items):
    return [field.parse(x) for x in items]


def hopf_to_json(H: HopfAlgebra) -> dict:
    f = H.field
    return {
        "dim": H.dim,
        "names": list(H.names),
        "mul": tensor3_to_json(H.mul),
        "unit": vector_to_json(f, H.unit),
        "comul": tensor3_to_json(H.comul),
        "counit": vector_to_json(f, H.counit),
        "antipode": matrix_to_json(H.antipode) if H.antipode is not None else None,
    }


def hopf_from_json(field: Field, data: dict) -> HopfAlgebra:
    required = {"dim", "mul", "unit", "comul", "counit"}
    missing = required - set(data)
    if missing:
        raise UsageError(f"structure description missing keys {sorted(missing)}")
    extra = set(data) - required - {"names", "antipode"}
    if extra:
        raise UsageError(f"unknown structure keys {sorted(extra)}")
    dim = int(data["dim"])
    mul = tensor3_from_json(field, dim, data["mul"])
    unit = vector_from_json(field, data["unit"])
    comul = tensor3_from_json(field, dim, data["comul"])
    counit = vector_from_json(field, data["counit"])
    antipode = None
    if data.get("antipode") is not None:
        antipode = matrix_from_json(field, data["antipode"])
    names = data.get("names")
    alg = AlgebraPresentation(field, dim, mul, unit, names)
    return HopfAlgebra(alg, comul, counit, antipode, names)


def structure_hash(H: HopfAlgebra) -> str:
    """sha256 of the canonical serialization of field + structure constants."""
    payload = dumps_stable({"field": H.field.to_json(), "structure": hopf_to_json(H)})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def tse_to_json(t) -> list:
    return t.to_triples()


def certificate_to_json(cert) -> dict:
    f = cert.source.hopf.field
    return {
        "kind": "split_certificate",
        "field": f.to_json(),
        "source": {
            "structure": hopf_to_json(cert.source.hopf),
            "hash": structure_hash(cert.source.hopf),
            "r": tse_to_json(cert.source.R),
        },
        "k1": _quotient_to_json(cert.k1),
        "k2": _quotient_to_json(cert.k2),
        "r_k1": tse_to_json(cert.r_k1),
        "r_k2": tse_to_json(cert.r_k2),
        "j": tse_to_json(cert.j.J),
        "j_inverse": tse_to_json(cert.j.J_inv) if cert.j.J_inv is not None else None,
        "f": matrix_to_json(cert.f.matrix),
        "r_tilde": tse_to_json(cert.r_tilde),
        "r_target": tse_to_json(cert.r_target),
        "checks": cert.checks.as_dict(),
    }


def _quotient_to_json(qd: QuotientData) -> dict:
    f = qd.quotient.field
    return {
        "projection": matrix_to_json(qd.projection.matrix),
        "section": matrix_to_json(qd.section),
        "ideal": matrix_to_json(qd.ideal.basis),
        "quotient": hopf_to_json(qd.quotient),
    }


def certificate_from_json(data: dict):
    from .qt import QTStructure, TensorSquareElement, verify_rmatrix, verify_twist
    from .splitting import SplitCertificate
    from .hopf import tensor_hopf

    if data.get("kind") != "split_certificate":
        raise UsageError("not a split certificate document")
    field = field_from_json(data["field"])
    H = hopf_from_json(field, data["source"]["structure"])
    R = TensorSquareElement.from_triples(H, data["source"]["r"])
    Q = verify_rmatrix(H, R)
    k1 = _quotient_from_json(field, H, data["k1"])
    k2 = _quotient_from_json(field, H, data["k2"])
    K1, K2 = k1.quotient, k2.quotient
    r_k1 = TensorSquareElement.from_triples(K1, data["r_k1"])
    r_k2 = TensorSquareElement.from_triples(K2, data["r_k2"])
    T = tensor_hopf(K1, K2)
    J = TensorSquareElement.from_triples(T, data["j"])
    cands = []
    if data.get("j_inverse") is not None:
        cands.append(TensorSquareElement.from_triples(T, data["j_inverse"]))
    twist = verify_twist(T, J, inverse_candidates=cands)
    from .qt import apply_twist
    from .splitting import componentwise_r

    r_tilde = componentwise_r(T, r_k1, r_k2, K2.dim)
    # a tampered document may carry an invalid twist; keep it loadable so
    # verify_certificate can report the failing identity
    if twist.verified:
        twisted, r_target = apply_twist(T, twist, R=r_tilde)
    else:
        twisted, r_target = T, None
    F = matrix_from_json(field, data["f"])
    fmor = HopfMorphism(H, twisted, F)
    checks = Report()
    for c in data.get("checks", {}).get("checks", []):
        checks.add(c["name"], c["ok"], c.get("witness"))
    return SplitCertificate(Q, k1, k2, r_k1, r_k2, T, twisted, twist,
                            r_tilde, r_target, fmor, checks)


def _quotient_from_json(field: Field, H: HopfAlgebra, data: dict) -> QuotientData:
    quotient = hopf_from_json(field, data["quotient"])
    projection = HopfMorphism(H, quotient, matrix_from_json(field, data["projection"]))
    section = matrix_from_json(field, data["section"])
    ideal_rows = data["ideal"]
    ideal = Subspace(field, H.dim, [[field.parse(v) for v in row] for row in ideal_rows])
    return QuotientData(projection, section, ideal, quotient)
