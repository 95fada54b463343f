"""Stable JSON codecs for algebras, morphisms and split certificates,
plus the canonical structure-constant hash embedded in every report.

All scalars serialize as strings through the field's parser/printer, so
serialization is exact and byte-stable: identical inputs always produce
identical documents.  Decoding reads matrices and vectors a row at a
time through ``parse_scalars`` and every other scalar through
``parse_scalar``, so the field parses each distinct scalar string of a
document once.  A matrix is written and read as its dense rows, and a
SparseMatrix goes straight to and from them.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii

from .algebra import AlgebraPresentation
from .checks import Report
from .errors import UsageError
from .fields import Field, field_from_json, parse_int, parse_scalar, parse_scalars
from .hopf import HopfAlgebra, HopfMorphism, QuotientData, tensor_hopf
from .linalg import Matrix, SparseMatrix, Subspace
from .qt import QTStructure, TensorSquareElement, Twist
from .splitting import SplitCertificate
from .tensors import SparseTensor3


def dumps_stable(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def dumps_indented(obj) -> str:
    """The bytes of json.dumps(obj, sort_keys=True, indent=2,
    ensure_ascii=True), without the pure-Python encoder that indent
    selects.  Dicts (keys sorted), lists and tuples are walked here, each
    one joined at once; strings and ints are written as that encoder
    writes them, and any other leaf by json.dumps of the leaf."""
    encode = encode_basestring_ascii
    int_repr = int.__repr__

    def walk(o, pad):
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            inner = pad + "  "
            items = [encode(x) if type(x) is str else int_repr(x) if type(x) is int else walk(x, inner)
                     for x in o]
            return "[" + inner + ("," + inner).join(items) + pad + "]"
        if isinstance(o, dict):
            if not o:
                return "{}"
            inner = pad + "  "
            items = [encode(k if isinstance(k, str) else json.dumps(k)) + ": " + walk(v, inner)
                     for k, v in sorted(o.items())]
            return "{" + inner + ("," + inner).join(items) + pad + "}"
        if isinstance(o, str):
            return encode(o)
        if isinstance(o, int) and not isinstance(o, bool):
            return int_repr(o)
        return json.dumps(o)

    return walk(obj, "\n")


def matrix_to_json(M):
    """The rows of a Matrix or a SparseMatrix, each scalar shown."""
    f = M.field
    if isinstance(M, Matrix):
        return [[f.show(v) for v in row] for row in M.rows]
    zero = f.show(f.zero)
    out = [[zero] * M.ncols for _ in range(M.nrows)]
    for j, col in enumerate(M.columns):
        for i, v in col:
            out[i][j] = f.show(v)
    return out


def matrix_from_json(field: Field, rows) -> SparseMatrix:
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise UsageError(f"matrix {rows!r} must be a list of rows")
    rows = [parse_scalars(field, row, row) for row in rows]
    ncols = len(rows[0]) if rows else 0
    if any(len(row) != ncols for row in rows):
        raise UsageError("ragged matrix rows")
    zero = field.zero  # every zero of a field equals its zero
    columns = [[] for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j in [j for j, a in enumerate(row) if a != zero]:
            columns[j].append((i, row[j]))
    return SparseMatrix(field, len(rows), columns)


def tensor3_to_json(T: SparseTensor3):
    f = T.field
    return [[i, j, k, f.show(v)] for (i, j, k), v in T.items_sorted()]


def tensor3_from_json(field: Field, dim: int, triples) -> SparseTensor3:
    if not isinstance(triples, list):
        raise UsageError(f"structure constants {triples!r} must be a list of [i, j, k, scalar]")
    """The tensor of a JSON list of [i, j, k, scalar], repeated indices
    summed.  The entries are summed into one dict and the tensor is built
    from it once; an index that is a plain int skips parse_int, and each
    diagnostic is formed only when its entry fails, in document order."""
    dims = (dim, dim, dim)
    add = field.add
    acc = {}
    for item in triples:
        if not isinstance(item, (list, tuple)) or len(item) != 4:
            raise UsageError(f"structure constant entry {item!r} must be [i, j, k, scalar]")
        i, j, k, c = item
        if not (type(i) is int and type(j) is int and type(k) is int):
            entry = f"index of structure constant entry {item!r}"
            i, j, k = parse_int(i, entry), parse_int(j, entry), parse_int(k, entry)
        v = parse_scalar(field, c, item)
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise UsageError(f"tensor index {(i, j, k)} out of bounds {dims}")
        key = (i, j, k)
        cur = acc.get(key)
        acc[key] = v if cur is None else add(cur, v)
    return SparseTensor3(field, dims, acc)


def vector_to_json(field: Field, v):
    return [field.show(x) for x in v]


def vector_from_json(field: Field, items):
    if not isinstance(items, list):
        raise UsageError(f"vector {items!r} must be a list of scalars")
    return parse_scalars(field, items, items)


def hopf_to_json(H: HopfAlgebra) -> dict:
    """The structure constants; an antipode not yet determined is written
    as null and is not solved for here, so a hash never starts a solve."""
    f = H.field
    S = H.antipode if H.antipode_source else None
    return {
        "dim": H.dim,
        "names": list(H.names),
        "mul": tensor3_to_json(H.mul),
        "unit": vector_to_json(f, H.unit),
        "comul": tensor3_to_json(H.comul),
        "counit": vector_to_json(f, H.counit),
        "antipode": matrix_to_json(S) if S is not None else None,
    }


def hopf_from_json(field: Field, data: dict) -> HopfAlgebra:
    if not isinstance(data, dict):
        raise UsageError(f"structure description {data!r} must be a JSON object")
    required = {"dim", "mul", "unit", "comul", "counit"}
    missing = required - set(data)
    if missing:
        raise UsageError(f"structure description missing keys {sorted(missing)}")
    extra = set(data) - required - {"names", "antipode"}
    if extra:
        raise UsageError(f"unknown structure keys {sorted(extra)}")
    dim = data["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise UsageError(f"structure dim must be a positive integer, got {dim!r}")
    mul = tensor3_from_json(field, dim, data["mul"])
    unit = vector_from_json(field, data["unit"])
    comul = tensor3_from_json(field, dim, data["comul"])
    counit = vector_from_json(field, data["counit"])
    antipode = None
    if data.get("antipode") is not None:
        antipode = matrix_from_json(field, data["antipode"])
    names = data.get("names")
    if names is not None and not isinstance(names, list):
        raise UsageError("structure names must be a list")
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
        "f": matrix_to_json(cert.f) if cert.f is not None else None,
        "r_tilde": tse_to_json(cert.r_tilde),
        "r_target": tse_to_json(cert.r_target) if cert.r_target is not None else None,
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


_CERTIFICATE_KEYS = {"kind", "field", "source", "k1", "k2", "r_k1", "r_k2", "j", "j_inverse",
                     "f", "r_tilde", "r_target", "checks"}


def _fields(data, keys: set, what: str) -> dict:
    """``data`` if it is a dict with exactly ``keys``; a UsageError otherwise."""
    if not isinstance(data, dict):
        raise UsageError(f"{what} must be a JSON object")
    if keys - set(data):
        raise UsageError(f"{what} is missing keys {sorted(keys - set(data))}")
    if set(data) - keys:
        raise UsageError(f"unknown {what} keys {sorted(set(data) - keys)}")
    return data


def certificate_from_json(data: dict):
    """Decode a split certificate without checking any of it: R, J, its
    inverse, F and the twisted R-matrix are kept as the document gives
    them, the source and the twist are marked unverified, and the twisted
    tensor product is not rebuilt.  verify_certificate is the re-check."""
    if not isinstance(data, dict) or data.get("kind") != "split_certificate":
        raise UsageError("not a split certificate document")
    _fields(data, _CERTIFICATE_KEYS, "certificate")
    try:
        field = field_from_json(data["field"])
        source = _fields(data["source"], {"structure", "hash", "r"}, "certificate source")
        H = hopf_from_json(field, source["structure"])
        k1 = _quotient_from_json(field, H, data["k1"])
        k2 = _quotient_from_json(field, H, data["k2"])
        T = tensor_hopf(k1.quotient, k2.quotient)
        tse = TensorSquareElement.from_triples
        J_inv = tse(T, data["j_inverse"]) if data["j_inverse"] is not None else None
        # the twisted tensor product has the algebra of T, so T hosts its R-matrix
        r_target = tse(T, data["r_target"]) if data["r_target"] is not None else None
        F = matrix_from_json(field, data["f"]) if data["f"] is not None else None
        if F is not None and F.shape != (T.dim, H.dim):
            raise UsageError(f"certificate F must be {T.dim}x{H.dim}, got {F.shape}")
        checks = Report()
        for c in _fields(data["checks"], {"ok", "checks"}, "certificate checks")["checks"]:
            checks.add(c["name"], c["ok"], c.get("witness"))
        return SplitCertificate(QTStructure(H, tse(H, source["r"]), Report(), False), k1, k2,
                                tse(k1.quotient, data["r_k1"]), tse(k2.quotient, data["r_k2"]),
                                T, None, Twist(T, tse(T, data["j"]), J_inv, Report(), False),
                                tse(T, data["r_tilde"]), r_target, F, checks)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        raise UsageError(f"malformed certificate ({type(exc).__name__}: {exc})") from None


def _quotient_from_json(field: Field, H: HopfAlgebra, data: dict) -> QuotientData:
    _fields(data, {"projection", "section", "ideal", "quotient"}, "certificate quotient")
    quotient = hopf_from_json(field, data["quotient"])
    projection = HopfMorphism(H, quotient, matrix_from_json(field, data["projection"]))
    # the section is a map K -> H and the ideal ker(pi) has dim H - dim K;
    # check-cert does not use either, so their shapes are checked here
    section = matrix_from_json(field, data["section"])
    if section.shape != (H.dim, quotient.dim):
        raise UsageError(f"certificate section must be {H.dim}x{quotient.dim}, "
                         f"got {section.nrows}x{section.ncols}")
    ideal = matrix_from_json(field, data["ideal"])
    if ideal.nrows != H.dim - quotient.dim or ideal.nrows and ideal.ncols != H.dim:
        raise UsageError(f"certificate ideal must be {H.dim - quotient.dim} rows of length "
                         f"{H.dim}, got {ideal.nrows} of length {ideal.ncols}")
    return QuotientData(projection, section, Subspace(field, H.dim, ideal.rows), quotient)
