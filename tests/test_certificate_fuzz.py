"""Fault injection into split certificates read by ``hopfkit check-cert``.

Two certificates are taken: the 16-dimensional double D(Z2) over GF(17)
and the sweedler (x) kZ2 split over Q(z_5).  One fault is put into one
of them: a scalar replaced by a non-string, a bad string or a list, or
one row of a matrix, a vector or a list of triples cut short or widened
by one entry, or one row of a matrix dropped.  Every such document is malformed, so ``check-cert`` must
exit 2 with an input error: never exit 3 and never raise.

The section and the ideal of each quotient are not read by the re-check,
so their shapes are checked when the certificate is decoded; the cases
that passed before that check are listed one by one.
"""

import contextlib
import copy
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hopfkit.cli import main  # noqa: E402

CHECK = settings(max_examples=120, deadline=None, derandomize=True, database=None)

JOBS = {
    "double-gf17": ("double", {"field": {"kind": "gfp", "p": 17},
                               "object": {"builder": "double", "of": "Z2"}, "r": "canonical"}),
    "split-c5": ("split", {"field": {"kind": "cyclotomic", "n": 5},
                           "object": {"builder": "tensor", "left": "sweedler", "right": "Z2"},
                           "r": [[0, 0, "1/2"], [0, 2, "1/2"], [2, 0, "1/2"], [2, 2, "-1/2"],
                                 [4, 4, "-1"], [4, 6, "-1"], [6, 6, "-1"], [6, 4, "1"]],
                           "pi": "tensor_first"}),
}

NON_STRINGS = [0, 1, -1, 1.5, True, None, {"x": "1"}]
BAD_STRINGS = ["x", "1/0", "1/2/3", "?", "z^"]


def _run(path, verb, doc, out=None):
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = [verb, "--in", str(path)] + (["--out", str(out)] if out else [])
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def certs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("certs")
    out = {}
    for name, (verb, job) in JOBS.items():
        report = tmp / f"{name}.json"
        assert _run(tmp / "job.json", verb, job, report)[0] == 0
        out[name] = json.loads(report.read_text())["tasks"][0]["certificate"]
    return out


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("faults") / "cert.json"


def _structure_rows(path, s):
    rows = [(path + ("unit",), None), (path + ("counit",), None)]
    for key in ("mul", "comul"):
        rows += [(path + (key, n), 3) for n in range(len(s[key]))]
    if s["antipode"] is not None:
        rows += [(path + ("antipode", n), None) for n in range(len(s["antipode"]))]
    return rows


def scalar_rows(cert):
    """(path, scalar index) of every list in the certificate that holds
    scalars: matrix rows and vectors (index None: every item is a
    scalar) and the entries of triple lists (the scalar is the last
    item)."""
    rows = _structure_rows(("source", "structure"), cert["source"]["structure"])
    rows += [(("source", "r", n), 2) for n in range(len(cert["source"]["r"]))]
    for k in ("k1", "k2"):
        q = cert[k]
        for key in ("projection", "section", "ideal"):
            rows += [((k, key, n), None) for n in range(len(q[key]))]
        rows += _structure_rows((k, "quotient"), q["quotient"])
    for key in ("r_k1", "r_k2", "j", "j_inverse", "r_tilde", "r_target"):
        if cert[key] is not None:
            rows += [((key, n), 2) for n in range(len(cert[key]))]
    if cert["f"] is not None:
        rows += [(("f", n), None) for n in range(len(cert["f"]))]
    return rows


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _strings(x, skip=("names", "hash", "checks", "field", "kind")):
    """Every string under x outside the keys in skip."""
    if isinstance(x, dict):
        return [s for k, v in x.items() if k not in skip for s in _strings(v)]
    if isinstance(x, list):
        return [s for v in x for s in _strings(v)]
    return [x] if isinstance(x, str) else []


def test_the_fault_sites_hold_every_scalar(certs):
    for cert in certs.values():
        rows = [(_at(cert, path), index) for path, index in scalar_rows(cert)]
        assert sum(len(row) if index is None else 1 for row, index in rows) == len(_strings(cert))


@st.composite
def faults(draw, certs):
    """A certificate with one fault, and the fault as a string."""
    name = draw(st.sampled_from(sorted(certs)))
    doc = copy.deepcopy(certs[name])
    rows = scalar_rows(doc)
    path, index = rows[draw(st.integers(0, len(rows) - 1))]
    row = _at(doc, path)
    kinds = ["non-string", "bad string", "list", "truncate", "widen"]
    if index is None and isinstance(path[-1], int):
        kinds.append("drop matrix row")
    kind = draw(st.sampled_from(kinds))
    if kind == "drop matrix row":
        del _at(doc, path[:-1])[path[-1]]
    elif kind == "truncate":
        del row[draw(st.integers(0, len(row) - 1))]
    elif kind == "widen":
        row.insert(draw(st.integers(0, len(row))), draw(st.sampled_from(("0", "1", 0))))
    else:
        at = index if index is not None else draw(st.integers(0, len(row) - 1))
        row[at] = draw(st.sampled_from({"non-string": NON_STRINGS, "bad string": BAD_STRINGS,
                                        "list": [[], ["1"], [row[at]]]}[kind]))
    return doc, f"{name}: {kind} at {path}"


@CHECK
@given(data=st.data())
def test_every_fault_is_an_input_error(certs, scratch, data):
    doc, what = data.draw(faults(certs))
    code, err = _run(scratch, "check-cert", doc)
    assert code == 2, (what, code, err)
    assert err.startswith("input error"), (what, err)


def _quotient_fault(cert, key, value):
    doc = copy.deepcopy(cert)
    doc["k1"][key] = value
    return doc


@pytest.mark.parametrize("key, fault, message", [
    ("section", lambda m: [row[:-1] for row in m], "section must be 16x4, got 16x3"),
    ("section", lambda m: m[:-1], "section must be 16x4, got 15x4"),
    ("section", lambda m: [], "section must be 16x4, got 0x0"),
    ("ideal", lambda m: [row[:-1] for row in m], "ideal must be 12 rows of length 16"),
    ("ideal", lambda m: [], "ideal must be 12 rows of length 16, got 0"),
    ("ideal", lambda m: [[]], "ideal must be 12 rows of length 16, got 1"),
    ("ideal", lambda m: m[:-1], "ideal must be 12 rows of length 16, got 11"),
    ("ideal", lambda m: [[0] + row[1:] for row in m], "scalar 0 in entry"),
])
def test_misshaped_section_or_ideal_is_an_input_error(certs, scratch, key, fault, message):
    cert = certs["double-gf17"]
    assert _run(scratch, "check-cert", cert)[0] == 0
    code, err = _run(scratch, "check-cert", _quotient_fault(cert, key, fault(cert["k1"][key])))
    assert code == 2
    assert message in err
