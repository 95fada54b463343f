import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfkit.qt as qt
import hopfkit.report as report
from hopfkit.cli import main
from hopfkit.errors import UsageError
from hopfkit.fields import CyclotomicField, PrimeField, Rationals, parse_scalar, parse_scalars
from hopfkit.report import (
    dumps_stable,
    hopf_from_json,
    hopf_to_json,
    structure_hash,
)
from hopfkit.hopf import verify_hopf


def test_hopf_roundtrip(h4, taft37):
    for H in (h4, taft37):
        doc = hopf_to_json(H)
        back = hopf_from_json(H.field, json.loads(dumps_stable(doc)))
        assert back.mul == H.mul
        assert back.comul == H.comul
        assert back.unit == H.unit
        assert back.counit == H.counit
        assert back.antipode == H.antipode
        assert verify_hopf(back).ok


def test_structure_hash_stable_and_distinguishing(h4, kz2, kz4):
    assert structure_hash(h4) == structure_hash(h4)
    assert structure_hash(kz2) != structure_hash(kz4)
    assert len(structure_hash(h4)) == 64


def test_hash_depends_on_field():
    from hopfkit.catalog import cyclic_group_algebra

    a = cyclic_group_algebra(Rationals(), 2)
    b = cyclic_group_algebra(PrimeField(7), 2)
    verify_hopf(a), verify_hopf(b)
    assert structure_hash(a) != structure_hash(b)


def test_cyclotomic_scalars_roundtrip():
    from hopfkit.catalog import taft

    c3 = CyclotomicField(3)
    H = taft(c3, 3, "z")
    assert verify_hopf(H).ok
    doc = hopf_to_json(H)
    back = hopf_from_json(c3, doc)
    assert back.mul == H.mul
    assert verify_hopf(back).ok


# ----------------------------------------------------------------------
# decoding through the field's memo: each distinct scalar string is
# parsed once per field instance, to the value a fresh parse gives
# ----------------------------------------------------------------------

# the seed-1 job of perfbench's double81-gf workload: the 81-dimensional
# double splitting of D(D(kZ3)) over GF(19)
DOUBLE81 = {"field": {"kind": "gfp", "p": 19}, "object": {"builder": "double", "of": "Z3"},
            "r": "canonical"}


def _split_job(field):
    """The sweedler (x) kZ2 split with a full-rank R-matrix over field."""
    return {"field": field, "object": {"builder": "tensor", "left": "sweedler", "right": "Z2"},
            "r": [[0, 0, "1/2"], [0, 2, "1/2"], [2, 0, "1/2"], [2, 2, "-1/2"],
                  [4, 4, "-1"], [4, 6, "-1"], [6, 6, "-1"], [6, 4, "1"]],
            "pi": "tensor_first"}


# sha256 of the seed-1 double81 reports, taken before scalars were
# parsed through the memo; the memo must not change a byte of them
DOUBLE81_DIGESTS = {
    "double": "94a9f9a9745634cd5fdc69418430eba5b07f53624c647a6892a30729b34d213a",
    "check-cert": "8e04cef0d6f3ac74a55bd5dfc5e502a46aba4091b66aefaa8224e1986f32dccb",
}


def _report_bytes(tmp, verb, doc):
    inp, out = tmp / f"{verb}.in.json", tmp / f"{verb}.out.json"
    inp.write_text(json.dumps(doc), encoding="utf-8")
    assert main([verb, "--in", str(inp), "--out", str(out)]) == 0
    return out.read_bytes()


def _certificate(data):
    return json.loads(data)["tasks"][0]["certificate"]


@pytest.fixture(scope="module")
def double81(tmp_path_factory):
    """The double81 report bytes and its certificate."""
    data = _report_bytes(tmp_path_factory.mktemp("double81"), "double", DOUBLE81)
    return data, _certificate(data)


@pytest.fixture(scope="module")
def certificates(tmp_path_factory, double81):
    tmp = tmp_path_factory.mktemp("certs")
    return {
        "gf19": double81[1],
        "q": _certificate(_report_bytes(tmp, "split", _split_job({"kind": "rationals"}))),
        "c5": _certificate(_report_bytes(tmp, "split", _split_job({"kind": "cyclotomic", "n": 5}))),
    }


def _scalar_strings(x):
    """Every scalar string of a certificate document."""
    if isinstance(x, dict):
        return [s for k, v in x.items() if k not in ("names", "hash", "checks", "field", "kind")
                for s in _scalar_strings(v)]
    if isinstance(x, list):
        return [s for v in x for s in _scalar_strings(v)]
    return [x] if isinstance(x, str) else []


def test_double81_reports_golden(tmp_path, double81):
    data, cert = double81
    assert hashlib.sha256(data).hexdigest() == DOUBLE81_DIGESTS["double"]
    check = _report_bytes(tmp_path, "check-cert", cert)
    assert hashlib.sha256(check).hexdigest() == DOUBLE81_DIGESTS["check-cert"]


def test_dim81_certificate_parses_each_distinct_string_once(monkeypatch, double81):
    cert = double81[1]
    strings = _scalar_strings(cert)
    assert len(strings) == 30051 and set(strings) == {"0", "1", "18"}
    calls = []
    parse = PrimeField.parse

    def counted(self, text):
        calls.append(text)
        return parse(self, text)

    monkeypatch.setattr(PrimeField, "parse", counted)
    report.certificate_from_json(cert)
    assert sorted(calls) == ["0", "1", "18"]
    # a second document gets a field, and so a memo, of its own
    report.certificate_from_json(cert)
    assert len(calls) == 6


def _same_value(got, want):
    """got == want, with an int where want holds an int and a Fraction
    where it holds a Fraction (coordinate by coordinate over Q(z_n))."""
    if isinstance(want, tuple):
        return len(got) == len(want) and all(map(_same_value, got, want))
    return got == want and type(got) is type(want) and type(got) in (int, Fraction)


@pytest.mark.parametrize("name", ["gf19", "q", "c5"])
def test_every_decoded_scalar_is_a_fresh_parse(monkeypatch, certificates, name):
    decoded = []

    def one(field, value, entry):
        out = parse_scalar(field, value, entry)
        decoded.append((field, value, out))
        return out

    def row(field, values, entry):
        out = parse_scalars(field, values, entry)
        decoded.extend((field, v, x) for v, x in zip(values, out))
        return out

    for module in (report, qt):
        monkeypatch.setattr(module, "parse_scalar", one)
    monkeypatch.setattr(report, "parse_scalars", row)
    cert = certificates[name]
    report.certificate_from_json(cert)
    assert len(decoded) == len(_scalar_strings(cert))
    field = decoded[0][0]
    assert all(f is field for f, _, _ in decoded)
    fresh = report.field_from_json(cert["field"])
    bad = [(v, x) for _, v, x in decoded if not _same_value(x, fresh.parse(v))]
    assert not bad, bad[:5]
    # the split certificates hold halves, so both kinds of rational are read
    kinds = {type(c) for _, _, x in decoded for c in (x if isinstance(x, tuple) else (x,))}
    assert kinds == ({int} if name == "gf19" else {int, Fraction})


@pytest.mark.parametrize("kind", [{"kind": "gfp", "p": 7}, {"kind": "rationals"},
                                  {"kind": "cyclotomic", "n": 5}])
def test_a_bad_scalar_raises_the_same_error_each_time(monkeypatch, kind):
    field = report.field_from_json(kind)
    calls = []
    parse = type(field).parse

    def counted(self, text):
        calls.append(text)
        return parse(self, text)

    monkeypatch.setattr(type(field), "parse", counted)
    for bad in ("x", "1/0", "1/2/3"):
        messages = []
        for _ in range(2):
            for read in (lambda: parse_scalar(field, bad, "e"),
                         lambda: parse_scalars(field, ["1", bad], "e")):
                with pytest.raises(UsageError) as exc:
                    read()
                messages.append(str(exc.value))
        assert len(set(messages)) == 1 and bad in messages[0]
        # a failed parse is not stored: every read parses the string again
        assert calls.count(bad) == 4
    assert calls.count("1") == 1
    for value in (1, None, ["1"]):
        with pytest.raises(UsageError, match="must be a string"):
            parse_scalars(field, ["1", value], "e")
    assert parse_scalars(field, ["1", "1"], "e") == [field.one, field.one]


# ----------------------------------------------------------------------
# the report writer: the bytes of json.dumps(sort_keys, indent=2,
# ensure_ascii) for every value a report can hold
# ----------------------------------------------------------------------

_LEAVES = (st.text() | st.text(st.characters(max_codepoint=0x7f)) | st.integers()
           | st.integers(min_value=-10 ** 300, max_value=10 ** 300) | st.booleans() | st.none()
           | st.floats())
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=24)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_VALUES)
def test_dumps_indented_matches_json_dumps(value):
    assert report.dumps_indented(value) == json.dumps(value, sort_keys=True, indent=2, ensure_ascii=True)


def test_dumps_indented_on_empty_containers_and_tuples():
    value = {"b": [], "a": {}, "c": ({"pair": ("eé", -3)}, [[], {}, ()]), "": None}
    assert report.dumps_indented(value) == json.dumps(value, sort_keys=True, indent=2, ensure_ascii=True)
