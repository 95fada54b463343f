"""Fault injection into job documents and builder expressions read by
``hopfkit verify``.

A few valid jobs are taken: Taft(5) over Q(z_5), a tensor product over
Q, the double of Z2 over GF(7), a dual and a group given by its table.
One fault is put into one of them: a value of the field or of a builder
expression (at any depth) replaced by a non-string, a bad string, a list
or an index too large to build, or a key of theirs dropped.  Every such
document is malformed, so ``verify`` must exit 2 with an input error:
never exit 3 and never raise.
"""

import contextlib
import copy
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hopfkit.cli import main  # noqa: E402

CHECK = settings(max_examples=100, deadline=None, derandomize=True, database=None)

JOBS = [
    {"field": {"kind": "cyclotomic", "n": 5}, "object": {"builder": "taft", "p": 5, "omega": "z"}},
    {"field": {"kind": "rationals"},
     "object": {"builder": "tensor", "left": "sweedler", "right": {"builder": "cyclic", "n": 2}}},
    {"field": {"kind": "gfp", "p": 7}, "object": {"builder": "double", "of": "Z2"}},
    {"field": {"kind": "gfp", "p": 5}, "object": {"builder": "dual", "of": {"builder": "symmetric",
                                                                           "n": 3}}},
    {"field": {"kind": "rationals"},
     "object": {"builder": "group_algebra", "table": [[0, 1], [1, 0]]}},
]

BAD_VALUES = [None, 0, -1, 1.5, True, {"x": "1"}, [], ["1"], "?", "1/0", 10 ** 30]


def _run(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["verify", "--in", str(path)])
    return code, err.getvalue()


def _sites(doc):
    """(container, key) of every value under the field and the object:
    the keys of each builder expression and of the field, and the items
    of the lists they hold."""
    out = [(doc, "object")]

    def walk(x):
        items = x.items() if isinstance(x, dict) else enumerate(x)
        for key, value in items:
            out.append((x, key))
            if isinstance(value, (dict, list)):
                walk(value)

    walk(doc["field"])
    if isinstance(doc["object"], dict):
        walk(doc["object"])
    return out


@st.composite
def faults(draw):
    doc = copy.deepcopy(draw(st.sampled_from(JOBS)))
    container, key = draw(st.sampled_from(_sites(doc)))
    if isinstance(container, dict) and container is not doc and draw(st.booleans()):
        del container[key]
        return doc, f"drop {key!r}"
    value = draw(st.sampled_from(BAD_VALUES))
    container[key] = value
    return doc, f"{key!r} := {value!r}"


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("jobs") / "job.json"


def test_the_jobs_are_valid(scratch):
    for doc in JOBS:
        assert _run(scratch, doc)[0] == 0, doc


OMEGA = {"field": {"kind": "cyclotomic", "n": 5}, "object": {"builder": "taft", "p": 5}}


@CHECK
@given(fault=faults())
@example(fault=({**OMEGA, "object": {**OMEGA["object"], "omega": None}}, "omega null"))
@example(fault=({**OMEGA, "object": {**OMEGA["object"], "omega": 0}}, "omega 0"))
@example(fault=({**OMEGA, "object": {**OMEGA["object"], "omega": 1.5}}, "omega 1.5"))
@example(fault=({**OMEGA, "object": {**OMEGA["object"], "omega": True}}, "omega true"))
@example(fault=({**OMEGA, "object": {**OMEGA["object"], "omega": {"x": 1}}}, "omega object"))
@example(fault=({"field": {"kind": "cyclotomic", "n": 10 ** 30}, "object": "Z2"}, "n = 10^30"))
def test_every_fault_is_an_input_error(scratch, fault):
    doc, what = fault
    code, err = _run(scratch, doc)
    assert code == 2, (what, code, err)
    assert err.startswith("input error"), (what, err)


def test_the_pinned_faults_name_the_key(scratch):
    code, err = _run(scratch, {**OMEGA, "object": {**OMEGA["object"], "omega": None}})
    assert code == 2 and "key 'omega' of builder 'taft'" in err
    code, err = _run(scratch, {"field": {"kind": "cyclotomic", "n": 10 ** 30}, "object": "Z2"})
    assert code == 2 and "cyclotomic index must be at most 1000" in err
