import json
import time

import pytest

import oracle
from hopfkit.cli import JobSpec, execute, main, parse_jobspec
from hopfkit.errors import BuilderError, UsageError
from hopfkit.report import dumps_stable


def _run(job_dict, **kw):
    job = parse_jobspec(json.dumps(job_dict), **kw)
    return execute(job)


TAFT_OBSTRUCT = {
    "schema_version": 2,
    "field": {"kind": "gfp", "p": 7},
    "object": {"builder": "taft", "p": 3, "omega": "2"},
    "tasks": ["obstruct"],
}


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------

def test_parse_valid_jobspec():
    job = parse_jobspec(json.dumps(TAFT_OBSTRUCT))
    assert job.tasks == [{"task": "obstruct"}]


def test_parse_rejects_unknown_keys():
    bad = dict(TAFT_OBSTRUCT)
    bad["surprise"] = 1
    with pytest.raises(UsageError, match="unknown keys"):
        parse_jobspec(json.dumps(bad))


def test_parse_missing_tasks_diagnostic():
    bad = {k: v for k, v in TAFT_OBSTRUCT.items() if k != "tasks"}
    with pytest.raises(UsageError, match="tasks"):
        parse_jobspec(json.dumps(bad))


def test_parse_reports_syntax_position():
    with pytest.raises(UsageError, match="line 1"):
        parse_jobspec("{not json")


def test_parse_unknown_task():
    bad = dict(TAFT_OBSTRUCT)
    bad["tasks"] = ["transmogrify"]
    with pytest.raises(UsageError, match="unknown task"):
        parse_jobspec(json.dumps(bad))


def test_parse_unknown_builder():
    bad = dict(TAFT_OBSTRUCT)
    bad["object"] = {"builder": "heisenberg"}
    job = parse_jobspec(json.dumps(bad))
    with pytest.raises(BuilderError, match="unknown builder"):
        execute(job)


def test_bad_omega_reported_before_computation():
    bad = dict(TAFT_OBSTRUCT)
    bad["object"] = {"builder": "taft", "p": 3, "omega": "3"}
    job = parse_jobspec(json.dumps(bad))
    with pytest.raises(BuilderError, match="multiplicative order"):
        execute(job)


def test_schema_version_checked():
    bad = dict(TAFT_OBSTRUCT)
    bad["schema_version"] = 99
    with pytest.raises(UsageError, match="schema_version"):
        parse_jobspec(json.dumps(bad))


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------

def test_obstruct_job_end_to_end():
    report, code, _ = _run(TAFT_OBSTRUCT)
    assert code == 0
    entry = report["tasks"][0]
    assert entry["clause"] == "no_qt"
    assert entry["witnesses"]["prime"] == 3
    assert len(entry["witnesses"]["pairings"]) == 4


def test_verify_and_analyze_job():
    job = {
        "field": {"kind": "rationals"},
        "object": "sweedler",
        "tasks": ["verify", "analyze"],
    }
    report, code, _ = _run(job)
    assert code == 0
    assert report["tasks"][0]["verdict"] == "pass"
    an = report["tasks"][1]
    assert an["grouplikes"]["count"] == 2
    assert an["characters"]["count"] == 2
    assert an["center_dim"] == 1


def test_failed_verify_short_circuits():
    # raw structure constants with a broken coproduct
    structure = {
        "dim": 2,
        "mul": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 0, "1"]],
        "unit": ["1", "0"],
        "comul": [[0, 0, 0, "1"], [1, 1, 0, "1"]],
        "counit": ["1", "1"],
        "antipode": [["1", "0"], ["0", "1"]],
    }
    job = {
        "field": {"kind": "rationals"},
        "object": {"structure": structure},
        "tasks": ["verify", "obstruct"],
    }
    report, code, _ = _run(job)
    assert code == 1
    assert report["tasks"][0]["verdict"] == "fail"
    assert report["tasks"][1]["verdict"] == "skipped"


def test_split_job_with_embedded_r(split_input):
    Q, pi = split_input
    job = {
        "field": {"kind": "rationals"},
        "object": {"builder": "tensor", "left": "sweedler", "right": "Z2"},
        "tasks": [{
            "task": "split",
            "path": "fullrank",
            "pi": "tensor_first",
            "r": Q.R.to_triples(),
        }],
    }
    report, code, _ = _run(job)
    assert code == 0
    entry = report["tasks"][0]
    assert entry["verdict"] == "pass"
    assert entry["path"] == "fullrank"
    assert entry["dims"] == {"k1": 4, "k2": 2}
    assert entry["certificate"]["kind"] == "split_certificate"


def test_split_auto_falls_through_to_fullrank(split_input):
    Q, pi = split_input
    job = {
        "field": {"kind": "rationals"},
        "object": {"builder": "tensor", "left": "sweedler", "right": "Z2"},
        "tasks": [{"task": "split", "path": "auto", "pi": "tensor_first",
                   "r": Q.R.to_triples()}],
    }
    report, code, _ = _run(job)
    assert code == 0
    assert report["tasks"][0]["path"] == "fullrank"


def test_double_job_end_to_end():
    job = {
        "field": {"kind": "rationals"},
        "object": {"builder": "double", "of": "Z2"},
        "tasks": [{"task": "double", "r": "canonical"}],
    }
    report, code, _ = _run(job)
    assert code == 0
    entry = report["tasks"][0]
    assert entry["verdict"] == "pass"
    assert entry["dims"] == {"k1": 4, "k2": 4, "double": 16}


def test_check_cert_roundtrip_task(split_input):
    from hopfkit.report import certificate_to_json
    from hopfkit.splitting import split_via_fullrank

    cert = split_via_fullrank(*split_input)
    job = {
        "field": {"kind": "rationals"},
        "object": {"builder": "trivial"},
        "tasks": [{"task": "check_cert", "certificate": certificate_to_json(cert)}],
    }
    report, code, _ = _run(job)
    assert code == 0
    assert report["tasks"][0]["verdict"] == "pass"


def test_reports_are_deterministic():
    r1, _, _ = _run(TAFT_OBSTRUCT)
    r2, _, _ = _run(TAFT_OBSTRUCT)
    assert dumps_stable(r1) == dumps_stable(r2)


def test_report_embeds_field_and_hash():
    report, _, _ = _run(TAFT_OBSTRUCT)
    assert report["field"] == {"kind": "prime_field", "p": 7}
    assert len(report["object"]["hash"]) == 64


# ----------------------------------------------------------------------
# the executable
# ----------------------------------------------------------------------

def test_main_writes_byte_identical_reports(tmp_path, capsys):
    inp = tmp_path / "job.json"
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    inp.write_text(json.dumps(TAFT_OBSTRUCT))
    assert main(["obstruct", "--in", str(inp), "--out", str(out1)]) == 0
    assert main(["obstruct", "--in", str(inp), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    summary = capsys.readouterr().out
    assert "task obstruct: definite  clause: no_qt" in summary


def test_summary_times_the_object_build(tmp_path, capsys):
    # the object is built and verified before the first task runs, so
    # that time is its own first entry and summary line
    doc = dict(TAFT_OBSTRUCT, tasks=["verify"])
    _report, _code, timings = _run(doc)
    assert [name for name, _ in timings] == ["object", "verify"]
    assert timings[0][1] > 0
    inp = tmp_path / "job.json"
    inp.write_text(json.dumps(doc))
    assert main(["verify", "--in", str(inp)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("time ")]
    assert [line.split(":")[0] for line in lines] == ["time object", "time verify"]


def test_main_field_override(tmp_path):
    doc = {"object": {"builder": "taft", "p": 3, "omega": "2"}, "tasks": ["obstruct"]}
    inp = tmp_path / "job.json"
    inp.write_text(json.dumps(doc))
    assert main(["obstruct", "--in", str(inp), "--field", "gfp:7"]) == 0


def test_main_exit_code_input_error(tmp_path, capsys):
    inp = tmp_path / "job.json"
    inp.write_text("{")
    assert main(["verify", "--in", str(inp)]) == 2
    assert main(["verify", "--in", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("p, code", [(2 ** 61 - 1, 0), ((2 ** 31 - 1) * (2 ** 61 - 1), 2)])
def test_large_prime_fields_are_decided_at_once(tmp_path, capsys, p, code):
    """A Mersenne prime p is a field; past the exact Miller-Rabin bound p
    is an input error, not a probable verdict."""
    inp = tmp_path / "job.json"
    inp.write_text(json.dumps({"field": {"kind": "gfp", "p": p}, "object": "Z2"}))
    start = time.perf_counter()
    assert main(["verify", "--in", str(inp)]) == code
    assert time.perf_counter() - start < 1.0
    if code == 2:
        assert "cannot decide exactly" in capsys.readouterr().err


def test_main_exit_code_check_failure(tmp_path):
    structure = {
        "dim": 2,
        "mul": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 0, "1"]],
        "unit": ["1", "0"],
        "comul": [[0, 0, 0, "1"], [1, 1, 0, "1"]],
        "counit": ["1", "1"],
        "antipode": None,
    }
    doc = {"field": {"kind": "rationals"}, "object": {"structure": structure},
           "tasks": ["verify"]}
    inp = tmp_path / "job.json"
    inp.write_text(json.dumps(doc))
    assert main(["verify", "--in", str(inp)]) == 1


def test_main_check_cert_direct_document(tmp_path, split_input):
    from hopfkit.report import certificate_to_json
    from hopfkit.splitting import split_via_fullrank

    cert = split_via_fullrank(*split_input)
    inp = tmp_path / "cert.json"
    inp.write_text(json.dumps(certificate_to_json(cert)))
    assert main(["check-cert", "--in", str(inp)]) == 0


def test_main_verb_uses_matching_document_task(tmp_path):
    doc = dict(TAFT_OBSTRUCT)
    doc["tasks"] = ["verify", "obstruct"]
    inp = tmp_path / "job.json"
    inp.write_text(json.dumps(doc))
    # the obstruct verb picks its own task out of the document
    assert main(["obstruct", "--in", str(inp)]) == 0


def test_seed_and_jobs_are_gone(tmp_path, capsys):
    doc = dict(TAFT_OBSTRUCT, seed="abc")
    inp = tmp_path / "job.json"
    inp.write_text(json.dumps(doc))
    assert main(["obstruct", "--in", str(inp)]) == 2
    assert "unknown keys ['seed']" in capsys.readouterr().err
    inp.write_text(json.dumps(TAFT_OBSTRUCT))
    for flag in ("--seed", "--jobs"):
        with pytest.raises(SystemExit) as exc:
            main(["obstruct", "--in", str(inp), flag, "1"])
        assert exc.value.code == 2
    report, _, _ = _run(TAFT_OBSTRUCT)
    assert report["schema_version"] == 2 and "seed" not in report and "jobs" not in report


@pytest.fixture(scope="module")
def split_cert_doc(split_input):
    from hopfkit.report import certificate_to_json
    from hopfkit.splitting import split_via_fullrank

    return json.loads(dumps_stable(certificate_to_json(split_via_fullrank(*split_input))))


def _check_cert(tmp_path, doc):
    inp = tmp_path / "cert.json"
    inp.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    code = main(["check-cert", "--in", str(inp), "--out", str(out)])
    return code, (json.loads(out.read_text()) if out.exists() else None)


@pytest.mark.parametrize("key", ["kind", "field", "source", "k1", "k2", "r_k1", "r_k2", "j",
                                 "j_inverse", "f", "r_tilde", "r_target", "checks"])
def test_check_cert_missing_key_is_input_error(tmp_path, capsys, split_cert_doc, key):
    doc = {k: v for k, v in split_cert_doc.items() if k != key}
    assert _check_cert(tmp_path, doc)[0] == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("source", []),
    ("source", {"structure": {}, "hash": "", "r": []}),
    ("k1", {"projection": [["1"]]}),
    ("r_k1", [[99, 0, "1"]]),
    ("j", "not triples"),
    ("f", [["1"]]),
    ("checks", {"ok": True}),
    ("checks", {"ok": True, "checks": [{"name": "x"}]}),
])
def test_check_cert_misshaped_key_is_input_error(tmp_path, capsys, split_cert_doc, key, value):
    assert _check_cert(tmp_path, dict(split_cert_doc, **{key: value}))[0] == 2
    assert "input error" in capsys.readouterr().err


def test_check_cert_without_f_is_a_failing_verdict(tmp_path, split_cert_doc):
    code, report = _check_cert(tmp_path, dict(split_cert_doc, f=None))
    assert code == 1
    checks = {c["name"]: c for c in report["tasks"][0]["checks"]}
    assert checks["twist axioms"]["ok"]
    assert checks["F is a Hopf map"]["witness"] == "not evaluable: the certificate stores no F"


@pytest.fixture
def doubled_twist(monkeypatch):
    """theorem_twist returning 2 J: invertible, but (eps x id)(2 J) = 2."""
    import hopfkit.splitting as splitting
    from hopfkit.qt import verify_twist

    real = splitting.theorem_twist

    def doubled(T, Q, pi1, pi2):
        J = real(T, Q, pi1, pi2).J
        return verify_twist(T, J + J)

    monkeypatch.setattr(splitting, "theorem_twist", doubled)


@pytest.mark.parametrize("verb", ["split", "double"])
def test_failed_twist_is_a_failing_verdict(tmp_path, split_input, doubled_twist, verb):
    if verb == "split":
        doc = {"field": {"kind": "rationals"},
               "object": {"builder": "tensor", "left": "sweedler", "right": "Z2"},
               "r": split_input[0].R.to_triples(), "pi": "tensor_first"}
    else:
        doc = {"field": {"kind": "rationals"}, "object": {"builder": "double", "of": "Z2"},
               "r": "canonical"}
    inp = tmp_path / "job.json"
    out = tmp_path / "report.json"
    inp.write_text(json.dumps(doc))
    assert main([verb, "--in", str(inp), "--out", str(out)]) == 1
    entry = json.loads(out.read_text())["tasks"][0]
    assert entry["verdict"] == "fail"
    cert = entry["certificate"]
    assert cert["f"] is None and cert["r_target"] is None
    failed = [c["name"] for c in cert["checks"]["checks"] if not c["ok"]]
    assert "J is a verified twist on K1 x K2" in failed

    code, report = _check_cert(tmp_path, cert)
    assert code == 1
    checks = {c["name"]: c for c in report["tasks"][0]["checks"]}
    assert not checks["twist axioms"]["ok"]
    assert checks["F is a Hopf map"]["witness"] == "not evaluable: the twist is invalid"


def test_builder_expressions_cover_catalog(kz2_rfamily):
    from hopfkit.catalog import build_catalog
    from hopfkit.fields import Rationals
    from hopfkit import verify_hopf

    QQ = Rationals()
    nontrivial = [R for R in kz2_rfamily if len(R.coeffs) == 4][0]
    exprs = [
        {"builder": "group_algebra", "table": [[0, 1], [1, 0]]},
        {"builder": "group_algebra", "group": "S3"},
        {"builder": "cyclic", "n": 5},
        {"builder": "dual", "of": "sweedler"},
        {"builder": "tensor", "left": "Z2", "right": "Z3"},
        {"builder": "double", "of": "sweedler"},
        {"builder": "twist", "of": "Z2", "j": nontrivial.to_triples()},
        {"builder": "quotient", "of": "Z4",
         "coideal": [["1", "0", "0", "0"], ["0", "0", "1", "0"]]},
    ]
    dims = []
    for e in exprs:
        H = build_catalog(QQ, e)
        assert verify_hopf(H).ok
        dims.append(H.dim)
    assert dims == [2, 6, 5, 4, 6, 16, 2, 2]


def test_internal_errors_carry_task_name(tmp_path, monkeypatch, capsys):
    import hopfkit.cli as cli

    def boom(ctx, task, job):
        raise ValueError("synthetic breakage")

    monkeypatch.setitem(cli._RUNNERS, "verify", boom)
    inp = tmp_path / "job.json"
    inp.write_text(json.dumps({"field": {"kind": "rationals"},
                               "object": "Z2", "tasks": ["verify"]}))
    assert cli.main(["verify", "--in", str(inp)]) == 3
    err = capsys.readouterr().err
    assert "verify" in err and "synthetic breakage" in err


# ----------------------------------------------------------------------
# the antipode is read, never written, by the tasks
# ----------------------------------------------------------------------

def _raw(H):
    """Raw structure constants of H with the antipode left out."""
    from hopfkit.report import hopf_to_json

    return dict(hopf_to_json(H), antipode=None)


def _main_report(tmp_path, verb, doc):
    inp = tmp_path / "job.json"
    out = tmp_path / "report.json"
    inp.write_text(json.dumps(doc))
    code = main([verb, "--in", str(inp), "--out", str(out)])
    return code, (json.loads(out.read_text()) if out.exists() else None)


def test_task_order_does_not_change_results():
    from hopfkit.catalog import sweedler
    from hopfkit.fields import Rationals

    doc = {"field": {"kind": "rationals"}, "object": {"structure": _raw(sweedler(Rationals()))}}
    first, code1, _ = _run(dict(doc, tasks=["obstruct", "verify"]))
    second, code2, _ = _run(dict(doc, tasks=["verify", "obstruct"]))
    assert code1 == code2 == 0
    assert first["tasks"] == second["tasks"][::-1]
    assert first["object"]["hash"] == second["object"]["hash"]


def test_split_verb_alone_on_raw_structure(tmp_path, split_input):
    from hopfkit.report import matrix_to_json

    Q, pi = split_input
    doc = {"field": {"kind": "rationals"},
           "object": {"structure": _raw(Q.hopf)},
           "r": Q.R.to_triples(),
           "pi": {"kind": "matrix", "target": "sweedler", "rows": matrix_to_json(pi.matrix)}}
    code, report = _main_report(tmp_path, "split", doc)
    assert code == 0
    assert report["tasks"][0]["dims"] == {"k1": 4, "k2": 2}


def test_builder_verify_reports_the_computed_antipode(solve_count):
    report, code, _ = _run(dict(TAFT_OBSTRUCT, tasks=["verify"]))
    assert code == 0
    checks = {c["name"]: c for c in report["tasks"][0]["checks"]}
    assert checks["antipode exists"]["witness"] == "computed by convolution inversion"
    assert solve_count == [9]


def test_qt_on_raw_structure_solves_no_antipode(solve_count):
    from hopfkit import drinfeld_double
    from hopfkit.catalog import cyclic_group_algebra
    from hopfkit.fields import Rationals

    Q = drinfeld_double(cyclic_group_algebra(Rationals(), 2))
    report, code, _ = _run({"field": {"kind": "rationals"},
                            "object": {"structure": _raw(Q.hopf)},
                            "tasks": [{"task": "qt", "r": Q.R.to_triples()}]})
    assert code == 0 and report["tasks"][0]["flags"]["factorizable"]
    assert solve_count == []


def test_canonical_r_builds_one_double(monkeypatch):
    import hopfkit.qt as qt

    built = []
    real = qt.double_hopf

    def counted(K):
        built.append(K.dim)
        return real(K)

    monkeypatch.setattr(qt, "double_hopf", counted)
    report, code, _ = _run({"field": {"kind": "rationals"},
                            "object": {"builder": "double", "of": "Z2"},
                            "tasks": [{"task": "qt", "r": "canonical"}]})
    assert code == 0 and report["tasks"][0]["verdict"] == "pass"
    assert built == [2]


@pytest.mark.parametrize("obj, task, expected", [
    ({"builder": "tensor", "left": "sweedler", "right": "Z2"}, "verify", 3),
    ({"builder": "tensor", "left": "sweedler", "right": "Z2"}, "split", 3),
    ({"builder": "double", "of": "Z2"}, "verify", 2),
    ({"builder": "double", "of": "Z2"}, "qt", 2),
])
def test_each_subexpression_is_built_once(monkeypatch, split_input, obj, task, expected):
    import hopfkit.catalog as catalog

    built = []
    real = catalog._build

    def counted(field, spec, parts=None):
        built.append(spec)
        return real(field, spec, parts)

    monkeypatch.setattr(catalog, "_build", counted)
    if task == "split":
        # the tensor_first projection reads the factors of the expression
        task = {"task": "split", "path": "fullrank", "pi": "tensor_first",
                "r": split_input[0].R.to_triples()}
    elif task == "qt":
        # the canonical R-matrix reads the double's base
        task = {"task": "qt", "r": "canonical"}
    report, code, _ = _run({"field": {"kind": "rationals"}, "object": obj, "tasks": [task]})
    assert code == 0 and report["tasks"][0]["verdict"] == "pass"
    assert len(built) == expected, built


# ----------------------------------------------------------------------
# malformed raw structures are input errors
# ----------------------------------------------------------------------

@pytest.mark.parametrize("verb", ["verify", "obstruct"])
@pytest.mark.parametrize("shape", [(3, 3), (4, 5), (5, 4)])
def test_misshaped_antipode_is_input_error(tmp_path, capsys, verb, shape):
    from hopfkit.catalog import sweedler
    from hopfkit.fields import Rationals

    structure = dict(_raw(sweedler(Rationals())),
                     antipode=[["0"] * shape[1] for _ in range(shape[0])])
    doc = {"field": {"kind": "rationals"}, "object": {"structure": structure}}
    assert _main_report(tmp_path, verb, doc)[0] == 2
    assert "antipode must be 4x4" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("dim", "four", "dim must be a positive integer"),
    ("dim", -4, "dim must be a positive integer"),
    ("names", ["1", "a", "x"], "3 basis names given for dimension 4"),
])
def test_malformed_structure_is_input_error(tmp_path, capsys, key, value, message):
    from hopfkit.catalog import sweedler
    from hopfkit.fields import Rationals

    structure = dict(_raw(sweedler(Rationals())), **{key: value})
    doc = {"field": {"kind": "rationals"}, "object": {"structure": structure}}
    assert _main_report(tmp_path, "obstruct", doc)[0] == 2
    assert message in capsys.readouterr().err


def _sweedler_structure(**changes):
    from hopfkit.catalog import sweedler
    from hopfkit.fields import Rationals

    return {"field": {"kind": "rationals"},
            "object": {"structure": dict(_raw(sweedler(Rationals())), **changes)}}


def _first_mul_entry(entry):
    structure = _sweedler_structure()["object"]["structure"]
    return _sweedler_structure(mul=[entry] + structure["mul"][1:])


def _qt_on_z3(triples):
    return {"field": {"kind": "cyclotomic", "n": 3}, "object": "Z3",
            "tasks": [{"task": "qt", "r": triples}]}


@pytest.mark.parametrize("verb, doc, message", [
    ("obstruct", _sweedler_structure(mul=5), "structure constants 5"),
    ("obstruct", _sweedler_structure(unit=3), "vector 3"),
    ("obstruct", _sweedler_structure(antipode=7), "matrix 7"),
    ("obstruct", _first_mul_entry(["a", 0, 0, "1"]), "entry ['a', 0, 0, '1']"),
    ("obstruct", _first_mul_entry([0, 0, 0, 1]), "entry [0, 0, 0, 1]"),
    ("obstruct", _sweedler_structure(unit=[[1]]), "entry [[1]]"),
    ("qt", _qt_on_z3([[0, 0]]), "entry [0, 0]"),
    ("qt", _qt_on_z3([[0, "a", "1"]]), "entry [0, 'a', '1']"),
    ("qt", _qt_on_z3([[0, 0, 1]]), "entry [0, 0, 1]"),
], ids=["mul-5", "unit-3", "antipode-7", "mul-index-a", "mul-scalar-1", "unit-nested",
        "r-pair", "r-index-a", "r-scalar-1"])
def test_malformed_constants_are_input_errors(tmp_path, capsys, verb, doc, message):
    assert _main_report(tmp_path, verb, doc)[0] == 2
    assert message in capsys.readouterr().err


# ----------------------------------------------------------------------
# malformed builder expressions and field specs are input errors
# ----------------------------------------------------------------------

def _on_gf7(obj):
    return {"field": {"kind": "gfp", "p": 7}, "object": obj}


def _field_only(verb, fld):
    if verb == "check-cert":
        return {"kind": "split_certificate", "field": fld}
    return {"field": fld, "object": "Z2"}


@pytest.mark.parametrize("verb, doc, message", [
    ("verify", _on_gf7({"builder": "cyclic"}), "builder 'cyclic' needs key 'n'"),
    ("verify", _on_gf7({"builder": "dual"}), "builder 'dual' needs key 'of'"),
    ("verify", _on_gf7({"builder": "tensor", "left": "Z2"}), "builder 'tensor' needs key 'right'"),
    ("verify", _on_gf7({"builder": "twist", "of": "Z2"}), "builder 'twist' needs key 'j'"),
    ("verify", _on_gf7({"builder": "quotient", "of": "Z2"}),
     "builder 'quotient' needs key 'coideal'"),
    ("verify", _on_gf7({"builder": "quotient", "of": "Z2", "coideal": [["1"]]}),
     "key 'coideal' of builder 'quotient'"),
    ("verify", _on_gf7({"builder": "group_algebra", "table": "x"}),
     "key 'table' of builder 'group_algebra'"),
    ("verify", _on_gf7({"builder": "taft", "p": "x", "omega": "2"}),
     "key 'p' of builder 'taft' must be an integer"),
    ("verify", _on_gf7({"builder": "symmetric", "n": 1.5}),
     "key 'n' of builder 'symmetric' must be an integer"),
    ("verify", _on_gf7({"builder": "cyclic", "n": True}),
     "key 'n' of builder 'cyclic' must be an integer"),
    ("verify", _field_only("verify", {"kind": "gfp", "p": "x"}),
     "key 'p' of field 'gfp' must be an integer"),
    ("check-cert", _field_only("check-cert", {"kind": "gfp", "p": "x"}),
     "key 'p' of field 'gfp' must be an integer"),
    ("verify", _field_only("verify", {"kind": "cyclotomic", "n": "a"}),
     "key 'n' of field 'cyclotomic' must be an integer"),
    ("check-cert", _field_only("check-cert", {"kind": "cyclotomic", "n": "a"}),
     "key 'n' of field 'cyclotomic' must be an integer"),
    ("verify", _field_only("verify", {"kind": "gfp", "p": 7.9}),
     "key 'p' of field 'gfp' must be an integer"),
], ids=["cyclic-no-n", "dual-no-of", "tensor-no-right", "twist-no-j", "quotient-no-coideal",
        "quotient-short-coideal", "table-string", "taft-p-x", "symmetric-float", "cyclic-bool",
        "gfp-p-x", "cert-gfp-p-x", "cyclotomic-n-a", "cert-cyclotomic-n-a", "gfp-float"])
def test_malformed_builder_and_field_are_input_errors(tmp_path, capsys, verb, doc, message):
    assert _main_report(tmp_path, verb, doc)[0] == 2
    assert message in capsys.readouterr().err


def test_integer_strings_stay_valid(tmp_path):
    doc = {"field": {"kind": "gfp", "p": "7"},
           "object": {"builder": "taft", "p": "3", "omega": "2"}}
    code, report = _main_report(tmp_path, "verify", doc)
    assert code == 0 and report["object"]["dim"] == 9


# ----------------------------------------------------------------------
# non-integer indices, non-object structures and incomplete projections
# ----------------------------------------------------------------------

def _split_on_z2(pi):
    return {"field": {"kind": "rationals"}, "object": "Z2", "tasks": [{"task": "split", "pi": pi}]}


@pytest.mark.parametrize("verb, doc, message", [
    ("verify", _first_mul_entry([0.9, 0, 0, "1"]), "entry [0.9, 0, 0, '1'] must be an integer"),
    ("verify", _first_mul_entry([0, 0, False, "1"]),
     "entry [0, 0, False, '1'] must be an integer"),
    ("qt", _qt_on_z3([[True, 0, "1"]]), "entry [True, 0, '1']"),
    ("verify", {"field": {"kind": "rationals"}, "object": {"structure": 5}},
     "structure description 5 must be a JSON object"),
    ("verify", {"field": {"kind": "rationals"}, "object": {"structure": None}},
     "structure description None must be a JSON object"),
    ("split", _split_on_z2({"kind": "matrix", "rows": [["1", "0"], ["0", "1"]]}),
     "missing keys ['target']"),
    ("split", _split_on_z2({"kind": "matrix", "target": "Z2"}), "missing keys ['rows']"),
], ids=["mul-float-index", "mul-bool-index", "r-bool-index", "structure-5", "structure-null",
        "pi-no-target", "pi-no-rows"])
def test_malformed_indices_structures_and_projections_are_input_errors(
        tmp_path, capsys, verb, doc, message):
    assert _main_report(tmp_path, verb, doc)[0] == 2
    assert message in capsys.readouterr().err
