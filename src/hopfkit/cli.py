"""Batch front end: parse job documents, run analyses, emit reports.

A job is a single JSON document (see README for the schema):

    {"schema_version": 2,
     "field": {"kind": "gfp", "p": 7},
     "object": {"builder": "taft", "p": 3, "omega": "2"},
     "tasks": ["obstruct"]}

Each CLI verb runs one task against the document's field/object; the
Python entry point ``execute`` runs a full ordered task list.  Reports
are deterministic: identical inputs produce byte-identical JSON.  Wall
times are printed on standard output only, never stored in the report.

Exit codes: 0 definite verdict, 1 check failure, 2 input error,
3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field as dc_field

from .algebra import center, characters
from .catalog import build_verified
from .checks import Report
from .errors import (
    BuilderError,
    HopfkitError,
    InternalError,
    PreconditionError,
    StructureError,
    UsageError,
)
from .fields import Field, field_from_json
from .hopf import HopfAlgebra, HopfMorphism, grouplikes, identity_morphism, verify_hopf
from .linalg import SparseMatrix
from .qt import TensorSquareElement, canonical_double_r, verify_rmatrix
from .report import (
    certificate_from_json,
    certificate_to_json,
    dumps_indented,
    dumps_stable,
    hopf_from_json,
    matrix_from_json,
    structure_hash,
)
from .splitting import (
    double_splitting,
    obstruction_check,
    split_via_factorizable,
    split_via_fullrank,
    verify_certificate,
)

SCHEMA_VERSION = 2

_TASK_NAMES = {"verify", "analyze", "qt", "split", "obstruct", "double", "check_cert"}


@dataclass
class JobSpec:
    field: Field
    object_spec: object
    tasks: list
    raw: dict = dc_field(default_factory=dict)


def _diag(msg, path):
    return UsageError(f"{msg} (at {path})")


def parse_jobspec(text: str, field_override: Field = None, default_task: str = None) -> JobSpec:
    """Validate a job document; diagnostics carry the JSON path or the
    line/column of a syntax error.

    Documents may carry ordered 'tasks'; when a CLI verb supplies
    ``default_task``, the top-level convenience keys 'r' and 'pi' feed
    that task and 'tasks' may be omitted.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(data, dict):
        raise UsageError("job document must be a JSON object")
    allowed = {"schema_version", "field", "object", "tasks", "r", "pi", "certificate"}
    extra = set(data) - allowed
    if extra:
        raise _diag(f"unknown keys {sorted(extra)}", "$")
    if "schema_version" in data and data["schema_version"] != SCHEMA_VERSION:
        raise _diag(f"unsupported schema_version {data['schema_version']!r}", "$.schema_version")
    if field_override is not None:
        field = field_override
    else:
        if "field" not in data:
            raise _diag("missing required key 'field'", "$")
        field = field_from_json(data["field"])
    if "object" not in data:
        raise _diag("missing required key 'object'", "$")
    if "tasks" in data:
        tasks = data["tasks"]
        if not isinstance(tasks, list) or not tasks:
            raise _diag("'tasks' must be a non-empty list", "$.tasks")
        normalized = [_normalize_task(t, i) for i, t in enumerate(tasks)]
    elif default_task is not None:
        task = {"task": default_task}
        for key in ("r", "pi", "certificate"):
            if key in data:
                task[key] = data[key]
        normalized = [_normalize_task(task, 0)]
    else:
        raise _diag("missing required key 'tasks'", "$")
    return JobSpec(field, data["object"], normalized, data)


def _normalize_task(t, index):
    path = f"$.tasks[{index}]"
    if isinstance(t, str):
        t = {"task": t.replace("-", "_")}
    if not isinstance(t, dict) or "task" not in t:
        raise _diag("task must be a name or an object with key 'task'", path)
    t = dict(t)
    t["task"] = str(t["task"]).replace("-", "_")
    if t["task"] not in _TASK_NAMES:
        raise _diag(f"unknown task {t['task']!r}", path)
    allowed = {
        "verify": {"task"},
        "analyze": {"task"},
        "qt": {"task", "r"},
        "split": {"task", "path", "pi", "r"},
        "obstruct": {"task"},
        "double": {"task", "r"},
        "check_cert": {"task", "certificate"},
    }[t["task"]]
    extra = set(t) - allowed
    if extra:
        raise _diag(f"unknown keys {sorted(extra)} for task {t['task']!r}", path)
    return t


@dataclass
class _ObjectContext:
    hopf: HopfAlgebra
    # the verify_hopf report: the catalog's for a builder expression,
    # made on first use for a raw structure, which nothing has verified
    report: Report = None
    tensor_factors: tuple = None
    double_of: HopfAlgebra = None

    def axioms(self) -> Report:
        if self.report is None:
            self.report = verify_hopf(self.hopf)
        return self.report


def resolve_object(field: Field, spec) -> _ObjectContext:
    """Build the object under analysis; remembers tensor factors and
    double bases so that tasks can refer to the natural projections."""
    if isinstance(spec, dict) and "structure" in spec:
        extra = set(spec) - {"structure"}
        if extra:
            raise UsageError(f"unknown object keys {sorted(extra)}")
        H = hopf_from_json(field, spec["structure"])
        return _ObjectContext(H)
    # the factors are the ones built inside the whole expression
    parts = {}
    ctx = _ObjectContext(*build_verified(field, spec, parts))
    if "left" in parts:
        ctx.tensor_factors = (parts["left"], parts["right"])
    ctx.double_of = parts.get("of")
    return ctx


def _resolve_r(ctx: _ObjectContext, rspec) -> TensorSquareElement:
    H = ctx.hopf
    if rspec is None or rspec == "unit":
        return TensorSquareElement.unit(H)
    if rspec == "canonical":
        if ctx.double_of is None:
            raise UsageError("'canonical' R-matrix is only defined for double objects")
        K = ctx.double_of
        return canonical_double_r(H, K.dim, K.counit, K.unit)
    if isinstance(rspec, list):
        return TensorSquareElement.from_triples(H, rspec)
    raise UsageError(f"bad R-matrix specification {rspec!r}")


def _resolve_pi(field, ctx: _ObjectContext, pispec) -> HopfMorphism:
    H = ctx.hopf
    if pispec in (None, "identity"):
        return identity_morphism(H)
    if isinstance(pispec, dict) and "kind" in pispec:
        kind = pispec["kind"]
    elif isinstance(pispec, str):
        kind, pispec = pispec, {}
    else:
        raise UsageError(f"bad projection specification {pispec!r}")
    if kind in ("tensor_first", "tensor_second"):
        if ctx.tensor_factors is None:
            raise UsageError(f"projection {kind!r} needs a tensor-built object")
        A, B = ctx.tensor_factors
        # column i * dim B + j is the image of e_i (x) e_j
        if kind == "tensor_first":
            return HopfMorphism(H, A, SparseMatrix.from_columns(
                field, A.dim, [{i: B.counit[j]} for i in range(A.dim) for j in range(B.dim)]))
        return HopfMorphism(H, B, SparseMatrix.from_columns(
            field, B.dim, [{j: A.counit[i]} for i in range(A.dim) for j in range(B.dim)]))
    if kind == "matrix":
        extra = set(pispec) - {"kind", "target", "rows"}
        if extra:
            raise UsageError(f"unknown projection keys {sorted(extra)}")
        missing = {"target", "rows"} - set(pispec)
        if missing:
            raise UsageError(f"projection kind 'matrix' is missing keys {sorted(missing)}")
        target_ctx = resolve_object(field, pispec["target"])
        M = matrix_from_json(field, pispec["rows"])
        return HopfMorphism(H, target_ctx.hopf, M)
    raise UsageError(f"unknown projection kind {kind!r}")


# ----------------------------------------------------------------------
# task runners
# ----------------------------------------------------------------------


def _run_verify(ctx, task, job):
    rep = ctx.axioms()
    return {"task": "verify", "verdict": "pass" if rep.ok else "fail",
            "checks": rep.as_dict()["checks"]}, rep.ok


def _run_analyze(ctx, task, job):
    H = ctx.hopf
    f = H.field
    rep = ctx.axioms()
    out = {
        "task": "analyze",
        "verdict": "pass" if rep.ok else "fail",
        "dim": H.dim,
        "commutative": H.algebra.is_commutative(),
        "cocommutative": H.is_cocommutative(),
        "center_dim": center(H.algebra).dim,
    }
    if rep.ok:
        gl = grouplikes(H)
        ch = characters(H.algebra)
        out["grouplikes"] = {
            "count": len(gl),
            "orders": gl.orders,
            "complete": gl.complete,
            "elements": [[f.show(c) for c in g] for g in gl.elements],
        }
        out["characters"] = {
            "count": len(ch.characters),
            "complete": ch.complete,
            "values": [[f.show(c) for c in chi] for chi in ch.characters],
        }
    return out, rep.ok


def _run_qt(ctx, task, job):
    R = _resolve_r(ctx, task.get("r"))
    Q = verify_rmatrix(ctx.hopf, R)
    return {
        "task": "qt",
        "verdict": "pass" if Q.verified else "fail",
        "checks": Q.report.as_dict()["checks"],
        "flags": {
            "triangular": Q.triangular,
            "factorizable": Q.factorizable,
            "full_rank": Q.full_rank,
        },
    }, Q.verified


def _run_split(ctx, task, job):
    R = _resolve_r(ctx, task.get("r"))
    Q = verify_rmatrix(ctx.hopf, R)
    if not Q.verified:
        return {"task": "split", "verdict": "fail",
                "reason": "the given R-matrix failed verification"}, False
    pi = _resolve_pi(ctx.hopf.field, ctx, task.get("pi"))
    if not pi.verify().ok:
        return {"task": "split", "verdict": "fail",
                "reason": "the projection is not a Hopf map"}, False
    path = task.get("path", "auto")
    tried = []
    cert = None
    if path in ("factorizable", "auto"):
        try:
            cert = split_via_factorizable(Q, pi)
            path_used = "factorizable"
        except PreconditionError as exc:
            tried.append({"path": "factorizable", "error": str(exc)})
    if cert is None and path in ("fullrank", "auto"):
        try:
            cert = split_via_fullrank(Q, pi)
            path_used = "fullrank"
        except PreconditionError as exc:
            tried.append({"path": "fullrank", "error": str(exc)})
    if cert is None:
        return {"task": "split", "verdict": "precondition_failed", "attempts": tried}, False
    ok = cert.ok
    return {
        "task": "split",
        "verdict": "pass" if ok else "fail",
        "path": path_used,
        "dims": {"k1": cert.k1.quotient.dim, "k2": cert.k2.quotient.dim},
        "certificate": certificate_to_json(cert),
    }, ok


def _run_obstruct(ctx, task, job):
    ob = obstruction_check(ctx.hopf)
    return {
        "task": "obstruct",
        "verdict": "definite",
        "clause": ob.clause,
        "witnesses": ob.witnesses,
        "details": ob.details,
    }, True


def _run_double(ctx, task, job):
    R = _resolve_r(ctx, task.get("r"))
    Q = verify_rmatrix(ctx.hopf, R)
    if not Q.verified:
        return {"task": "double", "verdict": "fail",
                "reason": "the given R-matrix failed verification"}, False
    try:
        cert = double_splitting(Q)
    except PreconditionError as exc:
        return {"task": "double", "verdict": "precondition_failed", "reason": str(exc)}, False
    return {
        "task": "double",
        "verdict": "pass" if cert.ok else "fail",
        "dims": {"k1": cert.k1.quotient.dim, "k2": cert.k2.quotient.dim,
                 "double": cert.source.hopf.dim},
        "certificate": certificate_to_json(cert),
    }, cert.ok


def _run_check_cert(ctx, task, job):
    data = task.get("certificate")
    if data is None:
        raise UsageError("check_cert needs an embedded 'certificate'")
    cert = certificate_from_json(data)
    rep = verify_certificate(cert)
    return {
        "task": "check_cert",
        "verdict": "pass" if rep.ok else "fail",
        "checks": rep.as_dict()["checks"],
    }, rep.ok


_RUNNERS = {
    "verify": _run_verify,
    "analyze": _run_analyze,
    "qt": _run_qt,
    "split": _run_split,
    "obstruct": _run_obstruct,
    "double": _run_double,
    "check_cert": _run_check_cert,
}


def execute(job: JobSpec):
    """Run the job's tasks in order; dependent tasks are skipped after a
    verification failure.  Returns (report dict, exit code, timings), the
    timings a list of (name, seconds): "object" for building and verifying
    the object, then one entry per task run."""
    t0 = time.perf_counter()
    ctx = resolve_object(job.field, job.object_spec)
    timings = [("object", time.perf_counter() - t0)]
    report = {
        "schema_version": SCHEMA_VERSION,
        "field": job.field.to_json(),
        "object": {
            "dim": ctx.hopf.dim,
            "names": list(ctx.hopf.names),
            "hash": structure_hash(ctx.hopf),
        },
        "tasks": [],
    }
    all_ok = True
    object_ok = True
    for task in job.tasks:
        name = task["task"]
        if not object_ok and name != "verify":
            report["tasks"].append({"task": name, "verdict": "skipped",
                                    "reason": "a previous verification failed"})
            continue
        t0 = time.perf_counter()
        try:
            out, ok = _RUNNERS[name](ctx, task, job)
        except HopfkitError:
            raise
        except Exception as exc:
            raise InternalError(
                f"task {name!r} ({type(exc).__name__}): {exc}"
            ) from exc
        timings.append((name, time.perf_counter() - t0))
        report["tasks"].append(out)
        if name in ("verify", "analyze") and not ok:
            object_ok = False
        all_ok = all_ok and ok
    report["verdict"] = "pass" if all_ok else "fail"
    return report, (0 if all_ok else 1), timings


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------


def _parse_field_flag(text: str) -> Field:
    text = text.strip()
    if text == "rationals":
        return field_from_json({"kind": "rationals"})
    if text.startswith("gfp:"):
        return field_from_json({"kind": "gfp", "p": text.split(":", 1)[1]})
    if text.startswith("cyclotomic:"):
        return field_from_json({"kind": "cyclotomic", "n": text.split(":", 1)[1]})
    raise UsageError(
        f"bad --field {text!r}; use rationals, gfp:<p>, or cyclotomic:<n>"
    )


def _build_arg_parser():
    ap = argparse.ArgumentParser(
        prog="hopfkit",
        description="Exact analysis of finite-dimensional Hopf algebras "
                    "given by structure constants.",
    )
    sub = ap.add_subparsers(dest="verb", required=True)
    verbs = {
        "verify": "run the Hopf axiom suite",
        "analyze": "axioms plus invariants (center, group-likes, characters)",
        "qt": "verify a quasitriangular structure",
        "split": "produce a twisted-tensor-product certificate",
        "obstruct": "run the group-part obstruction criterion",
        "double": "certify the double-splitting of a factorizable input",
        "check-cert": "re-verify a serialized certificate",
    }
    for verb, help_text in verbs.items():
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("--in", dest="infile", required=True,
                       help="job JSON document (or certificate for check-cert)")
        p.add_argument("--out", dest="outfile", default=None,
                       help="write the JSON report here")
        p.add_argument("--field", dest="field", default=None,
                       help="field override: rationals, gfp:<p>, cyclotomic:<n>")
        if verb == "split":
            p.add_argument("--path", dest="path",
                           choices=["factorizable", "fullrank", "auto"], default="auto")
    return ap


def _print_summary(report, timings):
    print(f"field: {dumps_stable(report['field'])}")
    obj = report["object"]
    print(f"object: dim {obj['dim']}  hash {obj['hash'][:16]}")
    for entry in report["tasks"]:
        line = f"task {entry['task']}: {entry['verdict']}"
        if entry.get("clause"):
            line += f"  clause: {entry['clause']}"
        if entry.get("dims"):
            line += f"  dims: {entry['dims']}"
        if entry.get("flags"):
            line += f"  flags: {entry['flags']}"
        print(line)
    for name, dt in timings:
        print(f"time {name}: {dt:.3f}s")
    print(f"verdict: {report['verdict']}")


def main(argv=None) -> int:
    ap = _build_arg_parser()
    args = ap.parse_args(argv)
    try:
        with open(args.infile, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    field_override = None
    try:
        if args.field:
            field_override = _parse_field_flag(args.field)
        verb = args.verb.replace("-", "_")
        if verb == "check_cert":
            doc = json.loads(text)
            if isinstance(doc, dict) and doc.get("kind") == "split_certificate":
                job = JobSpec(
                    field_from_json(doc.get("field")),
                    {"builder": "trivial"},
                    [{"task": "check_cert", "certificate": doc}],
                )
            else:
                job = parse_jobspec(text, field_override, default_task=verb)
        else:
            job = parse_jobspec(text, field_override, default_task=verb)
            # the verb selects its task: the matching entry from the
            # document, or the one synthesized from top-level keys
            selected = None
            for t in job.tasks:
                if t["task"] == verb:
                    selected = dict(t)
                    break
            if selected is None:
                selected = {"task": verb}
                for key in ("r", "pi", "certificate"):
                    if key in job.raw:
                        selected[key] = job.raw[key]
            if verb == "split":
                selected["path"] = args.path
            job.tasks = [_normalize_task(selected, 0)]
    except (UsageError, BuilderError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    try:
        report, code, timings = execute(job)
    except (UsageError, BuilderError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except StructureError as exc:
        print(f"structural check failed: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except HopfkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    _print_summary(report, timings)
    if args.outfile:
        payload = dumps_indented(report) + "\n"
        with open(args.outfile, "w", encoding="utf-8") as fh:
            fh.write(payload)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
