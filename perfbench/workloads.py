"""Seeded hopfkit job documents for the benchmark workloads, and the
checks applied to each report.

The seed picks only inputs of equal work: the prime p, the root of
unity omega, the R-matrix parameter t and the order of a pass.  Nothing
here imports hopfkit, so a benchmark run can time the import itself.

Run ``python3 perfbench/workloads.py`` from the repository root to
regenerate ``perfbench/data/dsweedler_raw.json`` (needs ``src`` on the
import path; it is added here).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent / "data"

QQ = {"kind": "rationals"}

# primes p = 1 mod 3, so GF(p) holds the cube roots of unity that the
# characters of D(kZ3) take values in
P_1_MOD_3 = (7, 13, 19, 31, 37, 43, 61, 67, 73, 79, 97, 103)
ODD_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass
class Step:
    """One hopfkit invocation: ``verb`` on ``doc``, or, for check-cert,
    on the certificate produced by the step named ``source``."""

    key: str
    verb: str
    doc: dict = None
    source: str = None
    expect: dict = field(default_factory=dict)

    @property
    def kind(self):
        if self.verb in ("split", "double"):
            return "make"
        if self.verb == "check-cert":
            return "check"
        return "other"


@dataclass
class Workload:
    """``unit`` repeats for the run length; ``probes`` run untraced once
    before and once after the timed loop and feed only the make/check
    metrics; ``repeat`` names the step run once more at the end to confirm
    byte-identical reports."""

    name: str
    unit: list
    probes: list
    repeat: str

    def steps(self):
        return self.unit + self.probes


def sweedler_r(t: int):
    """Triples of the full-rank Sweedler R-matrix
    R_t = 1/2 (1(x)1 + 1(x)a + a(x)1 - a(x)a) + t/2 (x(x)x + x(x)ax + ax(x)ax - ax(x)x),
    lifted to sweedler (x) kZ2 along a -> a (x) 1 (basis index 2*i)."""
    h, th = "1/2", f"{t}/2"
    terms = [(0, 0, h), (0, 1, h), (1, 0, h), (1, 1, "-1/2"),
             (2, 2, th), (2, 3, th), (3, 3, th), (3, 2, f"{-t}/2")]
    return [[2 * i, 2 * j, c] for i, j, c in terms]


def _split_job(fld, t):
    return {"field": fld,
            "object": {"builder": "tensor", "left": "sweedler", "right": "Z2"},
            "r": sweedler_r(t), "pi": "tensor_first"}


def _double_job(fld, of):
    return {"field": fld, "object": {"builder": "double", "of": of}, "r": "canonical"}


def _pick_t(rng):
    return rng.choice((1, 2, 3, 4, 5, 6, 7, 8, 9)) * rng.choice((1, -1))


SPLIT_42 = {"verdict": "pass", "path": "fullrank", "dims": {"k1": 4, "k2": 2}}
DOUBLE_44 = {"verdict": "pass", "dims": {"k1": 4, "k2": 4, "double": 16}}


def _cert_pair(key, verb, doc, expect):
    return [Step(key, verb, doc, expect=expect),
            Step(f"check:{key}", "check-cert", source=key, expect={"verdict": "pass"})]


def double81_gf(rng):
    p = rng.choice(P_1_MOD_3)
    double, check = _cert_pair("double81", "double", _double_job({"kind": "gfp", "p": p}, "Z3"),
                               {"verdict": "pass", "dims": {"k1": 9, "k2": 9, "double": 81}})
    # one double fills a run; the check is short enough that one slow
    # stretch of the machine decides a single sample, so it runs three times
    return Workload("double81-gf", [double, check, check, check], [], "check:double81")


def antipode25_cyclo(rng):
    k = rng.choice((1, 2, 3, 4))
    omega = "z" if k == 1 else f"z^{k}"
    cyc = {"kind": "cyclotomic", "n": 5}
    unit = [Step("taft5", "verify",
                 {"field": cyc, "object": {"builder": "taft", "p": 5, "omega": omega}},
                 expect={"verdict": "pass"})]
    # the verify loop makes no certificate; a small round trip over the
    # same field gives this workload its make/check latencies.  It is
    # short, and a slow stretch of the machine can cover several repeats
    # in a row, so it runs six times in each of two windows, before and
    # after the loop.
    probes = _cert_pair("split-c5", "split", _split_job(cyc, _pick_t(rng)), SPLIT_42) * 6
    return Workload("antipode25-cyclo", unit, probes, "check:split-c5")


def mixed_small(rng):
    gf7 = {"kind": "gfp", "p": 7}
    groups = [
        _cert_pair("split", "split", _split_job(QQ, _pick_t(rng)), SPLIT_42),
        _cert_pair("double-q", "double", _double_job(QQ, "Z2"), DOUBLE_44),
        _cert_pair("double-gf", "double",
                   _double_job({"kind": "gfp", "p": rng.choice(ODD_PRIMES)}, "Z2"), DOUBLE_44),
        [Step("qt-canonical", "qt", _double_job(QQ, "sweedler"),
              expect={"verdict": "pass", "flags.factorizable": True})],
        [Step("qt-raw", "qt", dsweedler_raw_job(),
              expect={"verdict": "pass", "flags.factorizable": True})],
        [Step("obstruct-taft-gf7", "obstruct",
              {"field": gf7, "object": {"builder": "taft", "p": 3,
                                        "omega": str(rng.choice((2, 4)))}},
              expect={"clause": "no_qt"})],
        [Step("obstruct-taft-cyc", "obstruct",
              {"field": {"kind": "cyclotomic", "n": 3},
               "object": {"builder": "taft", "p": 3, "omega": rng.choice(("z", "z^2"))}},
              expect={"clause": "no_qt"})],
        [Step("obstruct-s3", "obstruct", {"field": QQ, "object": "S3"},
              expect={"clause": "ii"})],
        [Step("analyze-dz3", "analyze", {"field": gf7, "object": {"builder": "double", "of": "Z3"}},
              expect={"verdict": "pass", "dim": 9, "grouplikes.count": 9,
                      "characters.count": 9})],
        [Step("analyze-taft13", "analyze",
              {"field": {"kind": "gfp", "p": 13},
               "object": {"builder": "taft", "p": 3, "omega": str(rng.choice((3, 9)))}},
              expect={"verdict": "pass", "dim": 9, "grouplikes.count": 3,
                      "characters.count": 3})],
        [Step("analyze-dual-s3", "analyze", {"field": QQ, "object": {"builder": "dual", "of": "S3"}},
              expect={"verdict": "pass", "dim": 6, "grouplikes.count": 2,
                      "characters.count": 6})],
    ]
    rng.shuffle(groups)
    unit = [s for g in groups for s in g]
    return Workload("mixed-small", unit, [], "check:split")


WORKLOADS = {
    "double81-gf": double81_gf,
    "antipode25-cyclo": antipode25_cyclo,
    "mixed-small": mixed_small,
}


def make_workload(name: str, seed: int) -> Workload:
    return WORKLOADS[name](random.Random(seed))


def dsweedler_raw_job():
    """qt job on D(sweedler) given as raw structure constants with the
    antipode left out, and its canonical R-matrix as triples."""
    return json.loads((DATA_DIR / "dsweedler_raw.json").read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# report checks
# ----------------------------------------------------------------------


def _lookup(entry, dotted):
    for part in dotted.split("."):
        if not isinstance(entry, dict) or part not in entry:
            return None
        entry = entry[part]
    return entry


def check_report(step: Step, code, report) -> list:
    """Problems with one invocation's outcome; empty when it is correct."""
    if code != 0:
        return [f"exit code {code}"]
    if report is None:
        return ["no report written"]
    problems = []
    if report.get("verdict") != "pass":
        problems.append(f"report verdict {report.get('verdict')!r}")
    tasks = report.get("tasks") or [{}]
    task = tasks[0]
    for key, want in step.expect.items():
        got = _lookup(task, key)
        if got != want:
            problems.append(f"{key} = {got!r}, expected {want!r}")
    if step.verb == "check-cert":
        failed = [c.get("name") for c in task.get("checks", []) if not c.get("ok")]
        if failed or not task.get("checks"):
            problems.append(f"certificate checks failed: {failed}")
    return problems


def certificate_of(report):
    return report["tasks"][0]["certificate"]


def _write_dsweedler(path: Path):
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from hopfkit import drinfeld_double, sweedler, verify_hopf
    from hopfkit.fields import Rationals
    from hopfkit.report import hopf_to_json

    h4 = sweedler(Rationals())
    verify_hopf(h4)
    Q = drinfeld_double(h4)
    structure = hopf_to_json(Q.hopf)
    structure["antipode"] = None
    doc = {"field": QQ, "object": {"structure": structure}, "r": Q.R.to_triples()}
    path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    DATA_DIR.mkdir(exist_ok=True)
    _write_dsweedler(DATA_DIR / "dsweedler_raw.json")
