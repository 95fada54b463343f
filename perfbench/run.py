"""hopfkit benchmark: drives the ``hopfkit`` CLI entry point in-process.

    python3 perfbench/run.py --workload mixed-small --seed 1 --seconds 24 --trace 0

One process, one client, a closed loop: each invocation (one hopfkit
verb on one job document) starts when the previous one has returned.
The run imports hopfkit from ``src`` of the checkout it sits in, writes
the seeded job documents under ``.perfbench_work`` and checks every
report.  Every time is scaled to a reference host speed (see
``speed.py``).  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it wraps the hopfkit layers (see ``layers.py``) and prints
the per-layer metrics instead.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from speed import REFERENCE_S, Clock  # noqa: E402
from workloads import WORKLOADS, check_report, certificate_of, make_workload  # noqa: E402

SETUP_REPS = 25

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "make_s_p50": "s",
    "check_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-invocation averages over the traced loop: metric -> unit
_PER_INVOCATION = {
    **{name: "count" for name, _m, _q in layers.COUNTERS},
    "gfpoly.roots_s": "s", "gfpoly.roots.calls": "count",
    "linalg.rref_s": "s", "linalg.rref.calls": "count", "linalg.rref.cells": "count",
    "linalg.matmul_s": "s",
    "tensors.index_s": "s", "tensors.index.calls": "count",
    "algebra.verify_algebra_s": "s", "algebra.product_s": "s",
    "algebra.product.calls": "count", "algebra.characters_s": "s", "algebra.center_s": "s",
    "hopf.verify_hopf_s": "s", "hopf.verify_hopf.calls": "count",
    "hopf.solve_antipode_s": "s", "hopf.verify_morphism_s": "s",
    "hopf.normal_coideal_s": "s", "hopf.quotient_s": "s", "hopf.coinvariants_s": "s",
    "hopf.grouplikes_s": "s",
    "catalog.build_s": "s", "catalog.build.calls": "count",
    "qt.verify_rmatrix_s": "s", "qt.verify_rmatrix.calls": "count", "qt.phi_maps_s": "s",
    "qt.lr_maps_s": "s", "qt.inverse_s": "s", "qt.inverse.calls": "count",
    "qt.drinfeld_double_s": "s", "qt.verify_twist_s": "s", "qt.apply_twist_s": "s",
    "splitting.double_splitting_s": "s", "splitting.build_certificate_s": "s",
    "splitting.theorem_twist_s": "s", "splitting.comparison_map_s": "s",
    "splitting.obstruction_check_s": "s", "splitting.verify_certificate_s": "s",
    "report.encode_s": "s", "report.decode_s": "s", "report.hash_s": "s",
    "cli.parse_s": "s", "cli.self_s": "s",
}
_SHARED_MODULES = [m for m in layers.MODULES if m != "fields"]

PER_LAYER = {
    **_PER_INVOCATION,
    "linalg.rref.max_cells": "count",
    "hopf.verify_hopf.repeat_ratio": "ratio",
    "qt.inverse.solve_ratio": "ratio",
    "report.cert_bytes": "bytes",
    "cli.report_bytes": "bytes",
    **{f"share.{m}": "%" for m in _SHARED_MODULES},
    "trace.job_s_p50": "s",
}


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def tail(samples):
    """(value, percentile, samples beyond it): the highest percentile with
    at least 10 samples beyond it; with fewer than 11 samples no such
    percentile exists and the maximum is reported, with 0 beyond."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, 0
    k = n - 11
    return xs[k], 100.0 * k / (n - 1), n - 1 - k


def _ratio(num, den):
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# set-up and invocations
# ----------------------------------------------------------------------


def _import_hopfkit():
    for name in [m for m in sys.modules if m == "hopfkit" or m.startswith("hopfkit.")]:
        del sys.modules[name]
    importlib.import_module("hopfkit")
    return importlib.import_module("hopfkit.cli")


def set_up(name, seed, work, clock):
    """Import hopfkit afresh, generate the seeded jobs and write their
    files, SETUP_REPS times; returns the last set and the median time."""

    def once(jobdir):
        cli = _import_hopfkit()
        workload = make_workload(name, seed)
        jobdir.mkdir()
        paths = {}
        for step in workload.steps():
            if step.doc is not None:
                paths[step.key] = jobdir / f"{step.key}.json"
                paths[step.key].write_text(json.dumps(step.doc), encoding="utf-8")
        return cli, workload, paths

    times = []
    for rep in range(SETUP_REPS):
        made, seconds, _wall = clock.time(once, work / f"setup{rep}")
        times.append(seconds)
    return (*made, statistics.median(times))


class Session:
    """Runs steps through ``cli.main`` and checks each outcome."""

    def __init__(self, cli, paths, work, clock):
        self.cli = cli
        self.clock = clock
        self.scale = []  # scaled / unscaled latency of each invocation
        self.paths = paths
        self.work = work
        self.attempted = 0
        self.problems = []
        self.first_report = {}
        self.certs = {}
        self.cert_bytes = 0
        self.report_bytes = 0

    def run(self, step, tracer=None):
        """One invocation; returns its latency in reference seconds."""
        if step.verb == "check-cert":
            inp = self.work / f"{step.source}.cert.json"
            inp.write_text(self.certs.get(step.source, "{}"), encoding="utf-8")
        else:
            inp = self.paths[step.key]
        out = self.work / "report.json"
        if out.exists():
            out.unlink()
        argv = [step.verb, "--in", str(inp), "--out", str(out)]
        sink = io.StringIO()
        if tracer is not None:
            tracer.begin_invocation()

        def invoke():
            try:
                with redirect_stdout(sink), redirect_stderr(sink):
                    return self.cli.main(argv)
            except (Exception, SystemExit) as exc:  # counted as a failed invocation
                return f"{type(exc).__name__}: {exc}"

        # a full collection first, so that each invocation pays for the
        # garbage it makes itself and not for what earlier ones left
        gc.collect()
        code, seconds, wall = self.clock.time(invoke)
        self.scale.append(seconds / wall)
        self.attempted += 1
        data = out.read_bytes() if out.exists() else None
        report = json.loads(data) if data else None
        problems = check_report(step, code, report)
        if data is not None:
            self.report_bytes += len(data)
            first = self.first_report.setdefault(step.key, data)
            if first != data:
                problems.append("report differs from an earlier run of the same job")
        if not problems and step.kind == "make":
            self.certs[step.key] = json.dumps(certificate_of(report), sort_keys=True)
            self.cert_bytes += len(self.certs[step.key])
        if problems:
            msg = f"{step.key} ({step.verb}): {'; '.join(problems)}"
            self.problems.append(msg)
            print(f"FAILED {msg}", file=sys.stderr)
            tail_text = sink.getvalue().strip().splitlines()[-3:]
            for line in tail_text:
                print(f"  {line}", file=sys.stderr)
        return seconds


def timed_loop(session, unit, seconds, tracer=None):
    """Repeat ``unit`` while the next repetition, taking as long as the
    last one, would keep the summed latency within ``seconds``; run it at
    least once.  The latencies are in reference seconds, so the number of
    repetitions, and with it the sample behind each percentile, does not
    follow the host's speed.
    Returns [(step, latency)] and the summed latency of each repetition."""
    samples, unit_s = [], []
    while not unit_s or sum(unit_s) + unit_s[-1] <= seconds:
        latencies = [session.run(step, tracer) for step in unit]
        samples += zip(unit, latencies)
        unit_s.append(sum(latencies))
    return samples, unit_s


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def median_of_steps(samples, kinds=("make", "check", "other")):
    """Median over distinct jobs of each job's median latency.  A job's own
    median drops the slow outliers that machine noise adds to a few of its
    repeats; pooling the raw samples would let them pick the result."""
    by_key = {}
    for step, seconds in samples:
        if step.kind in kinds:
            by_key.setdefault(step.key, []).append(seconds)
    return statistics.median(statistics.median(v) for v in by_key.values())


def end_to_end(samples, unit_s, unit_len, extra, setup_s):
    value, pct, beyond = tail(s for _step, s in samples)
    print(f"job_s_tail: p{pct:.1f} of {len(samples)} samples, {beyond} beyond it")
    return {
        "jobs_per_s": unit_len / statistics.median(unit_s),
        "job_s_p50": median_of_steps(samples),
        "job_s_tail": value,
        "make_s_p50": median_of_steps(samples + extra, ("make",)),
        "check_s_p50": median_of_steps(samples + extra, ("check",)),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, samples, cert_bytes, report_bytes):
    n = len(samples)
    totals = tracer.layer_totals()
    out = {name: totals.get(name, 0) / n for name in _PER_INVOCATION}
    out["linalg.rref.max_cells"] = totals["linalg.rref.max_cells"]
    out["hopf.verify_hopf.repeat_ratio"] = _ratio(totals["hopf.verify_hopf.repeats"],
                                                  totals.get("hopf.verify_hopf.calls", 0))
    out["qt.inverse.solve_ratio"] = _ratio(totals["qt.inverse.solves"],
                                           totals.get("qt.inverse.calls", 0))
    out["report.cert_bytes"] = cert_bytes / n
    out["cli.report_bytes"] = report_bytes / n
    module_s = tracer.module_self_s()
    total = sum(module_s.values())
    for m in _SHARED_MODULES:
        out[f"share.{m}"] = 100.0 * _ratio(module_s[m], total)
    out["trace.job_s_p50"] = median_of_steps(samples)
    print("self-time share by module: " + ", ".join(
        f"{m} {100.0 * _ratio(s, total):.1f}%"
        for m, s in sorted(module_s.items(), key=lambda kv: -kv[1])))
    return out


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "hopfkit" / "cli.py").is_file():
        print(f"hopfkit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work):
    clock = Clock()
    cli, workload, paths, setup_s = set_up(args.workload, args.seed, work, clock)
    session = Session(cli, paths, work, clock)
    extra = [(step, session.run(step)) for step in workload.probes]
    tracer = layers.Tracer().install() if args.trace else None
    if tracer is None:
        layers.assert_clean()
    cert_bytes, report_bytes = session.cert_bytes, session.report_bytes
    samples, unit_s = timed_loop(session, workload.unit, args.seconds, tracer)
    loop_bytes = session.cert_bytes - cert_bytes, session.report_bytes - report_bytes
    if tracer is not None:
        tracer.uninstall()
    # untraced from here on: the probes again, then one repeated invocation
    # whose report must match its earlier run byte for byte
    extra += [(step, session.run(step)) for step in workload.probes]
    repeat = next(s for s in workload.steps() if s.key == workload.repeat)
    extra.append((repeat, session.run(repeat)))

    if tracer is None:
        values = end_to_end(samples, unit_s, len(workload.unit), extra, setup_s)
        units = END_TO_END
    else:
        values = per_layer(tracer, samples, *loop_bytes)
        units = PER_LAYER
    print(f"host speed: reference kernel median {1e3 * statistics.median(clock.probes):.2f} ms "
          f"(reference {1e3 * REFERENCE_S:.2f} ms); invocation times scaled by a median "
          f"{statistics.median(session.scale):.3f}")
    failed = len(session.problems)
    print(f"fail_frac: {failed}/{session.attempted} = {failed / session.attempted}")
    result = {
        "correct": failed == 0,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
