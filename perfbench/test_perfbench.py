"""Self-tests of the benchmark harness: python3 -m pytest perfbench -q"""

import json
import signal
import sys

import pytest

import layers
import run
import speed
from workloads import WORKLOADS, Step, check_report, make_workload

sys.path.insert(0, str(run.ROOT / "src"))


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------


def test_overlapping_children_are_covered_once():
    assert layers.covered_length([(1, 4), (3, 6), (5, 5.5)], 0, 10) == 5
    # children reaching outside the parent are clipped to it
    assert layers.covered_length([(-2, 1), (9, 12)], 0, 10) == 2
    spans = [["a.f", -1, 0.0, 10.0, 0.0, 0],
             ["b.g", 0, 1.0, 4.0, 0.0, 0],
             ["b.g", 0, 3.0, 6.0, 0.0, 0]]
    assert layers.self_times(spans) == [5.0, 3.0, 3.0]


def test_nested_span_of_the_same_function():
    tracer = layers.Tracer()

    def body(n):
        return wrapped(n - 1) if n else 0

    wrapped = tracer._span("hopf.verify_hopf", body)
    wrapped(2)
    assert [rec[1] for rec in tracer.spans] == [-1, 0, 1]
    totals = tracer.layer_totals()
    outer = tracer.spans[0]
    assert totals["hopf.verify_hopf.calls"] == 3
    # self times of the nested spans add up to the outer span, not more
    assert totals["hopf.verify_hopf_s"] == pytest.approx(outer[3] - outer[2], abs=1e-9)


def test_a_leaf_inside_a_leaf_counts_once():
    tracer = layers.Tracer()

    class Tensor:
        _pair_index = None

    def build(_obj):
        return sum(range(20000))

    index = tracer._leaf("tensors.index", build, "_pair_index")

    def product(obj):
        return index(obj) + sum(range(20000))

    outer = tracer._span("algebra.verify_algebra", lambda: tracer._leaf(
        "algebra.product", product, None)(Tensor()))
    outer()
    rec = tracer.spans[0]
    # the index build is charged once: to its own total, not again to the span
    assert rec[4] == pytest.approx(sum(tracer.leaf_s.values()), rel=1e-9)
    assert rec[4] <= rec[3] - rec[2]
    assert layers.self_times(tracer.spans)[0] >= 0
    assert tracer.leaf_calls == {"algebra.product": 1, "tensors.index": 1}


def test_leaf_time_is_taken_from_the_enclosing_span():
    spans = [["hopf.verify_hopf", -1, 0.0, 10.0, 2.5, 0],
             ["linalg.rref", 0, 4.0, 6.0, 0.0, 0]]
    assert layers.self_times(spans) == [5.5, 2.0]


# ----------------------------------------------------------------------
# tail percentile
# ----------------------------------------------------------------------


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail(range(11)) == (0, 0.0, 10)
    value, pct, beyond = run.tail(range(101))
    assert (value, pct, beyond) == (90, 90.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_loop_length_follows_the_summed_latency():
    class Session:
        def run(self, step, tracer=None):
            return 1.0

    # units of 2 s: after three a fourth would end at 8 s, past 7 s
    samples, unit_s = run.timed_loop(Session(), ["a", "b"], 7)
    assert unit_s == [2.0, 2.0, 2.0] and len(samples) == 6
    # the unit runs once even when it does not fit
    assert run.timed_loop(Session(), ["a", "b"], 0)[1] == [2.0]


# ----------------------------------------------------------------------
# reference clock
# ----------------------------------------------------------------------


def test_kernel_reduces_its_matrix_to_the_identity():
    m = speed.kernel()
    assert all(m[i][j] == (i == j) for i in range(len(m)) for j in range(len(m)))


def test_a_wall_time_is_scaled_by_the_probes_around_it(monkeypatch):
    probes = iter([2 * speed.REFERENCE_S, 4 * speed.REFERENCE_S, speed.REFERENCE_S])
    monkeypatch.setattr(speed, "probe", lambda: next(probes))
    clock = speed.Clock(tick_s=100)
    # bracketed by probes 2x and 4x the reference: the host did 1/2 and
    # 1/4 of the reference work per second, 3/8 on average
    result, seconds, wall = clock.time(lambda x: x + 1, 1)
    assert result == 2
    assert seconds == pytest.approx(wall * 3 / 8)
    # the next bracket starts from the last probe
    _, seconds, wall = clock.time(lambda: None)
    assert seconds == pytest.approx(wall * 5 / 8)
    assert clock.probes == [2 * speed.REFERENCE_S, 4 * speed.REFERENCE_S, speed.REFERENCE_S]


def test_ticks_inside_a_call_are_sampled_and_taken_out(monkeypatch):
    ref = 1e-4
    monkeypatch.setattr(speed, "REFERENCE_S", ref)
    monkeypatch.setattr(speed, "probe", lambda: ref)
    monkeypatch.setattr(speed, "timed_kernel", lambda: 2 * ref)
    clock = speed.Clock(tick_s=0.01)

    def busy():
        t0 = speed.perf_counter()
        while speed.perf_counter() - t0 < 0.2:
            pass

    t0 = speed.perf_counter()
    _, seconds, wall = clock.time(busy)
    elapsed = speed.perf_counter() - t0
    ticks = clock.probes[1:-1]
    assert len(ticks) >= 5 and set(ticks) == {2 * ref}
    assert wall <= elapsed - sum(ticks)
    # two bracket probes at full speed, the ticks at half speed
    assert seconds == pytest.approx(wall * (2 + len(ticks) / 2) / (2 + len(ticks)))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


def _masked(doc):
    """The job with every seeded value replaced by a placeholder."""
    doc = json.loads(json.dumps(doc))
    fld = doc.get("field", {})
    if fld.get("kind") == "gfp":
        fld["p"] = "P"
    obj = doc.get("object")
    if isinstance(obj, dict) and "omega" in obj:
        obj["omega"] = "W"
    if isinstance(doc.get("r"), list) and doc.get("pi"):
        doc["r"] = [[i, j, "T" if i >= 4 else c] for i, j, c in doc["r"]]
    return json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_only_p_omega_t_and_order(name):
    def shape(seed):
        w = make_workload(name, seed)
        return sorted((s.key, s.verb, _masked(s.doc) if s.doc else None, s.source)
                      for s in w.steps()), w.repeat

    base = shape(0)
    assert all(shape(seed) == base for seed in range(1, 12))
    docs = {seed: [s.doc for s in make_workload(name, seed).steps()] for seed in range(12)}
    assert len({json.dumps(d, sort_keys=True) for d in docs.values()}) > 1


def test_mixed_small_pass_order_depends_on_seed():
    orders = {tuple(s.key for s in make_workload("mixed-small", seed).unit) for seed in range(6)}
    assert len(orders) > 1
    for order in orders:
        for i, key in enumerate(order):
            if key.startswith("check:"):
                assert order.index(key[len("check:"):]) < i


def _traced_counts(workload, seed, tmp_path):
    tmp_path.mkdir()
    clock = speed.Clock()
    cli, wl, paths, _ = run.set_up(workload, seed, tmp_path, clock)
    session = run.Session(cli, paths, tmp_path, clock)
    tracer = layers.Tracer().install()
    try:
        samples, _ = run.timed_loop(session, wl.unit, 0, tracer)
    finally:
        tracer.uninstall()
    assert not session.problems
    return {k: v / len(samples) for k, v in tracer.layer_totals().items()}


def test_seeds_give_equal_work(tmp_path):
    a = _traced_counts("mixed-small", 0, tmp_path / "a")
    b = _traced_counts("mixed-small", 5, tmp_path / "b")
    exact = ["linalg.rref.calls", "linalg.rref.cells", "algebra.product.calls",
             "hopf.verify_hopf.calls", "qt.inverse.calls", "qt.inverse.solves",
             "catalog.build.calls", "gfpoly.roots.calls", "tensors.index.calls"]
    for key in exact:
        assert a[key] == b[key], key
    # field ops skip zero and one operands, so values may shift them slightly
    for key in [name for name, _m, _q in layers.COUNTERS]:
        assert a[key] == pytest.approx(b[key], rel=1e-3), key


# ----------------------------------------------------------------------
# tracer installation
# ----------------------------------------------------------------------


def _hopfkit():
    run._import_hopfkit()
    return {name: sys.modules[f"hopfkit.{name}"] for name in layers.MODULES}


def test_every_alias_is_wrapped_and_restored():
    mods = _hopfkit()
    holders = {"verify_hopf": ["hopf", "catalog", "cli", "splitting"],
               "solve_antipode": ["hopf", "qt"]}
    originals = {fn: getattr(mods["hopf"], fn) for fn in holders}
    tracer = layers.Tracer().install()
    try:
        for fn, names in holders.items():
            for name in names:
                assert getattr(mods[name], fn) is not originals[fn], (name, fn)
        assert sys.modules["hopfkit"].verify_hopf is not originals["verify_hopf"]
        assert layers.find_wrappers()
    finally:
        tracer.uninstall()
    for fn, names in holders.items():
        for name in names:
            assert getattr(mods[name], fn) is originals[fn]
    assert not layers.find_wrappers()


def test_an_alias_that_cannot_be_patched_fails_the_install():
    mods = _hopfkit()
    mods["cli"]._PINNED = (mods["hopf"].verify_hopf,)
    with pytest.raises(layers.UnpatchedAlias, match="_PINNED"):
        layers.Tracer().install()
    layers.assert_clean()


# ----------------------------------------------------------------------
# output checks and the benchmark definition
# ----------------------------------------------------------------------


def test_check_report_flags_wrong_fields():
    step = Step("s", "obstruct", {}, expect={"clause": "no_qt"})
    good = {"verdict": "pass", "tasks": [{"clause": "no_qt"}]}
    assert check_report(step, 0, good) == []
    assert check_report(step, 0, {"verdict": "pass", "tasks": [{"clause": "ii"}]})
    assert check_report(step, 1, good) == ["exit code 1"]
    cert_step = Step("c", "check-cert", source="s", expect={"verdict": "pass"})
    failing = {"verdict": "pass",
               "tasks": [{"verdict": "pass", "checks": [{"name": "x", "ok": False}]}]}
    assert check_report(cert_step, 0, failing)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
