"""Tests of the ledger harness itself: ``pytest benchmarks/ledger``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import run  # noqa: E402
from child import stats_digest  # noqa: E402
from tracer import PROBE_MIN_CALLS, Tracer, corrected, merge  # noqa: E402


class FakeClock:
    """Each read returns the current time, then costs ``cost``: every
    wrapper therefore adds ``cost`` inside its own interval (own) and
    ``cost`` to its parent's (charge)."""

    def __init__(self, cost):
        self.t = 0.0
        self.cost = cost

    def __call__(self):
        value = self.t
        self.t += self.cost
        return value


def _tree(tracer, clock):
    """outer does 5 units of work and calls inner twice (3 units each)."""
    class Layers:
        def inner(self, work):
            clock.t += work

        def outer(self):
            clock.t += 5
            self.inner(3)
            self.inner(3)

    Layers.inner = tracer.wrap(Layers.inner, "inner")
    Layers.outer = tracer.wrap(Layers.outer, "outer")
    return Layers()


def test_self_time_and_wrapper_correction():
    clock = FakeClock(cost=0.5)
    tracer = Tracer(clock=clock)
    _tree(tracer, clock).outer()
    calls, raw_self, children = tracer.aggs["outer"]
    # outer: 11 units of work plus five clock reads of its own and its
    # children's, minus the children's measured 2 * (3 + 0.5).
    assert (calls, children) == (1, 2)
    assert raw_self == pytest.approx(3 * 0.5 + 5)
    assert tracer.aggs["inner"] == [2, pytest.approx(2 * (3 + 0.5)), 0]
    layers = corrected(tracer.aggs, own=0.5, charge=0.5)
    assert layers["outer"]["self_s"] == pytest.approx(5)
    assert layers["inner"]["self_s"] == pytest.approx(6)
    # Several processes' dumps add up.
    tracer.own = tracer.charge = 0.5
    merged = merge([tracer.dump(), tracer.dump()])
    assert merged["inner"] == {"calls": 4, "self_s": pytest.approx(12)}


def test_probe_rescales_wrapper_cost():
    clock = FakeClock(cost=0.25)
    tracer = Tracer(clock=clock)

    class Layer:
        def step(self):
            clock.t += 1

    Layer.step = tracer.probe(tracer.wrap(Layer.step, "step"), "step")
    layer = Layer()
    for _ in range(PROBE_MIN_CALLS):
        layer.step()
    # A no-op calibration that saw half the real cost.
    tracer.own = tracer.charge = 0.125
    dump = tracer.dump()
    assert dump["own"] == pytest.approx(0.25)
    assert dump["charge"] == pytest.approx(0.25)
    assert set(dump["aggs"]) == {"step"}
    step = corrected(dump["aggs"], dump["own"], dump["charge"])["step"]
    assert step["self_s"] == pytest.approx(PROBE_MIN_CALLS)


def test_wrapper_keeps_signature_defaults_and_keywords():
    tracer = Tracer()

    class Cache:
        def prefetch(self, block, now, origin, extra=0.0, to_l2=False):
            return (block, now, origin, extra, to_l2)

    Cache.prefetch = tracer.wrap(Cache.prefetch, "prefetch")
    assert Cache().prefetch(1, 2.0, 3, to_l2=True) == (1, 2.0, 3, 0.0, True)
    assert tracer.aggs["prefetch"][0] == 1


@pytest.mark.parametrize("n, better, tail", [
    (5, "lower", None),
    (39, "lower", None),
    (40, "lower", "p75"),
    (100, "lower", "p90"),
    (200, "lower", "p95"),
    (1000, "lower", "p99"),
    (100, "higher", "p10"),
])
def test_percentile_needs_ten_samples_beyond(n, better, tail):
    summary = run.summarize([float(i) for i in range(n)], better)
    assert summary["n"] == n
    assert summary["median"] == pytest.approx((n - 1) / 2)
    assert (summary["tail"][0] if summary["tail"] else None) == tail


def test_lane_flags_follow_sweep_help():
    assert run.lane_flags("  --shards N   run through ...") == [
        "--shards", "1", "--jobs", "2"]
    assert run.lane_flags("  --jobs N   worker processes") == ["--jobs", "2"]


def _rep(state):
    rep = run.Rep(points=1)
    rep.stats = {"mysql_sibench/hierarchical": state}
    return rep


def test_digest_mismatch_counts_as_failure(tmp_path):
    good = {"instructions": 10, "cycles": 12.5}
    bench = run.Bench(1, tmp_path)
    bench.reference = {"point_db": {
        "mysql_sibench/hierarchical": stats_digest(good)}}
    ok = _rep(good)
    bench.check("point_db", ok)
    assert ok.failed == 0
    bad = _rep(dict(good, cycles=12.25))
    bench.check("point_db", bad)
    assert bad.failed == 1 and "digest" in bad.errors[0]
    # Without a reference (another seed) repetitions must agree.
    other = run.Bench(2, tmp_path / "seed2")
    first, second = _rep(good), _rep(dict(good, instructions=11))
    other.check("point_db", first)
    other.check("point_db", second)
    assert (first.failed, second.failed) == (0, 1)


def test_grid_points_checked_against_golden_matrix(tmp_path):
    bench = run.Bench(1, tmp_path)
    bench.reference = {}
    golden = bench.golden[("mysql_sibench", "hierarchical")]
    rep = _rep(dict(golden, cycles=golden["cycles"] + 1.0))
    bench.check("grid_cold", rep)
    assert rep.failed == 1 and "golden" in rep.errors[0]


def _child_digest(tmp_path, *extra):
    report = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(run.SRC),
               REPRO_CACHE_DIR=str(tmp_path / "cache"))
    subprocess.run(
        [sys.executable, str(run.CHILD), "point", "mysql_sibench",
         "hierarchical", "tiny", "1", "--report", str(report), *extra],
        env=env, check=True, timeout=120)
    return json.loads(report.read_text())["digest"]


def test_traced_and_untraced_stats_identical(tmp_path):
    trace_dir = tmp_path / "t" / "spans"
    trace_dir.mkdir(parents=True)
    plain = _child_digest(tmp_path / "u")
    traced = _child_digest(tmp_path / "t", "--trace-dir", str(trace_dir))
    assert plain == traced
    dumps = [json.loads(p.read_text()) for p in trace_dir.glob("spans-*.json")]
    layers = merge(dumps)
    assert layers["frontend.fdip.advance"]["calls"] > 0
    assert layers["core.compression.observe"]["calls"] > 0
