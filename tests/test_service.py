"""The sweep engine's event stream (docs/SWEEP_SERVICE.md).

Contracts under test:

* worker-process sweeps are bit-identical to an in-process ``sweep()``
  of the same points;
* the JSONL progress stream accounts for every point — scheduled,
  completed (cache hits included), retried, failed;
* retry/backoff/keep-going semantics hold with the stream attached;
* best-effort sinks can never break a sweep;
* the acceptance grid: a 1,200-point manifest completes in-process
  under injected crash/hang/truncate faults, survivors bit-identical
  to the fault-free run.
"""

import hashlib
import importlib

import pytest

from repro.cpu.stats import SimStats
from repro.experiments import diskcache, runner
from repro.experiments.errors import PointFailure
from repro.experiments.faults import CRASH, ERROR, HANG, Fault, FaultPlan
from repro.experiments.manifest import parse_manifest
from repro.experiments.service import (
    JsonlEventLog,
    format_events_summary,
    read_events,
    summarize_events,
)
from repro.experiments.sweep import SweepPoint, sweep

sweep_mod = importlib.import_module("repro.experiments.sweep")

WORKLOAD = "mysql_sibench"


@pytest.fixture()
def cache_dir(tmp_path):
    """A private disk-cache root for one test, restored afterwards."""
    previous = diskcache.set_cache_dir(tmp_path)
    runner.clear_run_cache()
    runner.reset_run_cache_stats()
    yield tmp_path
    runner.clear_run_cache()
    diskcache.set_cache_dir(previous)


def _points():
    return [SweepPoint(WORKLOAD, None, scale="tiny"),
            SweepPoint(WORKLOAD, "eip", scale="tiny")]


def _states(report):
    return [r.stats.state_dict() for r in report]


_CLEAN = None


def _clean_states():
    """Fault-free in-process reference states (computed once)."""
    global _CLEAN
    if _CLEAN is None:
        report = sweep(_points(), use_cache=False, progress=None,
                       fault_plan=FaultPlan())
        assert report.ok
        _CLEAN = _states(report)
    return _CLEAN


# ----------------------------------------------------------------------
# Bit-identity with the in-process engine (real simulations)
# ----------------------------------------------------------------------
class TestBitIdentity:
    def test_process_mode_matches_serial(self, cache_dir, tmp_path):
        events = tmp_path / "events.jsonl"
        with JsonlEventLog(events) as log:
            report = sweep(_points(), jobs=2, use_cache=False,
                           events=log, progress=None,
                           fault_plan=FaultPlan())
        assert report.ok
        assert _states(report) == _clean_states()
        summary = summarize_events(read_events(events))
        assert summary["total"] == 2
        assert summary["completed"] == 2 and summary["missing"] == []
        assert summary["scheduled"] == 2

    def test_crash_fault_retried_bit_identical(self, cache_dir, tmp_path):
        events = tmp_path / "events.jsonl"
        plan = FaultPlan([Fault(CRASH, f"{WORKLOAD}/eip", times=1)])
        with JsonlEventLog(events) as log:
            report = sweep(_points(), jobs=2, use_cache=False,
                           events=log, progress=None, fault_plan=plan)
        assert report.ok
        assert _states(report) == _clean_states()
        summary = summarize_events(read_events(events))
        assert summary["retried"] == 1
        assert summary["retry_kinds"] == {"crash": 1}

    def test_warm_points_resolve_without_scheduling(self, cache_dir,
                                                    tmp_path):
        sweep(_points(), progress=None, fault_plan=FaultPlan())
        runner.clear_run_cache()  # drop memory layer; keep disk
        events = tmp_path / "events.jsonl"
        with JsonlEventLog(events) as log:
            report = sweep(_points(), jobs=2, events=log, progress=None,
                           fault_plan=FaultPlan())
        assert report.ok
        assert _states(report) == _clean_states()
        raw = read_events(events)
        assert all(e["event"] != "scheduled" for e in raw)
        completed = [e for e in raw if e["event"] == "completed"]
        assert {e["source"] for e in completed} == {"disk"}
        assert all(e["shard"] is None for e in completed)

    def test_fail_fast_raises_point_failure(self, cache_dir):
        plan = FaultPlan([Fault(ERROR, f"{WORKLOAD}/eip")])  # persistent
        with pytest.raises(PointFailure) as exc:
            sweep(_points(), jobs=2, use_cache=False, max_retries=0,
                  backoff_base=0.0, progress=None, fault_plan=plan)
        assert exc.value.kind == "transient"


# ----------------------------------------------------------------------
# Event stream mechanics
# ----------------------------------------------------------------------
class TestEvents:
    def test_torn_final_line_dropped(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        path.write_text('{"event": "begin", "total": 1}\n{"event": "co')
        assert read_events(path) == [{"event": "begin", "total": 1}]

    def test_torn_middle_line_raises(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        path.write_text('{"event": "b\n{"event": "end"}\n')
        with pytest.raises(ValueError, match="undecodable"):
            read_events(path)

    def test_missing_points_detected(self):
        summary = summarize_events([
            {"event": "begin", "total": 3},
            {"event": "completed", "index": 0, "source": "sim"},
            {"event": "failed", "index": 2, "kind": "timeout",
             "label": "x", "message": "m"},
        ])
        assert summary["missing"] == [1]
        assert summary["completed"] == 1 and summary["failed"] == 1
        assert "MISSING" in format_events_summary(summary)

    def test_unknown_kind_counted_not_fatal(self):
        # A v3 writer's stream: the extra kind must be tallied for
        # visibility, never crash the v2 reader or skew accounting.
        summary = summarize_events([
            {"event": "begin", "total": 1},
            {"event": "speculative", "index": 0, "depth": 4},
            {"event": "completed", "index": 0, "source": "sim"},
            {"event": "speculative", "index": 0, "depth": 5},
            {"event": "end", "status": "ok"},
        ])
        assert summary["unknown"] == {"speculative": 2}
        assert summary["completed"] == 1
        assert summary["missing"] == [] and summary["duplicates"] == []
        text = format_events_summary(summary)
        assert "unknown:   2 speculative" in text
        assert "ignored" in text

    def test_unknown_kind_does_not_fail_check(self, tmp_path, capsys):
        from repro.cli import main
        stream = tmp_path / "v3.jsonl"
        with JsonlEventLog(stream) as log:
            log({"event": "begin", "total": 1})
            log({"event": "speculative", "index": 0})
            log({"event": "completed", "index": 0, "source": "sim"})
            log({"event": "end", "status": "ok"})
        assert main(["manifest", "events", str(stream),
                     "--check"]) == 0
        assert "unknown:" in capsys.readouterr().out

    def test_retired_kinds_from_old_writers_pass_check(self, tmp_path,
                                                       capsys):
        # A v2 stream from before the one-engine sweep: its heartbeat
        # and pool_restarted records are tallied as unknown, and the
        # point accounting still passes --check.
        from repro.cli import main
        stream = tmp_path / "old.jsonl"
        with JsonlEventLog(stream) as log:
            log({"v": 2, "seq": 1, "event": "begin", "total": 1,
                 "shards": 2, "jobs": 1})
            log({"v": 2, "seq": 2, "event": "heartbeat", "shard": 0,
                 "incarnation": 1, "live": 1, "outstanding": 1})
            log({"v": 2, "seq": 3, "event": "pool_restarted", "shard": 1,
                 "incarnation": 2, "requeued": 0, "error": "x"})
            log({"v": 2, "seq": 4, "event": "completed", "index": 0,
                 "source": "sim", "shard": 0})
            log({"v": 2, "seq": 5, "event": "end", "status": "ok"})
        summary = summarize_events(read_events(stream))
        assert summary["unknown"] == {"heartbeat": 1, "pool_restarted": 1}
        assert summary["completed"] == 1 and summary["missing"] == []
        assert main(["manifest", "events", str(stream), "--check"]) == 0
        out = capsys.readouterr().out
        assert "1 heartbeat, 1 pool_restarted" in out

    def test_missing_optional_keys_tolerated(self):
        # Optional envelope/schema keys absent everywhere: summarize
        # must fall back, not KeyError.
        summary = summarize_events([
            {"event": "begin", "total": 2},        # no run_id/segment
            {"event": "completed", "index": 0},    # no source/seconds
            {"event": "retried", "index": 1},      # no kind
            {"event": "failed", "index": 1},       # no label/message
            {"event": "end", "status": "failed"},  # no seconds
        ])
        assert summary["sources"] == {"sim": 1}
        assert summary["retry_kinds"] == {"transient": 1}
        assert summary["failures"] == [
            {"index": 1, "label": None, "kind": None, "message": None}]
        assert summary["seconds"] is None
        # Renders without a wall-clock line or a crash.
        assert "wall:" not in format_events_summary(summary)

    def test_empty_stream_summarizes(self, tmp_path):
        stream = tmp_path / "empty.jsonl"
        stream.write_text("")
        events = read_events(stream)
        assert events == []
        summary = summarize_events(events)
        assert summary["total"] == 0
        assert summary["missing"] == [] and summary["status"] is None
        assert "points:    0" in format_events_summary(summary)

    def test_read_run_events_joins_adversarial_segments(self, tmp_path):
        from repro.experiments.journal import read_run_events
        # Segment 1: duplicate seq (writer re-append) + torn tail.
        (tmp_path / "events-0001.jsonl").write_text(
            '{"seq": 1, "event": "begin", "total": 2}\n'
            '{"seq": 2, "event": "completed", "index": 0}\n'
            '{"seq": 2, "event": "completed", "index": 0}\n'
            '{"seq": 3, "event": "inter')
        # Segment 2: the resume attempt, with its own seq space.
        (tmp_path / "events-0002.jsonl").write_text(
            '{"seq": 1, "event": "begin", "total": 2}\n'
            '{"seq": 2, "event": "completed", "index": 1}\n'
            '{"seq": 3, "event": "end", "status": "ok"}\n')
        events = read_run_events(tmp_path)
        assert [e["event"] for e in events] == [
            "begin", "completed", "begin", "completed", "end"]
        summary = summarize_events(events)
        assert summary["segments"] == 2
        assert summary["completed"] == 2
        assert summary["missing"] == [] and summary["duplicates"] == []

    def test_sink_exceptions_never_break_the_sweep(self, cache_dir):
        def exploding_sink(event):
            raise RuntimeError("sink down")

        report = sweep(_points(), use_cache=False, events=exploding_sink,
                       progress=None, fault_plan=FaultPlan())
        assert report.ok


# ----------------------------------------------------------------------
# The 1,200-point acceptance grid (fake executor: the supervision loop,
# retry engine, cache layers, and event stream are all real — only the
# simulation itself is synthesized, deterministically per point key)
# ----------------------------------------------------------------------
def _fake_run_serial(point, use_cache):
    digest = hashlib.sha256(point.key().encode("utf-8")).hexdigest()
    stats = SimStats()
    stats.instructions = int(digest[:12], 16)
    stats.blocks = int(digest[12:20], 16)
    stats.cycles = float(int(digest[20:28], 16) % 99991) + 1.0
    if use_cache:
        runner.seed_cache(point.key(), stats, None)
        runner._disk_store(point.key(), stats, None)
    return stats, None, "sim", 0.001


def _acceptance_manifest():
    from repro.workloads.suite import ALL_WORKLOAD_NAMES

    return parse_manifest({"sweep": {
        "name": "acceptance",
        "workloads": list(ALL_WORKLOAD_NAMES),
        "prefetchers": ["efetch", "mana", "eip", "hierarchical"],
        "policies": ["lru", "lip", "bip", "pf_aware"],
        "seeds": [1, 2, 3, 4],
        "scale": "tiny",
    }})


class TestAcceptanceScale:
    def test_thousand_point_manifest_through_the_service(
            self, cache_dir, tmp_path, monkeypatch):
        monkeypatch.setattr(sweep_mod, "_run_serial", _fake_run_serial)
        manifest = _acceptance_manifest()
        points = manifest.expand()
        assert len(points) == 1200

        # Fault-free reference (the bit-identity baseline).
        reference = sweep(points, use_cache=False, progress=None,
                          fault_plan=FaultPlan())
        assert reference.ok
        ref = {r.point.key(): r.stats.state_dict() for r in reference}
        assert len(ref) == 1200

        # Crash, hang, transient, and truncate faults sprinkled over
        # the grid, plus one persistent hang that must fail.
        plan = FaultPlan([
            Fault(CRASH, 0, times=1),
            Fault(CRASH, 451, times=1),
            Fault(ERROR, 17, times=1),
            Fault(HANG, 123, times=1),
            Fault("truncate", 777, times=1),
            Fault("truncate", 778, times=1),
            Fault(HANG, 999),  # persistent: every attempt hangs
        ])
        events = tmp_path / "acceptance.jsonl"
        with JsonlEventLog(events) as log:
            report = sweep(points, keep_going=True, backoff_base=0.0,
                           events=log, progress=None, fault_plan=plan)

        # Survivors: everything except the persistently hung point,
        # each bit-identical to the fault-free run.
        assert len(report) == 1199
        for result in report:
            assert result.stats.state_dict() == ref[result.point.key()], \
                result.point.key()
        (failure,) = report.failures
        assert failure.kind == "timeout" and failure.index == 999

        # The stream accounts for every one of the 1200 points.
        summary = summarize_events(read_events(events))
        assert summary["total"] == 1200
        assert summary["completed"] == 1199
        assert summary["failed"] == 1 and summary["missing"] == []
        # 4 flaky exec faults retried once each + 2 retries of the
        # persistent hang (attempts 1 and 2 re-enter; attempt 3 fails).
        assert summary["retried"] == 6
        assert summary["retry_kinds"]["timeout"] == 3

        # Warm re-run: the torn entries must be quarantined and
        # re-simulated; everything else resolves from the disk cache.
        runner.clear_run_cache()  # memory layer only; disk survives
        runner.reset_run_cache_stats()
        events2 = tmp_path / "warm.jsonl"
        with JsonlEventLog(events2) as log:
            again = sweep(points, keep_going=True, backoff_base=0.0,
                          events=log, progress=None,
                          fault_plan=FaultPlan())
        assert again.ok and len(again) == 1200
        for result in again:
            assert result.stats.state_dict() == ref[result.point.key()]
        summary2 = summarize_events(read_events(events2))
        assert summary2["completed"] == 1200 and summary2["missing"] == []
        # 1197 disk hits; 777/778 (torn) + 999 (never cached) re-ran.
        assert summary2["sources"]["disk"] == 1197
        assert summary2["sources"]["sim"] == 3
        assert runner.run_cache_stats().cache_corrupt == 2
