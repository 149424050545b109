"""Run journal, resume, and run-level self-healing (docs/RESILIENCE.md).

Contracts under test:

* journal records survive the writer: JSONL round-trips exactly, a
  torn final line (killed writer) is dropped, and re-appended records
  (duplicate ``seq``) are skipped on replay — property-tested with
  hypothesis;
* run directories have durable, collision-free identity keyed by the
  grid fingerprint, and resume refuses a mismatched grid;
* a run SIGKILLed mid-flight resumes to results bit-identical to an
  uninterrupted run, with every point accounted for exactly once
  across the joined journal segments (the ISSUE acceptance case);
* poison points (retries exhausted) are quarantined on resume instead
  of re-burning their retry budget;
* SIGINT/SIGTERM drain gracefully: partial report, ``end{status=
  interrupted}``, conventional 128+signum exit code — for manifest and
  flag-built grids alike;
* a failed journal append fails the run and reaps its workers;
* the disk-space guard refuses writes instead of risking torn entries.
"""

import errno
import hashlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.cpu.stats import SimStats
from repro.experiments import diskcache, runner
from repro.experiments.errors import PointFailure, SweepInterrupted
from repro.experiments.faults import (
    ERROR,
    PARENT_SIGNAL,
    TORN_JOURNAL,
    Fault,
    FaultPlan,
)
from repro.experiments.journal import (
    JournalError,
    RunJournal,
    grid_fingerprint,
    list_runs,
    read_run_events,
    run_sweep,
    runs_root,
)
from repro.experiments.events import (
    JsonlEventLog,
    ShutdownRequest,
    follow_events,
    format_events_summary,
    read_events,
    summarize_events,
)
from repro.experiments.sweep import SweepPoint, sweep

WORKLOAD = "mysql_sibench"


@pytest.fixture()
def cache_dir(tmp_path):
    """A private disk-cache root (and so run-journal root) per test."""
    previous = diskcache.set_cache_dir(tmp_path)
    runner.clear_run_cache()
    runner.reset_run_cache_stats()
    yield tmp_path
    runner.clear_run_cache()
    diskcache.set_cache_dir(previous)


def _points(n=6):
    prefetchers = [None, "eip", "mana", "hierarchical", "efetch"]
    seeds = [1, 2]
    pts = [SweepPoint(WORKLOAD, pf, scale="tiny", seed=seed)
           for seed in seeds for pf in prefetchers]
    return pts[:n]


def _fake_simulate(point, use_cache):
    """Deterministic synthetic executor (same scheme as
    tests/test_service.py): supervision loop, retries, cache, and
    journal are all real; only the simulation is synthesized per point
    key."""
    digest = hashlib.sha256(point.key().encode("utf-8")).hexdigest()
    stats = SimStats()
    stats.instructions = int(digest[:12], 16)
    stats.blocks = int(digest[12:20], 16)
    stats.cycles = float(int(digest[20:28], 16) % 99991) + 1.0
    if use_cache:
        runner.seed_cache(point.key(), stats, None)
        diskcache.get_cache().save(point.key(), stats=stats.state_dict(),
                                   miss_map=None)
    return stats, None


@pytest.fixture()
def fake_executor(monkeypatch):
    monkeypatch.setattr(runner, "simulate_point", _fake_simulate)


def _ref_states(points):
    return {p.key(): _fake_simulate(p, False)[0].state_dict()
            for p in points}


def _config(**kw):
    """Sweep policy keywords: in-process by default, no backoff."""
    kw.setdefault("jobs", 1)
    kw.setdefault("backoff_base", 0.0)
    return kw


# ----------------------------------------------------------------------
# Journal records: hypothesis round-trips + recovery
# ----------------------------------------------------------------------
_FIELD_VALUES = st.one_of(
    st.integers(-10**9, 10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
            max_size=20),
    st.none(),
    st.booleans(),
)


def _event_stream():
    """Sequences of schema-shaped events with strictly increasing seq."""
    body = st.dictionaries(
        st.sampled_from(["index", "label", "source", "message", "shard",
                         "seconds", "attempt", "status"]),
        _FIELD_VALUES, max_size=4)
    return st.lists(
        st.tuples(st.sampled_from(
            ["begin", "scheduled", "completed", "retried", "failed",
             "heartbeat", "end"]), body),
        min_size=1, max_size=20,
    ).map(lambda items: [
        {"v": 2, "seq": i + 1, "event": kind, **fields}
        for i, (kind, fields) in enumerate(items)
    ])


class TestJournalRecords:
    @given(events=_event_stream())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_round_trip(self, tmp_path, events):
        path = tmp_path / "seg.jsonl"
        with JsonlEventLog(path, fsync=True) as log:
            for event in events:
                log(event)
        assert read_events(path) == events

    @given(events=_event_stream(), cut=st.integers(1, 80))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_torn_tail_recovers_prefix(self, tmp_path, events, cut):
        """Truncating anywhere inside the final record (a writer killed
        mid-append) must yield exactly the preceding records."""
        path = tmp_path / "seg.jsonl"
        with JsonlEventLog(path) as log:
            for event in events:
                log(event)
        data = path.read_bytes()
        last_line_start = data[:-1].rfind(b"\n") + 1
        torn_at = min(len(data) - 1,
                      last_line_start + cut % max(
                          1, len(data) - last_line_start - 1))
        path.write_bytes(data[:torn_at])
        assert read_events(path) == events[:-1]

    @given(events=_event_stream(), replayed=st.integers(1, 20))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_duplicate_seq_skipped(self, tmp_path, events, replayed):
        """A writer that re-appended its tail after a partial failure
        leaves duplicate seq numbers; replay keeps the first copy."""
        run_dir = tmp_path / "run"
        run_dir.mkdir(exist_ok=True)  # tmp_path is shared per-example
        path = run_dir / "events-0001.jsonl"
        replayed = min(replayed, len(events))
        with JsonlEventLog(path) as log:
            for event in events:
                log(event)
            for event in events[-replayed:]:  # the re-appended tail
                log(event)
        assert read_run_events(run_dir) == events


# ----------------------------------------------------------------------
# Run-directory lifecycle
# ----------------------------------------------------------------------
class TestRunDirLifecycle:
    def test_fingerprint_is_grid_identity(self):
        pts = _points()
        assert grid_fingerprint(pts) == grid_fingerprint(list(pts))
        assert grid_fingerprint(pts) != grid_fingerprint(pts[:-1])

    def test_create_allocates_sequential_run_dirs(self, cache_dir):
        pts = _points()
        a = RunJournal.create(pts, _config())
        b = RunJournal.create(pts, _config())
        fp = grid_fingerprint(pts)[:12]
        assert a.run_id == f"{fp}-0001" and b.run_id == f"{fp}-0002"
        assert a.run_dir.parent == runs_root()
        meta = json.loads((a.run_dir / "meta.json").read_text())
        assert meta["fingerprint"] == grid_fingerprint(pts)
        assert meta["total"] == len(pts)
        assert meta["config"]["jobs"] == 1

    def test_resume_picks_latest_and_opens_next_segment(self, cache_dir):
        pts = _points()
        RunJournal.create(pts, _config())
        b = RunJournal.create(pts, _config())
        with b.sink as sink:
            sink({"seq": 1, "event": "begin", "total": len(pts)})
        again = RunJournal.resume(pts)
        assert again.run_id == b.run_id
        assert again.segment == 2
        assert [r.name for r in list_runs()] == \
            [f"{grid_fingerprint(pts)[:12]}-000{i}" for i in (1, 2)]

    def test_resume_rejects_wrong_grid(self, cache_dir):
        pts = _points()
        jr = RunJournal.create(pts, _config())
        with pytest.raises(JournalError, match="different grid"):
            RunJournal.resume(_points(4) + [pts[-1]], run_id=jr.run_id)
        with pytest.raises(JournalError, match="no such run"):
            RunJournal.resume(pts, run_id="deadbeef0000-0001")
        with pytest.raises(JournalError, match="no resumable run"):
            RunJournal.resume(_points(3))

    def test_no_journal_without_the_cache(self, cache_dir, fake_executor):
        report, journal = run_sweep(_points(2), **_config(use_cache=False),
                                    fault_plan=FaultPlan())
        assert journal is None
        assert len(report.results) == 2
        assert list_runs() == []

    def test_resume_requires_the_cache(self, cache_dir, fake_executor):
        pts = _points(2)
        run_sweep(pts, **_config(), fault_plan=FaultPlan())
        with pytest.raises(JournalError, match="disk cache disabled"):
            run_sweep(pts, **_config(use_cache=False),
                      resume=True, fault_plan=FaultPlan())


# ----------------------------------------------------------------------
# Interruption + resume (the tentpole contract)
# ----------------------------------------------------------------------
class TestInterruptAndResume:
    def test_parent_signal_drains_and_resume_is_exactly_once(
            self, cache_dir, fake_executor):
        pts = _points(8)
        plan = FaultPlan([Fault(PARENT_SIGNAL, 3, signum=signal.SIGTERM)])
        with pytest.raises(SweepInterrupted) as exc:
            run_sweep(pts, **_config(), fault_plan=plan,
                      handle_signals=True)
        assert exc.value.signum == signal.SIGTERM
        assert exc.value.exit_code == 128 + signal.SIGTERM
        run_id = exc.value.run_id
        assert run_id is not None
        assert 0 < len(exc.value.report.results) < len(pts)

        interrupted = summarize_events(
            read_run_events(runs_root() / run_id))
        assert interrupted["status"] == "interrupted"
        assert interrupted["missing"]  # genuinely unfinished

        report, journal = run_sweep(pts, **_config(),
                                    resume=True, run_id=run_id,
                                    fault_plan=FaultPlan())
        assert journal.run_id == run_id and journal.segment == 2
        ref = _ref_states(pts)
        assert len(report.results) == len(pts)
        for result in report:
            assert result.stats.state_dict() == ref[result.point.key()]
        summary = summarize_events(read_run_events(journal.run_dir))
        assert summary["total"] == len(pts)
        assert summary["completed"] == len(pts)
        assert summary["missing"] == [] and summary["duplicates"] == []
        assert summary["segments"] == 2 and summary["status"] == "ok"

    def test_explicit_shutdown_request_interrupts(self, cache_dir,
                                                  fake_executor):
        pts = _points(8)
        stop = ShutdownRequest()
        seen = []

        def sink(event):
            seen.append(event)
            if event["event"] == "completed" and len(
                    [e for e in seen if e["event"] == "completed"]) >= 2:
                stop.request()

        with pytest.raises(SweepInterrupted) as exc:
            sweep(pts, **_config(), events=sink,
                  fault_plan=FaultPlan(), shutdown=stop)
        assert exc.value.signum is None and exc.value.exit_code == 130
        assert seen[-1]["event"] == "end"
        assert seen[-1]["status"] == "interrupted"

    def test_poison_points_quarantined_on_resume(self, cache_dir,
                                                 fake_executor):
        pts = _points(4)
        poison = FaultPlan([Fault(ERROR, 1)])  # persistent: exhausts
        report, journal = run_sweep(
            pts, **_config(keep_going=True, max_retries=1),
            fault_plan=poison)
        (failure,) = report.failures
        assert failure.index == 1 and failure.attempts == 2

        report2, journal2 = run_sweep(
            pts, **_config(keep_going=True, max_retries=1),
            resume=True, fault_plan=FaultPlan())
        assert journal2.replay_poisoned == 1
        assert journal2.replay_preresolved == 3
        (failure2,) = report2.failures
        assert failure2.index == 1
        assert failure2.kind == failure.kind
        assert failure2.attempts == failure.attempts

        segment2 = read_events(journal2.segment_path(2))
        kinds = [(e["event"], e.get("index")) for e in segment2]
        assert ("poisoned", 1) in kinds
        # No retry budget re-burned: the poison point is never
        # scheduled again, and its failed terminal stays unique.
        assert ("scheduled", 1) not in kinds
        summary = summarize_events(read_run_events(journal2.run_dir))
        assert summary["poisoned"] == [1]
        assert summary["failed"] == 1 and summary["duplicates"] == []
        assert "poisoned" in format_events_summary(summary)

    def test_poisoned_point_raises_under_fail_fast(self, cache_dir,
                                                   fake_executor):
        pts = _points(4)
        run = run_sweep(pts, **_config(keep_going=True, max_retries=0),
                        fault_plan=FaultPlan([Fault(ERROR, 1)]))
        assert run[0].failures
        with pytest.raises(PointFailure):
            run_sweep(pts, **_config(keep_going=False, max_retries=0),
                      resume=True,
                      fault_plan=FaultPlan())

    def test_torn_journal_fault_then_resume(self, cache_dir,
                                            fake_executor):
        """An injected torn segment tail behaves like a writer killed
        mid-append: the damaged record is lost, its point re-enters."""
        pts = _points(4)
        plan = FaultPlan([Fault(TORN_JOURNAL, 1)])
        report, journal = run_sweep(pts, **_config(),
                                    fault_plan=plan)
        assert len(report.results) == len(pts)
        events = read_events(journal.segment_path(1))
        assert events, "torn tail must not destroy the whole segment"
        assert events[-1].get("event") != "end"  # the trailer was torn

        report2, journal2 = run_sweep(pts, **_config(),
                                      resume=True,
                                      fault_plan=FaultPlan())
        ref = _ref_states(pts)
        assert len(report2.results) == len(pts)
        for result in report2:
            assert result.stats.state_dict() == ref[result.point.key()]


# ----------------------------------------------------------------------
# SIGKILL chaos: kill -9 the parent mid-run, resume, prove bit-identity
# ----------------------------------------------------------------------
_CHILD_SCRIPT = textwrap.dedent("""
    import hashlib, sys, time
    from repro.cpu.stats import SimStats
    from repro.experiments import diskcache, runner
    from repro.experiments.journal import run_sweep
    from repro.experiments.sweep import SweepPoint

    def fake_simulate(point, use_cache):
        digest = hashlib.sha256(
            point.key().encode("utf-8")).hexdigest()
        stats = SimStats()
        stats.instructions = int(digest[:12], 16)
        stats.blocks = int(digest[12:20], 16)
        stats.cycles = float(int(digest[20:28], 16) % 99991) + 1.0
        time.sleep(0.25)  # slow enough for the parent to SIGKILL us
        if use_cache:
            runner.seed_cache(point.key(), stats, None)
            diskcache.get_cache().save(point.key(), stats=stats.state_dict(),
                                       miss_map=None)
        return stats, None

    runner.simulate_point = fake_simulate
    points = [SweepPoint("mysql_sibench", pf, scale="tiny", seed=seed)
              for seed in (1, 2)
              for pf in (None, "eip", "mana", "hierarchical", "efetch")]
    print("ready", flush=True)
    run_sweep(points, backoff_base=0.0)
""")


class TestSigkillChaos:
    def test_sigkill_resume_bit_identical_exactly_once(
            self, cache_dir, fake_executor):
        pts = _points(10)
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parents[1] / "src"),
             env.get("PYTHONPATH", "")])
        env.pop("REPRO_FAULT_PLAN", None)
        child = subprocess.Popen(
            [sys.executable, "-c", _CHILD_SCRIPT], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        try:
            # Wait for durable evidence of progress, then kill -9.
            deadline = time.monotonic() + 60.0
            completed = 0
            while time.monotonic() < deadline:
                runs = list_runs(fingerprint=grid_fingerprint(pts))
                if runs:
                    events = read_run_events(runs[0])
                    completed = sum(1 for e in events
                                    if e.get("event") == "completed")
                    if completed >= 2:
                        break
                time.sleep(0.02)
            assert completed >= 2, "child made no durable progress"
            child.kill()  # SIGKILL: no handlers, no cleanup
            child.wait(timeout=30)
        finally:
            if child.poll() is None:  # pragma: no cover
                child.kill()
                child.wait()

        (run_dir,) = list_runs(fingerprint=grid_fingerprint(pts))
        interrupted = summarize_events(read_run_events(run_dir))
        assert interrupted["status"] is None  # killed: no end trailer
        assert interrupted["missing"], "child must not have finished"

        report, journal = run_sweep(pts, **_config(),
                                    resume=True, fault_plan=FaultPlan())
        assert journal.run_dir == run_dir and journal.segment == 2
        # Bit-identical to an uninterrupted (serial, fault-free) run.
        ref = _ref_states(pts)
        assert len(report.results) == len(pts)
        for result in report:
            assert result.stats.state_dict() == ref[result.point.key()]
        # Exactly-once across the joined segments: the journal-completed
        # points replayed silently, everything else got one terminal.
        summary = summarize_events(read_run_events(run_dir))
        assert summary["total"] == len(pts)
        assert summary["completed"] == len(pts)
        assert summary["failed"] == 0
        assert summary["missing"] == [] and summary["duplicates"] == []
        assert summary["segments"] == 2 and summary["status"] == "ok"
        # Only non-completed points were re-entered.
        segment2 = read_events(journal.segment_path(2))
        rescheduled = {e["index"] for e in segment2
                       if e["event"] == "scheduled"}
        prior = {e["index"] for e in read_events(
            journal.segment_path(1)) if e["event"] == "completed"}
        assert not (rescheduled & prior)


# ----------------------------------------------------------------------
# Durable journal appends
# ----------------------------------------------------------------------
def _journal_fails_on_append(monkeypatch, n):
    """Make every fsync'd JsonlEventLog (the run journal) raise ENOSPC
    on its ``n``-th append; best-effort logs are untouched."""
    original = JsonlEventLog.__call__
    appends = []

    def flaky(self, event):
        if self.fsync:
            appends.append(event["event"])
            if len(appends) == n:
                raise OSError(errno.ENOSPC, "No space left on device")
        return original(self, event)

    monkeypatch.setattr(JsonlEventLog, "__call__", flaky)


class TestDurableJournal:
    def test_failed_append_fails_the_run_and_reaps_workers(
            self, cache_dir, fake_executor, monkeypatch):
        # Appends: begin, scheduled #0, scheduled #1 — the third fails
        # while worker #0 is in flight.
        _journal_fails_on_append(monkeypatch, 3)
        seen = []
        with pytest.raises(JournalError, match="No space left"):
            run_sweep(_points(4), **_config(jobs=2), events=seen.append,
                      fault_plan=FaultPlan())
        assert multiprocessing.active_children() == []
        # The best-effort sink still receives the trailer.
        assert seen[-1]["event"] == "end"
        assert seen[-1]["status"] == "failed"

    def test_cli_reports_failed_append(self, cache_dir, fake_executor,
                                       monkeypatch, capsys):
        _journal_fails_on_append(monkeypatch, 3)
        rc = main(["sweep", WORKLOAD, "--prefetchers", "eip",
                   "--scale", "tiny"])
        assert rc != 0
        assert "run journal append failed" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Disk-space guard
# ----------------------------------------------------------------------
class TestDiskGuard:
    def test_write_refused_when_volume_nearly_full(self, cache_dir,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MIN_FREE", str(2**62))
        cache = diskcache.DiskCache(cache_dir / "guarded")
        assert cache.put("k", {"schema": 1, "key": "k"}) is False
        assert cache.get("k") is None  # nothing was written
        assert len(cache) == 0
        assert cache.refused_writes == 1

    def test_refusal_counts_separately_from_corruption(self, cache_dir,
                                                       monkeypatch):
        runner.reset_run_cache_stats()
        monkeypatch.setenv("REPRO_CACHE_MIN_FREE", str(2**62))
        diskcache.get_cache().put("k", {"schema": 1})
        stats = runner.run_cache_stats().kinds["result"]
        assert stats.refused == 1
        assert stats.corrupt == 0

    def test_guard_disabled_with_zero_floor(self, cache_dir,
                                            monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MIN_FREE", "0")
        cache = diskcache.get_cache()
        cache.put("k", {"schema": 1, "key": "k"})
        assert cache.get("k") == {"schema": 1, "key": "k"}

    def test_stats_report_free_space(self, cache_dir):
        stats = diskcache.get_cache().stats()
        assert stats["free_bytes"] is None or stats["free_bytes"] >= 0
        assert stats["min_free_bytes"] == \
            diskcache.DEFAULT_MIN_FREE_BYTES


# ----------------------------------------------------------------------
# Live tailing
# ----------------------------------------------------------------------
class TestFollow:
    def test_follow_sees_live_appends_and_stops_at_end(self, tmp_path):
        path = tmp_path / "live.jsonl"
        events = [{"seq": i, "event": "scheduled"} for i in range(1, 4)]
        events.append({"seq": 4, "event": "end"})

        def writer():
            with JsonlEventLog(path) as log:
                for event in events:
                    log(event)
                    time.sleep(0.02)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            seen = list(follow_events(path, poll=0.01, timeout=20.0))
        finally:
            thread.join()
        assert seen == events

    def test_follow_times_out_without_end(self, tmp_path):
        path = tmp_path / "live.jsonl"
        path.write_text('{"seq": 1, "event": "begin"}\n')
        seen = list(follow_events(path, poll=0.01, timeout=0.05))
        assert seen == [{"seq": 1, "event": "begin"}]


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCli:
    def test_flag_grid_interrupt_then_resume_exactly_once(
            self, cache_dir, tmp_path, monkeypatch, capsys):
        """A grid built from flags is journaled like a manifest: it
        streams --events, drains on SIGTERM, and --resume finishes it
        with one terminal record per point."""
        events = tmp_path / "events.jsonl"
        argv = ["sweep", WORKLOAD, "--prefetchers", "eip",
                "--scale", "tiny", "--jobs", "2", "--events", str(events)]
        monkeypatch.setenv("REPRO_FAULT_PLAN", json.dumps(
            {"faults": [{"kind": "parent_signal", "point": 1,
                         "signum": int(signal.SIGTERM)}]}))
        assert main(argv) == 128 + signal.SIGTERM
        assert "--resume" in capsys.readouterr().err
        first = summarize_events(read_events(events))
        assert first["status"] == "interrupted"
        assert first["completed"] >= 1

        monkeypatch.delenv("REPRO_FAULT_PLAN")
        assert main(argv + ["--resume"]) == 0
        assert "resumed:" in capsys.readouterr().out
        (run_dir,) = list_runs()
        summary = summarize_events(read_run_events(run_dir))
        assert summary["segments"] == 2 and summary["status"] == "ok"
        assert summary["total"] == summary["completed"] == 2
        assert summary["missing"] == [] and summary["duplicates"] == []

    def test_resume_requires_service_mode(self, cache_dir, capsys):
        """--resume needs no --manifest: a flag-built grid reaches the
        run journal, which reports that no run of this grid exists."""
        assert main(["sweep", WORKLOAD, "--resume"]) == 2
        err = capsys.readouterr().err
        assert "no resumable run" in err
        assert "--resume requires" not in err

    def test_resume_rejects_no_cache(self, tmp_path, capsys):
        manifest = tmp_path / "m.toml"
        manifest.write_text('[sweep]\nworkloads = ["mysql_sibench"]\n')
        assert main(["sweep", "--manifest", str(manifest),
                     "--resume", "--no-cache"]) == 2
        assert "disk cache" in capsys.readouterr().err

    def test_no_cache_writes_no_run_journal(
            self, cache_dir, fake_executor, tmp_path, monkeypatch, capsys):
        """With the cache off no run could ever resume, so a --no-cache
        sweep leaves nothing under the run-journal root."""
        runs = tmp_path / "runs"
        runs.mkdir()
        monkeypatch.setenv("REPRO_RUN_DIR", str(runs))
        assert main(["sweep", WORKLOAD, "--prefetchers", "eip",
                     "--scale", "tiny", "--no-cache"]) == 0
        assert list(runs.iterdir()) == []
        out = capsys.readouterr().out
        assert "run journal" not in out
        assert "mysql_sibench/eip" in out
        # Interrupted, it has nothing to offer for --resume.
        monkeypatch.setenv("REPRO_FAULT_PLAN", json.dumps(
            {"faults": [{"kind": "parent_signal", "point": 1,
                         "signum": int(signal.SIGTERM)}]}))
        assert main(["sweep", WORKLOAD, "--prefetchers", "eip",
                     "--scale", "tiny", "--no-cache"]) == \
            128 + signal.SIGTERM
        err = capsys.readouterr().err
        assert "nothing journaled (--no-cache)" in err
        assert "--resume" not in err
        assert list(runs.iterdir()) == []
        monkeypatch.delenv("REPRO_FAULT_PLAN")
        # The same grid with the cache on is journaled there.
        assert main(["sweep", WORKLOAD, "--prefetchers", "eip",
                     "--scale", "tiny"]) == 0
        assert len(list(runs.iterdir())) == 1

    def test_resume_without_prior_run_fails_cleanly(
            self, cache_dir, tmp_path, capsys):
        manifest = tmp_path / "m.toml"
        manifest.write_text('[sweep]\nworkloads = ["mysql_sibench"]\n'
                            'scale = "tiny"\n')
        assert main(["sweep", "--manifest", str(manifest),
                     "--resume"]) == 2
        assert "no resumable run" in capsys.readouterr().err

    def test_manifest_events_reads_run_directory(
            self, cache_dir, fake_executor, capsys):
        pts = _points(4)
        _report, journal = run_sweep(pts, **_config(),
                                     fault_plan=FaultPlan())
        assert main(["manifest", "events", str(journal.run_dir),
                     "--check"]) == 0
        out = capsys.readouterr().out
        assert "status:    ok" in out

    def test_events_check_fails_on_duplicates(self, tmp_path, capsys):
        stream = tmp_path / "dup.jsonl"
        with JsonlEventLog(stream) as log:
            log({"seq": 1, "event": "begin", "total": 1})
            log({"seq": 2, "event": "completed", "index": 0,
                 "source": "sim"})
            log({"seq": 3, "event": "completed", "index": 0,
                 "source": "sim"})
            log({"seq": 4, "event": "end", "status": "ok"})
        assert main(["manifest", "events", str(stream), "--check"]) == 1
        assert "DUPLICATE" in capsys.readouterr().out

    def test_manifest_events_follow(self, tmp_path, capsys):
        stream = tmp_path / "f.jsonl"
        with JsonlEventLog(stream) as log:
            log({"seq": 1, "event": "begin", "total": 0})
            log({"seq": 2, "event": "end", "status": "ok"})
        assert main(["manifest", "events", str(stream),
                     "--follow"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [json.loads(line)["event"] for line in lines] == \
            ["begin", "end"]

    def test_cache_info_shows_free_space(self, cache_dir, capsys):
        assert main(["cache", "info"]) == 0
        assert "free" in capsys.readouterr().out
