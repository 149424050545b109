"""Fault injection and the fault-tolerant sweep engine.

The resilience ISSUE's acceptance criteria: a sweep with injected
worker crashes, hangs beyond ``point_timeout``, and corrupted cache
entries completes under ``keep_going``, and every surviving point's
SimStats are bit-identical to a fault-free run.
"""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import diskcache, runner
from repro.experiments.errors import (
    PointFailure,
    PointTimeoutError,
    TransientError,
    WorkerCrashError,
    backoff_delay,
)
from repro.experiments.faults import (
    BITFLIP,
    CRASH,
    CRASH_EXIT_CODE,
    ERROR,
    HANG,
    PARENT_SIGNAL,
    TORN_JOURNAL,
    TRUNCATE,
    Fault,
    FaultPlan,
    corrupt_file,
)
from repro.experiments.sweep import SweepPoint, SweepReport, sweep

WORKLOAD = "mysql_sibench"
EIP_LABEL = f"{WORKLOAD}/eip"


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
    """Fault-free reference states (computed once, cache-independent).

    The explicit empty plan suppresses any ambient ``REPRO_FAULT_PLAN``
    (the CI chaos job runs this suite under one).
    """
    global _CLEAN
    if _CLEAN is None:
        report = sweep(_points(), use_cache=False, progress=None,
                       fault_plan=FaultPlan())
        assert report.ok
        _CLEAN = _states(report)
    return _CLEAN


# ----------------------------------------------------------------------
# Plan parsing and targeting
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan([
            Fault(CRASH, EIP_LABEL, times=1),
            Fault(HANG, 3, seconds=7.5),
            Fault(BITFLIP, "beego/mana", offset=12),
        ])
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.faults == plan.faults

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault("meltdown", 0)

    def test_bad_times_rejected(self):
        with pytest.raises(ValueError, match="times"):
            Fault(CRASH, 0, times=0)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown fault field"):
            FaultPlan.from_spec(
                {"faults": [{"kind": "crash", "point": 0, "blast": 9}]})

    def test_missing_point_rejected(self):
        with pytest.raises(ValueError, match="'kind' and 'point'"):
            FaultPlan.from_spec({"faults": [{"kind": "crash"}]})

    def test_matches_by_index_and_label(self):
        fault = Fault(CRASH, EIP_LABEL)
        assert fault.matches(5, EIP_LABEL, attempt=1)
        assert not fault.matches(5, "beego/eip", attempt=1)
        by_index = Fault(CRASH, 5)
        assert by_index.matches(5, "anything", attempt=1)
        assert not by_index.matches(4, "anything", attempt=1)

    def test_times_bounds_attempts(self):
        fault = Fault(ERROR, 0, times=2)
        assert fault.matches(0, "x", attempt=1)
        assert fault.matches(0, "x", attempt=2)
        assert not fault.matches(0, "x", attempt=3)
        persistent = Fault(ERROR, 0)
        assert persistent.matches(0, "x", attempt=99)

    def test_from_env_inline(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", json.dumps(
            {"faults": [{"kind": "crash", "point": EIP_LABEL}]}))
        plan = FaultPlan.from_env()
        assert len(plan) == 1 and plan.faults[0].kind == CRASH

    def test_from_env_file(self, monkeypatch, tmp_path):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(
            {"faults": [{"kind": "hang", "point": 2, "seconds": 1.5}]}))
        monkeypatch.setenv("REPRO_FAULT_PLAN", str(plan_file))
        plan = FaultPlan.from_env()
        assert plan.faults[0].seconds == 1.5

    def test_from_env_absent(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        assert FaultPlan.from_env() is None

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan([Fault(CRASH, 0)])


class TestBackoff:
    def test_deterministic(self):
        a = backoff_delay(2, 0.25, "token")
        assert a == backoff_delay(2, 0.25, "token")

    def test_exponential_envelope(self):
        for attempt in (1, 2, 3):
            delay = backoff_delay(attempt, 0.1, "k")
            lo = 0.1 * 2 ** (attempt - 1) * 0.5
            hi = 0.1 * 2 ** (attempt - 1) * 1.5
            assert lo <= delay < hi

    def test_jitter_varies_by_token(self):
        assert backoff_delay(1, 0.1, "a") != backoff_delay(1, 0.1, "b")

    def test_zero_base_disables(self):
        assert backoff_delay(5, 0.0, "k") == 0.0

    def test_cap(self):
        assert backoff_delay(30, 1.0, "k", cap=3.0) == 3.0


# ----------------------------------------------------------------------
# In-process sweeps: injected failures, retry policy, report shape
# ----------------------------------------------------------------------
class TestSerialFaults:
    def test_flaky_crash_then_succeeds_bit_identical(self, cache_dir):
        plan = FaultPlan([Fault(CRASH, EIP_LABEL, times=1)])
        report = sweep(_points(), use_cache=False, progress=None,
                       fault_plan=plan, max_retries=2, backoff_base=0.0)
        assert report.ok
        assert _states(report) == _clean_states()

    def test_persistent_crash_keep_going(self, cache_dir):
        plan = FaultPlan([Fault(CRASH, EIP_LABEL)])
        report = sweep(_points(), use_cache=False, progress=None,
                       fault_plan=plan, max_retries=1, backoff_base=0.0,
                       keep_going=True)
        assert not report.ok
        assert [r.point.label for r in report] == [f"{WORKLOAD}/fdip"]
        (failure,) = report.failures
        assert failure.kind == "crash"
        assert failure.label == EIP_LABEL
        assert failure.attempts == 2  # first try + one retry
        # The surviving point is still bit-identical to a clean run.
        assert _states(report) == _clean_states()[:1]

    def test_fail_fast_raises_point_failure(self, cache_dir):
        plan = FaultPlan([Fault(CRASH, EIP_LABEL)])
        with pytest.raises(PointFailure, match="crash after 2 attempts"):
            sweep(_points(), use_cache=False, progress=None,
                  fault_plan=plan, max_retries=1, backoff_base=0.0)

    def test_injected_transient_retried(self, cache_dir):
        plan = FaultPlan([Fault(ERROR, EIP_LABEL, times=2)])
        report = sweep(_points(), use_cache=False, progress=None,
                       fault_plan=plan, max_retries=2, backoff_base=0.0)
        assert report.ok
        assert _states(report) == _clean_states()

    def test_serial_hang_maps_to_timeout(self, cache_dir):
        plan = FaultPlan([Fault(HANG, EIP_LABEL)])
        report = sweep(_points(), use_cache=False, progress=None,
                       fault_plan=plan, max_retries=0, backoff_base=0.0,
                       keep_going=True, point_timeout=1.0)
        (failure,) = report.failures
        assert failure.kind == "timeout"

    def test_zero_retries_single_attempt(self, cache_dir):
        plan = FaultPlan([Fault(CRASH, EIP_LABEL, times=1)])
        report = sweep(_points(), use_cache=False, progress=None,
                       fault_plan=plan, max_retries=0, backoff_base=0.0,
                       keep_going=True)
        (failure,) = report.failures
        assert failure.attempts == 1

    def test_env_plan_drives_sweep(self, cache_dir, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", json.dumps(
            {"faults": [{"kind": "crash", "point": EIP_LABEL}]}))
        report = sweep(_points(), use_cache=False, progress=None,
                       max_retries=0, backoff_base=0.0, keep_going=True)
        assert [f.label for f in report.failures] == [EIP_LABEL]


# ----------------------------------------------------------------------
# Worker-process sweeps: real crashes, real hangs, supervision
# ----------------------------------------------------------------------
class TestParallelFaults:
    def test_real_worker_crash_retries_and_recovers(self, cache_dir):
        plan = FaultPlan([Fault(CRASH, EIP_LABEL, times=1)])
        report = sweep(_points(), jobs=2, use_cache=False, progress=None,
                       fault_plan=plan, max_retries=2, backoff_base=0.01)
        assert report.ok
        assert _states(report) == _clean_states()

    def test_persistent_worker_crash_records_exit_code(self, cache_dir):
        plan = FaultPlan([Fault(CRASH, EIP_LABEL)])
        report = sweep(_points(), jobs=2, use_cache=False, progress=None,
                       fault_plan=plan, max_retries=1, backoff_base=0.01,
                       keep_going=True)
        (failure,) = report.failures
        assert failure.kind == "crash"
        assert failure.attempts == 2
        assert str(CRASH_EXIT_CODE) in failure.message
        assert _states(report) == _clean_states()[:1]

    def test_hang_beyond_timeout_killed_then_recovers(self, cache_dir):
        # Attempt 1 sleeps 60s and is terminated at point_timeout;
        # attempt 2 runs clean.  The timeout is generous enough that
        # the genuinely-simulating sibling point never trips it.
        plan = FaultPlan([Fault(HANG, EIP_LABEL, times=1, seconds=60.0)])
        report = sweep(_points(), jobs=2, use_cache=False, progress=None,
                       fault_plan=plan, max_retries=1, backoff_base=0.01,
                       point_timeout=5.0)
        assert report.ok
        assert _states(report) == _clean_states()

    def test_persistent_hang_fails_after_retries(self, cache_dir):
        # Single-point sweep: only the hanging worker is under the
        # (tight) timeout, so slow machines cannot false-positive.
        plan = FaultPlan([Fault(HANG, EIP_LABEL, seconds=60.0)])
        report = sweep([SweepPoint(WORKLOAD, "eip", scale="tiny")],
                       jobs=2, use_cache=False, progress=None,
                       fault_plan=plan, max_retries=1, backoff_base=0.01,
                       point_timeout=1.0, keep_going=True)
        assert len(report) == 0
        (failure,) = report.failures
        assert failure.kind == "timeout"
        assert failure.attempts == 2

    def test_parallel_faulted_report_deterministic(self, cache_dir):
        plan = FaultPlan([Fault(CRASH, EIP_LABEL, times=1)])
        first = sweep(_points(), jobs=2, use_cache=False, progress=None,
                      fault_plan=plan, max_retries=1, backoff_base=0.01)
        second = sweep(_points(), jobs=2, use_cache=False, progress=None,
                       fault_plan=plan, max_retries=1, backoff_base=0.01)
        assert _states(first) == _states(second)
        assert [r.point for r in first] == [r.point for r in second]


# ----------------------------------------------------------------------
# Cache corruption: pre-existing and injected
# ----------------------------------------------------------------------
class TestCacheCorruption:
    def test_pre_corrupted_entry_resimulated_bit_identical(self, cache_dir):
        clean = sweep(_points(), progress=None, fault_plan=FaultPlan())
        assert clean.ok and len(diskcache.get_cache()) == 2
        # Tear the eip entry as a crashed writer would have.
        eip_path = diskcache.get_cache().path_for(_points()[1].key())
        assert corrupt_file(eip_path, TRUNCATE)
        runner.clear_run_cache()  # memory gone; disk has 1 good + 1 bad
        runner.reset_run_cache_stats()
        report = sweep(_points(), progress=None, fault_plan=FaultPlan())
        assert report.ok
        assert _states(report) == _states(clean)
        by_label = {r.point.label: r.source for r in report}
        assert by_label[f"{WORKLOAD}/fdip"] == "disk"
        assert by_label[EIP_LABEL] == "sim"  # quarantined, re-simulated
        s = runner.run_cache_stats()
        assert s.cache_corrupt == 1
        assert list(diskcache.get_cache().quarantined())

    def test_injected_cache_fault_corrupts_after_store(self, cache_dir):
        plan = FaultPlan([Fault(BITFLIP, EIP_LABEL, offset=100)])
        first = sweep(_points(), progress=None, fault_plan=plan)
        assert first.ok  # corruption lands after the result is returned
        runner.clear_run_cache()
        runner.reset_run_cache_stats()
        report = sweep(_points(), progress=None, fault_plan=FaultPlan())
        assert report.ok
        assert _states(report) == _states(first)
        assert runner.run_cache_stats().cache_corrupt == 1

    def test_parallel_worker_injects_cache_fault(self, cache_dir):
        plan = FaultPlan([Fault(TRUNCATE, EIP_LABEL)])
        first = sweep(_points(), jobs=2, progress=None, fault_plan=plan)
        assert first.ok
        runner.clear_run_cache()
        runner.reset_run_cache_stats()
        report = sweep(_points(), progress=None, fault_plan=FaultPlan())
        assert report.ok
        assert _states(report) == _states(first)
        assert runner.run_cache_stats().cache_corrupt == 1


# ----------------------------------------------------------------------
# Report ergonomics
# ----------------------------------------------------------------------
class TestSweepReport:
    def test_iterates_like_the_old_result_list(self, cache_dir):
        report = sweep(_points(), progress=None, fault_plan=FaultPlan())
        assert isinstance(report, SweepReport)
        assert len(report) == 2
        assert [r.point for r in report] == _points()
        assert report.ok

    def test_raise_if_failed(self, cache_dir):
        report = sweep(_points(), progress=None, fault_plan=FaultPlan())
        assert report.raise_if_failed() is report
        plan = FaultPlan([Fault(CRASH, EIP_LABEL)])
        failed = sweep(_points(), use_cache=False, progress=None,
                       fault_plan=plan, max_retries=0, backoff_base=0.0,
                       keep_going=True)
        with pytest.raises(PointFailure):
            failed.raise_if_failed()

    def test_failure_taxonomy_mapping(self):
        crash = PointFailure.from_error(
            "w/p", 0, WorkerCrashError("died", exitcode=-9), 3)
        assert crash.kind == "crash" and crash.attempts == 3
        timeout = PointFailure.from_error(
            "w/p", 1, PointTimeoutError("slow", timeout=5.0), 1)
        assert timeout.kind == "timeout"
        flaky = PointFailure.from_error("w/p", 2, TransientError("eh"), 2)
        assert flaky.kind == "transient"
        hard = PointFailure.from_error("w/p", 3, ValueError("bad"), 1)
        assert hard.kind == "error"


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestSweepCLI:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.max_retries == 2
        assert args.point_timeout is None
        assert not args.keep_going

    def test_parser_flags(self):
        args = build_parser().parse_args(
            ["sweep", "beego", "--max-retries", "5",
             "--point-timeout", "30", "--keep-going"])
        assert args.max_retries == 5
        assert args.point_timeout == 30.0
        assert args.keep_going

    def test_keep_going_exits_nonzero_with_partial_results(
            self, cache_dir, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FAULT_PLAN", json.dumps(
            {"faults": [{"kind": "crash", "point": EIP_LABEL}]}))
        rc = main(["sweep", WORKLOAD, "--prefetchers", "eip",
                   "--scale", "tiny", "--no-cache", "--max-retries", "1",
                   "--keep-going"])
        assert rc == 1
        captured = capsys.readouterr()
        assert f"{WORKLOAD}/fdip" in captured.out  # survivor reported
        assert "FAIL" in captured.err
        assert "crash" in captured.err

    def test_fail_fast_aborts_nonzero(self, cache_dir, monkeypatch,
                                      capsys):
        monkeypatch.setenv("REPRO_FAULT_PLAN", json.dumps(
            {"faults": [{"kind": "crash", "point": EIP_LABEL}]}))
        rc = main(["sweep", WORKLOAD, "--prefetchers", "eip",
                   "--scale", "tiny", "--no-cache", "--max-retries", "0"])
        assert rc == 1
        assert "sweep aborted" in capsys.readouterr().err

    def test_point_timeout_needs_worker_processes(self, capsys):
        # In-process points cannot be killed, so a timeout with --jobs 1
        # would go silently unenforced: refuse it as a usage error.
        rc = main(["sweep", WORKLOAD, "--prefetchers", "eip",
                   "--scale", "tiny", "--point-timeout", "5"])
        assert rc == 2
        assert "--point-timeout needs --jobs >= 2" in \
            capsys.readouterr().err

    def test_clean_sweep_exits_zero(self, cache_dir, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        rc = main(["sweep", WORKLOAD, "--prefetchers", "eip",
                   "--scale", "tiny", "--keep-going"])
        assert rc == 0
        assert "2/2 points" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Supervisor- and journal-layer fault kinds (run-level self-healing)
# ----------------------------------------------------------------------
class TestSchedulerFaults:
    def test_spec_round_trip_carries_layer_fields(self):
        plan = FaultPlan([
            Fault(PARENT_SIGNAL, 5, signum=2),
            Fault(TORN_JOURNAL, 1),
        ])
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.faults == plan.faults
        specs = {f.kind: f.to_spec() for f in clone.faults}
        assert specs[PARENT_SIGNAL]["signum"] == 2
        assert "seconds" not in specs[TORN_JOURNAL]

    def test_layer_kinds_require_integer_targets(self):
        for kind in (PARENT_SIGNAL, TORN_JOURNAL):
            with pytest.raises(ValueError, match="integer"):
                Fault(kind, EIP_LABEL)

    def test_parent_signal_fault_matches_resolved_count(self):
        plan = FaultPlan([Fault(PARENT_SIGNAL, 3, signum=15)])
        assert plan.parent_signal_fault(3).signum == 15
        assert plan.parent_signal_fault(2) is None
        assert plan.parent_signal_fault(4) is None

    def test_journal_faults_match_segment(self):
        plan = FaultPlan([Fault(TORN_JOURNAL, 1),
                          Fault(TORN_JOURNAL, 2),
                          Fault(PARENT_SIGNAL, 1)])
        assert len(plan.journal_faults(1)) == 1
        assert len(plan.journal_faults(2)) == 1
        assert plan.journal_faults(3) == ()

    def test_layer_faults_never_match_exec_or_cache(self):
        plan = FaultPlan([Fault(PARENT_SIGNAL, 0), Fault(TORN_JOURNAL, 0)])
        assert plan.exec_fault(0, EIP_LABEL, attempt=1) is None
        assert plan.cache_faults(0, EIP_LABEL, attempt=1) == ()
