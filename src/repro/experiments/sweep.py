"""The sweep engine: fault-tolerant evaluation of (workload × prefetcher ×
config) points.

:meth:`~repro.experiments.runner.SweepPoint.run` evaluates one point;
the full §6 grid is hundreds of points that are completely
independent.  :func:`sweep` is the one engine that runs such a grid —
for library callers, the figure scripts, and (through
:func:`repro.experiments.journal.run_sweep`) every ``repro sweep``.
It is a single synchronous supervision loop that runs each attempt of
each pending point either in its own worker process (``jobs >= 2``) or
in the calling process (``jobs == 1``).  Workers share the on-disk
result cache (:mod:`repro.experiments.diskcache`), so a sweep only
pays for points nobody has simulated yet, and its results are visible
to every later process.

Guarantees:

* **Determinism** — a point is fully described by its
  :class:`SweepPoint` and the simulator is deterministic, so worker
  scheduling — and retries after injected or real failures — cannot
  change any counter (asserted by tests/test_determinism.py and
  tests/test_faults.py).
* **Order** — results come back in input order regardless of which
  worker finishes first.  Workers are handed points *trace-first*: the
  first pending point of every distinct (workload, scale, seed) trace
  before the second point of any, so concurrent workers build
  different traces and later points load them from the trace store
  (:func:`repro.experiments.runner.get_trace`).
* **Isolation** — with ``jobs >= 2`` every attempt runs in a fresh
  worker process supervised by the parent: a crashed worker (kind
  ``crash``) or one exceeding ``point_timeout`` (kind ``timeout``)
  costs that point one attempt, never the grid.  With ``jobs == 1``
  nothing can kill a running point: ``point_timeout`` is not enforced
  and injected crashes and hangs map straight to those kinds.  Crashes,
  timeouts and transient faults are retried up to ``max_retries`` times
  with exponential backoff and deterministic jitter
  (:func:`repro.experiments.errors.backoff_delay`).
* **Partial results** — :func:`sweep` returns a :class:`SweepReport`.
  Under ``keep_going=True`` every completed point survives alongside a
  :class:`~repro.experiments.errors.PointFailure` record per dead one;
  under the default fail-fast policy the first terminal failure is
  raised (after all attempts) and in-flight workers are reaped.
* **Observability** — with ``events=``, the event stream of
  :mod:`repro.experiments.events`: one record per scheduling decision,
  the only record of each point's outcome.  Its
  :class:`~repro.experiments.events.ProgressLines` sink prints one
  console line per resolved point (``[ 3/12] beego/mana  sim  1.82s``);
  without sinks a sweep prints nothing.
* **Graceful shutdown** — a :class:`~repro.experiments.events.
  ShutdownRequest` (or, with ``handle_signals=True``, SIGINT/SIGTERM)
  drains the loop: in-flight workers are reaped, completed points are
  kept, the stream gets ``end{status=interrupted}``, and
  :class:`~repro.experiments.errors.SweepInterrupted` carries the
  partial report out.

Fault injection: a :class:`~repro.experiments.faults.FaultPlan`
(explicit ``fault_plan=`` or the ``REPRO_FAULT_PLAN`` environment
variable) deterministically injects worker crashes, hangs, transient
errors, cache corruption and parent signals at chosen points — see
docs/RESILIENCE.md.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.cpu.stats import SimStats
from repro.experiments import faults as faults_mod
from repro.experiments import runner
from repro.experiments.errors import (
    PointFailure,
    SweepInterrupted,
    backoff_delay,
)
from repro.experiments.faults import FaultPlan
from repro.experiments.runner import SweepPoint
from repro.experiments.events import EventSink, ShutdownRequest, _Emitter
from repro.prefetchers import PAPER_PREFETCHERS as DEFAULT_PREFETCHERS

#: Retries per point after the first attempt (crash/hang/transient
#: failures only; deterministic simulation errors are never retried).
DEFAULT_MAX_RETRIES = 2

#: First-retry backoff in seconds (doubles per retry, jittered).
DEFAULT_BACKOFF = 0.25

#: Parent-side poll period while supervising workers.
_POLL_SECONDS = 0.01

#: Failure kinds that cost an attempt, not the point: a retry may pass.
#: ``error`` (an exception from the deterministic simulation) is final.
_RETRIED_KINDS = ("crash", "timeout", "transient")


@dataclasses.dataclass
class SweepResult:
    """A completed point with provenance and timing."""

    point: SweepPoint
    stats: SimStats
    miss_map: Optional[dict]
    seconds: float
    source: str  # "memory" | "disk" | "sim"


@dataclasses.dataclass
class SweepReport:
    """Everything a sweep produced: completed results plus a failure
    record per point that exhausted its retries.

    Iterates (and ``len()``s) over the *results*, so fault-free callers
    can keep treating the return value as the old result list.
    """

    results: List[SweepResult]
    failures: List[PointFailure]

    @property
    def ok(self) -> bool:
        return not self.failures

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def raise_if_failed(self) -> "SweepReport":
        """Raise the first :class:`PointFailure` when any point died;
        returns self otherwise (chainable)."""
        if self.failures:
            raise self.failures[0]
        return self


def grid(
    workloads: Sequence[str],
    prefetchers: Sequence[Optional[str]] = DEFAULT_PREFETCHERS,
    include_baseline: bool = True,
    **common,
) -> List[SweepPoint]:
    """Cross ``workloads × prefetchers`` into sweep points.

    ``common`` forwards to every :class:`SweepPoint` (scale, seed,
    warmup, overrides...).  ``include_baseline`` prepends the FDIP
    point per workload so comparisons never re-simulate it serially.
    """
    points: List[SweepPoint] = []
    for w in workloads:
        if include_baseline:
            points.append(SweepPoint(w, None, **common))
        for name in prefetchers:
            if name in (None, "fdip"):
                continue
            points.append(SweepPoint(w, name, **common))
    return points


# ----------------------------------------------------------------------
# One attempt
# ----------------------------------------------------------------------
def _execute(point: SweepPoint, index: int, attempt: int, use_cache: bool,
             plan: Optional[FaultPlan], in_process: bool) -> Tuple:
    """Run one attempt of one point and return its outcome tuple.

    Outcomes: ``("ok", state_dict, miss_map, elapsed)``, or a failure
    ``(kind, message)``: ``("transient", ...)`` for injected flaky
    faults, ``("error", ...)`` for a real (deterministic,
    non-retryable) exception from the simulation.  In a worker process
    an injected crash exits hard and an injected hang sleeps first,
    relying on the parent's ``point_timeout`` supervision; in-process,
    where nothing supervises the point, they return ``("crash", ...)``
    and ``("timeout", ...)`` instead.
    """
    fault = plan.exec_fault(index, point.label, attempt) if plan else None
    if fault is not None:
        if fault.kind == faults_mod.CRASH:
            if in_process:
                return ("crash", f"injected crash at {point.label}")
            os._exit(faults_mod.CRASH_EXIT_CODE)
        if fault.kind == faults_mod.HANG:
            if in_process:
                return ("timeout", f"injected hang at {point.label}")
            time.sleep(fault.seconds)
        else:
            return ("transient",
                    f"injected transient fault at {point.label}")
    start = time.perf_counter()
    try:
        stats, miss_map = runner.simulate_point(point, use_cache)
    except Exception as exc:
        return ("error", f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    if plan and use_cache:
        plan.corrupt_cache_entries(index, point.label, attempt, point.key())
    return ("ok", stats.state_dict(), miss_map, elapsed)


def _point_process(conn, index: int, attempt: int, point: SweepPoint,
                   use_cache: bool, plan_json: Optional[str]) -> None:
    """Entry point of a per-point worker process: sends exactly one
    :func:`_execute` outcome back through ``conn`` (unless an injected
    crash kills the process first)."""
    # The parent owns shutdown.  A terminal Ctrl-C reaches the whole
    # process group, and terminate() must kill the worker even when
    # the parent's SIGTERM handler was inherited through fork.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    plan = FaultPlan.from_json(plan_json) if plan_json else None
    conn.send(_execute(point, index, attempt, use_cache, plan,
                       in_process=False))
    conn.close()


@dataclasses.dataclass
class _Live:
    """A worker currently executing one attempt of one point."""

    proc: multiprocessing.Process
    conn: object
    index: int
    label: str
    attempt: int
    started: float


def _spawn(ctx, point: SweepPoint, index: int, attempt: int,
           use_cache: bool, plan_json: Optional[str]) -> _Live:
    recv_conn, send_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_point_process,
        args=(send_conn, index, attempt, point, use_cache, plan_json),
        daemon=True,
    )
    proc.start()
    send_conn.close()
    return _Live(proc, recv_conn, index, point.label, attempt,
                 time.monotonic())


def _reap(live: _Live,
          point_timeout: Optional[float]) -> Optional[Tuple]:
    """Poll one worker; returns its outcome tuple or None if still
    running.

    Outcomes: the worker's own :func:`_execute` outcome, or a
    parent-detected ``("crash", message)`` / ``("timeout", message)``.
    """
    # Liveness *before* the pipe check closes the exit race: once the
    # process is observably dead, anything it sent is already buffered.
    alive = live.proc.is_alive()
    if live.conn.poll():
        try:
            message = live.conn.recv()
        except (EOFError, OSError):
            message = None
        live.proc.join()
        live.conn.close()
        return message if message is not None else _crashed(live)
    if not alive:
        live.proc.join()
        live.conn.close()
        return _crashed(live)
    if point_timeout is not None and \
            time.monotonic() - live.started > point_timeout:
        live.proc.terminate()
        live.proc.join(5.0)
        if live.proc.is_alive():  # pragma: no cover - stuck in a syscall
            live.proc.kill()
            live.proc.join()
        live.conn.close()
        return ("timeout", f"{live.label} exceeded point timeout "
                           f"({point_timeout:.1f}s)")
    return None


def _crashed(live: _Live) -> Tuple[str, str]:
    return ("crash", f"worker for {live.label} died "
                     f"(exit code {live.proc.exitcode})")


def _reap_all(live: List[_Live]) -> None:
    """Terminate and join in-flight workers (fail-fast, shutdown, or an
    unexpected parent error) so no orphan keeps simulating."""
    for worker in live:
        worker.proc.terminate()
    for worker in live:
        worker.proc.join(5.0)
        if worker.proc.is_alive():  # pragma: no cover
            worker.proc.kill()
            worker.proc.join()
        try:
            worker.conn.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class _Supervisor:
    """One sweep's bookkeeping: results, failures, the retry queue and
    the event stream."""

    def __init__(self, points: List[SweepPoint], keep_going: bool,
                 emit: _Emitter, plan: Optional[FaultPlan],
                 max_retries: int, backoff_base: float,
                 use_cache: bool, in_process: bool):
        self.points = points
        self.results: List[Optional[SweepResult]] = [None] * len(points)
        self.failures: Dict[int, PointFailure] = {}
        self.keep_going = keep_going
        self.emit = emit
        self.plan = plan
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.use_cache = use_cache
        self.in_process = in_process
        #: (ready_at, rank, index, attempt): ready_at is a monotonic
        #: timestamp; retries re-enter with their backoff deadline.
        self.waiting: List[Tuple[float, int, int, int]] = []
        #: Dispatch rank per pending index (see :meth:`run`).
        self.rank: Dict[int, int] = {}
        #: Terminal outcomes resolved by the loop (parent-signal
        #: faults key off this count).
        self.resolved = 0

    def fail(self, failure: PointFailure) -> None:
        """Record a terminal failure; raises under fail-fast."""
        self.failures[failure.index] = failure
        if not self.keep_going:
            raise failure

    def _terminal(self) -> None:
        """Count a terminal outcome; fires any matching injected
        parent signal."""
        self.resolved += 1
        fault = (self.plan.parent_signal_fault(self.resolved)
                 if self.plan else None)
        if fault is not None:
            os.kill(os.getpid(), fault.signum)

    def resolve(self, index: int, attempt: int, outcome: Tuple) -> None:
        """Apply one attempt's outcome: complete, retry, or fail the
        point (raising the :class:`PointFailure` under fail-fast)."""
        point = self.points[index]
        if outcome[0] == "ok":
            _, state, miss_map, elapsed = outcome
            stats = SimStats.from_state(state)
            if not self.in_process:
                # The worker simulated the point and wrote its result to
                # the disk cache before sending the outcome; mirror it
                # into this process.  In-process runs already did both.
                runner.record_simulation()
                if self.use_cache:
                    runner.seed_cache(point.key(), stats, miss_map)
            self.emit("completed", index=index, label=point.label,
                      attempt=attempt, shard=0, source="sim",
                      seconds=round(elapsed, 4))
            self._terminal()
            self.results[index] = SweepResult(
                point, stats, miss_map, elapsed, "sim")
            return
        kind, message = outcome
        if kind in _RETRIED_KINDS and attempt <= self.max_retries:
            delay = backoff_delay(attempt, self.backoff_base, point.key())
            self.waiting.append((time.monotonic() + delay,
                                 self.rank[index], index, attempt + 1))
            self.emit("retried", index=index, label=point.label,
                      attempt=attempt, shard=0, kind=kind,
                      next_attempt=attempt + 1, delay=round(delay, 4))
            return
        self.emit("failed", index=index, label=point.label,
                  attempts=attempt, shard=0, kind=kind, message=message)
        self._terminal()
        self.fail(PointFailure(point.label, index, kind, message, attempt))

    def run(self, pending: Sequence[int], jobs: int,
            point_timeout: Optional[float],
            shutdown: Optional[ShutdownRequest]) -> None:
        """The supervision loop: keep up to ``jobs`` workers busy (or
        run one attempt at a time in-process) until every pending point
        has a terminal outcome or a shutdown is requested.

        Workers share traces only through the on-disk trace store, so
        each pending point is ranked by its occurrence number within
        its (workload, scale, seed) group: every trace's first point is
        dispatched before any trace's second, so concurrent workers
        build different traces rather than the same one twice.
        In-process, the trace memo already shares traces and input
        order keeps it warm, so every rank is 0.  Ties fall back to the
        input index.
        """
        seen: Dict[Tuple[str, str, int], int] = {}
        for index in pending:
            point = self.points[index]
            group = (point.workload, point.scale, point.seed)
            rank = seen.get(group, 0)
            seen[group] = rank + 1
            self.rank[index] = 0 if self.in_process else rank
        self.waiting = [(0.0, self.rank[index], index, 1)
                        for index in pending]
        ctx = None if self.in_process else multiprocessing.get_context()
        plan_json = self.plan.to_json() if (self.plan and ctx) else None
        live: List[_Live] = []
        try:
            while self.waiting or live:
                if shutdown is not None and shutdown.requested():
                    return
                now = time.monotonic()
                self.waiting.sort()
                progressed = False
                while self.waiting and len(live) < jobs \
                        and self.waiting[0][0] <= now:
                    _, _, index, attempt = self.waiting.pop(0)
                    point = self.points[index]
                    self.emit("scheduled", index=index, label=point.label,
                              attempt=attempt, shard=0)
                    if ctx is None:
                        self.resolve(index, attempt, _execute(
                            point, index, attempt, self.use_cache,
                            self.plan, in_process=True))
                        progressed = True
                        break  # re-check shutdown between attempts
                    live.append(_spawn(ctx, point, index, attempt,
                                       self.use_cache, plan_json))
                for worker in list(live):
                    outcome = _reap(worker, point_timeout)
                    if outcome is None:
                        continue
                    live.remove(worker)
                    progressed = True
                    self.resolve(worker.index, worker.attempt, outcome)
                if not progressed:
                    time.sleep(_POLL_SECONDS)
        finally:
            _reap_all(live)

    def report(self) -> SweepReport:
        return SweepReport(
            results=[r for r in self.results if r is not None],
            failures=[self.failures[i] for i in sorted(self.failures)],
        )


def _install_signal_handlers(shutdown: ShutdownRequest) -> Dict[int, object]:
    """Route SIGINT/SIGTERM to ``shutdown``; returns the previous
    handlers (empty off the main thread, where signals stay as they
    are)."""
    previous: Dict[int, object] = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, shutdown.handle_signal)
        except ValueError:
            break
    return previous


def sweep(
    points: Sequence[SweepPoint],
    jobs: int = 1,
    use_cache: bool = True,
    max_retries: int = DEFAULT_MAX_RETRIES,
    point_timeout: Optional[float] = None,
    keep_going: bool = False,
    backoff_base: float = DEFAULT_BACKOFF,
    fault_plan: Optional[FaultPlan] = None,
    events: Union[EventSink, Sequence[EventSink], None] = None,
    preresolved: Optional[Dict[int, SweepResult]] = None,
    poisoned: Optional[Dict[int, PointFailure]] = None,
    run_info: Optional[dict] = None,
    shutdown: Optional[ShutdownRequest] = None,
    handle_signals: bool = False,
) -> SweepReport:
    """Evaluate every point and return a :class:`SweepReport`.

    ``jobs >= 2`` runs each attempt in its own worker process, up to
    ``jobs`` at a time; ``jobs == 1`` runs points one by one in this
    process.  Cached points (memory or disk) are resolved in the
    parent first; only genuinely missing simulations are scheduled, so
    a warm sweep never forks at all.

    Resilience policy:

    * transient failures (worker crash, ``point_timeout`` exceeded,
      injected flaky faults) are retried up to ``max_retries`` times
      with exponential backoff from ``backoff_base`` seconds and
      deterministic per-point jitter;
    * deterministic simulation exceptions are recorded (or raised)
      immediately — retrying a pure function is wasted work;
    * ``keep_going=False`` (default) raises the first terminal
      :class:`PointFailure`; ``keep_going=True`` records it and keeps
      sweeping, returning completed results alongside the failures;
    * ``point_timeout`` is enforced by worker termination and therefore
      needs ``jobs >= 2``; in-process sweeps map injected hangs
      straight to timeout failures.

    ``fault_plan`` (or ``REPRO_FAULT_PLAN``) deterministically injects
    failures for testing — see :mod:`repro.experiments.faults`.

    ``events`` takes one sink or several (see
    :mod:`repro.experiments.events`; its ``ProgressLines`` prints the
    console lines); ``run_info`` fields are merged into the ``begin``
    record.  The resume hooks of
    :func:`repro.experiments.journal.run_sweep`: ``preresolved`` maps
    point index → a recovered :class:`SweepResult` whose terminal
    record lives in an earlier journal segment — it enters the report
    without new events, keeping the joined stream exactly-once;
    ``poisoned`` maps index → the recorded :class:`PointFailure` of a
    point that already exhausted its retries — it is skipped with an
    informational ``poisoned`` event (still raising under fail-fast).

    When ``shutdown`` is requested (or, with ``handle_signals=True``,
    SIGINT/SIGTERM arrives) the loop drains, an
    ``end{status=interrupted}`` record is written, and
    :class:`~repro.experiments.errors.SweepInterrupted` carries the
    partial report out.
    """
    points = list(points)
    if fault_plan is None:
        fault_plan = FaultPlan.from_env()
    if shutdown is None and handle_signals:
        shutdown = ShutdownRequest()
    in_process = jobs <= 1
    emit = _Emitter(events)
    sup = _Supervisor(points, keep_going, emit, fault_plan,
                      max_retries, backoff_base, use_cache, in_process)
    preresolved = dict(preresolved or {})
    poisoned = dict(poisoned or {})

    # Resolve warm points in the parent without scheduling.
    pending: List[int] = []
    cached: List[Tuple[int, SweepResult]] = []
    for index, point in enumerate(points):
        if index in preresolved or index in poisoned:
            continue
        start = time.perf_counter()
        hit = runner.peek_cached(point.key()) if use_cache else None
        if hit is None:
            pending.append(index)
            continue
        stats, miss_map, source = hit
        cached.append((index, SweepResult(
            point, stats, miss_map, time.perf_counter() - start, source)))

    run_info = dict(run_info or {})
    emit("begin", total=len(points), cached=len(cached),
         preresolved=len(preresolved), poisoned=len(poisoned),
         shards=1, jobs=jobs, inline=in_process, **run_info)
    for index, result in preresolved.items():
        sup.results[index] = result
    for index, result in cached:
        emit("completed", index=index, label=result.point.label,
             attempt=0, shard=None, source=result.source,
             seconds=round(result.seconds, 4))
        sup.results[index] = result

    started = time.monotonic()
    previous = _install_signal_handlers(shutdown) if handle_signals else {}
    finished = False
    try:
        for index in sorted(poisoned):
            failure = poisoned[index]
            emit("poisoned", index=index, label=failure.label,
                 kind=failure.kind, attempts=failure.attempts,
                 message=failure.message)
            sup.fail(failure)
        if pending:
            sup.run(pending, 1 if in_process else min(jobs, len(pending)),
                    point_timeout, shutdown)
        finished = True
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler if handler is not None
                          else signal.SIG_DFL)
        interrupted = shutdown is not None and shutdown.requested()
        if interrupted:
            status = "interrupted"
        elif sup.failures or not finished:
            status = "failed"
        else:
            status = "ok"
        emit("end", status=status,
             completed=sum(1 for r in sup.results if r is not None),
             failed=len(sup.failures),
             seconds=round(time.monotonic() - started, 4))
    if interrupted:
        signum = shutdown.signum
        report = sup.report()
        resolved = len(report.results) + len(report.failures)
        raise SweepInterrupted(
            "sweep interrupted"
            + (f" by signal {signum}" if signum else "")
            + f" with {resolved} of {len(points)} points resolved",
            report=report, signum=signum,
            run_id=run_info.get("run_id"))
    return sup.report()


__all__ = [
    "DEFAULT_PREFETCHERS", "DEFAULT_MAX_RETRIES", "DEFAULT_BACKOFF",
    "SweepPoint", "SweepResult", "SweepReport", "PointFailure",
    "grid", "sweep",
]
