"""Crash-consistent run journal: durable identity + resume for sweeps.

The sweep engine makes individual *points* fault-tolerant, but a
SIGKILL, OOM, or Ctrl-C anywhere in the parent would lose the whole
run.  This module gives a sweep a durable identity on disk — a **run
directory** of fsync'd, seq-numbered JSONL event segments plus a
``meta.json`` — and a resume path that replays journal + disk cache to
skip completed points, quarantine poison points, and re-enter
in-flight points, bit-identical to an uninterrupted run.

Layout::

    <run root>/<fingerprint[:12]>-<nnnn>/     one run
        meta.json                             fingerprint, total, config
        events-0001.jsonl                     segment per run attempt
        events-0002.jsonl                     (appended by --resume)

The run root defaults to ``<cache root>/runs`` (so ``REPRO_CACHE_DIR``
redirects journal and cache together — resume *requires* the cache,
which holds the actual results) and can be pointed elsewhere with
``REPRO_RUN_DIR``.  The directory name's fingerprint is a SHA-256 over
the grid's point *keys* only — the sweep policy (jobs, retries,
timeouts) may change between segments, the grid may not.

Crash-consistency contract (docs/RESILIENCE.md): a worker's cache
entry is fsync'd *before* the parent appends the fsync'd ``completed``
record, so a journal-completed point is always cache-recoverable; a
kill between the two just re-enters the point, which resolves warm in
the parent.  A journal append that fails (ENOSPC, EIO) fails the run
with :class:`JournalError`: a sweep that cannot journal cannot be
resumed, so it must not carry on as if it could.  Each segment's torn
final line (a writer killed mid-append) is dropped on replay, and records whose ``seq`` does not
advance within a segment (a replayed append) are skipped — so replay
is total for any prefix the journal survived.

Resume semantics (exactly-once across joined segments):

* journal-``completed`` points re-enter **silently** via the disk
  cache (their terminal event lives in the earlier segment);
* journal-``failed`` points are **poisoned** — skipped-with-failure
  (an informational ``poisoned`` event) instead of re-burning their
  retry budget;
* everything else (unscheduled, in-flight, mid-retry) re-enters the
  supervision loop and gets exactly one terminal event in the new
  segment.

The one exception: a journal-completed point whose cache entry was
since lost or quarantined re-enters and earns a second terminal event
— re-simulating is the only correct option, and ``summarize_events``
surfaces the duplicate so the accounting is honest.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments import diskcache, runner
from repro.experiments.errors import JournalError, PointFailure
from repro.experiments.faults import FaultPlan, corrupt_file
from repro.experiments.events import (
    JsonlEventLog,
    ShutdownRequest,
    read_events,
)
from repro.experiments.sweep import (
    SweepPoint,
    SweepReport,
    SweepResult,
    sweep,
)

__all__ = [
    "ENV_RUN_DIR", "JournalError", "RunJournal", "grid_fingerprint",
    "runs_root", "list_runs", "read_run_events", "run_sweep",
]

ENV_RUN_DIR = "REPRO_RUN_DIR"

#: ``meta.json`` layout version.
META_VERSION = 1

_META_NAME = "meta.json"
_SEGMENT_FMT = "events-{:04d}.jsonl"
_SEGMENT_GLOB = "events-*.jsonl"
#: Hex digits of the grid fingerprint used in run directory names.
_FP_CHARS = 12


def runs_root() -> Path:
    """The directory run journals live under: ``REPRO_RUN_DIR`` when
    set, else ``<cache root>/runs`` (which 2-hex shard globbing and
    compaction never touch)."""
    env = os.environ.get(ENV_RUN_DIR, "").strip()
    if env:
        return Path(env)
    return diskcache.get_cache().root / "runs"


def grid_fingerprint(points: Sequence[SweepPoint]) -> str:
    """SHA-256 over the ordered point keys — the run's grid identity.

    Deliberately excludes the sweep policy (jobs, retries, timeouts):
    a resume may reschedule the same grid differently; the results are
    keyed by the points alone.  Point keys carry the simulator's code
    hash, so a journal written by other code is another grid and is
    never resumed.
    """
    blob = json.dumps([point.key() for point in points])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def list_runs(root: Optional[Path] = None,
              fingerprint: Optional[str] = None) -> List[Path]:
    """Existing run directories (oldest first), optionally filtered to
    one grid fingerprint."""
    root = Path(root) if root is not None else runs_root()
    if not root.is_dir():
        return []
    prefix = fingerprint[:_FP_CHARS] + "-" if fingerprint else ""
    return sorted(
        path for path in root.iterdir()
        if path.is_dir() and (path / _META_NAME).is_file()
        and (not prefix or path.name.startswith(prefix))
    )


def _write_meta(run_dir: Path, meta: dict) -> None:
    """Atomic ``meta.json`` write (temp + fsync + rename)."""
    # lint: ordered[atomic-replace]
    tmp = run_dir / (_META_NAME + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, run_dir / _META_NAME)
    # lint: ordered-end


def read_run_events(run_dir: Union[str, Path]) -> List[dict]:
    """The joined event stream of every segment in ``run_dir``, in
    segment order — what ``repro manifest events`` and resume replay
    consume.  Records whose ``seq`` does not advance within a segment
    (a writer that re-appended after a partial failure) are dropped."""
    events: List[dict] = []
    for segment in sorted(Path(run_dir).glob(_SEGMENT_GLOB)):
        last = 0
        for event in read_events(segment):
            seq = event.get("seq")
            if isinstance(seq, int):
                if seq <= last:
                    continue
                last = seq
            events.append(event)
    return events


class RunJournal:
    """One run directory: identity, durable event sink, replay.

    Build with :meth:`create` (fresh run) or :meth:`resume` (attach to
    an interrupted one); pass :attr:`sink` to
    :func:`~repro.experiments.sweep.sweep` as an event sink and
    ``close()`` when the segment is finished.
    """

    def __init__(self, run_dir: Path, meta: dict, segment: int):
        self.run_dir = Path(run_dir)
        self.meta = meta
        #: 1-based number of the segment this journal writes.
        self.segment = segment
        #: Set by :func:`run_sweep` on resume: how many completed
        #: points replayed from journal + cache, and how many poison
        #: points were quarantined.
        self.replay_preresolved = 0
        self.replay_poisoned = 0
        self._sink: Optional[JsonlEventLog] = None

    # -- construction --------------------------------------------------
    @classmethod
    def create(cls, points: Sequence[SweepPoint],
               config: dict,
               root: Optional[Path] = None,
               extra_meta: Optional[dict] = None) -> "RunJournal":
        """Allocate the next free run directory for this grid.

        Creation is atomic (``mkdir`` with ``exist_ok=False``), so two
        racing sweeps of the same grid get distinct run ids.  ``config``
        (the sweep policy) is recorded in ``meta.json`` for reference.
        """
        root = Path(root) if root is not None else runs_root()
        root.mkdir(parents=True, exist_ok=True)
        fingerprint = grid_fingerprint(points)
        for attempt in range(1, 10000):
            run_dir = root / f"{fingerprint[:_FP_CHARS]}-{attempt:04d}"
            try:
                run_dir.mkdir(exist_ok=False)
            except FileExistsError:
                continue
            break
        else:  # pragma: no cover - 10^4 runs of one grid
            raise JournalError(
                f"no free run directory under {root} for grid "
                f"{fingerprint[:_FP_CHARS]}")
        meta = {
            "version": META_VERSION,
            "run_id": run_dir.name,
            "fingerprint": fingerprint,
            "total": len(points),
            "created": time.time(),
            "config": dict(config),
        }
        meta.update(extra_meta or {})
        _write_meta(run_dir, meta)
        return cls(run_dir, meta, segment=1)

    @classmethod
    def resume(cls, points: Sequence[SweepPoint],
               run_id: Optional[str] = None,
               root: Optional[Path] = None) -> "RunJournal":
        """Attach to an existing run of this grid, opening the next
        segment.  Without ``run_id`` the most recent matching run is
        picked; with one, the directory must exist and its recorded
        grid must match the points being resumed.
        """
        root = Path(root) if root is not None else runs_root()
        fingerprint = grid_fingerprint(points)
        if run_id is None:
            candidates = list_runs(root, fingerprint)
            if not candidates:
                raise JournalError(
                    f"no resumable run for this grid under {root} "
                    f"(fingerprint {fingerprint[:_FP_CHARS]})")
            run_dir = candidates[-1]
        else:
            run_dir = root / run_id
            if not (run_dir / _META_NAME).is_file():
                raise JournalError(f"no such run: {run_dir}")
        try:
            meta = json.loads(
                (run_dir / _META_NAME).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise JournalError(
                f"{run_dir}: unreadable meta.json: {exc}") from exc
        if meta.get("fingerprint") != fingerprint:
            raise JournalError(
                f"{run_dir.name} was journaled for a different grid "
                f"(fingerprint {str(meta.get('fingerprint'))[:_FP_CHARS]}"
                f" != {fingerprint[:_FP_CHARS]}) — same manifest and "
                "overrides required to resume")
        if meta.get("total") != len(points):
            raise JournalError(
                f"{run_dir.name} journaled {meta.get('total')} points, "
                f"resume grid has {len(points)}")
        existing = sorted(run_dir.glob(_SEGMENT_GLOB))
        if existing:
            last = existing[-1].name
            segment = int(last[len("events-"):-len(".jsonl")]) + 1
        else:
            segment = 1
        return cls(run_dir, meta, segment=segment)

    # -- identity ------------------------------------------------------
    @property
    def run_id(self) -> str:
        return self.run_dir.name

    def segment_path(self, segment: Optional[int] = None) -> Path:
        return self.run_dir / _SEGMENT_FMT.format(
            segment if segment is not None else self.segment)

    # -- replay --------------------------------------------------------
    def replay(self) -> Tuple[Dict[int, dict], Dict[int, dict]]:
        """The ``completed`` and ``failed`` records, by point index, of
        every segment *before* the one this journal writes (a later
        completion clears an earlier failure)."""
        completed: Dict[int, dict] = {}
        failed: Dict[int, dict] = {}
        for event in read_run_events(self.run_dir):
            kind = event.get("event")
            if kind == "completed":
                completed[event["index"]] = event
                failed.pop(event["index"], None)
            elif kind == "failed":
                failed[event["index"]] = event
        return completed, failed

    # -- the event sink ------------------------------------------------
    @property
    def sink(self) -> JsonlEventLog:
        """The durable (fsync-per-line) sink for this segment: an
        append failure stops the sweep (see
        :class:`~repro.experiments.events._Emitter`)."""
        if self._sink is None:
            self._sink = JsonlEventLog(self.segment_path(), fsync=True)
        return self._sink

    def close(self, plan: Optional[FaultPlan] = None) -> None:
        """Close the current segment; with a fault plan, apply any
        injected ``torn_journal`` faults targeting it (simulating a
        writer that died with an unsynced tail)."""
        if self._sink is not None:
            self._sink.close()
            self._sink = None
        if plan:
            for fault in plan.journal_faults(self.segment):
                corrupt_file(self.segment_path(), kind="truncate")


def _failure_from_event(points: Sequence[SweepPoint],
                        event: dict) -> PointFailure:
    """Reconstruct the terminal :class:`PointFailure` a ``failed``
    journal record described."""
    index = event["index"]
    return PointFailure(
        label=event.get("label") or points[index].label,
        index=index,
        kind=event.get("kind", "error"),
        message=event.get("message", "recorded in run journal"),
        attempts=event.get("attempts", 1),
    )


def run_sweep(
    points: Sequence[SweepPoint],
    events: Union[None, object, Sequence[object]] = None,
    fault_plan: Optional[FaultPlan] = None,
    resume: bool = False,
    run_id: Optional[str] = None,
    run_root: Optional[Path] = None,
    handle_signals: bool = False,
    shutdown: Optional[ShutdownRequest] = None,
    extra_meta: Optional[dict] = None,
    **policy,
) -> Tuple[SweepReport, Optional[RunJournal]]:
    """A journaled (and therefore resumable) :func:`sweep`.

    ``policy`` holds the sweep's own keyword arguments (``jobs``,
    ``use_cache``, ``max_retries``, ``point_timeout``, ``keep_going``,
    ``backoff_base``); it is passed through and recorded in
    ``meta.json``.  Fresh runs allocate a run directory and journal
    every event with per-line fsync.  With ``resume=True`` the latest
    (or ``run_id``'s) journal for this grid is replayed first:
    completed points are pre-resolved from the disk cache, failed
    points are poisoned, and only the remainder is scheduled.  Returns
    the report together with the :class:`RunJournal` (whose ``run_id``
    is the resume handle).  With ``use_cache=False`` no run can be
    resumed, so none is journaled: the journal is None.

    Raises :class:`~repro.experiments.errors.SweepInterrupted` — with
    ``run_id`` filled in — when a signal or shutdown request drains
    the run; :class:`JournalError` on identity mismatches, when a
    journal append fails, and when resuming with the cache disabled
    (the journal records *that* a point completed; only the cache
    holds the result).
    """
    points = list(points)
    if fault_plan is None:
        fault_plan = FaultPlan.from_env()

    preresolved: Dict[int, SweepResult] = {}
    poisoned: Dict[int, PointFailure] = {}
    journal: Optional[RunJournal] = None
    use_cache = policy.get("use_cache", True)
    if resume:
        if not use_cache:
            raise JournalError(
                "cannot resume with the disk cache disabled: the "
                "journal records which points completed, the cache "
                "holds their results")
        journal = RunJournal.resume(points, run_id=run_id,
                                    root=run_root)
        completed, failed = journal.replay()
        for index in sorted(completed):
            hit = runner.peek_cached(points[index].key())
            if hit is None:
                # Entry lost/quarantined since the journal recorded it:
                # the point re-enters and earns a (duplicate) terminal.
                continue
            stats, miss_map, source = hit
            preresolved[index] = SweepResult(
                points[index], stats, miss_map, 0.0, source)
        for index, event in sorted(failed.items()):
            poisoned[index] = _failure_from_event(points, event)
        journal.replay_preresolved = len(preresolved)
        journal.replay_poisoned = len(poisoned)
    elif use_cache:
        journal = RunJournal.create(points, policy, root=run_root,
                                    extra_meta=extra_meta)

    sinks = [*([journal.sink] if journal is not None else ()),
             *([events] if callable(events) else events or ())]
    run_info = ({"run_id": journal.run_id, "segment": journal.segment}
                if journal is not None else None)
    try:
        report = sweep(
            points, events=sinks,
            fault_plan=fault_plan, preresolved=preresolved,
            poisoned=poisoned, shutdown=shutdown,
            handle_signals=handle_signals, run_info=run_info, **policy)
    finally:
        if journal is not None:
            journal.close(plan=fault_plan)
    return report, journal
