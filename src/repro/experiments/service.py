"""The sweep event stream: a JSONL progress protocol plus its readers.

:func:`repro.experiments.sweep.sweep` emits every scheduling decision
as one JSON object (``begin``, ``scheduled``, ``completed``,
``retried``, ``failed``, ``poisoned``, ``end``) with a monotonic
``seq``.  :class:`JsonlEventLog` appends them to a file as JSON Lines;
:func:`read_events` / :func:`follow_events` / :func:`summarize_events`
consume the stream and check that every point is accounted for — the
contract the CI ``manifest`` job enforces.
:mod:`repro.experiments.journal` promotes this stream into a durable
**run journal** (fsync'd appends under a per-run directory) that
``repro sweep --resume`` replays.

Sinks come in two kinds.  An fsync'd sink (``JsonlEventLog(...,
fsync=True)``, the run journal) is *durable*: the resume guarantee
rests on it, so an exception from it stops the sweep as a
:class:`~repro.experiments.errors.JournalError`.  Every other sink (an
``--events`` file, a test callback) is best-effort: its exceptions are
swallowed, because observability must never break a sweep.

This module is a leaf: it imports nothing from the sweep engine, which
imports it.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import (
    Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

from repro.experiments.errors import EventStreamError, JournalError

__all__ = [
    "EVENT_SCHEMA", "EVENT_SCHEMA_VERSION",
    "JsonlEventLog", "ShutdownRequest", "read_events",
    "follow_events", "summarize_events", "format_events_summary",
]

#: Bump when the progress-event layout changes; consumers should check.
#: v2 added the run-lifecycle ``poisoned`` event and the ``status``
#: field on ``end`` records.  Earlier v2 writers also emitted
#: ``heartbeat``, ``requeued``, ``pool_restarted`` and ``pool_retired``
#: records; readers tally those as unknown kinds.
EVENT_SCHEMA_VERSION = 2

#: Declarative v2 event schema: kind -> required / optional payload
#: keys.  The :class:`_Emitter` envelope (``v``, ``seq``, ``event``)
#: is implicit and not listed.  This table is the single source of
#: truth the ``event-schema`` lint rule checks every ``emit(...)``
#: site and consumer against — add the key here *first* when growing
#: an event, or the emit site becomes a lint error.
EVENT_SCHEMA = {
    "begin": {
        "required": ("total", "cached", "preresolved", "poisoned",
                     "shards", "jobs", "inline"),
        "optional": ("run_id", "segment"),
    },
    "scheduled": {
        "required": ("index", "label", "attempt", "shard"),
    },
    "completed": {
        "required": ("index", "label", "attempt", "shard", "source",
                     "seconds"),
    },
    "retried": {
        "required": ("index", "label", "attempt", "shard", "kind",
                     "next_attempt", "delay"),
    },
    "failed": {
        "required": ("index", "label", "attempts", "shard", "kind",
                     "message"),
    },
    "poisoned": {
        "required": ("index", "label", "kind", "attempts", "message"),
    },
    "end": {
        "required": ("status", "completed", "failed", "seconds"),
    },
}

EventSink = Callable[[dict], None]


class _Emitter:
    """Sequence-numbered event fan-out.

    Accepts one sink, a sequence of sinks (the journal plus an
    ``--events`` file, say), or None.  A sink whose ``fsync`` attribute
    is true is durable: its exception is re-raised as
    :class:`~repro.experiments.errors.JournalError` and the sink is
    dropped, so the ``end`` record still reaches the other sinks.
    Exceptions from every other sink are swallowed.
    """

    def __init__(self,
                 sink: Union[EventSink, Sequence[EventSink], None]):
        if sink is None:
            self.sinks: Tuple[EventSink, ...] = ()
        elif callable(sink):
            self.sinks = (sink,)
        else:
            self.sinks = tuple(s for s in sink if s is not None)
        self.seq = 0

    def __call__(self, event_type: str, **fields) -> None:
        if not self.sinks:
            return
        self.seq += 1
        event = {"v": EVENT_SCHEMA_VERSION, "seq": self.seq,
                 "event": event_type}
        event.update(fields)
        for sink in self.sinks:
            try:
                sink(event)
            except Exception as exc:
                if not getattr(sink, "fsync", False):
                    continue  # best-effort sink
                self.sinks = tuple(s for s in self.sinks
                                   if s is not sink)
                raise JournalError(
                    f"run journal append failed ({event_type} record): "
                    f"{type(exc).__name__}: {exc}") from exc


class JsonlEventLog:
    """Event sink appending one JSON object per line to ``path``.

    Lines are flushed as written so a tailing consumer (dashboard, the
    CLI progress display, ``tail -f``) sees events live.  With
    ``fsync=True`` every line is also fsync'd — the crash-durability
    mode the run journal uses, where a journaled record must survive a
    SIGKILL of the writer, and the mark of a durable sink (see
    :class:`_Emitter`).  ``append=True`` keeps an existing file's
    contents.  Usable as a context manager; ``close()`` is idempotent.
    """

    def __init__(self, path: Union[str, Path], append: bool = False,
                 fsync: bool = False):
        self.path = Path(path)
        self.fsync = bool(fsync)
        self._fh = open(self.path, "a" if append else "w",
                        encoding="utf-8")

    def __call__(self, event: dict) -> None:
        if self._fh is None:
            return
        self._fh.write(json.dumps(event, sort_keys=True) + "\n")
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlEventLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_events(path: Union[str, Path]) -> List[dict]:
    """Parse a JSONL event stream.

    A torn *final* line (a writer killed mid-append) is dropped; a torn
    line anywhere else is corruption and raises
    :class:`~repro.experiments.errors.EventStreamError` (a
    ``ValueError`` subclass).
    """
    events: List[dict] = []
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if lineno == len(lines):
                break  # torn tail from an interrupted writer
            raise EventStreamError(
                f"{path}:{lineno}: undecodable event line: {exc}"
            ) from exc
    return events


def follow_events(path: Union[str, Path], poll: float = 0.2,
                  timeout: Optional[float] = None,
                  stop: Optional[Callable[[], bool]] = None,
                  ) -> Iterator[dict]:
    """Tail a live JSONL event stream, yielding events as they land.

    The minimal-CLI dashboard primitive (``repro manifest events
    --follow``): starts from the top of the file (which may not exist
    yet), sleeps ``poll`` seconds between reads, and returns after an
    ``end`` event, when ``stop()`` goes true, or after ``timeout``
    seconds of wall time.  A partially written final line is simply
    retried on the next poll.
    """
    deadline = (None if timeout is None
                else time.monotonic() + timeout)
    buffer = ""
    position = 0
    while True:
        chunk = ""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                fh.seek(position)
                chunk = fh.read()
                position = fh.tell()
        except OSError:
            pass  # not created yet (or vanished): keep polling
        buffer += chunk
        while "\n" in buffer:
            line, buffer = buffer.split("\n", 1)
            if not line.strip():
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn mid-write; complete lines still flow
            yield event
            if event.get("event") == "end":
                return
        if stop is not None and stop():
            return
        if deadline is not None and time.monotonic() >= deadline:
            return
        time.sleep(poll)


def summarize_events(events: Sequence[dict]) -> dict:
    """Aggregate a stream into point accounting + retry/failure counts.

    ``missing`` lists point indices with no terminal event — non-empty
    means the stream does not account for the whole grid (a crashed
    sweep or a truncated artifact).  ``duplicates`` lists indices with
    *more than one* terminal event — the exactly-once check for resumed
    runs, whose joined journal segments must still yield one terminal
    per point (``poisoned`` records are informational, not terminal:
    the poison point's ``failed`` record lives in an earlier segment).
    ``segments`` counts ``begin`` records, i.e. how many run attempts
    the stream joins; ``status`` is the last ``end`` record's status
    (``ok`` / ``failed`` / ``interrupted``, or None for a stream still
    missing its trailer).  ``unknown`` tallies event kinds outside
    :data:`EVENT_SCHEMA` (a newer writer's stream, or an older one's
    retired kinds): counted for visibility, never fatal.
    """
    total = None
    completed: Dict[int, dict] = {}
    failed: Dict[int, dict] = {}
    terminal_counts: Dict[int, int] = {}
    poisoned: Dict[int, dict] = {}
    retried = 0
    retry_kinds: Dict[str, int] = {}
    sources: Dict[str, int] = {}
    scheduled = 0
    segments = 0
    elapsed = None
    status = None
    unknown: Dict[str, int] = {}
    for event in events:
        kind = event.get("event")
        if kind == "begin":
            segments += 1
            if event.get("total") is not None:
                total = event.get("total")
        elif kind == "scheduled":
            scheduled += 1
        elif kind == "completed":
            completed[event["index"]] = event
            terminal_counts[event["index"]] = \
                terminal_counts.get(event["index"], 0) + 1
            source = event.get("source", "sim")
            sources[source] = sources.get(source, 0) + 1
        elif kind == "failed":
            failed[event["index"]] = event
            terminal_counts[event["index"]] = \
                terminal_counts.get(event["index"], 0) + 1
        elif kind == "poisoned":
            poisoned[event["index"]] = event
        elif kind == "retried":
            retried += 1
            fk = event.get("kind", "transient")
            retry_kinds[fk] = retry_kinds.get(fk, 0) + 1
        elif kind == "end":
            elapsed = event.get("seconds")
            status = event.get("status", status)
        else:
            # A kind this reader does not know (another writer version,
            # or garbage): counted, never fatal.
            unknown[str(kind)] = unknown.get(str(kind), 0) + 1
    known = total if total is not None else (
        max(list(completed) + list(failed), default=-1) + 1)
    missing = sorted(set(range(known)) - set(completed) - set(failed))
    duplicates = sorted(i for i, n in terminal_counts.items() if n > 1)
    return {
        "total": known,
        "completed": len(completed),
        "failed": len(failed),
        "missing": missing,
        "duplicates": duplicates,
        "poisoned": sorted(poisoned),
        "scheduled": scheduled,
        "retried": retried,
        "retry_kinds": retry_kinds,
        "segments": segments,
        "status": status,
        "sources": sources,
        "unknown": unknown,
        "failures": [
            {"index": i, "label": f.get("label"),
             "kind": f.get("kind"), "message": f.get("message")}
            for i, f in sorted(failed.items())
        ],
        "seconds": elapsed,
    }


def format_events_summary(summary: dict) -> str:
    """Human-readable form of :func:`summarize_events` (the CI step
    summary / ``repro manifest events`` output)."""
    lines = [
        f"points:    {summary['total']}",
        f"completed: {summary['completed']}"
        + (f"  ({', '.join(f'{v} {k}' for k, v in sorted(summary['sources'].items()))})"
           if summary["sources"] else ""),
        f"failed:    {summary['failed']}",
        f"retries:   {summary['retried']}"
        + (f"  ({', '.join(f'{v} {k}' for k, v in sorted(summary['retry_kinds'].items()))})"
           if summary["retry_kinds"] else ""),
    ]
    if summary.get("status") is not None:
        lines.insert(0, f"status:    {summary['status']}")
    if summary.get("segments", 0) > 1:
        lines.append(f"segments:  {summary['segments']} "
                     "(resumed run — joined journal)")
    if summary.get("poisoned"):
        lines.append(f"poisoned:  {len(summary['poisoned'])} "
                     f"(quarantined on resume: {summary['poisoned']})")
    if summary.get("unknown"):
        lines.append(
            "unknown:   "
            + ", ".join(f"{v} {k}"
                        for k, v in sorted(summary["unknown"].items()))
            + " (kinds outside this schema version; ignored)")
    if summary["seconds"] is not None:
        lines.append(f"wall:      {summary['seconds']:.1f}s")
    for failure in summary["failures"]:
        lines.append(f"  FAIL [{failure['index']}] {failure['label']}: "
                     f"{failure['kind']}: {failure['message']}")
    if summary["missing"]:
        lines.append(f"  MISSING terminal events for point(s) "
                     f"{summary['missing']} — stream does not account "
                     "for the grid")
    if summary.get("duplicates"):
        lines.append(f"  DUPLICATE terminal events for point(s) "
                     f"{summary['duplicates']} — exactly-once "
                     "accounting violated")
    return "\n".join(lines)


class ShutdownRequest:
    """Stop flag for :func:`repro.experiments.sweep.sweep`.

    ``request()`` may be called from a signal handler or a test; the
    supervision loop polls ``requested()`` and drains the run (reap
    in-flight workers, keep completed points, write an
    ``end{status=interrupted}`` record, raise
    :class:`~repro.experiments.errors.SweepInterrupted`).  Setting a
    plain attribute is all a signal handler does, so it is safe to
    call at any bytecode boundary.
    """

    def __init__(self) -> None:
        self._requested = False
        #: The signal number that triggered the request, when one did.
        self.signum: Optional[int] = None

    def request(self, signum: Optional[int] = None) -> None:
        if signum is not None:
            self.signum = signum
        self._requested = True

    def handle_signal(self, signum: int, frame=None) -> None:
        """``signal.signal`` handler: record the signal and stop."""
        self.request(signum)

    def requested(self) -> bool:
        return self._requested
