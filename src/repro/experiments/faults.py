"""Deterministic fault injection for the experiment stack.

The resilience layer (worker isolation, retry/backoff, corruption
quarantine) is only trustworthy if it is *tested* against the failures
it claims to survive.  This module describes those failures as data —
a :class:`FaultPlan` of per-point :class:`Fault` records — so the same
plan drives unit tests, the CI chaos job, and ad-hoc what-if runs,
and every injection is reproducible.

Fault kinds
-----------

``crash``
    Worker process exits hard (``os._exit``) before producing a
    result; in in-process sweeps (``jobs=1``) it maps to a ``crash``
    outcome instead.
``hang``
    Worker sleeps ``seconds`` before running the point, tripping the
    sweep's ``point_timeout``; in in-process sweeps (where no
    supervisor can terminate the point) it is mapped directly to a
    ``timeout`` outcome.
``error``
    A ``transient`` outcome (the generic flaky-then-succeeds case).
``truncate`` / ``bitflip``
    After the point completes and persists its result, its on-disk
    cache entry is truncated / has one byte flipped — exercising the
    checksum-and-quarantine path on the next read.
``parent_signal``
    Supervisor-layer: when the sweep has resolved ``point`` terminal
    outcomes in this process, ``signum`` (default SIGTERM) is sent to
    the parent itself — deterministic mid-run interruption for the
    graceful-shutdown and resume paths.
``torn_journal``
    Journal-layer: when run-journal segment number ``point`` closes,
    its tail is truncated — a fsync'd-but-killed writer, exercising
    torn-tail recovery on replay.

Targeting: for point-level kinds ``point`` matches either the point's
input index or its ``workload/prefetcher`` label; for the supervisor/
journal kinds above it is a resolved-outcome count or a segment
number.  ``times`` bounds how many *attempts* are affected
(``times=1`` = fail once, succeed on retry; omitted = every attempt,
a persistent fault).

Activation: pass ``sweep(..., fault_plan=FaultPlan(...))``, or set
``REPRO_FAULT_PLAN`` to inline JSON (``{"faults": [...]}``) or to the
path of a JSON file — which is how the CI chaos job injects failures
under an otherwise unmodified test suite.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

from repro.experiments.errors import FaultPlanError

__all__ = [
    "CRASH", "HANG", "ERROR", "TRUNCATE", "BITFLIP",
    "PARENT_SIGNAL", "TORN_JOURNAL",
    "EXEC_KINDS", "CACHE_KINDS", "SCHED_KINDS", "JOURNAL_KINDS",
    "CRASH_EXIT_CODE", "ENV_PLAN",
    "Fault", "FaultPlan", "corrupt_file", "corrupt_cache_entry",
]

CRASH = "crash"
HANG = "hang"
ERROR = "error"
TRUNCATE = "truncate"
BITFLIP = "bitflip"
PARENT_SIGNAL = "parent_signal"
TORN_JOURNAL = "torn_journal"

#: Faults applied before the point executes (worker-side).
EXEC_KINDS = frozenset((CRASH, HANG, ERROR))
#: Faults applied to the point's persisted cache entry afterwards.
CACHE_KINDS = frozenset((TRUNCATE, BITFLIP))
#: Supervisor-layer faults (the parent process itself).
SCHED_KINDS = frozenset((PARENT_SIGNAL,))
#: Run-journal faults (torn segment tails).
JOURNAL_KINDS = frozenset((TORN_JOURNAL,))

#: Exit code used by injected worker crashes — distinctive enough that
#: a test can tell an injected crash from a genuine interpreter death.
CRASH_EXIT_CODE = 73

ENV_PLAN = "REPRO_FAULT_PLAN"


@dataclasses.dataclass(frozen=True)
class Fault:
    """One injected failure, targeted at a sweep point."""

    kind: str
    #: Input index (int) or ``workload/prefetcher`` label (str).
    point: Union[int, str]
    #: Attempts affected: ``None`` = all (persistent), ``N`` = the
    #: first N attempts only (flaky-then-succeeds when N < retries+1).
    times: Optional[int] = None
    #: ``hang`` only: how long the worker sleeps before proceeding.
    seconds: float = 30.0
    #: ``bitflip`` only: byte offset (modulo file size) to flip.
    offset: int = 0
    #: ``parent_signal`` only: the signal number to send (SIGTERM).
    signum: int = 15

    def __post_init__(self) -> None:
        if self.kind not in (EXEC_KINDS | CACHE_KINDS | SCHED_KINDS
                             | JOURNAL_KINDS):
            raise FaultPlanError(f"unknown fault kind: {self.kind!r}")
        if self.times is not None and self.times < 1:
            raise FaultPlanError("times must be >= 1 (or omitted)")
        if self.kind in (SCHED_KINDS | JOURNAL_KINDS) \
                and not isinstance(self.point, int):
            raise FaultPlanError(
                f"{self.kind} faults target an integer "
                f"(outcome count / segment number), "
                f"got {self.point!r}")

    def matches(self, index: int, label: str, attempt: int) -> bool:
        if self.point != index and self.point != label:
            return False
        return self.times is None or attempt <= self.times

    def to_spec(self) -> dict:
        spec = {"kind": self.kind, "point": self.point}
        if self.times is not None:
            spec["times"] = self.times
        if self.kind == HANG:
            spec["seconds"] = self.seconds
        if self.kind == BITFLIP:
            spec["offset"] = self.offset
        if self.kind == PARENT_SIGNAL:
            spec["signum"] = self.signum
        return spec


_SPEC_KEYS = {"kind", "point", "times", "seconds", "offset", "signum"}


class FaultPlan:
    """An immutable set of :class:`Fault` injections.

    Falsy when empty, so ``if plan:`` reads naturally at the injection
    sites.
    """

    def __init__(self, faults: Sequence[Fault] = ()):
        self.faults: Tuple[Fault, ...] = tuple(faults)

    # -- construction --------------------------------------------------
    @classmethod
    def from_spec(cls, spec: dict) -> "FaultPlan":
        """Build from the JSON-friendly form::

            {"faults": [{"kind": "crash", "point": "beego/eip",
                         "times": 1}, ...]}
        """
        if not isinstance(spec, dict):
            raise FaultPlanError("fault plan must be a JSON object")
        entries = spec.get("faults", [])
        if not isinstance(entries, list):
            raise FaultPlanError("fault plan 'faults' must be a list")
        faults = []
        for entry in entries:
            if not isinstance(entry, dict) or "kind" not in entry \
                    or "point" not in entry:
                raise FaultPlanError(
                    f"fault entry needs 'kind' and 'point': {entry!r}"
                )
            unknown = set(entry) - _SPEC_KEYS
            if unknown:
                raise FaultPlanError(
                    f"unknown fault field(s) {sorted(unknown)} "
                    f"in {entry!r}"
                )
            faults.append(Fault(**entry))
        return cls(faults)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"bad fault plan JSON: {exc}") from exc
        return cls.from_spec(spec)

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """Plan from ``REPRO_FAULT_PLAN`` (inline JSON object or a path
        to a JSON file), or None when unset/empty."""
        value = os.environ.get(ENV_PLAN, "").strip()
        if not value:
            return None
        if value.startswith("{"):
            return cls.from_json(value)
        return cls.from_json(Path(value).read_text())

    def to_json(self) -> str:
        """Round-trippable JSON form (also how plans cross the process
        boundary into sweep workers)."""
        return json.dumps({"faults": [f.to_spec() for f in self.faults]},
                          sort_keys=True)

    # -- queries -------------------------------------------------------
    def exec_fault(self, index: int, label: str,
                   attempt: int) -> Optional[Fault]:
        """The first matching pre-execution fault, if any."""
        for fault in self.faults:
            if fault.kind in EXEC_KINDS and \
                    fault.matches(index, label, attempt):
                return fault
        return None

    def parent_signal_fault(self, resolved: int) -> Optional[Fault]:
        """The matching ``parent_signal`` fault once ``resolved``
        terminal outcomes have been recorded in this process."""
        for fault in self.faults:
            if fault.kind == PARENT_SIGNAL and fault.point == resolved:
                return fault
        return None

    def journal_faults(self, segment: int) -> Tuple[Fault, ...]:
        """All ``torn_journal`` faults targeting segment ``segment``."""
        return tuple(fault for fault in self.faults
                     if fault.kind == TORN_JOURNAL
                     and fault.point == segment)

    def cache_faults(self, index: int, label: str,
                     attempt: int) -> Tuple[Fault, ...]:
        """All matching post-store cache-corruption faults."""
        return tuple(
            fault for fault in self.faults
            if fault.kind in CACHE_KINDS
            and fault.matches(index, label, attempt)
        )

    def corrupt_cache_entries(self, index: int, label: str, attempt: int,
                              key: str) -> int:
        """Apply matching cache faults to ``key``'s on-disk entry.

        Returns how many corruptions landed (0 when the entry does not
        exist, e.g. the disk cache is disabled).
        """
        return sum(
            1 for fault in self.cache_faults(index, label, attempt)
            if corrupt_cache_entry(key, fault)
        )

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def __repr__(self) -> str:
        return f"FaultPlan({list(self.faults)!r})"


# ----------------------------------------------------------------------
# Artifact corruption primitives
# ----------------------------------------------------------------------
def corrupt_file(path: Union[str, os.PathLike], kind: str = TRUNCATE,
                 offset: int = 0) -> bool:
    """Deterministically damage ``path`` in place.

    ``truncate`` keeps the first third of the file (a torn write);
    ``bitflip`` XORs one byte at ``offset`` (mod size) with 0xFF (media
    rot).  Returns False when the file is missing/empty/unwritable.
    """
    if kind not in CACHE_KINDS:
        raise FaultPlanError(f"not a corruption kind: {kind!r}")
    target = Path(path)
    try:
        data = target.read_bytes()
    except OSError:
        return False
    if not data:
        return False
    try:
        if kind == TRUNCATE:
            target.write_bytes(data[: max(1, len(data) // 3)])
        else:
            i = offset % len(data)
            target.write_bytes(
                data[:i] + bytes([data[i] ^ 0xFF]) + data[i + 1:]
            )
    except OSError:
        return False
    return True


def corrupt_cache_entry(key: str, fault: Fault) -> bool:
    """Damage the disk-cache entry for ``key`` per ``fault``."""
    from repro.experiments import diskcache

    path = diskcache.get_cache().path_for(key)
    return corrupt_file(path, fault.kind, fault.offset)
