"""Structured error taxonomy for the experiment stack.

The sweep engine, runner, and on-disk caches all need to agree on what
can go wrong with a long multi-process run and how each failure should
be handled.  The hierarchy encodes the policy:

``ExperimentError``
    Root of everything the resilience layer knows how to handle.
``TransientError``
    Plausibly succeeds on a retry (a crashed or hung worker, an
    injected flaky fault).  The sweep engine retries these with
    exponential backoff up to ``max_retries``.
``WorkerCrashError`` / ``PointTimeoutError``
    The two concrete transient cases: a worker process that died
    (nonzero exit code / signal) and one that exceeded
    ``point_timeout`` and was terminated.
``CorruptArtifactError``
    A persisted artifact (disk-cache entry, warmup checkpoint) failed
    checksum or decode validation.  Never raised across the cache API —
    the entry is quarantined, the failure is reported through
    :func:`repro.experiments.diskcache.add_corruption_listener`, and
    the caller sees a plain cache miss.
``DiskFullError``
    The cache *refused* a write because the volume is nearly full —
    better no entry than a torn one fighting ENOSPC.  Reported through
    the same listener channel, never raised to the caller.
``JournalError``
    A run journal could not be created, found, replayed, or appended
    to.  A failed append stops the sweep: the journal is the durable
    record ``--resume`` trusts — see :mod:`repro.experiments.journal`.
``SweepInterrupted``
    A graceful shutdown (SIGINT/SIGTERM or an explicit stop request)
    drained the scheduler mid-run.  Carries the partial
    ``SweepReport`` and, when a run journal is active, the run id to
    resume from.
``InvalidConfigError`` / ``EventStreamError`` / ``FaultPlanError``
    Validation failures that historically raised plain ``ValueError``.
    Each mixes ``ExperimentError`` with ``ValueError`` so existing
    ``except ValueError`` call sites (and tests) keep working while
    the error-taxonomy lint rule can prove every raise under
    ``repro.experiments`` resolves to the structured hierarchy.
``PointFailure``
    The terminal record for one sweep point that could not be
    completed after retries.  Collected into
    :class:`repro.experiments.sweep.SweepReport` under
    ``keep_going=True``, raised under the default fail-fast policy.

Retry pacing is deterministic: :func:`backoff_delay` derives its jitter
from a SHA-256 of ``(token, attempt)`` rather than a global RNG, so a
re-run of the same sweep sleeps the same schedule and tests are
reproducible.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Optional, Union

__all__ = [
    "ExperimentError",
    "TransientError",
    "WorkerCrashError",
    "PointTimeoutError",
    "CorruptArtifactError",
    "DiskFullError",
    "JournalError",
    "SweepInterrupted",
    "PointFailure",
    "InvalidConfigError",
    "EventStreamError",
    "FaultPlanError",
    "backoff_delay",
]


class ExperimentError(Exception):
    """Base class for structured experiment-stack failures."""


class TransientError(ExperimentError):
    """A failure that may succeed on retry (the sweep engine's cue to
    re-enqueue the point with backoff instead of recording a
    :class:`PointFailure`)."""


class WorkerCrashError(TransientError):
    """A sweep worker process died without delivering a result."""

    def __init__(self, message: str, exitcode: Optional[int] = None):
        super().__init__(message)
        #: Exit code of the dead worker (negative = killed by signal),
        #: or None when the crash was injected/simulated in-process.
        self.exitcode = exitcode


class PointTimeoutError(TransientError):
    """A point exceeded ``point_timeout`` and its worker was
    terminated."""

    def __init__(self, message: str, timeout: Optional[float] = None):
        super().__init__(message)
        self.timeout = timeout


class CorruptArtifactError(ExperimentError):
    """A persisted artifact failed validation (checksum mismatch,
    truncation, undecodable pickle/JSON).

    Instances are *descriptive*: :class:`~repro.experiments.diskcache.
    DiskCache` builds one per quarantined file and hands it to the
    registered corruption listeners; it is never raised through the
    cache ``get``/``put`` API.
    """

    def __init__(self, path: Union[str, Path], reason: str,
                 quarantined_to: Optional[Path] = None):
        super().__init__(f"{path}: {reason}")
        self.path = Path(path)
        self.reason = reason
        #: Where the bad file was moved (``<name>.corrupt``), or None
        #: when the move itself failed and the file was deleted/left.
        self.quarantined_to = quarantined_to


class DiskFullError(CorruptArtifactError):
    """A cache write was *refused* because the volume is nearly full.

    Subclasses :class:`CorruptArtifactError` so it reaches the same
    corruption listeners (the refusal is an artifact-integrity event:
    the alternative is a torn write racing ENOSPC), but nothing was
    quarantined — the entry simply was not written.
    """

    def __init__(self, path: Union[str, Path], reason: str,
                 free_bytes: int = 0, needed_bytes: int = 0):
        super().__init__(path, reason)
        self.free_bytes = free_bytes
        self.needed_bytes = needed_bytes


class JournalError(ExperimentError):
    """A run journal could not be created, found, replayed, or durably
    appended to."""


class SweepInterrupted(ExperimentError):
    """A sweep was shut down gracefully before completing.

    Raised by :func:`repro.experiments.sweep.sweep` after a
    SIGINT/SIGTERM (or an explicit shutdown request) drained the
    supervision loop: in-flight workers are reaped, completed points
    are kept on ``report``, and — when a run journal is active —
    ``run_id`` names the run to pass to ``repro sweep --resume``.
    """

    def __init__(self, message: str, report=None,
                 signum: Optional[int] = None,
                 run_id: Optional[str] = None):
        super().__init__(message)
        #: Partial :class:`~repro.experiments.sweep.SweepReport`.
        self.report = report
        #: The signal that triggered the shutdown, when one did.
        self.signum = signum
        #: Journal run id to resume from, when journaling was active.
        self.run_id = run_id

    @property
    def exit_code(self) -> int:
        """Conventional shell exit status (128 + signal, default
        SIGINT's 130)."""
        return 128 + (self.signum if self.signum else 2)


class InvalidConfigError(ExperimentError, ValueError):
    """A configuration object (benchmark/SLO specs) failed
    validation.  Subclasses ``ValueError`` so callers that
    predate the taxonomy — and tests written against them — still
    catch it."""


class EventStreamError(ExperimentError, ValueError):
    """A journal or ``--events`` stream failed strict decoding
    (``read_events(strict=True)`` hit an undecodable line)."""


class FaultPlanError(ExperimentError, ValueError):
    """A fault-injection plan (``--fault`` specs, fault fields) failed
    validation."""


#: Failure kinds recorded on :class:`PointFailure`.
FAILURE_KINDS = ("crash", "timeout", "transient", "error")


class PointFailure(ExperimentError):
    """Terminal failure record for one sweep point.

    Doubles as the exception raised under the fail-fast policy and as
    the per-point record stored on ``SweepReport.failures`` under
    ``keep_going=True``.
    """

    def __init__(self, label: str, index: int, kind: str, message: str,
                 attempts: int):
        noun = "attempt" if attempts == 1 else "attempts"
        super().__init__(
            f"{label}: {kind} after {attempts} {noun}: {message}"
        )
        self.label = label
        #: Position of the point in the sweep's input sequence.
        self.index = index
        #: One of :data:`FAILURE_KINDS`.
        self.kind = kind
        self.message = message
        self.attempts = attempts

    @classmethod
    def from_error(cls, label: str, index: int, error: BaseException,
                   attempts: int) -> "PointFailure":
        if isinstance(error, WorkerCrashError):
            kind = "crash"
        elif isinstance(error, PointTimeoutError):
            kind = "timeout"
        elif isinstance(error, TransientError):
            kind = "transient"
        else:
            kind = "error"
        return cls(label, index, kind, str(error), attempts)


def backoff_delay(attempt: int, base: float, token: str,
                  cap: float = 30.0) -> float:
    """Delay before retry number ``attempt`` (1-based) of ``token``.

    Exponential (``base * 2**(attempt-1)``) scaled by a jitter factor
    in ``[0.5, 1.5)`` derived from SHA-256 of ``(token, attempt)`` —
    deterministic for a given point and attempt, yet de-synchronized
    across points so retried workers do not stampede the disk cache
    together.  Capped at ``cap`` seconds; ``base <= 0`` disables
    sleeping entirely (used by tests).
    """
    if base <= 0.0:
        return 0.0
    digest = hashlib.sha256(f"{token}|{attempt}".encode("utf-8")).digest()
    jitter = 0.5 + int.from_bytes(digest[:8], "big") / 2.0**64
    return min(cap, base * (2.0 ** (attempt - 1)) * jitter)
