"""Structured error taxonomy for the experiment stack.

The sweep engine, runner and run journal all need to agree on what
can go wrong with a long multi-process run and how each failure should
be handled.  The hierarchy encodes the policy:

``ExperimentError``
    Root of everything the resilience layer knows how to handle.
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
    every exception class defined under ``repro.experiments`` stays
    inside the structured hierarchy (``tests/test_faults.py``
    checks it).
``PointFailure``
    The terminal record for one sweep point that could not be
    completed after retries.  Its ``kind`` (:data:`FAILURE_KINDS`)
    encodes the policy: ``crash`` (a worker died), ``timeout`` (a
    worker outlived ``point_timeout``) and ``transient`` (an injected
    flaky fault) were retried with backoff up to ``max_retries``;
    ``error`` (an exception from the deterministic simulation) was not.
    Collected into :class:`repro.experiments.sweep.SweepReport` under
    ``keep_going=True``, raised under the default fail-fast policy.

Retry pacing is deterministic: :func:`backoff_delay` derives its jitter
from a SHA-256 of ``(token, attempt)`` rather than a global RNG, so a
re-run of the same sweep sleeps the same schedule and tests are
reproducible.
"""

from __future__ import annotations

import hashlib
from typing import Optional

__all__ = [
    "ExperimentError",
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
    """A journal or ``--events`` stream failed decoding
    (``read_events`` hit an undecodable line before the last), or a
    record about to be emitted does not match ``EVENT_SCHEMA``."""


class FaultPlanError(ExperimentError, ValueError):
    """A fault-injection plan (``--fault`` specs, fault fields) failed
    validation."""


#: Failure kinds recorded on :class:`PointFailure`; the sweep engine
#: retries every kind but ``error``.
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
