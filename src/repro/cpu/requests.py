"""Per-request latency accounting for request-graph workloads.

The :class:`RequestLatencyTracker` timestamps the commit clock at every
request boundary inside the measurement window — the simulator splits
the window at boundaries exactly like it splits at probe intervals, so
the hot loop stays uninstrumented — and at the end of the run converts
the per-request *service times* into end-to-end latencies under the
trace's bursty open-loop arrival process:

* arrivals live on the ideal-instruction clock recorded in
  ``trace.request_gaps`` (identical offered load for every prefetcher
  simulating the trace — the SLOFetch methodology);
* the core serves requests in order, so latency follows the standard
  single-server queueing recurrence
  ``finish_k = max(arrival_k, finish_{k-1}) + service_k``;
* the SLO threshold is ``trace.slo_instr`` converted to cycles.

Published into ``SimStats.extra`` like the probe-bus timelines: flat
immutable tuples under ``probe.request_*`` (per-request and windowed
series) plus scalar ``request.*`` summary metrics — both survive the
shallow copies ``SimStats.state_dict`` makes for the disk cache and the
sweep engine's cross-process transport.

Tracker state is *not* machine state: it is rebuilt from the trace and
the commit position at every measurement start, so warmup checkpoints
remain tracker-configuration-independent (mirroring the probe bus).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from repro.cpu.restore import Restorable

#: Boundary sentinel past any trace index (traces are far smaller).
_NO_BOUNDARY = 1 << 62

#: Tumbling-window count for the SLO/percentile timelines: the measured
#: requests are split into up to this many equal windows.
_TIMELINE_WINDOWS = 8


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sequence."""
    n = len(sorted_values)
    if not n:
        return 0.0
    rank = max(1, min(n, math.ceil(q / 100.0 * n)))
    return sorted_values[rank - 1]


class RequestLatencyTracker(Restorable):
    """Timestamps request boundaries; publishes SLO/tail metrics.

    Lifecycle mirrors :class:`~repro.cpu.probes.ProbeBus`: ``begin`` at
    measurement start (from trace + commit position only), ``record``
    at each boundary the simulator crosses, ``publish`` at measurement
    end.
    """

    def __init__(self) -> None:
        self.active = False
        #: Next trace index at which the simulator must split the
        #: commit range and call :meth:`record`.
        self.next_boundary = _NO_BOUNDARY
        self._bounds: List[int] = []
        self._bptr = 0
        self._times: List[float] = []
        self._times_append = self._times.append
        self._arrivals: List[float] = []
        self._types: List[int] = []
        self._slo_cycles = 0.0

    # ------------------------------------------------------------------
    def begin(self, trace, start_index: int, commit_width: int,
              enabled: bool) -> None:
        """Arm the tracker for a measurement window.

        Derives everything from ``trace`` and ``start_index`` so a
        resumed-from-checkpoint run and a cold run see identical
        boundaries.  Only requests that *start* inside the window are
        measured (a request cut by the warmup boundary has no defined
        latency).
        """
        self.active = False
        self.next_boundary = _NO_BOUNDARY
        gaps = getattr(trace, "request_gaps", None)
        if not enabled or gaps is None:
            return
        measured = [k for k, (s, _) in enumerate(trace.requests)
                    if s >= start_index]
        if not measured:
            return
        starts = trace.requests
        self._bounds = [starts[k][0] for k in measured] + [len(trace)]
        self._bptr = 0
        self._times = []
        self._times_append = self._times.append
        inv_width = 1.0 / commit_width
        arrivals: List[float] = [0.0]
        for k in measured[1:]:
            arrivals.append(arrivals[-1] + gaps[k] * inv_width)
        self._arrivals = arrivals
        self._types = [starts[k][1] for k in measured]
        self._slo_cycles = trace.slo_instr * inv_width
        self.active = True
        self.next_boundary = self._bounds[0]

    def record(self, now: float) -> None:
        """Timestamp the boundary the commit loop just reached."""
        # lint: hot-begin
        self._times_append(now)
        bptr = self._bptr + 1
        self._bptr = bptr
        bounds = self._bounds
        self.next_boundary = (bounds[bptr] if bptr < len(bounds)
                              else _NO_BOUNDARY)
        # lint: hot-end

    # ------------------------------------------------------------------
    def publish(self, stats) -> None:
        """Write per-request series and summary metrics into ``stats``."""
        if not self.active:
            return
        times = self._times
        if len(times) != len(self._bounds):
            return  # measurement did not reach the end of the trace
        t0 = times[0]
        arrivals = self._arrivals
        services = [times[j + 1] - times[j] for j in range(len(times) - 1)]
        latencies: List[float] = []
        queues: List[float] = []
        finish = 0.0
        for j, service in enumerate(services):
            arrival = arrivals[j]
            wait = finish - arrival if finish > arrival else 0.0
            finish = arrival + wait + service
            queues.append(wait)
            latencies.append(wait + service)
        n = len(latencies)
        slo = self._slo_cycles
        attained = sum(1 for lat in latencies if lat <= slo)
        ordered = sorted(latencies)
        extra: Dict[str, object] = stats.extra
        extra["probe.request_latency"] = tuple(latencies)
        extra["probe.request_service"] = tuple(services)
        extra["probe.request_queue"] = tuple(queues)
        extra["probe.request_arrival"] = tuple(arrivals)
        extra["probe.request_start"] = tuple(t - t0 for t in times[:-1])
        extra["probe.request_type"] = tuple(float(t) for t in self._types)
        window = max(1, n // _TIMELINE_WINDOWS)
        p50s: List[float] = []
        p95s: List[float] = []
        p99s: List[float] = []
        slos: List[float] = []
        for lo in range(0, n, window):
            chunk = sorted(latencies[lo:lo + window])
            p50s.append(percentile(chunk, 50.0))
            p95s.append(percentile(chunk, 95.0))
            p99s.append(percentile(chunk, 99.0))
            slos.append(sum(1 for lat in chunk if lat <= slo) / len(chunk))
        extra["probe.request_p50"] = tuple(p50s)
        extra["probe.request_p95"] = tuple(p95s)
        extra["probe.request_p99"] = tuple(p99s)
        extra["probe.request_slo"] = tuple(slos)
        extra["request.count"] = float(n)
        extra["request.window"] = float(window)
        extra["request.mean"] = sum(latencies) / n
        extra["request.max"] = ordered[-1]
        extra["request.p50"] = percentile(ordered, 50.0)
        extra["request.p95"] = percentile(ordered, 95.0)
        extra["request.p99"] = percentile(ordered, 99.0)
        extra["request.slo_threshold"] = slo
        extra["request.slo_attainment"] = attained / n

    def __repr__(self) -> str:
        return (
            f"RequestLatencyTracker(active={self.active}, "
            f"requests={max(0, len(self._bounds) - 1)}, "
            f"recorded={len(self._times)})"
        )
