"""Memoized access to generated applications and traces.

Building an application takes 0.2-0.45 s and a bench-scale trace
0.1-0.15 s (bench ``mysql_sibench`` and ``msvc_hotel`` on a 2-vCPU VM);
experiments run the same trace under many prefetchers, so both are
cached (applications by name, traces by (name, scale, seed), small LRU
to bound memory).  A caller can put a persistent
:class:`TraceStore` behind the trace memo, so a fresh process loads a
trace instead of building its application.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Protocol

from repro.workloads.appmodel import Application
from repro.workloads.suite import build_application, requests_for
from repro.workloads.trace import Trace

#: LRU bound for memoized traces.  A miss falls through to the trace
#: store when one is given, so a grid that cycles through more
#: workloads than this pays a store read, not an application build.
TRACE_MEMO_SIZE = 6

_APPS: Dict[str, Application] = {}
_TRACES: OrderedDict = OrderedDict()


class TraceStore(Protocol):
    """Persistent traces behind the memo (``repro.experiments.runner``
    keeps the on-disk one)."""

    def load(self, name: str, scale: str, seed: int) -> Optional[Trace]:
        """The stored trace, or None on a miss."""

    def save(self, name: str, scale: str, seed: int, trace: Trace) -> None:
        """Persist a freshly built trace."""


def get_application(name: str) -> Application:
    """Build (once) and return the named application."""
    app = _APPS.get(name)
    if app is None:
        app = build_application(name)
        _APPS[name] = app
    return app


def get_trace(name: str, scale: str = "bench", seed: int = 1,
              store: Optional[TraceStore] = None) -> Trace:
    """Return the trace for (workload, scale, seed): from the memo,
    else from ``store``, else built (and saved to ``store``)."""
    key = (name, scale, seed)
    trace = _TRACES.get(key)
    if trace is not None:
        _TRACES.move_to_end(key)
        return trace
    trace = store.load(name, scale, seed) if store is not None else None
    if trace is None:
        app = get_application(name)
        trace = app.trace(requests_for(name, scale), seed=seed)
        if store is not None:
            store.save(name, scale, seed, trace)
    _TRACES[key] = trace
    while len(_TRACES) > TRACE_MEMO_SIZE:
        _TRACES.popitem(last=False)
    return trace


def clear_caches() -> None:
    """Drop all cached applications and traces (tests/memory pressure)."""
    _APPS.clear()
    _TRACES.clear()
