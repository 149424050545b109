"""Outside-in layer tracer for the performance ledger.

The tracer replaces public methods of the simulator's classes with
wrappers that time each call and carry a child-time accumulator, so
every layer gets its *self* time: its own duration minus the part its
wrapped children cover.  Nothing under ``src/`` changes; the wrappers
exist only in the traced process (and in the workers it forks).

Per-block layers keep per-name aggregates only (calls, raw self
seconds, direct wrapped children), so memory stays bounded however
many blocks a trace has.  Coarse boundaries (one point, ``get_trace``,
``warmup``, ``measure``, a cache ``put``) also keep full spans with an
id and a parent id.

A wrapper must not allocate garbage-collected objects: the commit loop
allocates few of them, and a wrapper that built an argument tuple or a
stack frame list per call would trigger collections over the whole
heap that the untraced program never runs.  So wrappers are generated
with the wrapped method's own signature (no ``*args``) and keep the
accumulator stack in their locals.

Every wrapper still costs time, in two places: inside the wrapped
call's own measured interval (``own``) and in its parent's interval
outside the child's (``charge``).  :meth:`Tracer.calibrate` measures
both on a no-op method and :func:`corrected` subtracts them, so
corrected self times add up to the untraced run time.  A no-op called
in a tight loop runs faster than the same wrapper inside the commit
loop, and by a factor that drifts with the machine's load, so a second
wrapper (a *probe*, see :meth:`Tracer.probe`) around one busy layer
measures the whole per-call cost in place; :meth:`Tracer.dump` scales
the no-op figures to it.
"""

from __future__ import annotations

import inspect
import json
import os
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

# Aggregate record layout: [calls, raw_self_s, child_calls].
CALLS, SELF, CHILDREN = range(3)
#: Name suffix of probe aggregates.
PROBE = "#probe"
#: Probe calls needed before its in-place cost replaces the no-op one.
PROBE_MIN_CALLS = 1000

_WRAPPER = """
def wrapper({decl}):
    _t_saved = _t_acc[0]
    _t_saved_n = _t_acc[1]
    _t_acc[0] = 0.0
    _t_acc[1] = 0
    _t_start = _t_clock()
    try:
        return _t_fn({call})
    finally:
        _t_dt = _t_clock() - _t_start
        _t_agg[0] += 1
        _t_agg[1] += _t_dt - _t_acc[0]
        _t_agg[2] += _t_acc[1]
        _t_acc[0] = _t_saved + _t_dt
        _t_acc[1] = _t_saved_n + 1
"""

_PLAIN = (inspect.Parameter.POSITIONAL_ONLY,
          inspect.Parameter.POSITIONAL_OR_KEYWORD)


def _signature_source(fn: Callable):
    """``(decl, call, defaults)`` mirroring ``fn``'s parameters, or a
    ``*args, **kwargs`` pass-through when they are not all plain."""
    params = list(inspect.signature(fn).parameters.values())
    if not all(p.kind in _PLAIN for p in params):
        return "*args, **kwargs", "*args, **kwargs", {}
    decl, defaults = [], {}
    for i, p in enumerate(params):
        if p.default is p.empty:
            decl.append(p.name)
        else:
            defaults[f"_t_d{i}"] = p.default
            decl.append(f"{p.name}=_t_d{i}")
    return ", ".join(decl), ", ".join(p.name for p in params), defaults


class Tracer:
    """Self-time accounting over wrapped callables.

    ``flush_dir``: when set, a forked process writes its aggregates to
    ``<flush_dir>/spans-<pid>.json`` as soon as its outermost span
    closes (forked pool workers leave through ``os._exit`` and never
    reach an exit handler).
    """

    def __init__(self, flush_dir: Optional[Path] = None,
                 clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.flush_dir = Path(flush_dir) if flush_dir else None
        self.root_pid = os.getpid()
        # Wrappers close over these containers, so reset() clears them
        # in place instead of rebinding.  ``acc`` holds the running
        # [child seconds, child calls] of the innermost open call.
        self.acc = [0.0, 0]
        self.aggs: Dict[str, list] = {}
        self.spans: List[dict] = []
        self._open: List[int] = []
        self._next_id = 0
        self.own = 0.0
        self.charge = 0.0
        self.calibrate_s = 0.0

    def reset(self) -> None:
        """Forget everything recorded so far (a forked child starts
        with its parent's numbers, which are not its own)."""
        self.acc[:] = [0.0, 0]
        for agg in self.aggs.values():
            agg[:] = [0, 0.0, 0]
        self.spans.clear()
        self._open.clear()

    # ------------------------------------------------------------------
    def wrap(self, fn: Callable, name: str) -> Callable:
        """Return ``fn`` wrapped with self-time accounting under
        ``name``; wrappers sharing a name share one aggregate."""
        decl, call, defaults = _signature_source(fn)
        namespace = {"_t_fn": fn, "_t_acc": self.acc,
                     "_t_agg": self.aggs.setdefault(name, [0, 0.0, 0]),
                     "_t_clock": self.clock, **defaults}
        exec(_WRAPPER.format(decl=decl, call=call), namespace)
        wrapper = namespace["wrapper"]
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def wrap_span(self, fn: Callable, name: str) -> Callable:
        """Like :meth:`wrap`, and also record one span per call."""
        inner = self.wrap(fn, name)
        clock = self.clock
        opened = self._open

        def span(*args, **kwargs):
            self._next_id += 1
            sid = self._next_id
            parent = opened[-1] if opened else None
            opened.append(sid)
            start = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                end = clock()
                opened.pop()
                self.spans.append({"id": sid, "parent": parent,
                                   "name": name, "pid": os.getpid(),
                                   "start": start, "end": end})
                if not opened and os.getpid() != self.root_pid:
                    self.flush()

        span.__wrapped__ = fn
        return span

    def probe(self, wrapped: Callable, name: str) -> Callable:
        """Wrap an already wrapped layer once more.  The outer
        wrapper's raw self time is exactly the inner wrapper's whole
        per-call cost, measured where the layer really runs."""
        return self.wrap(wrapped, name + PROBE)

    # ------------------------------------------------------------------
    def calibrate(self, calls: int = 100_000, rounds: int = 5) -> None:
        """Measure the wrapper's cost on a no-op method.

        ``own``: seconds a wrapped call adds inside its own measured
        interval.  ``charge``: seconds it adds to its parent outside
        that interval.  Medians over ``rounds`` damp scheduler noise.
        """
        start = self.clock()
        samples = [_calibrate_once(self.clock, calls) for _ in range(rounds)]
        self.own = statistics.median(own for own, _ in samples)
        self.charge = statistics.median(charge for _, charge in samples)
        self.calibrate_s = self.clock() - start

    def dump(self) -> dict:
        """Aggregates, spans and the wrapper cost to subtract: the
        no-op ``own``/``charge`` split, scaled to the probes' in-place
        per-call cost when they ran often enough to measure it."""
        own, charge = self.own, self.charge
        probes = [agg for name, agg in self.aggs.items()
                  if name.endswith(PROBE)]
        calls = sum(agg[CALLS] for agg in probes)
        if calls >= PROBE_MIN_CALLS and own + charge > 0:
            in_place = sum(agg[SELF] for agg in probes) / calls
            scale = in_place / (own + charge)
            own, charge = own * scale, charge * scale
        return {"pid": os.getpid(), "own": own, "charge": charge,
                "aggs": {k: list(v) for k, v in self.aggs.items()
                         if not k.endswith(PROBE)},
                "spans": list(self.spans)}

    def flush(self) -> None:
        if self.flush_dir is None:
            return
        path = self.flush_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps(self.dump()))


class _Probe:
    def hit(self, a, b, c):
        return None


def _calibrate_once(clock, n: int):
    probe = _Probe()
    rng = range(n)
    t0 = clock()
    for _ in rng:
        pass
    loop = clock() - t0
    bare = probe.hit
    t0 = clock()
    for _ in rng:
        bare(1, 2.0, 3)
    t_bare = clock() - t0
    tracer = Tracer(clock=clock)
    original = _Probe.hit
    _Probe.hit = tracer.wrap(original, "noop")
    try:
        wrapped = probe.hit
        t0 = clock()
        for _ in rng:
            wrapped(1, 2.0, 3)
        t_wrapped = clock() - t0
    finally:
        _Probe.hit = original
    bare_call = (t_bare - loop) / n
    own = tracer.aggs["noop"][SELF] / n - bare_call
    total = (t_wrapped - t_bare) / n
    return own, total - own


def corrected(aggs: Dict[str, list], own: float,
              charge: float) -> Dict[str, dict]:
    """``self_s`` = raw self − calls·own − child_calls·charge."""
    return {name: {"calls": calls,
                   "self_s": raw_self - calls * own - children * charge}
            for name, (calls, raw_self, children) in aggs.items()}


def merge(dumps: List[dict]) -> Dict[str, dict]:
    """Sum corrected layers over the dumps of several processes."""
    out: Dict[str, dict] = {}
    for dump in dumps:
        for name, layer in corrected(dump["aggs"], dump["own"],
                                     dump["charge"]).items():
            acc = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += layer["calls"]
            acc["self_s"] += layer["self_s"]
    return out
