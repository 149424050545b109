"""Map a cProfile run onto the ledger's layer names.

cProfile reports ``tottime`` per function.  The tracer reports self
time per *wrapped* layer, which also covers the unwrapped helpers the
layer calls.  To compare the two, each function's ``tottime`` is handed
to its nearest wrapped ancestor: split over its callers in proportion
to the time each caller spent in it, and passed upward until it reaches
a layer.  Time that never reaches one (set-up outside warmup/measure)
is dropped.
"""

from __future__ import annotations

from typing import Dict, Optional

from child import BLOCK_LAYERS, HOOKS

LOOP = "cpu.simulator.loop"


def _roots() -> Dict[tuple, str]:
    roots = {}
    for module, _cls, method, name in BLOCK_LAYERS:
        path = module.replace(".", "/") + ".py"
        roots[(path, method)] = name
    roots[("repro/cpu/simulator.py", "warmup")] = LOOP
    roots[("repro/cpu/simulator.py", "measure")] = LOOP
    return roots


def layer_of(func: tuple, roots: Dict[tuple, str]) -> Optional[str]:
    """The layer a cProfile function key ``(file, line, name)`` roots."""
    filename, _line, name = func
    filename = filename.replace("\\", "/")
    for (path, method), layer in roots.items():
        if name == method and filename.endswith(path):
            return layer
    if name in HOOKS and ("/repro/prefetchers/" in filename
                          or filename.endswith("repro/core/prefetcher.py")):
        return f"prefetchers.{name}"
    return None


def profile_shares(stats: dict) -> Dict[str, float]:
    """Share of the profiled commit loop per layer.

    ``stats`` is ``pstats.Stats(...).stats``: func -> (cc, nc, tottime,
    cumtime, callers), callers: func -> (cc, nc, tottime, cumtime).
    """
    roots = _roots()
    memo: Dict[tuple, Dict[str, float]] = {}
    active = set()

    def upward(func) -> Dict[str, float]:
        """Fractions of one second spent in ``func`` per layer."""
        layer = layer_of(func, roots)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        if func in active or func not in stats:
            return {}
        active.add(func)
        callers = stats[func][4]
        weight = sum(edge[3] for edge in callers.values())
        out: Dict[str, float] = {}
        for caller, edge in callers.items():
            if weight <= 0:
                break
            for name, frac in upward(caller).items():
                out[name] = out.get(name, 0.0) + frac * edge[3] / weight
        active.discard(func)
        memo[func] = out
        return out

    totals: Dict[str, float] = {}
    for func, (_cc, _nc, tottime, _ct, callers) in stats.items():
        layer = layer_of(func, roots)
        if layer is not None:
            totals[layer] = totals.get(layer, 0.0) + tottime
            continue
        # First hop: cProfile splits tottime by caller exactly.
        for caller, edge in callers.items():
            for name, frac in upward(caller).items():
                totals[name] = totals.get(name, 0.0) + frac * edge[2]
    loop_total = sum(totals.values())
    return {k: v / loop_total for k, v in totals.items()} if loop_total else {}
