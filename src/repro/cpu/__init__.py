"""Trace-driven, cycle-approximate CPU front-end timing model.

This is the substrate standing in for gem5's O3CPU full-system runs (see
DESIGN.md §2): a fixed-commit-width core with a decoupled FDIP front
end, the Table-1 memory hierarchy, and pluggable instruction
prefetchers.  The model is deterministic: identical traces and
configurations produce identical cycle counts.
"""

from repro.cpu.config import DEFAULT_WARMUP, CoreConfig, MachineConfig
from repro.cpu.probes import ProbeBus
from repro.cpu.requests import RequestLatencyTracker
from repro.cpu.simulator import FrontEndSimulator, simulate
from repro.cpu.stats import SimStats


def __getattr__(name):
    # Multi-core shared-metadata mode pulls in repro.core, which would
    # make this package's import graph cyclic if imported eagerly.
    if name in ("simulate_shared", "make_shared_group", "MultiCoreResult"):
        from repro.cpu import multicore

        return getattr(multicore, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ProbeBus",
    "RequestLatencyTracker",
    "CoreConfig",
    "DEFAULT_WARMUP",
    "MachineConfig",
    "FrontEndSimulator",
    "simulate",
    "SimStats",
    "simulate_shared",
    "make_shared_group",
    "MultiCoreResult",
]
