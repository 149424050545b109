"""Machine configuration (Table 1 of the paper).

``MachineConfig`` aggregates the core, front-end and memory-hierarchy
parameters.  Experiment code mutates copies of the default config (via
:meth:`MachineConfig.replace`) rather than passing loose keyword
arguments around.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.frontend.fdip import FrontEndParams
from repro.memory.hierarchy import HierarchyParams

#: Warmup fraction shared by every entry point (simulator defaults, the
#: CLI ``--warmup`` flags, and the experiment runner).  The paper warms
#: 100M of 200M instructions; our preheated traces need a little less
#: than half.  Single source of truth — change it here only (pinned by
#: tests/test_simulator.py).
DEFAULT_WARMUP = 0.45


@dataclass
class CoreConfig:
    """Commit-engine parameters.

    The back end is modelled as a fixed-width commit engine (Ice-Lake-
    like width 5); data-side stalls are out of scope — the paper's
    effects all live in the front end.
    """

    commit_width: int = 5
    #: Cycles of fetch latency the decoupled front end / OoO window can
    #: absorb before the commit stream stalls (decode+rename queue
    #: depth).  L2-hit latency (14 cycles) sits below this, matching the
    #: observation that only L2-and-beyond instruction misses hurt.
    fetch_slack: float = 26.0
    itlb_entries: int = 128
    itlb_walk_latency: int = 40
    #: Replacement policy for the I-TLB (see repro.memory.policies).
    itlb_policy: str = "lru"
    #: When True, FDIP runahead / HP replay / baseline-prefetcher
    #: addresses also probe the I-TLB at page granularity, installing
    #: missing translations without stalling (off by default so the
    #: seed golden matrix stays bit-identical).
    itlb_prefetch: bool = False


@dataclass
class MachineConfig:
    """Complete simulated-machine configuration."""

    core: CoreConfig = field(default_factory=CoreConfig)
    frontend: FrontEndParams = field(default_factory=FrontEndParams)
    hierarchy: HierarchyParams = field(default_factory=HierarchyParams)

    def replace(self, **kwargs) -> "MachineConfig":
        """Deep-copy this config, applying dotted overrides.

        Example::

            cfg.replace(**{"hierarchy.l1i_bytes": 64 * 1024,
                           "frontend.btb_entries": None})
        """
        new = copy.deepcopy(self)
        for key, value in kwargs.items():
            obj = new
            parts = key.split(".")
            for part in parts[:-1]:
                obj = getattr(obj, part)
            if not hasattr(obj, parts[-1]):
                raise AttributeError(f"unknown config field {key!r}")
            setattr(obj, parts[-1], value)
        return new
