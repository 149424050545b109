"""Multi-core shared-metadata mode (paper §5.3).

The paper exploits the control-flow similarity of cores serving the
same workload: "we share the metadata buffer across multiple cores and
randomly select one core to generate the instruction history".  This
module models that arrangement: one *recording* core builds the Bundle
history; the remaining cores run replay-only Hierarchical Prefetchers
against the shared Metadata Buffer / Metadata Address Table.

Cores are simulated sequentially on per-core traces (same application,
different request streams), so the model captures the first-order
question — does one core's recorded history cover another core's
execution? — without simulating cache-coherent timing interleaving
(documented in DESIGN.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.metadata import MetadataAddressTable, MetadataBuffer
from repro.core.prefetcher import HierarchicalPrefetcher, HPConfig
from repro.cpu.config import MachineConfig
from repro.cpu.simulator import FrontEndSimulator
from repro.cpu.stats import SimStats


@dataclass
class MultiCoreResult:
    """Per-core statistics plus shared-metadata summary."""

    core_stats: List[SimStats]
    baseline_stats: List[SimStats]
    recorder_core: int

    @property
    def n_cores(self) -> int:
        return len(self.core_stats)

    def speedup(self, core: int) -> float:
        return (self.core_stats[core].ipc
                / self.baseline_stats[core].ipc - 1.0)

    def coverage(self, core: int) -> float:
        base = self.baseline_stats[core].l1i_misses
        if not base:
            return 0.0
        return (base - self.core_stats[core].l1i_misses) / base


def make_shared_group(
    n_cores: int, config: Optional[HPConfig] = None, recorder: int = 0
) -> List[HierarchicalPrefetcher]:
    """Build ``n_cores`` HP instances over one shared metadata store.

    Core ``recorder`` records and replays; the others are replay-only
    (their Compression Buffer output is discarded, as in the paper's
    single-history-generator arrangement).
    """
    if not 0 <= recorder < n_cores:
        raise ValueError(f"recorder {recorder} out of range")
    config = config or HPConfig()
    mat = MetadataAddressTable(config.mat_entries, config.mat_assoc)
    buffer = MetadataBuffer(
        config.metadata_buffer_bytes, on_invalidate=mat.invalidate
    )
    group = []
    for core in range(n_cores):
        pf = HierarchicalPrefetcher(config)
        pf.shared_mat = mat
        pf.shared_buffer = buffer
        pf.record_enabled = core == recorder
        group.append(pf)
    return group


def simulate_shared(
    traces: Sequence,
    config: Optional[MachineConfig] = None,
    hp_config: Optional[HPConfig] = None,
    recorder: int = 0,
    warmup_fraction: float = 0.45,
) -> MultiCoreResult:
    """Run one trace per core with shared HP metadata.

    The recording core runs first (its history must exist before the
    replay-only cores can profit); per-core FDIP baselines are run for
    the speedup denominators.
    """
    n_cores = len(traces)
    if n_cores < 2:
        raise ValueError("shared-metadata mode needs >= 2 cores")
    group = make_shared_group(n_cores, hp_config, recorder)
    order = [recorder] + [c for c in range(n_cores) if c != recorder]
    core_stats: List[Optional[SimStats]] = [None] * n_cores
    base_stats: List[Optional[SimStats]] = [None] * n_cores
    for core in order:
        sim = FrontEndSimulator(config=config, prefetcher=group[core])
        core_stats[core] = sim.run(traces[core],
                                   warmup_fraction=warmup_fraction)
        base = FrontEndSimulator(config=config)
        base_stats[core] = base.run(traces[core],
                                    warmup_fraction=warmup_fraction)
    return MultiCoreResult(
        core_stats=core_stats,          # type: ignore[arg-type]
        baseline_stats=base_stats,      # type: ignore[arg-type]
        recorder_core=recorder,
    )
