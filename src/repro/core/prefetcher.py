"""The Hierarchical Prefetcher (paper §5.3).

Commit-driven record-and-replay at Bundle granularity:

* every committed block feeds the Compression Buffer, whose evictions
  stream into the current Bundle's Metadata Buffer record;
* a tagged call/return commits -> the current record ends, the new
  Bundle ID (hash of the next instruction address) probes the Metadata
  Address Table, a hit starts replay of the footprint recorded by the
  Bundle's previous execution, and a new (superseding) record begins;
* replay is paced segment-by-segment via each segment's ``num_insts``
  (first two segments immediately), pushes spatial-region base pages
  through the I-TLB, charges metadata reads through the LLC, and feeds
  a small region FIFO that drains into the prefetch queue at a bounded
  rate per commit.

Prefetching is non-speculative (trigger at commit) and never reacts to
intra-Bundle control-flow divergence — blocks missing from the recorded
footprint are simply fetched on demand while the record for next time is
updated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.core.compression import CompressionBuffer
from repro.core.metadata import (
    MetadataAddressTable,
    MetadataBuffer,
    SEGMENT_BYTES,
)
from repro.core.record import RecordEngine
from repro.core.replay import ReplayEngine
from repro.isa.instructions import BranchKind
from repro.isa.loader import bundle_id_of
from repro.prefetchers.base import InstructionPrefetcher

_TRIGGER_KINDS = (
    int(BranchKind.CALL), int(BranchKind.ICALL), int(BranchKind.RET)
)
_LINES_PER_SEGMENT = SEGMENT_BYTES // 64


@dataclass
class HPConfig:
    """Hierarchical Prefetcher configuration (paper defaults)."""

    compression_entries: int = 16
    #: Contiguous cache blocks per spatial region.  The paper uses 32;
    #: synthetic code is denser than real server code, so the default
    #: span of 4 keeps a segment (32 regions) around a quarter of the
    #: L1-I capacity — preserving the paper's sizing intent that each
    #: prefetch unit fits comfortably in the cache.
    region_blocks: int = 4
    mat_entries: int = 512
    mat_assoc: int = 8
    metadata_buffer_bytes: int = 512 * 1024
    max_segments: int = 64
    #: Prefetch destination: "l1" (default) or "l2" (§7.8).
    target_level: str = "l1"
    #: Max prefetch requests drained from the region FIFO per commit.
    issue_per_commit: int = 8
    #: Segments prefetched immediately at Bundle start (paper: the first
    #: and second).
    initial_segments: int = 2
    #: Pace replay by per-segment num_insts (False = issue the whole
    #: footprint at Bundle start; pacing ablation).
    paced: bool = True
    #: Supersede the old record (paper) vs. keep the first recording
    #: forever (record-policy ablation).
    supersede: bool = True
    #: Collect per-Bundle footprint/Jaccard/exec-cycle statistics
    #: (Table 4); costs some simulation speed.
    track_bundles: bool = False


class HierarchicalPrefetcher(InstructionPrefetcher):
    """Commit-driven Bundle record-and-replay prefetcher."""

    name = "hierarchical"

    def __init__(self, config: Optional[HPConfig] = None):
        super().__init__()
        self.config = config or HPConfig()
        if self.config.target_level not in ("l1", "l2"):
            raise ValueError(
                "target_level must be 'l1' or 'l2', got "
                f"{self.config.target_level!r}"
            )
        self.mat: Optional[MetadataAddressTable] = None
        self.buffer: Optional[MetadataBuffer] = None
        self.record: Optional[RecordEngine] = None
        self.replay: Optional[ReplayEngine] = None
        self.compression: Optional[CompressionBuffer] = None
        #: Multi-core shared-metadata mode (§5.3): when set, these
        #: replace the private MAT / Metadata Buffer, and only cores
        #: with ``record_enabled`` generate history.
        self.shared_mat: Optional[MetadataAddressTable] = None
        self.shared_buffer: Optional[MetadataBuffer] = None
        self.record_enabled: bool = True
        self._nin_a = self._kind_a = self._tgt_a = self._tag_a = None

    # ------------------------------------------------------------------
    def bind(self, sim, trace) -> None:
        super().bind(sim, trace)
        # Commit-hot trace arrays (the decode tables are bound by the
        # base class).
        self._nin_a = trace.ninstr
        self._kind_a = trace.kind
        self._tgt_a = trace.target
        self._tag_a = trace.tagged

    def __getstate__(self) -> dict:
        state = super().__getstate__()
        del state["_nin_a"], state["_kind_a"], state["_tgt_a"], \
            state["_tag_a"]
        return state

    def reset(self) -> None:
        cfg = self.config
        if self.shared_mat is not None and self.shared_buffer is not None:
            self.mat = self.shared_mat
            self.buffer = self.shared_buffer
        else:
            self.mat = MetadataAddressTable(cfg.mat_entries, cfg.mat_assoc)
            self.buffer = MetadataBuffer(
                cfg.metadata_buffer_bytes, on_invalidate=self.mat.invalidate
            )
        self.record = RecordEngine(
            self.buffer, cfg.max_segments, on_write=self._write_segment
        )
        self.replay = ReplayEngine(self.buffer, cfg.initial_segments)
        self.compression = CompressionBuffer(
            cfg.compression_entries, sink=self._region_evicted,
            span=cfg.region_blocks,
        )
        self._to_l2 = cfg.target_level == "l2"
        self._paced = cfg.paced
        self._track = cfg.track_bundles
        self._issue_per = cfg.issue_per_commit
        self._bundle_insts = 0
        self._fifo: list = []          # (block, extra_latency) pending issue
        self._fifo_pos = 0
        self._now = 0.0
        self._commit_i = 0
        self._last_block = -1
        # Statistics
        self._bundles_triggered = 0
        self._replays_started = 0
        self._mat_hits = 0
        self._bundle_start_cycle = -1.0
        self._exec_cycles_sum = 0.0
        self._exec_cycles_n = 0
        self._footprint_sum = 0
        self._footprint_n = 0
        self._jaccard_sum = 0.0
        self._jaccard_n = 0
        self._last_footprints: Dict[int, Set[int]] = {}
        self._current_footprint: Optional[Set[int]] = None
        self._current_bundle_id = -1

    # ------------------------------------------------------------------
    # Simulator hooks
    # ------------------------------------------------------------------
    def on_commit(self, i: int, now: float) -> None:
        # lint: hot-begin
        nin = self._nin_a[i]
        self._now = now
        self._commit_i = i
        # Record path: feed the Compression Buffer with this block's
        # cache lines.
        b0 = self._block0[i]
        b1 = self._block1[i]
        compression = self.compression
        if b0 != self._last_block:
            compression.observe(b0)
        if b1 != b0:
            compression.observe(b1)
        self._last_block = b1
        self._bundle_insts += nin
        record = self.record
        if record.active:
            record.observe_instructions(nin)
        fp = self._current_footprint
        if self._track and fp is not None:
            fp.add(b0)
            if b1 != b0:
                fp.add(b1)
        # Replay path: release newly eligible segments, drain the FIFO.
        replay = self.replay
        if replay.active:
            pace = self._bundle_insts if self._paced else 1 << 60
            for view in replay.take_eligible(pace):
                self._stage_segment(view, now)
        if self._fifo_pos < len(self._fifo):
            self._drain_fifo(now)
        # Trigger path: tagged call/return commits end/start Bundles.
        if self._tag_a[i] and self._kind_a[i] in _TRIGGER_KINDS:
            self._on_tagged(self._tgt_a[i], now)
        # lint: hot-end

    # ------------------------------------------------------------------
    # Bundle lifecycle
    # ------------------------------------------------------------------
    def _on_tagged(self, next_addr: int, now: float) -> None:
        cfg = self.config
        bundle_id = bundle_id_of(next_addr)
        self._bundles_triggered += 1
        # Close the current record.
        if self.record.active:
            self.compression.flush()
            result = self.record.end()
            if cfg.track_bundles:
                self._finish_bundle_stats(result, now)
        # Start the new Bundle.
        self.replay.stop()
        self._fifo = []
        self._fifo_pos = 0
        self._bundle_insts = 0
        self._current_bundle_id = bundle_id
        head = self.mat.lookup(bundle_id)
        if head is not None:
            self._mat_hits += 1
            if self.replay.start(bundle_id, head):
                self._replays_started += 1
            if cfg.supersede and self.record_enabled:
                self.record.begin(bundle_id, old_head=head)
            # else: record-policy ablation / replay-only core — the
            # existing recording is kept; compression evictions are
            # dropped.
        elif self.record_enabled:
            new_head = self.record.begin(bundle_id, old_head=-1)
            # A MAT eviction only loses the pointer; the victim's
            # segments stay in the buffer until circular reclaim.
            self.mat.insert(bundle_id, new_head)
        if cfg.track_bundles:
            if self._bundle_start_cycle >= 0:
                self._exec_cycles_sum += now - self._bundle_start_cycle
                self._exec_cycles_n += 1
            self._bundle_start_cycle = now
            self._current_footprint = set()

    def _finish_bundle_stats(self, result, now: float) -> None:
        footprint = self._current_footprint
        if footprint is None:
            return
        self._footprint_sum += len(footprint)
        self._footprint_n += 1
        previous = self._last_footprints.get(result.bundle_id)
        if previous is not None and (previous or footprint):
            inter = len(previous & footprint)
            union = len(previous | footprint)
            if union:
                self._jaccard_sum += inter / union
                self._jaccard_n += 1
        self._last_footprints[result.bundle_id] = footprint
        self._current_footprint = None

    # ------------------------------------------------------------------
    # Replay plumbing
    # ------------------------------------------------------------------
    def _stage_segment(self, view, now: float) -> None:
        """Read one segment's metadata and queue its blocks for issue.

        Prefetch requests cannot be generated before the segment's
        metadata arrives from the LLC/DRAM, so each block is staged with
        an earliest-issue cycle; the metadata wait does not occupy
        MSHRs.
        """
        read_latency = self.hierarchy.metadata_read(
            view.index * _LINES_PER_SEGMENT, _LINES_PER_SEGMENT, now
        )
        fifo = self._fifo
        # §5.3.5: region base addresses are dispatched to the TLB.  With
        # the I-TLB prefetch path on, the dispatch is a non-stalling
        # prefetch probe (installed translations don't count as demand
        # misses); otherwise the historical demand translate.
        xlate = self._itlb_pf
        if xlate is None:
            xlate = self.sim.itlb.translate
        for region in view.regions:
            walk = xlate((region.base << 6) >> 12)
            ready = now + read_latency + walk
            for block in region.blocks():
                fifo.append((block, ready))

    def _drain_fifo(self, now: float) -> None:
        fifo = self._fifo
        pos = self._fifo_pos
        end = min(len(fifo), pos + self._issue_per)
        blocks = []
        while pos < end:
            block, ready = fifo[pos]
            if ready > now:
                break  # metadata for this segment not back yet
            blocks.append(block)
            pos += 1
        if blocks:
            self.issue_many(blocks, now, to_l2=self._to_l2)
        self._fifo_pos = pos
        if pos >= len(fifo):
            self._fifo = []
            self._fifo_pos = 0

    # ------------------------------------------------------------------
    # Metadata write traffic
    # ------------------------------------------------------------------
    def _write_segment(self, seg) -> None:
        self.hierarchy.metadata_write(
            seg.index * _LINES_PER_SEGMENT, _LINES_PER_SEGMENT, self._now
        )

    def _region_evicted(self, region) -> None:
        if self.record.active:
            self.record.observe_region(region)

    # ------------------------------------------------------------------
    def on_measurement_start(self) -> None:
        self._bundles_triggered = 0
        self._replays_started = 0
        self._mat_hits = 0
        self._exec_cycles_sum = 0.0
        self._exec_cycles_n = 0
        self._footprint_sum = 0
        self._footprint_n = 0
        self._jaccard_sum = 0.0
        self._jaccard_n = 0

    def on_measurement_end(self) -> None:
        extra = self.stats.extra
        extra["hp_bundles_triggered"] = self._bundles_triggered
        extra["hp_replays_started"] = self._replays_started
        extra["hp_mat_hits"] = self._mat_hits
        extra["hp_mat_hit_rate"] = (
            self._mat_hits / self._bundles_triggered
            if self._bundles_triggered
            else 0.0
        )
        if self._exec_cycles_n:
            extra["hp_avg_exec_cycles"] = (
                self._exec_cycles_sum / self._exec_cycles_n
            )
        if self._footprint_n:
            extra["hp_avg_footprint_kb"] = (
                self._footprint_sum / self._footprint_n * 64 / 1024
            )
        if self._jaccard_n:
            extra["hp_avg_jaccard"] = self._jaccard_sum / self._jaccard_n
