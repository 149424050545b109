"""Timing model of the L1-I / L2 / LLC / DRAM hierarchy.

Demand fetches stall the core for the residual fill latency; prefetches
are queued, limited by prefetch MSHRs, and complete asynchronously
(min-heap of fills).  A demand fetch that finds its block still in
flight is a *late prefetch* — the MSHR hit of Figure 10 — and stalls for
the residual latency only.  HP's metadata lives in a dedicated region
serviced through the real LLC, so metadata traffic competes with
instruction blocks exactly as §5.3 requires, and the bandwidth meter
feeds Figure 16.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.cpu.restore import Restorable
from repro.cpu.stats import LEVEL_DRAM, LEVEL_L2, LEVEL_LLC, SimStats
from repro.memory.cache import (
    E_DIRTY,
    E_ISSUE,
    E_ORIGIN,
    E_USED,
    ORIGIN_DEMAND,
    SetAssocCache,
)

# Fill record layout: [ready, origin, level, issue_index, demanded, to_l2, id]
F_READY = 0
F_ORIGIN = 1
F_LEVEL = 2
F_ISSUE = 3
F_DEMANDED = 4
F_TO_L2 = 5
F_ID = 6

#: Base block index of the synthetic metadata region (disjoint from text).
METADATA_REGION_BLOCK = 1 << 40


@dataclass
class HierarchyParams:
    """Geometry and latencies; defaults follow Table 1 of the paper."""

    l1i_bytes: int = 32 * 1024
    l1i_assoc: int = 8
    l2_bytes: int = 512 * 1024
    l2_assoc: int = 8
    llc_bytes: int = 2 * 1024 * 1024
    llc_assoc: int = 16
    block_bytes: int = 64
    lat_l2: int = 14
    lat_llc: int = 50
    lat_dram: int = 250
    pf_mshrs: int = 16
    pf_queue: int = 512
    perfect_l1i: bool = False
    #: Replacement policy name (see :mod:`repro.memory.policies`)
    #: applied to L1-I, L2 and LLC; each level gets its own instance.
    policy: str = "lru"


class MemoryHierarchy(Restorable):
    """Instruction-side memory hierarchy with asynchronous prefetch fills."""

    def __init__(self, params: HierarchyParams, stats: SimStats):
        self.params = params
        self.stats = stats
        p = params
        self.l1i = SetAssocCache(p.l1i_bytes, p.l1i_assoc, p.block_bytes,
                                 "L1I", policy=p.policy)
        self.l2 = SetAssocCache(p.l2_bytes, p.l2_assoc, p.block_bytes,
                                "L2", policy=p.policy)
        self.llc = SetAssocCache(p.llc_bytes, p.llc_assoc, p.block_bytes,
                                 "LLC", policy=p.policy)
        # Hot-path constants (params are immutable after construction).
        self._lat_l2 = float(p.lat_l2)
        self._lat_llc = float(p.lat_llc)
        self._lat_dram = float(p.lat_dram)
        self._level_lat = {LEVEL_L2: self._lat_l2, LEVEL_LLC: self._lat_llc,
                           LEVEL_DRAM: self._lat_dram}
        self._block_bytes = p.block_bytes
        self._pf_mshrs = p.pf_mshrs
        self._pf_queue = p.pf_queue
        self._perfect = p.perfect_l1i
        self._inflight: dict = {}
        self._heap: list = []
        self._pending: deque = deque()
        self._fill_seq = 0
        #: When set (a dict), demand L2 misses are tallied per block —
        #: used by the long-range-miss analysis of Figure 12.
        self.l2_miss_map: Optional[dict] = None
        #: Monotonic demand-access clock (never reset, unlike the stats
        #: counter): prefetch issue stamps and trigger-to-use distances
        #: survive the warmup-boundary stats reset.
        self.access_clock = 0

    # ------------------------------------------------------------------
    # Demand path
    # ------------------------------------------------------------------
    def demand_fetch(self, block: int, now: float, commit_index: int) -> float:
        """Fetch ``block`` on the demand path; return stall cycles."""
        stats = self.stats
        stats.demand_accesses += 1
        self.access_clock += 1
        if self._perfect:
            stats.l1i_hits += 1
            return 0.0
        if self._heap and self._heap[0][0] <= now:
            self._drain(now)
        entry = self.l1i.lookup(block)
        if entry is not None:
            stats.l1i_hits += 1
            origin = entry[E_ORIGIN]
            if origin != ORIGIN_DEMAND:
                # Hit on a line a prefetcher brought in (the attribution
                # the policy study needs: prefetch-hit vs demand-hit).
                stats.l1i_prefetch_hits += 1
                if not entry[E_USED]:
                    entry[E_USED] = True
                    stats.pf_useful[origin] += 1
                    stats.covered[origin] += 1
                    issue = entry[E_ISSUE]
                    if issue >= 0:
                        stats.distance_sum[origin] += (
                            self.access_clock - issue
                        )
                        stats.distance_n[origin] += 1
            else:
                stats.l1i_demand_hits += 1
                if not entry[E_USED]:
                    entry[E_USED] = True
            return 0.0
        stats.l1i_misses += 1
        fill = self._inflight.get(block)
        if fill is not None:
            stall = fill[F_READY] - now
            if stall < 0.0:
                stall = 0.0
            # The demand promotes the outstanding prefetch: it can never
            # wait longer than fetching the block from the fill's source
            # level directly.
            cap = self._level_latency(fill[F_LEVEL])
            if stall > cap:
                stall = cap
                fill[F_READY] = now + cap
            origin = fill[F_ORIGIN]
            if not fill[F_DEMANDED]:
                fill[F_DEMANDED] = True
                if origin != ORIGIN_DEMAND:
                    stats.pf_late[origin] += 1
                    stats.pf_useful[origin] += 1
                    issue = fill[F_ISSUE]
                    if issue >= 0:
                        stats.distance_sum[origin] += (
                            self.access_clock - issue
                        )
                        stats.distance_n[origin] += 1
            level = fill[F_LEVEL]
            stats.exposed_latency[level] += stall
            # An MSHR hit whose residual latency exceeds an L2 hit is,
            # behaviourally, an L2 miss.
            if stall > self._lat_l2:
                stats.l2_demand_misses += 1
                if self.l2_miss_map is not None:
                    self.l2_miss_map[block] = self.l2_miss_map.get(block, 0) + 1
            return stall
        # True miss: probe downwards.
        entry = self.l2.lookup(block)
        if entry is not None:
            level, latency = LEVEL_L2, self._lat_l2
            if not entry[E_USED]:
                origin = entry[E_ORIGIN]
                entry[E_USED] = True
                if origin != ORIGIN_DEMAND:
                    stats.covered_l2[origin] += 1
        else:
            stats.l2_demand_misses += 1
            if self.l2_miss_map is not None:
                self.l2_miss_map[block] = self.l2_miss_map.get(block, 0) + 1
            llc_entry = self.llc.lookup(block)
            if llc_entry is not None:
                level, latency = LEVEL_LLC, self._lat_llc
            else:
                level, latency = LEVEL_DRAM, self._lat_dram
                stats.dram_read_bytes += self._block_bytes
                self._llc_insert(block)
            stats.uncore_fill_bytes += self._block_bytes
            self.l2.insert(block, ORIGIN_DEMAND, used=True)
        stats.served_by[level] += 1
        stats.exposed_latency[level] += latency
        evicted = self.l1i.insert(block, ORIGIN_DEMAND, used=True)
        if evicted is not None:
            self._account_l1_eviction(evicted[1])
        return latency

    # ------------------------------------------------------------------
    # Prefetch path
    # ------------------------------------------------------------------
    def prefetch(
        self,
        block: int,
        now: float,
        origin: int,
        extra_latency: float = 0.0,
        to_l2: bool = False,
    ) -> bool:
        """Queue a prefetch for ``block``; returns False if filtered
        (see :meth:`prefetch_many`)."""
        return self.prefetch_many((block,), now, origin, extra_latency,
                                  to_l2) > 0

    def prefetch_many(
        self,
        blocks,
        now: float,
        origin: int,
        extra_latency: float = 0.0,
        to_l2: bool = False,
    ) -> int:
        """Queue prefetches for ``blocks`` in order; return how many
        were queued or issued.

        A request is redundant when its block is resident in the target
        cache or already in flight, and dropped when the pending queue
        is full.  Otherwise it takes a free MSHR at once or waits in the
        pending queue.  Fills due by ``now`` complete before each
        request is checked, so one call behaves exactly like one
        single-block call per request.
        """
        if self._perfect:
            return 0
        heap = self._heap
        inflight = self._inflight
        pending = self._pending
        target = self.l2 if to_l2 else self.l1i
        sets = target._sets
        mask = target._set_mask
        mshrs = self._pf_mshrs
        queue = self._pf_queue
        issue = self._issue
        drain = self._drain
        # Stamp with the demand-access clock: trigger-to-use distance is
        # then measured in demand-fetched cache blocks, the paper's unit.
        clock = self.access_clock
        redundant = dropped = queued = 0
        # lint: hot-begin
        for block in blocks:
            if heap and heap[0][0] <= now:
                drain(now)
            if block in inflight or block in sets[block & mask]:
                redundant += 1
            elif len(pending) >= queue:
                dropped += 1
            else:
                # Never ahead of the queue; a non-empty pending queue
                # also means every MSHR is busy.
                if pending or len(inflight) >= mshrs:
                    pending.append((block, origin, extra_latency, to_l2,
                                    clock))
                else:
                    issue(block, origin, extra_latency, to_l2, clock, now)
                queued += 1
        # lint: hot-end
        stats = self.stats
        if redundant:
            stats.pf_redundant[origin] += redundant
        if dropped:
            stats.pf_dropped[origin] += dropped
        return queued

    def drain(self, now: float) -> None:
        """Complete fills due by ``now`` and issue queued prefetches."""
        self._drain(now)

    # ------------------------------------------------------------------
    # Metadata traffic (HP §5.3.2)
    # ------------------------------------------------------------------
    def metadata_read(self, base_line: int, n_lines: int, now: float) -> float:
        """Read ``n_lines`` metadata cache lines; return access latency.

        Lines are fetched in parallel from the LLC (or DRAM on an LLC
        miss); the returned latency is the slowest line.  Bandwidth is
        charged per line.
        """
        return self._metadata_access(base_line, n_lines, write=False)

    def metadata_write(self, base_line: int, n_lines: int, now: float) -> None:
        """Write ``n_lines`` metadata lines (posted; no core stall)."""
        self._metadata_access(base_line, n_lines, write=True)

    def _metadata_access(self, base_line: int, n_lines: int, write: bool) -> float:
        stats = self.stats
        nbytes = n_lines * self._block_bytes
        if write:
            stats.metadata_write_bytes += nbytes
        else:
            stats.metadata_read_bytes += nbytes
        worst = self._lat_llc
        for i in range(n_lines):
            line = METADATA_REGION_BLOCK + base_line + i
            entry = self.llc.lookup(line)
            if entry is None:
                worst = self._lat_dram
                if not write:
                    # Write misses allocate without a fill read (full-line
                    # writes); read misses fetch the line from DRAM.
                    stats.dram_read_bytes += self._block_bytes
                self._llc_insert(line, dirty=write)
            elif write:
                entry[E_DIRTY] = True
        return worst

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    def in_l1i(self, block: int) -> bool:
        return self.l1i.peek(block) is not None

    def in_flight(self, block: int) -> bool:
        return block in self._inflight

    def inflight_count(self) -> int:
        return len(self._inflight)

    def pending_count(self) -> int:
        return len(self._pending)

    def _drain(self, now: float) -> None:
        """Complete the fills due by ``now`` into their target cache,
        then refill the MSHRs from the pending queue."""
        heap = self._heap
        inflight = self._inflight
        heappop = heapq.heappop
        l1i_insert = self.l1i.insert
        l2_insert = self.l2.insert
        f_origin, f_issue, f_demanded = F_ORIGIN, F_ISSUE, F_DEMANDED
        f_to_l2, f_id = F_TO_L2, F_ID
        # lint: hot-begin
        while heap and heap[0][0] <= now:
            _, block, fill_id = heappop(heap)
            fill = inflight.get(block)
            if fill is None or fill[f_id] != fill_id:
                continue
            del inflight[block]
            # insert(block, origin, issue_index, used)
            if fill[f_to_l2]:
                l2_insert(block, fill[f_origin], fill[f_issue],
                          fill[f_demanded])
                continue
            evicted = l1i_insert(block, fill[f_origin], fill[f_issue],
                                 fill[f_demanded])
            if evicted is not None:
                self._account_l1_eviction(evicted[1])
        # lint: hot-end
        if self._pending:
            self._try_issue(now)

    def _try_issue(self, now: float) -> None:
        """Move queued prefetches into free MSHRs, oldest first."""
        pending = self._pending
        inflight = self._inflight
        stats = self.stats
        limit = self._pf_mshrs
        while pending and len(inflight) < limit:
            block, origin, extra, to_l2, issue_index = pending.popleft()
            target = self.l2 if to_l2 else self.l1i
            if target.peek(block) is not None or block in inflight:
                stats.pf_redundant[origin] += 1
                continue
            self._issue(block, origin, extra, to_l2, issue_index, now)

    def _issue(self, block: int, origin: int, extra: float, to_l2: bool,
               issue_index: int, now: float) -> None:
        """Start the fill of ``block`` in a free MSHR."""
        stats = self.stats
        l2 = self.l2
        if not to_l2 and block in l2._sets[block & l2._set_mask]:
            level, latency = LEVEL_L2, self._lat_l2
        elif self.llc.lookup(block) is not None:  # an LRU touch on a hit
            level, latency = LEVEL_LLC, self._lat_llc
            stats.uncore_fill_bytes += self._block_bytes
            if not to_l2:
                l2.insert(block, origin)
        else:
            level, latency = LEVEL_DRAM, self._lat_dram
            stats.dram_read_bytes += self._block_bytes
            stats.uncore_fill_bytes += self._block_bytes
            self._llc_insert(block)
            if not to_l2:
                l2.insert(block, origin)
        seq = self._fill_seq = self._fill_seq + 1
        ready = now + latency + extra
        self._inflight[block] = [ready, origin, level, issue_index, False,
                                 to_l2, seq]
        heapq.heappush(self._heap, (ready, block, seq))
        stats.pf_issued[origin] += 1

    def _level_latency(self, level: str) -> float:
        return self._level_lat.get(level, self._lat_dram)

    def _llc_insert(self, block: int, dirty: bool = False) -> None:
        evicted = self.llc.insert(block, ORIGIN_DEMAND, used=True)
        if dirty:
            entry = self.llc.peek(block)
            if entry is not None:
                entry[E_DIRTY] = True
        if evicted is not None and evicted[1][E_DIRTY]:
            self.stats.dram_write_bytes += self._block_bytes

    def _account_l1_eviction(self, entry: list) -> None:
        if not entry[E_USED]:
            origin = entry[E_ORIGIN]
            if origin != ORIGIN_DEMAND:
                self.stats.pf_useless[origin] += 1
                self.stats.unused_prefetch_evictions += 1
