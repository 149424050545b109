"""EIP: the Entangling Instruction Prefetcher.

Model of Ros & Jimborean [50] as configured in the paper (§6.3): when a
demand fetch misses, the miss block (*destination*) is entangled with a
*source* block that committed roughly one miss-latency earlier, chosen
from a 16-entry history buffer.  When a source block commits again,
every entangled destination is prefetched.  This buys timeliness (the
trigger leads the miss by its latency) at the cost of accuracy: one
source accumulates multiple destinations from different control-flow
paths and prefetches all of them (§7.4 measures 2.4 targets per source
on average), which is exactly EIP's coverage-high / accuracy-low /
pollution-prone signature.
"""

from __future__ import annotations

from collections import OrderedDict, deque

from repro.prefetchers.base import InstructionPrefetcher


class EIPPrefetcher(InstructionPrefetcher):
    """Latency-aware entangling of miss destinations with early sources."""

    name = "eip"

    def __init__(self, table_entries: int = 2048, max_targets: int = 6,
                 history_entries: int = 64, latency_slack: float = 40.0):
        super().__init__()
        self.table_entries = table_entries
        self.max_targets = max_targets
        self.history_entries = history_entries
        self.latency_slack = latency_slack

    def reset(self) -> None:
        # source block -> list of destination blocks (most recent last).
        self._table: OrderedDict = OrderedDict()
        # Recent committed blocks: (block, cycle), oldest first.
        self._history: deque = deque(maxlen=self.history_entries)
        self._last_block = -1
        # Distance histogram buckets for the Figure 2c analysis:
        # issued prefetch distances in committed blocks.
        self._commit_i = 0

    # ------------------------------------------------------------------
    def on_commit(self, i: int, now: float) -> None:
        b0 = self._block0[i]
        b1 = self._block1[i]
        self._commit_i = i
        if b0 != self._last_block:
            self._trigger(b0, now)
            self._history.append((b0, now))
        if b1 != b0:
            self._trigger(b1, now)
            self._history.append((b1, now))
        self._last_block = b1

    def on_miss(self, block: int, i: int, stall: float) -> None:
        """Entangle the missed block with a latency-matched source."""
        target_lead = stall + self.latency_slack
        source = None
        # History is oldest-first; pick the youngest block that still
        # leads the miss by at least the miss latency.
        for blk, cycle in self._history:
            if self.sim.now - cycle >= target_lead:
                source = blk
            else:
                break
        if source is None:
            if not self._history:
                return
            source = self._history[0][0]
        if source == block:
            return
        # Source at 4-block spatial-region granularity: fewer distinct
        # sources keeps the 4K-entry table resident for working sets
        # whose miss population exceeds it (matching EIP's compressed
        # source encoding).
        source &= ~3
        table = self._table
        dsts = table.get(source)
        if dsts is None:
            if len(table) >= self.table_entries:
                table.popitem(last=False)
            table[source] = [block]
        else:
            if block not in dsts:
                dsts.append(block)
                if len(dsts) > self.max_targets:
                    dsts.pop(0)
            table.move_to_end(source)

    # ------------------------------------------------------------------
    def _trigger(self, block: int, now: float) -> None:
        source = block & ~3
        dsts = self._table.get(source)
        if dsts is None:
            return
        self._table.move_to_end(source)
        self.issue_many(dsts, now)

    def on_measurement_end(self) -> None:
        table = self._table
        self.stats.extra["eip_table_entries"] = len(table)
        if table:
            self.stats.extra["eip_avg_targets"] = sum(
                len(v) for v in table.values()
            ) / len(table)
