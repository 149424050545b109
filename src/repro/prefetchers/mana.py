"""MANA: temporal instruction prefetching over spatial regions.

Model of Ansari et al. [14] as configured in the paper (§6.3): the
committed block stream is compressed into aligned spatial regions and
appended to a global history; a 4K-entry index table maps a region base
to its most recent history position.  At runtime the prefetcher follows
the recorded stream, staying ``lookahead`` spatial regions ahead of the
observed stream (paper default 3).  When the actual stream diverges from
the recorded one — or the core front-end resets on a branch
misprediction — MANA stops and re-indexes, which is the timeliness
limitation §7.2 describes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.prefetchers.base import InstructionPrefetcher

#: Cache blocks per aligned MANA spatial region.
REGION_BLOCKS = 4
_REGION_MASK = REGION_BLOCKS - 1


class ManaPrefetcher(InstructionPrefetcher):
    """Temporal streaming with spatial-region compression."""

    name = "mana"

    def __init__(self, lookahead: int = 3, index_entries: int = 1536,
                 history_regions: int = 8192,
                 reset_on_mispredict: bool = True):
        super().__init__()
        if lookahead < 1:
            raise ValueError("lookahead must be >= 1")
        self.lookahead = lookahead
        self.index_entries = index_entries
        self.history_regions = history_regions
        self.reset_on_mispredict = reset_on_mispredict

    def reset(self) -> None:
        # Circular history of (region_base, bit_vector).
        self._history: List[Optional[Tuple[int, int]]] = (
            [None] * self.history_regions
        )
        self._head = 0          # next write position
        self._wrapped = False
        self._index: OrderedDict = OrderedDict()  # base -> history position
        self._cur_base = -1
        self._cur_vec = 0
        self._stream_pos: Optional[int] = None  # next expected history slot
        self._issued_upto: Optional[int] = None
        self._last_block = -1

    # ------------------------------------------------------------------
    def on_commit(self, i: int, now: float) -> None:
        b0 = self._block0[i]
        b1 = self._block1[i]
        if b0 != self._last_block:
            self._observe(b0, now)
        if b1 != b0:
            self._observe(b1, now)
        self._last_block = b1

    def on_mispredict(self, i: int) -> None:
        # The core front-end resets; MANA must stop prefetching and
        # re-index to find the correct stream (§7.1).
        if self.reset_on_mispredict:
            self._stream_pos = None
            self._issued_upto = None

    # ------------------------------------------------------------------
    def _observe(self, block: int, now: float) -> None:
        base = block & ~_REGION_MASK
        if base == self._cur_base:
            self._cur_vec |= 1 << (block & _REGION_MASK)
            return
        if self._cur_base >= 0:
            self._record_region(self._cur_base, self._cur_vec)
        self._cur_base = base
        self._cur_vec = 1 << (block & _REGION_MASK)
        self._follow(base, now)

    def _record_region(self, base: int, vec: int) -> None:
        pos = self._head
        self._history[pos] = (base, vec)
        self._head = (pos + 1) % self.history_regions
        if self._head == 0:
            self._wrapped = True
        if base not in self._index and len(self._index) >= self.index_entries:
            self._index.popitem(last=False)
        self._index[base] = pos
        self._index.move_to_end(base)

    def _follow(self, base: int, now: float) -> None:
        """Advance or re-acquire the replay stream at region ``base``."""
        pos = self._stream_pos
        history = self._history
        if pos is not None:
            expected = history[pos]
            if expected is not None and expected[0] == base:
                self._stream_pos = (pos + 1) % self.history_regions
            else:
                pos = None
                self._stream_pos = None
                self._issued_upto = None
        if self._stream_pos is None:
            hit = self._index.get(base)
            if hit is None:
                return
            self._index.move_to_end(base)
            self._stream_pos = (hit + 1) % self.history_regions
            self._issued_upto = self._stream_pos
        # Prefetch up to `lookahead` regions ahead of the stream position.
        start = self._issued_upto
        if start is None:
            start = self._stream_pos
        end = (self._stream_pos + self.lookahead) % self.history_regions
        blocks = []
        pos = start
        steps = (end - start) % self.history_regions
        for _ in range(steps):
            if pos == self._head:
                break
            entry = history[pos]
            if entry is None:
                break
            rbase, vec = entry
            while vec:
                low = vec & -vec
                blocks.append(rbase + low.bit_length() - 1)
                vec ^= low
            pos = (pos + 1) % self.history_regions
        self._issued_upto = pos
        if blocks:
            self.issue_many(blocks, now)

    def on_measurement_end(self) -> None:
        self.stats.extra["mana_index_entries"] = len(self._index)
        self.stats.extra["mana_lookahead"] = self.lookahead
