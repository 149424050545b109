"""Replay engine (paper §5.3.5).

Replay begins when a tagged instruction commits and its Bundle ID hits
in the Metadata Address Table.  Segments are prefetched one at a time so
each group of prefetches fits in the L1-I: the first and second segments
are issued immediately at Bundle start; segment N+1 is issued once the
number of instructions executed inside the Bundle surpasses the
``num_insts`` recorded for segment N.
"""

from __future__ import annotations

from typing import List

from repro.core.compression import SpatialRegion
from repro.core.metadata import MetadataBuffer
from repro.cpu.restore import Restorable


class SegmentView:
    """Immutable snapshot of one segment taken at replay start.

    Replay snapshots the chain because the concurrent record engine
    supersedes the same segments in place; in hardware the replay stream
    races ahead of the (compression-buffer-delayed) writes, which the
    snapshot models.  A slotted plain class: replay starts allocate one
    per live segment on the simulator's hot path.
    """

    __slots__ = ("index", "regions", "num_insts")

    def __init__(self, index: int, regions: List[SpatialRegion],
                 num_insts: int):
        self.index = index
        self.regions = regions
        self.num_insts = num_insts

    def __repr__(self) -> str:
        return (f"SegmentView(index={self.index}, "
                f"regions={len(self.regions)}, num_insts={self.num_insts})")


class ReplayEngine(Restorable):
    """Paced cursor over one Bundle's segment chain."""

    def __init__(self, buffer: MetadataBuffer, initial_segments: int = 2):
        if initial_segments < 1:
            raise ValueError("initial_segments must be >= 1")
        self.buffer = buffer
        self.initial_segments = initial_segments
        self._segments: List[SegmentView] = []
        self._cursor = 0
        self._bundle_id = -1
        self.active = False

    def start(self, bundle_id: int, head_index: int) -> bool:
        """Begin replaying ``bundle_id`` from ``head_index``.

        Returns False (and stays inactive) when the chain is empty or
        stale — e.g. the Metadata Buffer reclaimed it between the MAT
        lookup and here.
        """
        chain = self.buffer.chain(head_index, bundle_id)
        views = [
            SegmentView(seg.index, list(seg.valid_regions()), seg.num_insts)
            for seg in chain
            if seg.n_valid > 0
        ]
        if not views:
            self.active = False
            self._segments = []
            return False
        self._segments = views
        self._cursor = 0
        self._bundle_id = bundle_id
        self.active = True
        return True

    def stop(self) -> None:
        """Cancel replay (a new Bundle started)."""
        self.active = False
        self._segments = []
        self._cursor = 0

    def take_eligible(self, bundle_insts: int) -> List[SegmentView]:
        """Return segments whose prefetch should be issued now.

        ``bundle_insts`` is the instruction count committed since the
        Bundle began.  Segments 0 and 1 are eligible immediately;
        segment N+1 becomes eligible when ``bundle_insts`` surpasses
        segment N's ``num_insts``.  Each segment is returned exactly
        once; replay deactivates after the last one.
        """
        if not self.active:
            return []
        out: List[SegmentView] = []
        while self._cursor < len(self._segments):
            if self._cursor < self.initial_segments:
                eligible = True
            else:
                pace = self._segments[self._cursor - 1].num_insts
                eligible = bundle_insts > pace
            if not eligible:
                break
            out.append(self._segments[self._cursor])
            self._cursor += 1
        if self._cursor >= len(self._segments):
            self.active = False
        return out

    @property
    def remaining_segments(self) -> int:
        return max(0, len(self._segments) - self._cursor)

    # ------------------------------------------------------------------