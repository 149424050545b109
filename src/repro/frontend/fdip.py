"""FDIP: fetch-directed instruction prefetching via a decoupled front end.

The runahead pointer walks the committed path ahead of the commit
pointer, up to the FTQ capacity, issuing prefetches for every fetch
region it enqueues.  It advances past a branch only while the branch
prediction unit can follow it:

* conditional direction comes from TAGE; a wrong direction is a
  misprediction — the FTQ is flushed, the runahead collapses to the
  commit point and the pipeline pays the full restart penalty;
* taken direct branches need a BTB hit; a BTB miss stops the runahead
  (FDIP cannot discover the discontinuity) and costs a fetch resteer
  bubble when the branch resolves;
* returns come from the RAS; indirect targets from ITTAGE.

The branch-prediction unit reads only the trace: never timing, the
memory hierarchy or the prefetcher.  And the runahead evaluates every
block exactly once, in trace order.  So :meth:`FDIPFrontEnd.bind` runs
the unit once over the whole trace (TAGE through its batch
:meth:`~repro.frontend.tage.TagePredictor.predict_all`, one BTB
:meth:`~repro.frontend.btb.BranchTargetBuffer.probe` per taken direct
branch) and records one *event byte* per block.  Its bits say which
SimStats branch counters the block bumps (:data:`BRANCH_COUNTERS`), and
so what penalty it costs.

Front ends with one BPU configuration (:attr:`FrontEndParams.bpu_key`)
get the same pass over a trace, so its event bytes are kept in
``trace.bpu_passes`` (the experiment runner also stores them on disk).
The units are locals of :meth:`FDIPFrontEnd._predict`: nothing reads
them after the pass.
:meth:`FDIPFrontEnd.advance` then only moves the runahead, stopping at
the next penalty block, and issues prefetches.  The commit loop reads
each block's penalty from :attr:`FDIPFrontEnd.pen`.  The branch
counters are charged, for the blocks the runahead has passed, by
:meth:`FDIPFrontEnd.count_branches`, which the simulator calls where it
flushes its other accumulators: at the end of every commit-loop range.

What :meth:`FDIPFrontEnd.bind` derives from the trace stays out of a
warmup checkpoint (:meth:`FDIPFrontEnd.__getstate__`); the runahead
position is in it.

Wrong-path fetch is not modelled (see DESIGN.md §5); the first-order
FDIP behaviours — limited runahead under BTB pressure and flush-on-
mispredict — are.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress, count
from typing import List, Optional

from repro.cpu.restore import Restorable
from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.ittage import ITTagePredictor
from repro.frontend.ras import ReturnAddressStack
from repro.frontend.tage import TagePredictor
from repro.isa.instructions import BranchKind
from repro.memory.cache import ORIGIN_FDIP

#: Penalty kinds recorded per block index.
PEN_NONE = 0
PEN_MISPREDICT = 1
PEN_BTB_MISS = 2

_COND = int(BranchKind.COND)
_JUMP = int(BranchKind.JUMP)
_CALL = int(BranchKind.CALL)
_RET = int(BranchKind.RET)
_ICALL = int(BranchKind.ICALL)
_IJUMP = int(BranchKind.IJUMP)

#: SimStats branch counters; counter k is bit k of a block's event byte.
BRANCH_COUNTERS = ("cond_branches", "cond_mispredicts", "btb_lookups",
                   "btb_misses", "returns", "ras_mispredicts",
                   "indirect_branches", "indirect_mispredicts")
(_EV_COND, _EV_COND_MISS, _EV_BTB, _EV_BTB_MISS, _EV_RET, _EV_RET_MISS,
 _EV_IND, _EV_IND_MISS) = (1 << k for k in range(len(BRANCH_COUNTERS)))
_EV_MISPREDICT = _EV_COND_MISS | _EV_RET_MISS | _EV_IND_MISS
#: Event byte -> penalty kind, as a ``bytes.translate`` table.
_PENALTY_OF = bytes(
    PEN_MISPREDICT if e & _EV_MISPREDICT
    else PEN_BTB_MISS if e & _EV_BTB_MISS else PEN_NONE
    for e in range(256))
#: Every event byte the pass writes, with the counters it bumps.
_EVENTS = tuple(
    (e, tuple(k for k in range(len(BRANCH_COUNTERS)) if e >> k & 1))
    for e in (_EV_COND, _EV_COND | _EV_COND_MISS, _EV_COND | _EV_BTB,
              _EV_COND | _EV_BTB | _EV_BTB_MISS, _EV_BTB,
              _EV_BTB | _EV_BTB_MISS, _EV_RET, _EV_RET | _EV_RET_MISS,
              _EV_IND, _EV_IND | _EV_IND_MISS))


@dataclass
class FrontEndParams:
    """Front-end configuration (Table 1 defaults)."""

    ftq_entries: int = 24
    btb_entries: Optional[int] = 8192  # None = infinite (Figure 14)
    btb_assoc: int = 8
    ras_depth: int = 32
    mispredict_penalty: float = 15.0
    btb_miss_penalty: float = 8.0
    #: Issue FTQ prefetches (True = FDIP; False = no-FDIP ablation —
    #: branches are still predicted and penalties still charged).
    issue_prefetches: bool = True

    @property
    def bpu_key(self) -> tuple:
        """Every input of the prediction pass besides the trace (TAGE
        and ITTAGE have fixed geometry)."""
        return (self.btb_entries, self.btb_assoc, self.ras_depth)


class FDIPFrontEnd(Restorable):
    """Decoupled front-end model bound to one trace.

    ``pen`` holds every block's penalty kind (trace index → ``PEN_*``),
    computed by :meth:`bind`.  The simulator's commit loop reads it
    directly: the runahead always passes a block before the block
    commits.  :meth:`penalty_at` is the checked accessor, which reports
    ``PEN_NONE`` for blocks the runahead has not reached.
    """

    def __init__(self, params: FrontEndParams, stats):
        self.params = params
        self.stats = stats
        self.hierarchy = None
        self._ptr = 0          # next trace index the runahead will visit
        self._blocked_at = -1  # runahead waits until commit reaches this
        self._counted = 0      # blocks below this are in the stats counters
        # What bind() derives from the trace: the prediction pass's
        # per-block event bytes, the penalty kinds, the penalty blocks
        # in order (then the trace length), the next of them at or
        # after the runahead pointer, the bound decode tables and
        # bind-time constants.
        self._ev = self.pen = b""
        self._stops: List[int] = []
        self._stop = 0
        self._b0 = self._b1 = self._page = None
        self._n = 0
        self._ftq = params.ftq_entries
        self._issue = False
        self._tlb_pf = None

    def bind(self, trace, hierarchy, itlb=None,
             itlb_prefetch: bool = False) -> None:
        """Wire the front end to a trace and the memory hierarchy, and
        run the branch-prediction unit over the trace, unless the trace
        carries the pass (``trace.bpu_passes``) already.

        Binding touches only what derives from the trace and the
        wiring, never the runahead position, so a machine resumed from
        a warmup checkpoint binds its new trace the same way.  With
        ``itlb_prefetch`` the runahead also probes the I-TLB for each
        enqueued region's page (non-stalling install; see
        :meth:`repro.memory.tlb.InstructionTLB.prefetch`).
        """
        self._b0 = trace.block0
        self._b1 = trace.block1
        self._page = trace.page
        self._n = len(trace)
        self.hierarchy = hierarchy
        self._ftq = self.params.ftq_entries
        self._issue = self.params.issue_prefetches and hierarchy is not None
        self._tlb_pf = (itlb.prefetch
                        if itlb_prefetch and itlb is not None else None)
        key = self.params.bpu_key
        ev = trace.bpu_passes.get(key)
        if ev is None:
            ev = trace.bpu_passes[key] = self._predict(trace)
        self._ev = ev
        self.pen = ev.translate(_PENALTY_OF)
        stops = self._stops = [*compress(range(len(trace)), self.pen),
                               len(trace)]
        self._stop = stops[bisect_left(stops, self._ptr)]

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in ("_b0", "_b1", "_page", "_ev", "pen", "_stops"):
            del state[name]
        return state

    def _predict(self, trace) -> bytes:
        """Run a power-on branch-prediction unit over every block's
        terminator, in trace order; return the event bytes."""
        params = self.params
        btb = BranchTargetBuffer(params.btb_entries, params.btb_assoc)
        ras = ReturnAddressStack(params.ras_depth)
        kind_arr = trace.kind
        taken_arr = trace.taken
        term_arr = trace.term
        tgt_arr = trace.target
        is_cond = [k == _COND for k in kind_arr]
        correct = TagePredictor().predict_all(
            list(compress(term_arr, is_cond)),
            list(compress(taken_arr, is_cond)))
        btb_probe = btb.probe
        ras_push = ras.push
        ras_pop = ras.pop
        ittage = ITTagePredictor().predict_and_update
        ev = bytearray(len(trace))
        c = 0
        for i, kind, term, target, taken in zip(count(), kind_arr, term_arr,
                                                tgt_arr, taken_arr):
            if kind == _COND:
                if not correct[c]:
                    e = _EV_COND | _EV_COND_MISS
                elif taken:
                    e = _EV_COND | _EV_BTB
                    if btb_probe(term, target) != target:
                        e |= _EV_BTB_MISS
                else:
                    e = _EV_COND
                c += 1
            elif not kind:
                continue
            elif kind == _JUMP or kind == _CALL:
                if kind == _CALL:
                    ras_push(term + 4)
                e = (_EV_BTB if btb_probe(term, target) == target
                     else _EV_BTB | _EV_BTB_MISS)
            elif kind == _RET:
                e = (_EV_RET if ras_pop() == target
                     else _EV_RET | _EV_RET_MISS)
            elif kind == _ICALL or kind == _IJUMP:
                if kind == _ICALL:
                    ras_push(term + 4)
                e = (_EV_IND if ittage(term, target)
                     else _EV_IND | _EV_IND_MISS)
            else:
                raise ValueError(
                    f"unknown branch kind {kind} at trace index {i}")
            ev[i] = e
        return bytes(ev)

    def penalty_at(self, i: int) -> int:
        """Penalty kind charged when block ``i`` commits (``PEN_NONE``
        until the runahead has evaluated it)."""
        return self.pen[i] if i < self._ptr else PEN_NONE

    def advance(self, commit_i: int, now: float) -> int:
        """Advance the runahead pointer given the commit position, and
        prefetch the lines of the blocks it enqueues.

        Returns the first commit index at which a call can do work: a
        call before it returns at once and changes nothing, so the
        commit loop skips it.

        The lines of the enqueued blocks go to
        :meth:`~repro.memory.hierarchy.MemoryHierarchy.prefetch_many` in
        one call, which decides each line's fate exactly as one
        request per line would.
        """
        blocked = self._blocked_at
        if blocked >= 0:
            if commit_i < blocked:
                return blocked
            self._blocked_at = -1
        ftq = self._ftq
        n = self._n
        limit = commit_i + ftq
        if limit >= n:
            limit = n - 1
        ptr = self._ptr
        if ptr > limit:
            return ptr - ftq if ptr < n else n
        stop = self._stop
        end = stop if stop <= limit else limit
        lo = ptr if ptr > commit_i else commit_i + 1
        if self._issue and lo <= end:
            b0_arr = self._b0
            b1_arr = self._b1
            page_arr = self._page
            tlb_pf = self._tlb_pf
            origin_fdip = ORIGIN_FDIP
            lines = []
            add = lines.append
            # lint: hot-begin
            for i in range(lo, end + 1):
                b0 = b0_arr[i]
                b1 = b1_arr[i]
                add(b0)
                if b1 != b0:
                    add(b1)
                if tlb_pf is not None:
                    tlb_pf(page_arr[i], origin_fdip)
            # lint: hot-end
            self.hierarchy.prefetch_many(lines, now, origin_fdip)
        ptr = self._ptr = end + 1
        if end == stop:
            # The unit cannot follow this block's terminator: wait for
            # it to commit.
            self._blocked_at = stop
            self._stop = self._stops[bisect_right(self._stops, stop)]
            return stop
        return ptr - ftq if ptr < n else n

    def count_branches(self) -> None:
        """Add the branch events of the blocks the runahead evaluated
        since the last call to the SimStats counters.  Until then the
        counters lag the runahead; a caller driving :meth:`advance`
        directly calls this before reading them."""
        lo = self._counted
        hi = self._ptr
        if hi <= lo:
            return
        self._counted = hi
        totals = [0] * len(BRANCH_COUNTERS)
        ev = self._ev
        for event, counters in _EVENTS:
            hits = ev.count(event, lo, hi)
            if hits:
                for k in counters:
                    totals[k] += hits
        stats = self.stats
        for name, total in zip(BRANCH_COUNTERS, totals):
            if total:
                setattr(stats, name, getattr(stats, name) + total)
