"""Hand-built trace assembly and reference models for deterministic
unit tests."""

from __future__ import annotations

import heapq
from collections import deque
from types import BuiltinMethodType, MethodType, SimpleNamespace
from typing import List, Optional, Tuple

from repro.cpu.simulator import FrontEndSimulator
from repro.cpu.stats import LEVEL_DRAM, LEVEL_L2, LEVEL_LLC
from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.fdip import (
    BRANCH_COUNTERS,
    PEN_BTB_MISS,
    PEN_MISPREDICT,
    PEN_NONE,
    FDIPFrontEnd,
    FrontEndParams,
)
from repro.frontend.ittage import ITTagePredictor
from repro.frontend.ras import ReturnAddressStack
from repro.frontend.tage import TagePredictor
from repro.isa.instructions import BranchKind
from repro.memory.cache import ORIGIN_FDIP
from repro.memory.hierarchy import F_READY, MemoryHierarchy
from repro.workloads.trace import Trace

_FALLTHROUGH_KINDS = (BranchKind.NONE, BranchKind.COND)


def state_of(obj):
    """The state an object holds, as plain data: objects become their
    attribute dicts, recursively, and bound methods their names.  A
    model and its reference subclass holding the same state compare
    equal."""
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return obj
    if isinstance(obj, (MethodType, BuiltinMethodType)):
        return ("method", obj.__name__)
    if isinstance(obj, dict):
        return [(key, state_of(value)) for key, value in obj.items()]
    if isinstance(obj, (list, tuple, deque)):
        return [state_of(value) for value in obj]
    attrs = getattr(obj, "__dict__", None)
    if attrs is None:
        attrs = {name: getattr(obj, name) for name in obj.__slots__}
    return {name: state_of(value) for name, value in attrs.items()}


def same_state(a, b) -> bool:
    """Whether ``a`` and ``b`` hold the same state (:func:`state_of`)."""
    return state_of(a) == state_of(b)


class TraceAssembler:
    """Builds a consistent Trace record by record.

    Each ``add`` appends one basic block; ``target`` defaults to the
    fall-through address.  The assembler checks nothing clever — it just
    keeps pc/target bookkeeping consistent so simulator tests stay
    readable.
    """

    def __init__(self) -> None:
        self.trace = Trace()

    def add(
        self,
        pc: int,
        ninstr: int = 4,
        kind=BranchKind.NONE,
        taken: bool = False,
        target: Optional[int] = None,
        tagged: bool = False,
    ) -> "TraceAssembler":
        if isinstance(kind, str):
            kind = BranchKind[kind]
        if target is None:
            target = pc + ninstr * 4
        t = self.trace
        t.pc.append(pc)
        t.ninstr.append(ninstr)
        t.kind.append(int(kind))
        t.taken.append(1 if taken else 0)
        t.target.append(target)
        t.tagged.append(1 if tagged else 0)
        t.n_instructions += ninstr
        return self

    def linear(self, start: int, n_blocks: int, ninstr: int = 4
               ) -> "TraceAssembler":
        """Append ``n_blocks`` sequential fall-through blocks."""
        pc = start
        for _ in range(n_blocks):
            self.add(pc, ninstr)
            pc += ninstr * 4
        return self

    def loop_over(self, start: int, n_blocks: int, repeats: int,
                  ninstr: int = 4) -> "TraceAssembler":
        """Append ``repeats`` passes over the same block sequence."""
        for _ in range(repeats):
            pc = start
            for b in range(n_blocks):
                last = b == n_blocks - 1
                if last:
                    self.add(pc, ninstr, BranchKind.JUMP, taken=True,
                             target=start)
                else:
                    self.add(pc, ninstr)
                pc += ninstr * 4
        return self

    def build(self) -> Trace:
        if not self.trace.requests:
            self.trace.requests.append((0, 0))
        return self.trace


def linear_trace(n_blocks: int = 64, start: int = 0x400000,
                 ninstr: int = 4) -> Trace:
    return TraceAssembler().linear(start, n_blocks, ninstr).build()


def looping_trace(n_blocks: int = 32, repeats: int = 8,
                  start: int = 0x400000) -> Trace:
    return TraceAssembler().loop_over(start, n_blocks, repeats).build()


class ReferenceFrontEnd:
    """Reference for FDIP's bind-time prediction pass: the branch unit
    evaluated one block at a time, with per-branch TAGE
    (``predict_and_update``) and eager counter increments — the way the
    runahead evaluated blocks before the pass existed."""

    def __init__(self, trace: Trace, params: FrontEndParams) -> None:
        self.trace = trace
        self.btb = BranchTargetBuffer(params.btb_entries, params.btb_assoc)
        self.tage = TagePredictor()
        self.ittage = ITTagePredictor()
        self.ras = ReturnAddressStack(params.ras_depth)

    def run(self) -> List[Tuple[int, Tuple[int, ...]]]:
        """Per block, in trace order: its penalty kind and how much it
        adds to each of ``BRANCH_COUNTERS``."""
        out = []
        for i in range(len(self.trace)):
            stats = SimpleNamespace(**dict.fromkeys(BRANCH_COUNTERS, 0))
            penalty = self._evaluate(i, stats)
            out.append((penalty, tuple(getattr(stats, name)
                                       for name in BRANCH_COUNTERS)))
        return out

    def _evaluate(self, i: int, stats) -> int:
        """Run the branch-prediction unit over block ``i``'s terminator."""
        t = self.trace
        kind = t.kind[i]
        if kind == BranchKind.NONE:
            return PEN_NONE
        term = t.term[i]
        target = t.target[i]
        if kind == BranchKind.COND:
            taken = t.taken[i] != 0
            stats.cond_branches += 1
            correct = self.tage.predict_and_update(term, taken)
            if not correct:
                stats.cond_mispredicts += 1
                return PEN_MISPREDICT
            if taken:
                stats.btb_lookups += 1
                known = self.btb.lookup(term)
                self.btb.update(term, target)
                if known != target:
                    stats.btb_misses += 1
                    return PEN_BTB_MISS
            return PEN_NONE
        if kind in (BranchKind.JUMP, BranchKind.CALL):
            if kind == BranchKind.CALL:
                self.ras.push(term + 4)
            stats.btb_lookups += 1
            known = self.btb.lookup(term)
            self.btb.update(term, target)
            if known != target:
                stats.btb_misses += 1
                return PEN_BTB_MISS
            return PEN_NONE
        if kind == BranchKind.RET:
            stats.returns += 1
            predicted = self.ras.pop()
            if predicted != target:
                stats.ras_mispredicts += 1
                return PEN_MISPREDICT
            return PEN_NONE
        if kind in (BranchKind.ICALL, BranchKind.IJUMP):
            if kind == BranchKind.ICALL:
                self.ras.push(term + 4)
            stats.indirect_branches += 1
            correct = self.ittage.predict_and_update(term, target)
            if not correct:
                stats.indirect_mispredicts += 1
                return PEN_MISPREDICT
            return PEN_NONE
        raise ValueError(f"unknown branch kind {kind} at trace index {i}")


class ReferenceHierarchy(MemoryHierarchy):
    """Reference for the batched prefetch path: one request per call.
    Each request drains due fills, is checked against the target cache
    and the fills in flight, joins the pending queue, and is issued from
    it — the way ``MemoryHierarchy.prefetch`` worked before
    ``prefetch_many``."""

    def prefetch(self, block, now, origin, extra_latency=0.0, to_l2=False):
        if self._perfect:
            return False
        stats = self.stats
        if self._heap and self._heap[0][0] <= now:
            self._drain(now)
        target = self.l2 if to_l2 else self.l1i
        if target.peek(block) is not None or block in self._inflight:
            stats.pf_redundant[origin] += 1
            return False
        if len(self._pending) >= self._pf_queue:
            stats.pf_dropped[origin] += 1
            return False
        self._pending.append((block, origin, extra_latency, to_l2,
                              self.access_clock))
        self._try_issue(now)
        return True

    def prefetch_many(self, blocks, now, origin, extra_latency=0.0,
                      to_l2=False):
        return sum(self.prefetch(block, now, origin, extra_latency, to_l2)
                   for block in blocks)

    def _try_issue(self, now):
        pending = self._pending
        inflight = self._inflight
        stats = self.stats
        while pending and len(inflight) < self._pf_mshrs:
            block, origin, extra, to_l2, issue_index = pending.popleft()
            target = self.l2 if to_l2 else self.l1i
            if target.peek(block) is not None or block in inflight:
                stats.pf_redundant[origin] += 1
                continue
            entry = self.l2.peek(block) if not to_l2 else None
            if entry is not None:
                level, latency = LEVEL_L2, self._lat_l2
            elif self.llc.peek(block) is not None:
                self.llc.lookup(block)  # LRU touch
                level, latency = LEVEL_LLC, self._lat_llc
                stats.uncore_fill_bytes += self._block_bytes
                if not to_l2:
                    self.l2.insert(block, origin)
            else:
                level, latency = LEVEL_DRAM, self._lat_dram
                stats.dram_read_bytes += self._block_bytes
                stats.uncore_fill_bytes += self._block_bytes
                self._llc_insert(block)
                if not to_l2:
                    self.l2.insert(block, origin)
            self._fill_seq += 1
            fill = [now + latency + extra, origin, level, issue_index,
                    False, to_l2, self._fill_seq]
            inflight[block] = fill
            heapq.heappush(self._heap,
                           (fill[F_READY], block, self._fill_seq))
            stats.pf_issued[origin] += 1


class ReferenceRunahead(FDIPFrontEnd):
    """Reference for FDIP's batch request and wake index: every line of
    every enqueued block is requested with its own ``prefetch`` call,
    and the commit loop calls :meth:`advance` on every block."""

    def advance(self, commit_i, now):
        if self._blocked_at >= 0:
            if commit_i < self._blocked_at:
                return commit_i
            self._blocked_at = -1
        limit = min(commit_i + self._ftq, self._n - 1)
        ptr = self._ptr
        if ptr > limit:
            return commit_i
        stop = self._stop
        end = min(stop, limit)
        if self._issue:
            prefetch = self.hierarchy.prefetch
            for i in range(max(ptr, commit_i + 1), end + 1):
                b0 = self._b0[i]
                b1 = self._b1[i]
                prefetch(b0, now, ORIGIN_FDIP)
                if b1 != b0:
                    prefetch(b1, now, ORIGIN_FDIP)
                if self._tlb_pf is not None:
                    self._tlb_pf(self._page[i], ORIGIN_FDIP)
        self._ptr = end + 1
        if end == stop:
            self._blocked_at = stop
            self._stop = self._stops[self._stops.index(stop) + 1]
        return commit_i


def reference_simulator(config=None, prefetcher=None,
                        **kwargs) -> FrontEndSimulator:
    """A simulator whose hierarchy and front end are the per-line
    references above; everything else is the production machine."""
    sim = FrontEndSimulator(config, prefetcher, **kwargs)
    # Same state, reference behaviour: the registry keeps the objects.
    sim.hierarchy.__class__ = ReferenceHierarchy
    sim.frontend.__class__ = ReferenceRunahead
    return sim
