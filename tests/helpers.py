"""Hand-built trace assembly for deterministic unit tests."""

from __future__ import annotations

from types import SimpleNamespace
from typing import List, Optional, Tuple

from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.fdip import (
    BRANCH_COUNTERS,
    PEN_BTB_MISS,
    PEN_MISPREDICT,
    PEN_NONE,
    FrontEndParams,
)
from repro.frontend.ittage import ITTagePredictor
from repro.frontend.ras import ReturnAddressStack
from repro.frontend.tage import TagePredictor
from repro.isa.instructions import BranchKind
from repro.workloads.trace import Trace

_FALLTHROUGH_KINDS = (BranchKind.NONE, BranchKind.COND)


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
