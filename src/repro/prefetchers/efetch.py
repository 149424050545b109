"""EFetch: caller-callee prefetching driven by call-context signatures.

Model of Chadha et al. [21] as configured in the paper (§6.3): a
4K-entry predictor keyed by a signature hashed from the top 3 entries of
the call stack; each entry holds an ordered list of upcoming callees,
each prefetched as two 32-block bit vectors anchored at the callee
entry.  The look-ahead parameter (how many callees deep to prefetch per
signature) drives the Figure 2b sweep; the paper's configuration stores
3 callees per entry, so look-aheads beyond 3 grow the stored list
accordingly.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List

from repro.isa.instructions import BranchKind
from repro.prefetchers.base import InstructionPrefetcher

_CALL = int(BranchKind.CALL)
_ICALL = int(BranchKind.ICALL)
_RET = int(BranchKind.RET)

#: Blocks covered by each of the two footprint vectors.
_VEC_BLOCKS = 32


def _signature(stack_top: tuple) -> int:
    """Hash the top call-stack return addresses into a signature."""
    sig = 0x811C9DC5
    for addr in stack_top:
        sig ^= addr >> 2
        sig = (sig * 0x01000193) & 0xFFFFFFFF
    return sig


class _CalleeFootprint:
    """Two bit vectors over [entry, entry+64) blocks, learned online."""

    __slots__ = ("entry_block", "vec0", "vec1")

    def __init__(self, entry_block: int):
        self.entry_block = entry_block
        self.vec0 = 0
        self.vec1 = 0

    def observe(self, block: int) -> None:
        off = block - self.entry_block
        if 0 <= off < _VEC_BLOCKS:
            self.vec0 |= 1 << off
        elif _VEC_BLOCKS <= off < 2 * _VEC_BLOCKS:
            self.vec1 |= 1 << (off - _VEC_BLOCKS)

    def blocks(self):
        base = self.entry_block
        vec = self.vec0
        while vec:
            low = vec & -vec
            yield base + low.bit_length() - 1
            vec ^= low
        base += _VEC_BLOCKS
        vec = self.vec1
        while vec:
            low = vec & -vec
            yield base + low.bit_length() - 1
            vec ^= low


class EFetchPrefetcher(InstructionPrefetcher):
    """Signature-indexed next-callee predictor with footprint vectors."""

    name = "efetch"

    def __init__(self, lookahead: int = 1, table_entries: int = 1280,
                 signature_depth: int = 3):
        super().__init__()
        if lookahead < 1:
            raise ValueError("lookahead must be >= 1")
        self.lookahead = lookahead
        self.table_entries = table_entries
        self.signature_depth = signature_depth
        #: Callees stored per signature entry (paper: 3; grows with the
        #: look-ahead sweep).
        self.list_len = max(3, lookahead)

    def reset(self) -> None:
        # signature -> list of callee entry blocks (temporal order).
        self._table: OrderedDict = OrderedDict()
        # callee entry block -> _CalleeFootprint (learned footprints).
        self._footprints: OrderedDict = OrderedDict()
        self._stack: List[int] = []
        # Signatures still collecting upcoming callees: (sig, filled).
        self._pending: List[list] = []
        # Active footprint observations: [footprint, blocks_left].
        self._observing: List[list] = []
        self._last_block = -1

    # ------------------------------------------------------------------
    def on_commit(self, i: int, now: float) -> None:
        trace = self.trace
        kind = trace.kind[i]
        pc = trace.pc[i]
        nin = trace.ninstr[i]
        block = (pc + nin * 4 - 1) >> 6
        if block != self._last_block:
            self._last_block = block
            if self._observing:
                self._feed_observers(pc >> 6)
                if block != pc >> 6:
                    self._feed_observers(block)
        if kind == _CALL or kind == _ICALL:
            self._on_call(i, now, trace)
        elif kind == _RET:
            if self._stack:
                self._stack.pop()

    def _on_call(self, i: int, now: float, trace) -> None:
        term = trace.pc[i] + (trace.ninstr[i] - 1) * 4
        callee_entry_block = trace.target[i] >> 6
        # 1. Learn: this callee completes older pending signatures.
        for pending in self._pending:
            pending[1].append(callee_entry_block)
        self._pending = [p for p in self._pending if len(p[1]) < self.list_len]
        # 2. Start observing the callee's footprint.
        footprint = _CalleeFootprint(callee_entry_block)
        self._install(self._footprints, callee_entry_block, footprint)
        self._observing.append([footprint, 24])
        if len(self._observing) > 8:
            self._observing.pop(0)
        # 3. Update the shadow stack and form the new signature.
        self._stack.append(term + 4)
        if len(self._stack) > 64:
            del self._stack[0]
        sig = _signature(tuple(self._stack[-self.signature_depth:]))
        # 4. Predict and prefetch the next `lookahead` callees.
        predicted = self._table.get(sig)
        if predicted is not None:
            self._table.move_to_end(sig)
            blocks = []
            for callee in predicted[: self.lookahead]:
                fp = self._footprints.get(callee)
                if fp is None:
                    blocks.append(callee)
                    continue
                self._footprints.move_to_end(callee)
                blocks.extend(fp.blocks())
            self.issue_many(blocks, now)
        # 5. Open a new pending entry for this signature.
        filled: list = []
        self._install(self._table, sig, filled)
        self._pending.append([sig, filled])
        if len(self._pending) > self.list_len + 2:
            self._pending.pop(0)

    def _feed_observers(self, block: int) -> None:
        alive = []
        for obs in self._observing:
            obs[0].observe(block)
            obs[1] -= 1
            if obs[1] > 0:
                alive.append(obs)
        self._observing = alive

    def _install(self, table: OrderedDict, key, value) -> None:
        if key not in table and len(table) >= self.table_entries:
            table.popitem(last=False)
        table[key] = value
        table.move_to_end(key)

    def on_measurement_end(self) -> None:
        self.stats.extra["efetch_table_entries"] = len(self._table)
        self.stats.extra["efetch_lookahead"] = self.lookahead
