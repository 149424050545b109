"""RDIP: return-address-stack directed instruction prefetching.

Model of Kolli et al. [40] (paper §2.3): program context is summarized
as a signature hashed from the top 4 entries of the RAS; the prefetcher
records the L1-I *misses* that follow each signature and prefetches
them when the signature recurs.  Signatures change only at calls and
returns, so RDIP reacts at function granularity — more context than a
plain temporal stream, less than EFetch's callee prediction, far less
than a Bundle.

RDIP is not part of the paper's measured comparison set (it cites the
60 KB/core metadata cost as the reason it was superseded); it is
provided as an extension baseline.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Set

from repro.isa.instructions import BranchKind
from repro.prefetchers.base import InstructionPrefetcher

_CALL = int(BranchKind.CALL)
_ICALL = int(BranchKind.ICALL)
_RET = int(BranchKind.RET)


def _signature(stack_top: tuple) -> int:
    sig = 0x811C9DC5
    for addr in stack_top:
        sig ^= addr >> 2
        sig = (sig * 0x01000193) & 0xFFFFFFFF
    return sig


class RDIPPrefetcher(InstructionPrefetcher):
    """Signature -> miss-set record-and-replay at call/return boundaries."""

    name = "rdip"

    def __init__(self, table_entries: int = 1536, signature_depth: int = 4,
                 max_misses_per_signature: int = 24):
        super().__init__()
        if signature_depth < 1:
            raise ValueError("signature_depth must be >= 1")
        self.table_entries = table_entries
        self.signature_depth = signature_depth
        self.max_misses = max_misses_per_signature

    def reset(self) -> None:
        # signature -> ordered set of miss blocks observed after it.
        self._table: OrderedDict = OrderedDict()
        self._stack: List[int] = []
        self._current_sig: Optional[int] = None
        self._current_misses: Optional[List[int]] = None
        self._current_seen: Set[int] = set()

    # ------------------------------------------------------------------
    def on_commit(self, i: int, now: float) -> None:
        trace = self.trace
        kind = trace.kind[i]
        if kind == _CALL or kind == _ICALL:
            term = trace.pc[i] + (trace.ninstr[i] - 1) * 4
            self._stack.append(term + 4)
            if len(self._stack) > 64:
                del self._stack[0]
            self._new_signature(now)
        elif kind == _RET:
            if self._stack:
                self._stack.pop()
            self._new_signature(now)

    def on_miss(self, block: int, i: int, stall: float) -> None:
        misses = self._current_misses
        if misses is None or block in self._current_seen:
            return
        if len(misses) < self.max_misses:
            misses.append(block)
            self._current_seen.add(block)

    # ------------------------------------------------------------------
    def _new_signature(self, now: float) -> None:
        sig = _signature(tuple(self._stack[-self.signature_depth:]))
        if sig == self._current_sig:
            return
        table = self._table
        # Replay the misses recorded the last time this context was
        # active.
        recorded = table.get(sig)
        if recorded:
            table.move_to_end(sig)
            self.issue_many(recorded, now)
        # Start recording for this signature (most recent run wins).
        fresh: List[int] = []
        if sig not in table and len(table) >= self.table_entries:
            table.popitem(last=False)
        table[sig] = fresh
        table.move_to_end(sig)
        self._current_sig = sig
        self._current_misses = fresh
        self._current_seen = set()

    def on_measurement_end(self) -> None:
        self.stats.extra["rdip_table_entries"] = len(self._table)
