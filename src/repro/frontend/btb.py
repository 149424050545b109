"""Branch Target Buffer.

Set-associative, LRU, keyed by branch (terminator) instruction address.
The decoupled front end can only redirect fetch past a taken branch the
BTB knows about; a miss halts the FDIP runahead until the branch
resolves — the central FDIP limitation (§2.1).  ``n_entries=None``
models the infinite-BTB study of Figure 14.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional



class BranchTargetBuffer:
    """LRU set-associative BTB; default geometry is 8K entries, 8-way."""

    def __init__(self, n_entries: Optional[int] = 8192, assoc: int = 8):
        self.infinite = n_entries is None
        if self.infinite:
            self._all: dict = {}
            self.n_sets = 1
            self.assoc = 0
        else:
            if n_entries % assoc != 0:
                raise ValueError(
                    f"n_entries {n_entries} not divisible by assoc {assoc}"
                )
            self.assoc = assoc
            self.n_sets = n_entries // assoc
            if self.n_sets & (self.n_sets - 1):
                raise ValueError(f"set count {self.n_sets} not a power of 2")
            self._sets: List[OrderedDict] = [
                OrderedDict() for _ in range(self.n_sets)
            ]
        self.lookups = 0
        self.misses = 0

    def _index(self, pc: int) -> int:
        # Terminator addresses are 4-byte aligned; drop the low bits.
        return (pc >> 2) & (self.n_sets - 1)

    def lookup(self, pc: int) -> Optional[int]:
        """Return the stored target for branch ``pc``, or None."""
        self.lookups += 1
        if self.infinite:
            target = self._all.get(pc)
        else:
            entries = self._sets[self._index(pc)]
            target = entries.get(pc)
            if target is not None:
                entries.move_to_end(pc)
        if target is None:
            self.misses += 1
        return target

    def probe(self, pc: int, target: int) -> Optional[int]:
        """:meth:`lookup` then :meth:`update` in one set probe: returns
        what ``lookup(pc)`` would and leaves the state and counters that
        ``lookup(pc)`` then ``update(pc, target)`` leave."""
        self.lookups += 1
        if self.infinite:
            entries = self._all
            known = entries.get(pc)
        else:
            entries = self._sets[self._index(pc)]
            known = entries.get(pc)
            if known is not None:
                entries.move_to_end(pc)
            elif len(entries) >= self.assoc:
                entries.popitem(last=False)
        entries[pc] = target
        if known is None:
            self.misses += 1
        return known

    def update(self, pc: int, target: int) -> None:
        """Install/refresh the target for branch ``pc``."""
        if self.infinite:
            self._all[pc] = target
            return
        entries = self._sets[self._index(pc)]
        if pc not in entries and len(entries) >= self.assoc:
            entries.popitem(last=False)
        entries[pc] = target
        entries.move_to_end(pc)

    def __contains__(self, pc: int) -> bool:
        if self.infinite:
            return pc in self._all
        return pc in self._sets[self._index(pc)]

    def __len__(self) -> int:
        if self.infinite:
            return len(self._all)
        return sum(len(s) for s in self._sets)

    @property
    def miss_rate(self) -> float:
        return self.misses / self.lookups if self.lookups else 0.0

    def __repr__(self) -> str:
        size = "inf" if self.infinite else self.n_sets * self.assoc
        return f"BranchTargetBuffer(entries={size}, resident={len(self)})"
