"""Set-associative cache with per-block fill-origin tracking.

Entries remember who brought the block in (demand, FDIP, or the
evaluated prefetcher) and whether a demand fetch has touched it since,
which is what prefetch accuracy/coverage accounting needs: a prefetched
block evicted untouched is a useless prefetch; the first demand touch of
a prefetched block is a covered miss.

Insertion/eviction is delegated to a pluggable
:class:`~repro.memory.policies.ReplacementPolicy` (default LRU,
bit-identical to the historical hardwired behavior).  The *hit* path is
policy-independent by design — every policy promotes a hit to MRU — so
``lookup`` carries no dispatch overhead.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.cpu.restore import Restorable

#: Fill origins.
ORIGIN_DEMAND = 0
ORIGIN_FDIP = 1
ORIGIN_PF = 2
N_ORIGINS = 3

# Entry layout (plain list for speed): [origin, used, issue_index, dirty]
E_ORIGIN = 0
E_USED = 1
E_ISSUE = 2
E_DIRTY = 3


class SetAssocCache(Restorable):
    """Set-associative cache over abstract block indices.

    ``policy`` is a :class:`~repro.memory.policies.ReplacementPolicy`
    instance or name (default ``"lru"``); the instance belongs to this
    cache alone (stateful policies must not be shared across levels).
    """

    def __init__(self, size_bytes: int, assoc: int, block_bytes: int = 64,
                 name: str = "cache", policy=None):
        if size_bytes % (assoc * block_bytes) != 0:
            raise ValueError(
                f"{name}: size {size_bytes} not divisible by "
                f"assoc*block ({assoc}*{block_bytes})"
            )
        # Imported here: policies.py depends on this module's layout
        # constants (E_*/ORIGIN_*).
        from repro.memory.policies import make_policy

        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.block_bytes = block_bytes
        self.n_sets = size_bytes // (assoc * block_bytes)
        if self.n_sets & (self.n_sets - 1):
            raise ValueError(f"{name}: set count {self.n_sets} not a power of 2")
        self._set_mask = self.n_sets - 1
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(self.n_sets)]
        self.policy = make_policy(policy if policy is not None else "lru")
        # Hot-path binding: one dispatch per fill, none per hit.
        self._insert_line = self.policy.insert_line

    def lookup(self, block: int) -> Optional[list]:
        """Return the entry for ``block`` (LRU-touching it) or None."""
        entries = self._sets[block & self._set_mask]
        entry = entries.get(block)
        if entry is not None:
            entries.move_to_end(block)
        return entry

    def peek(self, block: int) -> Optional[list]:
        """Return the entry without updating LRU state."""
        return self._sets[block & self._set_mask].get(block)

    def insert(
        self, block: int, origin: int = ORIGIN_DEMAND, issue_index: int = -1,
        used: bool = False,
    ) -> Optional[Tuple[int, list]]:
        """Insert ``block``; return ``(evicted_block, entry)`` if any.

        Re-inserting a resident block refreshes LRU but keeps the
        original entry (a prefetch to a resident block must not clear
        its used bit).
        """
        entries = self._sets[block & self._set_mask]
        existing = entries.get(block)
        if existing is not None:
            entries.move_to_end(block)
            return None
        return self._insert_line(
            entries, block, [origin, used, issue_index, False], self.assoc
        )

    def invalidate(self, block: int) -> Optional[list]:
        """Remove ``block`` if resident; return its entry."""
        return self._sets[block & self._set_mask].pop(block, None)

    def __contains__(self, block: int) -> bool:
        return block in self._sets[block & self._set_mask]

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    @property
    def capacity_blocks(self) -> int:
        return self.n_sets * self.assoc

    def clear(self) -> None:
        for entries in self._sets:
            entries.clear()

    def resident_blocks(self) -> List[int]:
        """All resident block indices (test/analysis helper)."""
        out: List[int] = []
        for entries in self._sets:
            out.extend(entries.keys())
        return out

    def __repr__(self) -> str:
        return (
            f"SetAssocCache({self.name}, {self.size_bytes >> 10}KB, "
            f"{self.assoc}-way, {len(self)}/{self.capacity_blocks} blocks)"
        )
