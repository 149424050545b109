"""Pluggable replacement policies for the caches and the I-TLB.

Eviction/insertion used to be hardwired LRU inside
:class:`~repro.memory.cache.SetAssocCache`; this module makes the
decision a pluggable object of its own so
the substrate under a prefetcher becomes a swept dimension (Jamet et
al., arXiv 2605.12433: prefetched-line-aware cache/TLB management is a
multiplier on *any* instruction prefetcher).

A policy operates on one set's ``OrderedDict`` (iteration order is
recency: least recent first).  The *hit* path is uniform across
policies — every policy promotes a hit to MRU, which is exactly the
"promote on first demand hit" rule — so ``SetAssocCache.lookup`` stays
untouched and pays zero dispatch cost.  Policies differ only in
:meth:`ReplacementPolicy.insert_line`: where a fill enters the recency
stack and which resident line is the victim.  Entries carry the fill
origin (:data:`~repro.memory.cache.ORIGIN_DEMAND` /
``ORIGIN_FDIP`` / ``ORIGIN_PF``) and a used bit, which is what the
prefetch-aware variants key on.

``insert_line`` is called from the fenced commit loop (every demand
miss and completed prefetch fill lands here), so implementations follow
the hot-loop idiom: constants hoisted to locals above any loop, no
per-access allocation beyond the unavoidable eviction pair.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Type

from repro.cpu.restore import Restorable
from repro.memory.cache import E_ORIGIN, E_USED, ORIGIN_DEMAND

#: Deterministic MRU-insertion period of the bimodal policy (BIP's
#: epsilon = 1/32, realized as a counter instead of an RNG so sweeps
#: stay bit-reproducible).
BIP_MRU_PERIOD = 32


class ReplacementPolicy(Restorable):
    """Insertion/eviction strategy for one cache (or the I-TLB).

    One instance belongs to exactly one cache: per-cache state (BIP's
    insertion counter) must not alias across levels.
    """

    name = "base"
    description = "abstract policy"

    def insert_line(
        self, entries, block: int, entry: list, assoc: int,
    ) -> Optional[Tuple[int, list]]:
        """Install ``entry`` for ``block`` into the set ``entries``.

        ``entries`` is the set's ``OrderedDict`` in recency order
        (least recent first); the caller guarantees ``block`` is not
        resident.  Returns the evicted ``(block, entry)`` pair or None.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class LRUPolicy(ReplacementPolicy):
    """Classic LRU: insert at MRU, evict the LRU line.

    Bit-identical to the pre-refactor hardwired behavior — the golden
    matrix (tests/data/golden_matrix.json) pins this.
    """

    name = "lru"
    description = "insert at MRU, evict LRU (the pre-refactor default)"

    def insert_line(self, entries, block, entry, assoc):
        # lint: hot-begin
        evicted = None
        if len(entries) >= assoc:
            evicted = entries.popitem(last=False)
        entries[block] = entry
        return evicted
        # lint: hot-end


class LIPPolicy(ReplacementPolicy):
    """LRU-Insertion Policy: every fill enters at the LRU position.

    A line only climbs the stack when a demand hit promotes it (the
    uniform hit path), so single-use fills wash out of the set without
    displacing the reused working set (Qureshi et al., ISCA'07).
    """

    name = "lip"
    description = "insert at LRU position; only hits promote to MRU"

    def insert_line(self, entries, block, entry, assoc):
        # lint: hot-begin
        evicted = None
        if len(entries) >= assoc:
            evicted = entries.popitem(last=False)
        entries[block] = entry
        entries.move_to_end(block, last=False)
        return evicted
        # lint: hot-end


class BIPPolicy(ReplacementPolicy):
    """Bimodal Insertion Policy: LIP with an occasional MRU insert.

    Every :data:`BIP_MRU_PERIOD`-th fill enters at MRU (deterministic
    counter in place of BIP's epsilon-coin), preserving a trickle of
    thrash protection while still adapting to LRU-friendly phases.
    """

    name = "bip"
    description = ("LIP with every 32nd fill at MRU "
                   "(deterministic bimodal insertion)")

    def __init__(self) -> None:
        self._fills = 0

    def insert_line(self, entries, block, entry, assoc):
        # lint: hot-begin
        evicted = None
        if len(entries) >= assoc:
            evicted = entries.popitem(last=False)
        entries[block] = entry
        fills = self._fills + 1
        if fills >= BIP_MRU_PERIOD:
            fills = 0  # this fill stays at MRU
        else:
            entries.move_to_end(block, last=False)
        self._fills = fills
        return evicted
        # lint: hot-end


class PrefetchAwarePolicy(ReplacementPolicy):
    """Prefetch-aware insertion and demotion (Jamet et al. §4).

    Demand fills behave like LRU.  Prefetched fills (origin FDIP or the
    evaluated prefetcher) enter at the *distal* (LRU) position: a
    wrong-path prefetch ages out after one round instead of holding a
    full trip through the stack, while a correct one is promoted to MRU
    by its first demand hit.  On eviction the policy prefers demoting a
    still-unused prefetched line over the strict LRU victim, so
    speculative lines never displace the demand-proven working set.
    """

    name = "pf_aware"
    description = ("prefetches insert at LRU and unused prefetched "
                   "lines are evicted first; demand hits promote")

    def insert_line(self, entries, block, entry, assoc):
        e_origin = E_ORIGIN
        e_used = E_USED
        origin_demand = ORIGIN_DEMAND
        # lint: hot-begin
        evicted = None
        if len(entries) >= assoc:
            victim = -1
            for b, e in entries.items():  # recency order, LRU first
                if e[e_origin] != origin_demand and not e[e_used]:
                    victim = b
                    break
            if victim < 0:
                evicted = entries.popitem(last=False)
            else:
                evicted = (victim, entries.pop(victim))
        entries[block] = entry
        if entry[e_origin] != origin_demand:
            entries.move_to_end(block, last=False)
        return evicted
        # lint: hot-end


_POLICY_CLASSES: Dict[str, Type[ReplacementPolicy]] = {
    cls.name: cls
    for cls in (LRUPolicy, LIPPolicy, BIPPolicy, PrefetchAwarePolicy)
}

#: Names accepted by :func:`make_policy`, in presentation order.
POLICY_NAMES: Tuple[str, ...] = ("lru", "lip", "bip", "pf_aware")

#: ``{name: one-line description}`` for ``repro list --policies``.
POLICY_DESCRIPTIONS: Dict[str, str] = {
    name: _POLICY_CLASSES[name].description for name in POLICY_NAMES
}


def make_policy(name) -> ReplacementPolicy:
    """Build a replacement policy by name.

    Accepts a ready :class:`ReplacementPolicy` instance unchanged, so
    construction sites can take either form.
    """
    if isinstance(name, ReplacementPolicy):
        return name
    cls = _POLICY_CLASSES.get(str(name).lower())
    if cls is None:
        raise ValueError(
            f"unknown replacement policy {name!r}; expected one of "
            f"{POLICY_NAMES}"
        )
    return cls()


__all__ = [
    "BIP_MRU_PERIOD", "POLICY_NAMES", "POLICY_DESCRIPTIONS",
    "ReplacementPolicy", "LRUPolicy", "LIPPolicy", "BIPPolicy",
    "PrefetchAwarePolicy", "make_policy",
]
