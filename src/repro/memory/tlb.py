"""Instruction TLB model (fully associative, pluggable replacement).

Demand fetches that miss stall for the page-walk latency; prefetch
translations (HP dispatches spatial-region base addresses to the TLB,
§5.3.5) add the walk latency to the prefetch's completion time instead
of stalling the core.

When the I-TLB prefetch path is enabled (``core.itlb_prefetch``), FDIP
runahead / HP replay / baseline-prefetcher addresses are probed at page
granularity through :meth:`InstructionTLB.prefetch`: a missing
translation is installed *without* counting as a demand miss and
without stalling anything — the first demand touch of such an entry is
a prefetch-covered walk (``pf_hits``).  Entries carry the same
``[origin, used]`` metadata as cache lines, so the prefetch-aware
replacement policies (:mod:`repro.memory.policies`) apply to the TLB
unchanged: speculative translations insert distally and are demoted
first while unused.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.cpu.restore import Restorable
from repro.memory.cache import E_USED, ORIGIN_DEMAND, ORIGIN_PF

#: Page-walk latency in cycles charged on a TLB miss.
DEFAULT_WALK_LATENCY = 40


class InstructionTLB(Restorable):
    """Fully associative I-TLB over page indices.

    ``policy`` is a :class:`~repro.memory.policies.ReplacementPolicy`
    name or instance (default ``"lru"``, the historical behavior).
    """

    def __init__(self, n_entries: int = 128,
                 walk_latency: int = DEFAULT_WALK_LATENCY,
                 policy=None):
        if n_entries < 1:
            raise ValueError("TLB needs at least one entry")
        from repro.memory.policies import make_policy

        self.n_entries = n_entries
        self.walk_latency = walk_latency
        self.policy = make_policy(policy if policy is not None else "lru")
        self._insert_line = self.policy.insert_line
        self._entries: OrderedDict = OrderedDict()
        self.accesses = 0
        self.misses = 0
        # Prefetch-probe path (core.itlb_prefetch); all three stay 0
        # when the path is off, keeping default stats bit-identical.
        self.pf_probes = 0
        self.pf_installs = 0
        self.pf_hits = 0  # first demand touch of a prefetched entry

    def translate(self, page: int) -> int:
        """Access the TLB for ``page``; return the added latency in cycles.

        0 on a hit; ``walk_latency`` on a miss (the page is then
        installed per the replacement policy).
        """
        self.accesses += 1
        entries = self._entries
        entry = entries.get(page)
        if entry is not None:
            entries.move_to_end(page)
            if not entry[E_USED]:
                entry[E_USED] = True
                self.pf_hits += 1
            return 0
        self.misses += 1
        self._insert_line(
            entries, page, [ORIGIN_DEMAND, True], self.n_entries
        )
        return self.walk_latency

    def prefetch(self, page: int, origin: int = ORIGIN_PF) -> int:
        """Non-stalling page-granularity prefetch probe.

        Installs ``page`` if absent (counted as ``pf_installs``, *not*
        as a demand miss) and returns the walk latency the requester
        should fold into its own completion time; a resident page costs
        nothing and — unlike a demand access — is not promoted.
        """
        self.pf_probes += 1
        entries = self._entries
        if page in entries:
            return 0
        self.pf_installs += 1
        self._insert_line(
            entries, page, [origin, False], self.n_entries
        )
        return self.walk_latency

    def __contains__(self, page: int) -> bool:
        return page in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def __repr__(self) -> str:
        return (
            f"InstructionTLB(entries={self.n_entries}, "
            f"resident={len(self)}, miss_rate={self.miss_rate:.4f})"
        )
