"""Common interface for commit-driven instruction prefetchers.

A prefetcher is attached to a :class:`~repro.cpu.simulator.FrontEndSimulator`
and observes the committed instruction stream through three hooks; it
issues each trigger's requests through :meth:`InstructionPrefetcher.issue_many`
(origin ``ORIGIN_PF``) so accuracy/coverage/timeliness accounting
attributes them correctly.
"""

from __future__ import annotations

import copy
from typing import Dict

from repro.cpu.component import SimComponent, check_state_fields
from repro.memory.cache import ORIGIN_PF

#: Attributes that are wiring (references into the machine), not
#: prefetcher-owned mutable state; excluded from the default snapshot.
#: ``_itlb_pf`` is a bound method of the machine's I-TLB — snapshotting
#: it would deep-copy the whole TLB through the closure — and
#: ``_block0``/``_block1`` are the trace's decode tables.
_WIRING = frozenset({"sim", "trace", "hierarchy", "stats", "_itlb_pf",
                     "_block0", "_block1"})


class InstructionPrefetcher(SimComponent):
    """Base class; subclasses override the ``on_*`` hooks they need.

    The default :meth:`state_dict`/:meth:`load_state_dict` deep-copy the
    instance ``__dict__`` minus the wiring references (``sim``,
    ``trace``, ``hierarchy``, ``stats`` and the bound tables of
    ``_WIRING``).  One ``deepcopy`` of the whole
    attribute dict (rather than per-field serialization) preserves any
    intra-state aliasing — e.g. EFetch's in-flight observation lists
    alias its table entries — so restored behavior is bit-identical.
    Prefetchers whose state holds callbacks or cross-component
    references (HierarchicalPrefetcher) override with structured
    implementations.
    """

    name = "base"

    def __init__(self) -> None:
        self.sim = None
        self.trace = None
        self.hierarchy = None
        self.stats = None
        self._itlb_pf = None  # lint: ephemeral
        self._block0 = self._block1 = None  # lint: ephemeral

    def attach(self, sim, trace) -> None:
        """Bind to a simulator and trace before the run starts."""
        self.sim = sim
        self.trace = trace
        self.hierarchy = sim.hierarchy
        self.stats = sim.stats
        self._itlb_pf = (  # lint: ephemeral
            sim.itlb.prefetch if sim.config.core.itlb_prefetch else None
        )
        # Each block's first and last cache line (``Trace.block0`` and
        # ``block1``), bound once for the per-commit hooks.
        self._block0 = trace.block0  # lint: ephemeral
        self._block1 = trace.block1  # lint: ephemeral
        self.reset()

    def reset(self) -> None:
        """Clear run-local state (called from :meth:`attach`)."""

    # ------------------------------------------------------------------
    # SimComponent protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        own = {k: v for k, v in self.__dict__.items() if k not in _WIRING}
        return {"attrs": copy.deepcopy(own)}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        check_state_fields(self, state, ("attrs",))
        attrs = state["attrs"]
        expected = set(self.__dict__) - _WIRING
        if set(attrs) != expected:
            raise ValueError(
                f"stale {type(self).__name__} state "
                f"(missing={sorted(expected - set(attrs))}, "
                f"unknown={sorted(set(attrs) - expected)})"
            )
        self.__dict__.update(copy.deepcopy(attrs))

    # ------------------------------------------------------------------
    # Hooks called by the simulator
    # ------------------------------------------------------------------
    def on_commit(self, i: int, now: float) -> None:
        """Block ``i`` of the trace committed at cycle ``now``."""

    def on_miss(self, block: int, i: int, stall: float) -> None:
        """A demand fetch of cache ``block`` stalled at commit of ``i``."""

    def on_mispredict(self, i: int) -> None:
        """The terminator of block ``i`` was mispredicted (pipeline flush)."""

    def on_measurement_start(self) -> None:
        """Warmup ended; per-run derived stats may snapshot here."""

    def on_measurement_end(self) -> None:
        """Run finished; publish extras into ``self.stats.extra``."""

    # ------------------------------------------------------------------
    def issue_many(self, blocks, now: float, extra_latency: float = 0.0,
                   to_l2: bool = False) -> int:
        """Issue one trigger's prefetches, in order, with origin
        ``ORIGIN_PF`` through one
        :meth:`~repro.memory.hierarchy.MemoryHierarchy.prefetch_many`
        call; return how many were queued or issued.

        With the I-TLB prefetch path enabled each block's page is probed
        into the TLB as well (non-stalling; block 64B, page 4KB).  The
        TLB and the cache hierarchy share no state, so probing every
        page before the batch is the same as probing each before its
        block.
        """
        tlb_pf = self._itlb_pf
        if tlb_pf is not None:
            for block in blocks:
                tlb_pf(block >> 6)
        return self.hierarchy.prefetch_many(blocks, now, ORIGIN_PF,
                                            extra_latency, to_l2)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class NullPrefetcher(InstructionPrefetcher):
    """No-op prefetcher: the plain FDIP baseline."""

    name = "fdip"
