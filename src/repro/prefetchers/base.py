"""Common interface for commit-driven instruction prefetchers.

A prefetcher is attached to a :class:`~repro.cpu.simulator.FrontEndSimulator`
and observes the committed instruction stream through three hooks; it
issues each trigger's requests through :meth:`InstructionPrefetcher.issue_many`
(origin ``ORIGIN_PF``) so accuracy/coverage/timeliness accounting
attributes them correctly.
"""

from __future__ import annotations

from repro.cpu.restore import Restorable
from repro.memory.cache import ORIGIN_PF


class InstructionPrefetcher(Restorable):
    """Base class; subclasses override the ``on_*`` hooks they need.

    A warmup checkpoint pickles the prefetcher with the rest of the
    machine.  :meth:`__getstate__` leaves out what belongs to the trace
    (``trace`` and its ``_block0``/``_block1`` tables); :meth:`bind`
    binds them again on resume.
    """

    name = "base"

    def __init__(self) -> None:
        self.sim = None
        self.trace = None
        self.hierarchy = None
        self.stats = None
        self._itlb_pf = None
        self._block0 = self._block1 = None

    def attach(self, sim, trace) -> None:
        """Bind to a simulator and trace before the run starts, and
        :meth:`reset` to the power-on state."""
        self.bind(sim, trace)
        self.reset()

    def bind(self, sim, trace) -> None:
        """Wire the prefetcher to the machine and the trace's tables
        (the half of :meth:`attach` that a resumed machine repeats)."""
        self.sim = sim
        self.trace = trace
        self.hierarchy = sim.hierarchy
        self.stats = sim.stats
        self._itlb_pf = (
            sim.itlb.prefetch if sim.config.core.itlb_prefetch else None
        )
        # Each block's first and last cache line (``Trace.block0`` and
        # ``block1``), bound once for the per-commit hooks.
        self._block0 = trace.block0
        self._block1 = trace.block1

    def reset(self) -> None:
        """Clear run-local state (called from :meth:`attach`)."""

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["trace"], state["_block0"], state["_block1"]
        return state

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
