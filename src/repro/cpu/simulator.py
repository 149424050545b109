"""Trace-driven front-end timing simulator.

The commit loop walks the basic-block trace once.  Per committed block:

1. the FDIP front end advances its runahead pointer, issuing FTQ
   prefetches, when it can move (the branch predictions were made when
   the trace was bound, see :mod:`repro.frontend.fdip`);
2. the I-TLB translates the block's page (stalling on a walk);
3. the demand fetch of the block's cache line(s) goes to the hierarchy
   (stalling for residual fill latency on a miss);
4. cycles advance by ``ninstr / commit_width`` plus any branch penalty
   charged when a mispredicted/BTB-missing terminator commits (read
   from the front end's per-block penalty table);
5. the attached instruction prefetcher observes the commit.

The model is deterministic and warmup-aware: statistics are reset at the
warmup boundary while all microarchitectural state (caches, predictors,
prefetcher metadata) persists — mirroring the paper's 100M-warmup /
100M-measure methodology at reduced scale.

``run`` splits into :meth:`warmup` / :meth:`measure`.  A warmup
checkpoint (the path in :mod:`repro.experiments.runner`) is the machine
itself, pickled by :meth:`~FrontEndSimulator.state_dict` without what
the trace owns; :meth:`~FrontEndSimulator.resume` unpickles it and
binds the trace again.  An optional
:class:`~repro.cpu.probes.ProbeBus` samples the machine every
``probe_interval`` measured instructions by pre-splitting the
measurement window at probe boundaries — the hot loop itself is never
instrumented.
"""

from __future__ import annotations

import pickle
from typing import Optional

from repro.cpu.config import DEFAULT_WARMUP, MachineConfig
from repro.cpu.probes import ProbeBus
from repro.cpu.requests import RequestLatencyTracker
from repro.cpu.restore import Restorable
from repro.cpu.stats import SimStats
from repro.frontend.fdip import FDIPFrontEnd, PEN_BTB_MISS, PEN_MISPREDICT
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.tlb import InstructionTLB


class FrontEndSimulator(Restorable):
    """One simulated core running one trace."""

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        prefetcher=None,
        track_block_misses: bool = False,
        probe_interval: int = 0,
        track_requests: Optional[bool] = None,
    ):
        self.config = config or MachineConfig()
        self.stats = SimStats()
        self.hierarchy = MemoryHierarchy(self.config.hierarchy, self.stats)
        self.frontend = FDIPFrontEnd(self.config.frontend, self.stats)
        self.itlb = InstructionTLB(
            self.config.core.itlb_entries,
            self.config.core.itlb_walk_latency,
            policy=self.config.core.itlb_policy,
        )
        self.prefetcher = prefetcher
        if track_block_misses:
            self.hierarchy.l2_miss_map = {}
        self.probes = ProbeBus(probe_interval)
        #: Per-request latency accounting (see repro.cpu.requests).
        #: ``track_requests=None`` auto-enables on traces that carry an
        #: open-loop arrival process (``trace.request_gaps``); ``False``
        #: forces it off, ``True`` demands it (errors at measurement
        #: start if the trace has no arrivals).
        self._track_requests = track_requests
        self.reqtrack = RequestLatencyTracker()
        self.now = 0.0
        self.trace = None
        self._ran = False
        self._measuring = False
        self._next_index = 0
        self._last_block = -1
        self._last_page = -1
        self._cycle0 = 0.0
        self._itlb_acc0 = 0
        self._itlb_miss0 = 0
        self._itlb_pfp0 = 0
        self._itlb_pfi0 = 0
        self._itlb_pfh0 = 0

    # ------------------------------------------------------------------
    # Run lifecycle
    # ------------------------------------------------------------------
    def run(self, trace, warmup_fraction: float = DEFAULT_WARMUP) -> SimStats:
        """Simulate ``trace``; return measured-window statistics."""
        self.warmup(trace, warmup_fraction)
        return self.measure()

    def warmup(self, trace, warmup_fraction: float = DEFAULT_WARMUP) -> int:
        """Bind ``trace`` and run the warmup window.

        Returns the warmup-end trace index.  The machine at return is
        what :meth:`state_dict` pickles for a warmup checkpoint;
        :meth:`measure` then runs the measured window.
        """
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        self._begin_run(trace)
        warmup_end = int(len(trace) * warmup_fraction)
        self._last_block = -1
        self._last_page = -1
        if warmup_end:
            self._run_range(0, warmup_end)
        self._next_index = warmup_end
        return warmup_end

    def state_dict(self) -> bytes:
        """This machine, pickled: a warmup checkpoint.

        The pickle keeps every object's identity and aliasing, and it
        leaves out what the trace owns (see the ``__getstate__`` of the
        simulator, the front end and the prefetchers).  It can be taken
        at any commit-range boundary, inside the measured window too.
        """
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def resume(cls, trace, state: bytes,
               config: MachineConfig) -> "FrontEndSimulator":
        """The machine pickled in ``state``, bound to ``trace``.

        The checkpoint must come from a simulator with the same
        configuration running the same trace (warmup checkpoints are
        keyed accordingly); one that holds anything but a simulator
        of ``config`` raises ``ValueError``.  Binding redoes only the
        wiring (the trace's tables, the front end's prediction pass):
        the run continues where the checkpoint left it.
        """
        sim = pickle.loads(state)
        if not isinstance(sim, cls) or sim.config != config:
            raise ValueError(
                "checkpoint is not a simulator of this machine "
                "configuration")
        sim._bind(trace)
        if sim.prefetcher is not None:
            sim.prefetcher.bind(sim, trace)
        return sim

    def measure(self) -> SimStats:
        """Run from the current position to the end of the trace."""
        trace = self.trace
        if trace is None:
            raise RuntimeError("no trace bound; call warmup() or resume()")
        n = len(trace)
        if not self._measuring:
            self._begin_measurement()
        probes = self.probes
        reqtrack = self.reqtrack
        if probes.enabled or reqtrack.active:
            # Pre-split the measurement window at probe intervals and
            # request boundaries; the hot loop runs each chunk unmodified
            # (the zero-overhead-when-disabled contract extends to the
            # request tracker: without arrivals this branch is untaken).
            nin = trace.ninstr
            probing = probes.enabled
            i = self._next_index
            counted = self.stats.instructions
            target = 0
            while i < n:
                rb = reqtrack.next_boundary  # sentinel when inactive
                bound = rb if rb < n else n
                if probing:
                    target = probes.next_fire
                    j = i
                    while j < bound and counted < target:
                        counted += nin[j]
                        j += 1
                else:
                    j = bound
                self._run_range(i, j)
                self._next_index = j
                i = j
                if j == rb:  # rb is the sentinel when inactive: no match
                    reqtrack.record(self.now)
                if probing and counted >= target:
                    probes.fire(self)
        else:
            self._run_range(self._next_index, n)
            self._next_index = n
        self._finish_measurement()
        return self.stats

    def _begin_run(self, trace) -> None:
        if self._ran:
            raise RuntimeError(
                "this FrontEndSimulator already ran a trace; stale "
                "microarchitectural state would corrupt a second run — "
                "construct a fresh simulator"
            )
        if len(trace) == 0:
            raise ValueError("empty trace")
        self._ran = True
        self._bind(trace)
        if self.prefetcher is not None:
            self.prefetcher.attach(self, trace)

    def _bind(self, trace) -> None:
        self.trace = trace
        self.frontend.bind(trace, self.hierarchy, self.itlb,
                           self.config.core.itlb_prefetch)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["trace"]
        return state

    # ------------------------------------------------------------------
    def _begin_measurement(self) -> None:
        self.stats.reset()
        if self.hierarchy.l2_miss_map is not None:
            self.hierarchy.l2_miss_map.clear()
        self._cycle0 = self.now
        self._itlb_acc0 = self.itlb.accesses
        self._itlb_miss0 = self.itlb.misses
        self._itlb_pfp0 = self.itlb.pf_probes
        self._itlb_pfi0 = self.itlb.pf_installs
        self._itlb_pfh0 = self.itlb.pf_hits
        self._last_block = -1
        self._last_page = -1
        self._measuring = True
        if self.prefetcher is not None:
            self.prefetcher.on_measurement_start()
        self.probes.begin()
        enabled = self._track_requests
        if enabled is None:
            enabled = getattr(self.trace, "request_gaps", None) is not None
        elif enabled and getattr(self.trace, "request_gaps", None) is None:
            raise ValueError(
                "track_requests=True but the trace carries no open-loop "
                "arrival process (request_gaps); generate it from an "
                "application with an ArrivalSpec"
            )
        self.reqtrack.begin(self.trace, self._next_index,
                            self.config.core.commit_width, enabled)

    def _finish_measurement(self) -> None:
        stats = self.stats
        stats.cycles = self.now - self._cycle0
        stats.itlb_accesses = self.itlb.accesses - self._itlb_acc0
        stats.itlb_misses = self.itlb.misses - self._itlb_miss0
        stats.itlb_pf_probes = self.itlb.pf_probes - self._itlb_pfp0
        stats.itlb_pf_installs = self.itlb.pf_installs - self._itlb_pfi0
        stats.itlb_pf_hits = self.itlb.pf_hits - self._itlb_pfh0
        self._measuring = False
        if self.prefetcher is not None:
            self.prefetcher.on_measurement_end()
        self.probes.publish(stats)
        self.reqtrack.publish(stats)

    def _run_range(self, start: int, end: int) -> None:
        # The commit loop.  Everything it touches per iteration is a
        # local: bound methods, the trace's precomputed decode tables,
        # the front end's penalty table, and scalar accumulators that
        # are flushed into SimStats once at the end of the range, with
        # the front end's branch counters (the probe bus only samples at
        # range boundaries, so chunk-local accumulation is observably
        # equivalent).  ``self.now`` is still published before each
        # prefetcher ``on_commit`` — EIP's ``on_miss`` reads ``sim.now``
        # and must keep seeing the previous block's commit time.  The
        # front end is called only from the commit index its last call
        # returned: before it, the runahead is blocked or the FTQ full.
        trace = self.trace
        nin_arr = trace.ninstr
        b0_arr = trace.block0
        b1_arr = trace.block1
        page_arr = trace.page
        stats = self.stats
        frontend = self.frontend
        hierarchy = self.hierarchy
        itlb = self.itlb
        prefetcher = self.prefetcher
        inv_width = 1.0 / self.config.core.commit_width
        slack = self.config.core.fetch_slack
        mispredict_penalty = self.config.frontend.mispredict_penalty
        btb_miss_penalty = self.config.frontend.btb_miss_penalty
        pen_mispredict = PEN_MISPREDICT
        pen_btb_miss = PEN_BTB_MISS
        demand_fetch = hierarchy.demand_fetch
        advance = frontend.advance
        translate = itlb.translate
        pen_arr = frontend.pen
        on_commit = prefetcher.on_commit if prefetcher is not None else None
        on_miss = prefetcher.on_miss if prefetcher is not None else None
        on_mispredict = (
            prefetcher.on_mispredict if prefetcher is not None else None
        )
        now = self.now
        last_block = self._last_block
        last_page = self._last_page
        instructions = 0
        stall_itlb = 0.0
        stall_fetch = 0.0
        stall_mispredict = 0.0
        wake = start
        # lint: hot-begin
        for i in range(start, end):
            if i >= wake:
                wake = advance(i, now)
            nin = nin_arr[i]
            page = page_arr[i]
            if page != last_page:
                walk = translate(page)
                if walk:
                    now += walk
                    stall_itlb += walk
                last_page = page
            b0 = b0_arr[i]
            b1 = b1_arr[i]
            if b0 != last_block:
                stall = demand_fetch(b0, now, i)
                if stall:
                    if stall > slack:
                        exposed = stall - slack
                        now += exposed
                        stall_fetch += exposed
                    if on_miss is not None:
                        on_miss(b0, i, stall)
            if b1 != b0:
                stall = demand_fetch(b1, now, i)
                if stall:
                    if stall > slack:
                        exposed = stall - slack
                        now += exposed
                        stall_fetch += exposed
                    if on_miss is not None:
                        on_miss(b1, i, stall)
                last_block = b1
            else:
                last_block = b0
            now += nin * inv_width
            pen = pen_arr[i]
            if pen:
                if pen == pen_mispredict:
                    now += mispredict_penalty
                    stall_mispredict += mispredict_penalty
                    if on_mispredict is not None:
                        on_mispredict(i)
                elif pen == pen_btb_miss:
                    now += btb_miss_penalty
                    stall_mispredict += btb_miss_penalty
            instructions += nin
            if on_commit is not None:
                self.now = now
                on_commit(i, now)
        # lint: hot-end
        stats.instructions += instructions
        stats.blocks += end - start
        stats.stall_itlb += stall_itlb
        stats.stall_fetch += stall_fetch
        stats.stall_mispredict += stall_mispredict
        frontend.count_branches()
        self.now = now
        self._last_block = last_block
        self._last_page = last_page


def simulate(
    trace,
    config: Optional[MachineConfig] = None,
    prefetcher=None,
    warmup_fraction: float = DEFAULT_WARMUP,
    track_block_misses: bool = False,
    probe_interval: int = 0,
    track_requests: Optional[bool] = None,
) -> SimStats:
    """One-shot convenience wrapper around :class:`FrontEndSimulator`."""
    sim = FrontEndSimulator(
        config=config,
        prefetcher=prefetcher,
        track_block_misses=track_block_misses,
        probe_interval=probe_interval,
        track_requests=track_requests,
    )
    return sim.run(trace, warmup_fraction=warmup_fraction)
