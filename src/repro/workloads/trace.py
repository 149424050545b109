"""Execution-trace generation: interpret an application's block bodies.

The :class:`TraceBuilder` runs the request loop with an explicit call
stack, drawing branch outcomes / request types / dispatch decisions from
a seeded RNG, and emits one record per executed basic block into
parallel arrays (the representation the simulator consumes).  It also
annotates request and stage spans for the Figure 1 footprint analysis.

Equal addresses and cache-block or page indices share one int object
across a trace's tables (see :class:`Trace`); only object identity is
shared, never changed values.
"""

from __future__ import annotations

import bisect
import random
from typing import Dict, List, Optional, Tuple

from repro.isa.binary import Function
from repro.isa.instructions import BranchKind, INSTR_BYTES
from repro.workloads.appmodel import Application

_NONE = int(BranchKind.NONE)
_COND = int(BranchKind.COND)
_JUMP = int(BranchKind.JUMP)
_CALL = int(BranchKind.CALL)
_RET = int(BranchKind.RET)
_ICALL = int(BranchKind.ICALL)
_IJUMP = int(BranchKind.IJUMP)

#: The parallel per-block arrays; a valid trace has them all one length.
ARRAY_FIELDS = ("pc", "ninstr", "kind", "taken", "target", "tagged")
#: Every field a trace is made of: what serializers persist and restore.
PAYLOAD_FIELDS = ARRAY_FIELDS + (
    "requests", "stage_spans", "request_gaps", "slo_instr",
    "n_instructions",
)


class Trace:
    """Parallel per-basic-block arrays plus workload annotations.

    Arrays (all ``len(self)`` long):

    * ``pc`` — block start address;
    * ``ninstr`` — instructions in the block;
    * ``kind`` — terminator :class:`BranchKind` as int;
    * ``taken`` — 1 if a COND terminator was taken;
    * ``target`` — address of the next executed block;
    * ``tagged`` — 1 if the terminator carries the Bundle tag bit.

    Derived *decode tables* (``block0``, ``block1``, ``page``, ``term``)
    are computed lazily in one pass and cached on the trace: every
    consumer of the commit stream (the simulator's hot loop, the FDIP
    runahead, commit-driven prefetchers) indexes them instead of
    re-deriving cache-block and page indices per committed block.

    A bench trace has ten times more blocks than distinct addresses,
    so every table holds one int object per distinct value: ``pc`` and
    ``target`` come from per-function address tables (or are interned
    by :meth:`from_payload`), and the decode tables are filled by lookup.

    ``bpu_passes`` is derived state too: the branch-prediction pass per
    BPU configuration (:meth:`repro.frontend.fdip.FDIPFrontEnd.bind`).
    Neither is part of :meth:`to_payload`.
    """

    def __init__(self) -> None:
        self.pc: List[int] = []
        self.ninstr: List[int] = []
        self.kind: List[int] = []
        self.taken: List[int] = []
        self.target: List[int] = []
        self.tagged: List[int] = []
        #: (trace index of first block, request type) per request.
        self.requests: List[Tuple[int, int]] = []
        #: (start index, end index exclusive, stage name, request type).
        self.stage_spans: List[Tuple[int, int, str, int]] = []
        #: Open-loop inter-arrival gaps in *ideal-instruction* units, one
        #: per request (``request_gaps[k]`` separates request ``k-1``
        #: from ``k``; index 0 is 0.0).  ``None`` for closed-loop
        #: workloads — presence of this field is what auto-enables the
        #: simulator's per-request latency tracker.
        self.request_gaps: Optional[List[float]] = None
        #: SLO latency threshold in ideal-instruction units.
        self.slo_instr: Optional[float] = None
        self.n_instructions = 0
        self._block0: Optional[List[int]] = None
        self._block1: Optional[List[int]] = None
        self._page: Optional[List[int]] = None
        self._term: Optional[List[int]] = None
        #: (btb_entries, btb_assoc, ras_depth) -> event bytes of the
        #: prediction pass over this trace.
        self.bpu_passes: Dict[tuple, bytes] = {}

    def __len__(self) -> int:
        return len(self.pc)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """The trace's fields as a plain dict (lists, tuples, numbers),
        shared rather than copied; decode tables are derived state and
        are left out."""
        return {name: getattr(self, name) for name in PAYLOAD_FIELDS}

    @classmethod
    def from_payload(cls, payload: dict) -> "Trace":
        """Rebuild a trace from :meth:`to_payload` output.

        Raises ``KeyError`` for a missing field and ``ValueError`` when
        the per-block arrays differ in length.  ``pc`` and ``target``
        are interned: one int object per distinct address.
        """
        trace = cls()
        for name in PAYLOAD_FIELDS:
            setattr(trace, name, payload[name])
        if len({len(getattr(trace, name)) for name in ARRAY_FIELDS}) != 1:
            raise ValueError("corrupt trace (ragged arrays)")
        addrs = dict(zip(trace.pc, trace.pc))
        addrs.update(zip(trace.target, trace.target))
        trace.pc = list(map(addrs.__getitem__, trace.pc))
        trace.target = list(map(addrs.__getitem__, trace.target))
        return trace

    # ------------------------------------------------------------------
    # Precomputed decode tables
    # ------------------------------------------------------------------
    def _decode(self) -> None:
        # One value per distinct key, equal values shared.  block1 and
        # term are keyed by pc unless a (hand-built) trace repeats a pc
        # with another length: then by the (pc, ninstr) pair.
        pc = self.pc
        nin = self.ninstr
        ib = INSTR_BYTES
        values: Dict[int, int] = {}

        def share(value: int) -> int:
            return values.setdefault(value, value)

        lengths = dict(zip(pc, nin))
        block0 = {a: share(a >> 6) for a in lengths}
        page = {a: share(a >> 12) for a in lengths}
        # Generators, not containers of tuples: tuples kept alive would
        # set off the cyclic GC, which then scans the whole application.
        if list(map(lengths.__getitem__, pc)) == nin:
            keys = pc
            spans = ((a, a, n) for a, n in lengths.items())
        else:
            keys = list(zip(pc, nin))
            spans = ((k, *k) for k in set(keys))
        block1 = {}
        term = {}
        for k, a, n in spans:
            block1[k] = share((a + n * ib - 1) >> 6)
            term[k] = share(a + (n - 1) * ib)
        self._block0 = list(map(block0.__getitem__, pc))
        self._page = list(map(page.__getitem__, pc))
        self._block1 = list(map(block1.__getitem__, keys))
        self._term = list(map(term.__getitem__, keys))

    @property
    def block0(self) -> List[int]:
        """First cache-block index per trace block (``pc >> 6``)."""
        if self._block0 is None:
            self._decode()
        return self._block0

    @property
    def block1(self) -> List[int]:
        """Last cache-block index per trace block."""
        if self._block1 is None:
            self._decode()
        return self._block1

    @property
    def page(self) -> List[int]:
        """4 KiB page index per trace block (``pc >> 12``)."""
        if self._page is None:
            self._decode()
        return self._page

    @property
    def term(self) -> List[int]:
        """Terminator instruction address per trace block."""
        if self._term is None:
            self._decode()
        return self._term

    def blocks_of(self, i: int) -> Tuple[int, int]:
        """First and last cache-block index touched by trace block ``i``."""
        pc = self.pc[i]
        return pc >> 6, (pc + self.ninstr[i] * INSTR_BYTES - 1) >> 6

    def terminator_addr(self, i: int) -> int:
        return self.pc[i] + (self.ninstr[i] - 1) * INSTR_BYTES

    def footprint(self, start: int, end: int) -> set:
        """Set of cache blocks touched by trace records [start, end)."""
        out = set()
        pc = self.pc
        nin = self.ninstr
        for i in range(start, end):
            b0 = pc[i] >> 6
            b1 = (pc[i] + nin[i] * 4 - 1) >> 6
            out.add(b0)
            if b1 != b0:
                out.add(b1)
        return out

    def request_of(self, i: int) -> int:
        """Request type being processed at trace index ``i``."""
        starts = [s for s, _ in self.requests]
        pos = bisect.bisect_right(starts, i) - 1
        return self.requests[pos][1] if pos >= 0 else -1

    def __repr__(self) -> str:
        return (
            f"Trace(blocks={len(self)}, instrs={self.n_instructions}, "
            f"requests={len(self.requests)})"
        )


class TraceBuilder:
    """Seeded interpreter for one application."""

    def __init__(self, app: Application, seed: int = 1):
        self.app = app
        self.seed = seed

    def build(self, n_requests: int) -> Trace:
        if n_requests < 1:
            raise ValueError("n_requests must be >= 1")
        app = self.app
        rng = random.Random(self.seed)
        binary = app.binary
        functions = binary.functions
        tagged_set = app.program.tagged
        trace = Trace()
        pc_a = trace.pc
        nin_a = trace.ninstr
        kind_a = trace.kind
        taken_a = trace.taken
        tgt_a = trace.target
        tag_a = trace.tagged

        dispatch_names = set(app.dispatchers.values())
        dispatcher_stage = {v: k for k, v in app.dispatchers.items()}
        weights = app.request_weights
        cum: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w
            cum.append(acc)

        main = binary.get("main")
        # Per-function block address tables, built once per function:
        # every pc and target is taken from them, so equal addresses
        # are one int object across the whole trace.
        tables: Dict[Function, List[int]] = {}

        def addrs_of(f: Function) -> List[int]:
            addrs = tables.get(f)
            if addrs is None:
                base = f.addr
                addrs = tables[f] = [base + b.offset for b in f.blocks]
            return addrs

        # Call stack: (function, its address table, resume block index,
        # loop counters); loop counters are dicts created lazily.
        stack: List[Tuple[Function, List[int], int, Optional[dict]]] = []
        func = main
        blocks = main.blocks
        addrs = addrs_of(main)
        idx = 0
        loops: Optional[dict] = None
        # Preheat prefix: the first requests cycle deterministically
        # through every type so the measurement window (after the
        # simulator's warmup fraction) sees a warmed server, mirroring
        # the paper's 100M-instruction warmup.
        n_types = len(weights)
        preheat = n_types if n_requests > 2 * n_types else 0
        arrival = app.arrival
        request_type = 0 if preheat else self._draw_type(rng, cum)
        requests_done = 0
        switch_counts: dict = {}
        trace.requests.append((0, request_type))
        open_stage: Optional[Tuple[int, str]] = None
        n_instr = 0
        rand = rng.random
        ib = INSTR_BYTES

        while True:
            blk = blocks[idx]
            pc = addrs[idx]
            nin = blk.ninstr
            kind = blk.kind
            n_instr += nin
            if kind == _COND:
                if blk.loop_count:
                    if loops is None:
                        loops = {}
                    remaining = loops.get(idx)
                    if remaining is None:
                        remaining = blk.loop_count
                    remaining -= 1
                    taken = remaining > 0
                    loops[idx] = remaining if taken else None
                    if not taken:
                        loops.pop(idx, None)
                else:
                    taken = rand() < blk.taken_prob
                nxt = blk.taken_next if taken else idx + 1
                target = addrs[nxt]
                pc_a.append(pc)
                nin_a.append(nin)
                kind_a.append(_COND)
                taken_a.append(1 if taken else 0)
                tgt_a.append(target)
                tag_a.append(0)
                idx = nxt
            elif kind == _NONE:
                target = addrs[idx + 1]
                pc_a.append(pc)
                nin_a.append(nin)
                kind_a.append(_NONE)
                taken_a.append(0)
                tgt_a.append(target)
                tag_a.append(0)
                idx += 1
            elif kind == _CALL or kind == _ICALL:
                if kind == _CALL:
                    callee = functions[blk.callee]
                else:
                    chosen = None
                    if blk.selector is not None:
                        chosen = app.route_map[request_type].get(blk.selector)
                    if chosen is None:
                        # Per-execution switch.  During the preheat
                        # prefix the variants rotate round-robin so the
                        # warmup window touches all of them (the paper's
                        # 100M-instruction warmup leaves no cold code).
                        if requests_done < preheat:
                            count = switch_counts.get(pc, 0)
                            switch_counts[pc] = count + 1
                            chosen = blk.targets[count % len(blk.targets)]
                        else:
                            chosen = blk.targets[
                                int(rand() * len(blk.targets))
                                % len(blk.targets)
                            ]
                    callee = functions[chosen]
                callee_addrs = addrs_of(callee)
                target = callee_addrs[0]
                is_tagged = 1 if pc + (nin - 1) * ib in tagged_set else 0
                pc_a.append(pc)
                nin_a.append(nin)
                kind_a.append(kind)
                taken_a.append(1)
                tgt_a.append(target)
                tag_a.append(is_tagged)
                if kind == _CALL and callee.name in dispatch_names:
                    open_stage = (len(pc_a), dispatcher_stage[callee.name])
                stack.append((func, addrs, idx + 1, loops))
                func = callee
                blocks = callee.blocks
                addrs = callee_addrs
                idx = 0
                loops = None
            elif kind == _RET:
                rfunc, raddrs, ridx, rloops = stack.pop()
                target = raddrs[ridx]
                is_tagged = 1 if pc + (nin - 1) * ib in tagged_set else 0
                pc_a.append(pc)
                nin_a.append(nin)
                kind_a.append(_RET)
                taken_a.append(1)
                tgt_a.append(target)
                tag_a.append(is_tagged)
                if rfunc is main and open_stage is not None:
                    start, stage_name = open_stage
                    trace.stage_spans.append(
                        (start, len(pc_a), stage_name, request_type)
                    )
                    open_stage = None
                func, addrs, idx, loops = rfunc, raddrs, ridx, rloops
                blocks = func.blocks
            elif kind == _JUMP:
                nxt = blk.taken_next
                target = addrs[nxt]
                pc_a.append(pc)
                nin_a.append(nin)
                kind_a.append(_JUMP)
                taken_a.append(1)
                tgt_a.append(target)
                tag_a.append(0)
                idx = nxt
                if func is main and nxt == 0:
                    requests_done += 1
                    if requests_done >= n_requests:
                        break
                    if requests_done < preheat:
                        request_type = requests_done % n_types
                    elif (arrival is not None
                          and rand() < arrival.burst_repeat_prob):
                        # Mixed tenancy burst: the next request repeats
                        # the previous type (request_type unchanged).
                        pass
                    else:
                        request_type = self._draw_type(rng, cum)
                    trace.requests.append((len(pc_a), request_type))
            elif kind == _IJUMP:
                nxt = blk.itargets[int(rand() * len(blk.itargets))
                                   % len(blk.itargets)]
                target = addrs[nxt]
                pc_a.append(pc)
                nin_a.append(nin)
                kind_a.append(_IJUMP)
                taken_a.append(1)
                tgt_a.append(target)
                tag_a.append(0)
                idx = nxt
            else:
                raise ValueError(f"unhandled kind {kind}")
        trace.n_instructions = n_instr
        if arrival is not None:
            self._attach_arrivals(trace, arrival)
        return trace

    def _attach_arrivals(self, trace: Trace, arrival) -> None:
        """Generate the bursty open-loop arrival process for the trace.

        Gaps live on the ideal-instruction clock and are drawn from a
        dedicated RNG stream (independent of branch outcomes), then
        rescaled so the mean inter-arrival gap is exactly
        ``mean_request_instructions / utilization`` — the same offered
        load for every prefetcher simulating this trace.
        """
        n = len(trace.requests)
        mean_service = trace.n_instructions / n
        trace.slo_instr = arrival.slo_factor * mean_service
        if n == 1:
            trace.request_gaps = [0.0]
            return
        gap_rng = random.Random(self.seed ^ 0x6A95)
        raw: List[float] = []
        in_burst = True
        for _ in range(n - 1):
            scale = (arrival.burst_gap_scale if in_burst
                     else arrival.idle_gap_scale)
            raw.append(scale * gap_rng.expovariate(1.0))
            if in_burst:
                in_burst = gap_rng.random() >= 1.0 / arrival.burst_len
            else:
                in_burst = True
        target_mean = mean_service / arrival.utilization
        norm = target_mean * (n - 1) / sum(raw)
        trace.request_gaps = [0.0] + [g * norm for g in raw]

    @staticmethod
    def _draw_type(rng: random.Random, cum: List[float]) -> int:
        x = rng.random()
        return bisect.bisect_left(cum, x)
