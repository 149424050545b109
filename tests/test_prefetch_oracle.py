"""Differential oracles for the batched prefetch path.

* Hierarchy: ``MemoryHierarchy.prefetch_many`` (and the ``prefetch``
  wrapper over it) against ``ReferenceHierarchy`` (tests/helpers.py),
  which makes one request per call and issues every line through the
  pending queue, on random mixes of requests, demand fetches and time
  steps.  Machine state and SimStats must agree after every step.
* Machine: ``FrontEndSimulator`` (FDIP's batch request, the commit
  loop's wake index, the prefetchers' batch issue) against
  ``reference_simulator``, which requests every line one call at a time
  and advances the runahead on every block, on random assembled traces.

Hand-made mutants these tests catch: draining due fills when the
runahead range is empty, issuing a line directly while the pending
queue is non-empty, draining only once per batch, and dropping a line
that repeats within one batch.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.config import CoreConfig, MachineConfig
from repro.cpu.simulator import FrontEndSimulator
from repro.cpu.stats import SimStats
from repro.frontend.fdip import FDIPFrontEnd, FrontEndParams
from repro.isa.instructions import BranchKind
from repro.memory.cache import ORIGIN_DEMAND, ORIGIN_FDIP, ORIGIN_PF
from repro.memory.hierarchy import HierarchyParams, MemoryHierarchy
from repro.prefetchers.registry import make_prefetcher
from tests.helpers import (
    ReferenceHierarchy,
    ReferenceRunahead,
    TraceAssembler,
    reference_simulator,
    same_state,
)


def _hierarchy_params(mshrs, queue, lat_l2, policy, perfect):
    """Caches of 16, 64 and 256 lines, so a few dozen distinct blocks
    evict, and short latencies, so fills complete between requests."""
    return HierarchyParams(
        l1i_bytes=1024, l1i_assoc=2, l2_bytes=4096, l2_assoc=4,
        llc_bytes=16384, llc_assoc=4, lat_l2=lat_l2, lat_llc=7,
        lat_dram=20, pf_mshrs=mshrs, pf_queue=queue, policy=policy,
        perfect_l1i=perfect)


hierarchies = st.builds(
    _hierarchy_params, st.integers(1, 4), st.integers(1, 8),
    st.sampled_from((0, 3)), st.sampled_from(("lru", "pf_aware")),
    st.sampled_from((False, False, False, True)))

block = st.integers(0, 95)
request = st.tuples(st.sampled_from((ORIGIN_DEMAND, ORIGIN_FDIP, ORIGIN_PF)),
                    st.sampled_from((0.0, 4.0)), st.booleans())
operations = st.lists(st.one_of(
    st.tuples(st.just("prefetch"), block, request),
    st.tuples(st.just("many"), st.lists(block, max_size=12), request),
    st.tuples(st.just("demand"), block),
    st.tuples(st.just("step"), st.sampled_from((0.0, 1.0, 3.0, 7.0, 25.0))),
), max_size=60)


def _apply(hierarchy, op, now):
    kind = op[0]
    if kind == "demand":
        return hierarchy.demand_fetch(op[1], now, 0)
    if kind == "prefetch":
        origin, extra, to_l2 = op[2]
        return hierarchy.prefetch(op[1], now, origin, extra, to_l2)
    origin, extra, to_l2 = op[2]
    return hierarchy.prefetch_many(op[1], now, origin, extra, to_l2)


@settings(max_examples=200, deadline=None)
@given(params=hierarchies, ops=operations)
def test_prefetch_many_matches_per_line_reference(params, ops):
    fast = MemoryHierarchy(params, SimStats())
    ref = ReferenceHierarchy(params, SimStats())
    now = 0.0
    for op in ops:
        if op[0] == "step":
            now += op[1]
        else:
            assert _apply(fast, op, now) == _apply(ref, op, now)
        assert same_state(fast, ref)
        assert fast.stats == ref.stats
        # Direct issue is exact only because of this invariant.
        assert not fast._pending or len(fast._inflight) >= params.pf_mshrs


def test_prefetch_wrapper_reports_each_outcome():
    h = MemoryHierarchy(_hierarchy_params(1, 1, 3, "lru", False),
                        SimStats())
    assert h.prefetch(1, 0.0, ORIGIN_PF)        # issued
    assert not h.prefetch(1, 0.0, ORIGIN_PF)    # redundant: in flight
    assert h.prefetch(2, 0.0, ORIGIN_PF)        # queued behind the MSHR
    assert not h.prefetch(3, 0.0, ORIGIN_PF)    # dropped: queue full
    # 1 is in flight (redundant); 2 waits only in the pending queue, so
    # it is requested again and dropped, like 3.
    assert h.prefetch_many([1, 2, 3], 0.0, ORIGIN_PF) == 0
    stats = h.stats
    assert (stats.pf_issued[ORIGIN_PF], stats.pf_redundant[ORIGIN_PF],
            stats.pf_dropped[ORIGIN_PF]) == (1, 2, 3)
    assert h.pending_count() == 1


# ----------------------------------------------------------------------
# The whole machine
# ----------------------------------------------------------------------
KINDS = (BranchKind.NONE, BranchKind.NONE, BranchKind.COND, BranchKind.JUMP,
         BranchKind.CALL, BranchKind.RET, BranchKind.ICALL)

record = st.tuples(st.sampled_from(KINDS), st.integers(0, 47),
                   st.integers(1, 24), st.booleans(), st.integers(0, 15),
                   st.booleans())
#: A pattern repeated, so the record-and-replay prefetchers see their
#: triggers again, and a random tail.
specs = st.builds(lambda pattern, reps, tail: pattern * reps + tail,
                  st.lists(record, min_size=1, max_size=40),
                  st.integers(1, 8), st.lists(record, max_size=20))


def _assemble(spec):
    """A trace from ``(kind, pc slot, length, flag, target slot, tagged)``
    records over about 3 KB of code; a RET whose flag is set returns to
    the latest call."""
    asm = TraceAssembler()
    calls = []
    for kind, slot, ninstr, flag, tslot, tagged in spec:
        pc = 0x400000 + slot * 0x40
        target = 0x400000 + tslot * 0xC0
        if kind == BranchKind.NONE:
            asm.add(pc, ninstr, tagged=tagged)
            continue
        if kind == BranchKind.COND:
            asm.add(pc, ninstr, kind, taken=flag,
                    target=target if flag else None, tagged=tagged)
            continue
        if kind == BranchKind.RET and flag and calls:
            target = calls.pop()
        elif kind in (BranchKind.CALL, BranchKind.ICALL):
            calls.append(pc + ninstr * 4)
        asm.add(pc, ninstr, kind, taken=True, target=target, tagged=tagged)
    return asm.build()


def _machine(hierarchy, ftq, itlb_prefetch):
    return MachineConfig(
        core=CoreConfig(itlb_entries=4, itlb_walk_latency=9,
                        itlb_prefetch=itlb_prefetch),
        frontend=FrontEndParams(ftq_entries=ftq, btb_entries=16,
                                btb_assoc=2),
        hierarchy=hierarchy)


@settings(max_examples=150, deadline=None)
@given(spec=specs, hierarchy=hierarchies, ftq=st.integers(1, 8),
       steps=st.lists(st.tuples(st.booleans(), st.booleans(),
                                st.sampled_from((0.0, 1.0, 4.0, 9.0))),
                      min_size=1, max_size=300))
def test_advance_matches_per_line_reference_at_any_commit(spec, hierarchy,
                                                          ftq, steps):
    """A caller may call ``advance`` at any commit index, or skip it:
    the runahead then falls behind the commit and a call can find an
    empty range, which must request (and drain) nothing."""
    trace = _assemble(spec)
    params = FrontEndParams(ftq_entries=ftq, btb_entries=16, btb_assoc=2)
    sides = []
    for hierarchy_cls, frontend_cls in ((MemoryHierarchy, FDIPFrontEnd),
                                        (ReferenceHierarchy,
                                         ReferenceRunahead)):
        stats = SimStats()
        h = hierarchy_cls(hierarchy, stats)
        fdip = frontend_cls(params, stats)
        fdip.bind(trace, h)
        sides.append((fdip, h))
    (fdip, h), (ref_fdip, ref_h) = sides
    now = 0.0
    for i, (call, fetch, dt) in zip(range(len(trace)), steps):
        now += dt
        for side_fdip, side_h in sides:
            if call:
                side_fdip.advance(i, now)
            if fetch:
                side_h.demand_fetch(trace.block0[i], now, i)
        assert same_state(fdip, ref_fdip)
        assert same_state(h, ref_h)
        assert h.stats == ref_h.stats


def test_advance_with_empty_range_drains_nothing():
    """A runahead behind the commit, stopped at a penalty block the
    commit has passed, enqueues nothing: it must not drain either, or
    a queued line would issue early."""
    trace = (TraceAssembler().add(0x400000)
             .add(0x400040, kind=BranchKind.RET, taken=True,
                  target=0x500000)
             .linear(0x400080, 6).build())
    stats = SimStats()
    h = MemoryHierarchy(_hierarchy_params(1, 8, 3, "lru", False), stats)
    fdip = FDIPFrontEnd(FrontEndParams(ftq_entries=4), stats)
    fdip.bind(trace, h)
    assert fdip.pen[1]  # the return mispredicts: the runahead stops
    assert h.prefetch(1, 0.0, ORIGIN_PF) and h.prefetch(2, 0.0, ORIGIN_PF)
    assert h.pending_count() == 1
    fdip.advance(3, 1000.0)  # first call: the range [4, 1] is empty
    assert h.pending_count() == 1 and h.in_flight(1)


PREFETCHERS = ("fdip", "eip", "hierarchical", "efetch", "rdip", "mana")


@pytest.mark.parametrize("itlb_prefetch", (False, True))
@pytest.mark.parametrize("name", PREFETCHERS)
@settings(max_examples=40, deadline=None)
@given(spec=specs, hierarchy=hierarchies, ftq=st.integers(1, 8),
       warmup=st.sampled_from((0.0, 0.3)),
       probe_interval=st.sampled_from((0, 50)))
def test_simulator_matches_per_line_reference(name, itlb_prefetch, spec,
                                              hierarchy, ftq, warmup,
                                              probe_interval):
    trace = _assemble(spec)
    config = _machine(hierarchy, ftq, itlb_prefetch)
    fast = FrontEndSimulator(config, make_prefetcher(name),
                             probe_interval=probe_interval)
    ref = reference_simulator(config, make_prefetcher(name),
                              probe_interval=probe_interval)
    fast_stats = fast.run(trace, warmup)
    ref_stats = ref.run(trace, warmup)
    assert fast_stats == ref_stats
    assert same_state(fast.hierarchy, ref.hierarchy)
    assert same_state(fast.itlb, ref.itlb)
    # Both sides share bind(): check that it wires the I-TLB path.
    assert (fast.frontend._tlb_pf is not None) == itlb_prefetch
