"""Unit tests for the FDIP decoupled front-end model."""

from unittest import mock

import pytest

from repro.cpu.config import MachineConfig
from repro.cpu.simulator import FrontEndSimulator
from repro.cpu.stats import SimStats
from repro.frontend.fdip import (
    FDIPFrontEnd,
    FrontEndParams,
    PEN_BTB_MISS,
    PEN_MISPREDICT,
    PEN_NONE,
)
from repro.isa.instructions import BranchKind
from repro.memory.cache import ORIGIN_FDIP
from repro.memory.hierarchy import HierarchyParams, MemoryHierarchy
from repro.workloads.trace import Trace
from tests.helpers import (
    TraceAssembler,
    linear_trace,
    looping_trace,
    reference_simulator,
)


def make_fdip(trace, **params):
    stats = SimStats()
    fdip = FDIPFrontEnd(FrontEndParams(**params), stats)
    hier = MemoryHierarchy(HierarchyParams(), stats)
    fdip.bind(trace, hier)
    return fdip, hier, stats


class TestRunahead:
    def test_prefetches_up_to_ftq_depth(self):
        trace = linear_trace(64, ninstr=16)  # one cache block per record
        fdip, hier, stats = make_fdip(trace, ftq_entries=8)
        fdip.advance(commit_i=0, now=0.0)
        # Blocks 1..8 prefetched (block 0 is the demand itself).
        assert stats.pf_issued[ORIGIN_FDIP] == 8

    def test_advances_with_commit(self):
        trace = linear_trace(64, ninstr=16)
        fdip, hier, stats = make_fdip(trace, ftq_entries=8)
        fdip.advance(0, 0.0)
        fdip.advance(4, 10.0)
        assert stats.pf_issued[ORIGIN_FDIP] == 12

    def test_disabled_prefetch_still_predicts(self):
        trace = linear_trace(32, ninstr=16)
        fdip, hier, stats = make_fdip(trace, issue_prefetches=False)
        fdip.advance(0, 0.0)
        assert stats.pf_issued[ORIGIN_FDIP] == 0


class TestBranchHandling:
    def _cond_trace(self, taken: bool, repeat=1):
        asm = TraceAssembler()
        pc = 0x400000
        for _ in range(repeat):
            asm.add(pc, 4, BranchKind.COND, taken=taken,
                    target=(pc + 64 if taken else None))
            asm.linear(pc + 64 if taken else pc + 16, 3)
            pc += 0x1000
        return asm.build()

    def test_cold_taken_branch_is_btb_miss(self):
        trace = self._cond_trace(taken=True)
        fdip, hier, stats = make_fdip(trace)
        fdip.advance(0, 0.0)
        pen = fdip.penalty_at(0)
        # Either the direction predictor or the BTB fails on this cold
        # taken branch; both halt the runahead.
        assert pen in (PEN_MISPREDICT, PEN_BTB_MISS)
        assert fdip._blocked_at == -1 or fdip._ptr == 1

    def test_not_taken_branch_needs_no_btb(self):
        trace = self._cond_trace(taken=False)
        fdip, hier, stats = make_fdip(trace)
        fdip.advance(0, 0.0)
        fdip.count_branches()
        assert stats.btb_lookups == 0

    def test_blocked_until_commit_then_resumes(self):
        asm = TraceAssembler()
        asm.linear(0x400000, 4, ninstr=16)
        asm.add(0x400100, 4, BranchKind.COND, taken=True, target=0x401000)
        asm.linear(0x401000, 10, ninstr=16)
        trace = asm.build()
        fdip, hier, stats = make_fdip(trace, ftq_entries=16)
        fdip.advance(0, 0.0)
        # The runahead halted at the cold taken branch (index 4).
        assert fdip._blocked_at == 4
        before = stats.pf_issued[ORIGIN_FDIP]
        fdip.advance(1, 1.0)  # commit still before the branch: blocked
        fdip.advance(2, 2.0)
        assert stats.pf_issued[ORIGIN_FDIP] == before
        fdip.advance(4, 4.0)  # branch resolves as commit reaches it
        assert stats.pf_issued[ORIGIN_FDIP] > before

    def test_call_and_return_use_ras(self):
        asm = TraceAssembler()
        # call f (return addr = 0x400010), f returns.
        asm.add(0x400000, 4, BranchKind.CALL, taken=True, target=0x402000)
        asm.add(0x402000, 4, BranchKind.RET, taken=True, target=0x400010)
        asm.linear(0x400010, 4)
        trace = asm.build()
        fdip, hier, stats = make_fdip(trace)
        for i in range(len(trace)):
            fdip.advance(i, float(i))
        fdip.count_branches()
        assert stats.returns == 1
        assert stats.ras_mispredicts == 0

    def test_mismatched_return_mispredicts(self):
        asm = TraceAssembler()
        asm.add(0x402000, 4, BranchKind.RET, taken=True, target=0x400010)
        asm.linear(0x400010, 4)
        trace = asm.build()
        fdip, hier, stats = make_fdip(trace)
        fdip.advance(0, 0.0)
        fdip.count_branches()
        assert stats.ras_mispredicts == 1

    def test_warm_btb_no_penalty(self):
        # Same taken branch twice: second pass sees a BTB hit and a
        # learned direction.
        asm = TraceAssembler()
        for _ in range(6):
            asm.add(0x400000, 4, BranchKind.COND, taken=True,
                    target=0x401000)
            asm.add(0x401000, 4, BranchKind.JUMP, taken=True,
                    target=0x400000)
        trace = asm.build()
        fdip, hier, stats = make_fdip(trace)
        penalties = []
        for i in range(len(trace)):
            fdip.advance(i, float(i))
            penalties.append(fdip.penalty_at(i))
        assert penalties[-2:] == [PEN_NONE, PEN_NONE]

    def test_indirect_call_counted(self):
        asm = TraceAssembler()
        asm.add(0x400000, 4, BranchKind.ICALL, taken=True, target=0x405000)
        asm.add(0x405000, 2, BranchKind.RET, taken=True, target=0x400010)
        asm.linear(0x400010, 2)
        trace = asm.build()
        fdip, hier, stats = make_fdip(trace)
        for i in range(len(trace)):
            fdip.advance(i, float(i))
        fdip.count_branches()
        assert stats.indirect_branches == 1

    def test_infinite_btb_param(self):
        trace = linear_trace(8)
        make_fdip(trace, btb_entries=None)
        assert list(trace.bpu_passes) == [
            FrontEndParams(btb_entries=None).bpu_key]


class TestCarriedPass:
    """The prediction pass is kept with the trace, per BPU
    configuration; a later bind uses it instead of running the units."""

    def test_carried_pass_binds_like_a_run_one(self, micro_trace):
        trace = Trace.from_payload(micro_trace.to_payload())
        ran, _, _ = make_fdip(trace)
        assert list(trace.bpu_passes) == [FrontEndParams().bpu_key]
        with mock.patch.object(FDIPFrontEnd, "_predict",
                               side_effect=AssertionError("pass re-run")):
            carried, _, _ = make_fdip(trace)
        assert carried._ev is ran._ev
        assert carried.pen == ran.pen
        assert carried._stops == ran._stops

    @pytest.mark.parametrize("params", [{"btb_entries": None},
                                        {"btb_assoc": 4},
                                        {"ras_depth": 4}])
    def test_each_bpu_configuration_runs_its_own_pass(self, micro_trace,
                                                      params):
        trace = Trace.from_payload(micro_trace.to_payload())
        make_fdip(trace)
        # Fields outside the pass share it.
        make_fdip(trace, ftq_entries=4, mispredict_penalty=1.0,
                  issue_prefetches=False)
        assert len(trace.bpu_passes) == 1
        make_fdip(trace, **params)
        assert len(trace.bpu_passes) == 2


class TestPrefetchCalls:
    """FDIP's batch request and the commit loop's wake index cut the
    calls; the oracle tests (test_prefetch_oracle.py) pin that the
    results do not change."""

    @staticmethod
    def _run(make, trace):
        """Run ``trace``; return FDIP's calls into the hierarchy's
        request path and, per ``advance`` call, whether it found work."""
        sim = make(MachineConfig())
        fdip = sim.frontend
        advance = fdip.advance
        useful = []

        def watched(i, now):
            blocked = fdip._blocked_at >= 0 and i < fdip._blocked_at
            full = fdip._ptr > min(i + fdip._ftq, len(trace) - 1)
            useful.append(not blocked and not full)
            return advance(i, now)

        hierarchy = sim.hierarchy
        with mock.patch.object(hierarchy, "prefetch",
                               wraps=hierarchy.prefetch) as one, \
                mock.patch.object(hierarchy, "prefetch_many",
                                  wraps=hierarchy.prefetch_many) as many, \
                mock.patch.object(fdip, "advance", watched):
            stats = sim.run(trace, warmup_fraction=0.0)
        return one.call_count + many.call_count, useful, stats

    @pytest.mark.parametrize("trace", [linear_trace(256),
                                       looping_trace(32, 8)],
                             ids=["linear", "looping"])
    def test_one_request_call_per_advance_that_moves(self, trace):
        calls, useful, stats = self._run(FrontEndSimulator, trace)
        ref_calls, ref_useful, ref_stats = self._run(reference_simulator,
                                                     trace)
        assert stats == ref_stats
        # The reference makes one call per line; the batch path one per
        # advance, and the first advance enqueues a whole FTQ.
        assert calls == len(useful) < ref_calls
        assert not all(ref_useful)  # the reference also calls in vain

    @pytest.mark.parametrize("trace", [linear_trace(256),
                                       looping_trace(32, 8)],
                             ids=["linear", "looping"])
    def test_advance_called_only_when_it_can_move(self, trace):
        _, useful, _ = self._run(FrontEndSimulator, trace)
        assert useful and all(useful)
