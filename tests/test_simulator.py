"""Unit/integration tests for the front-end timing simulator."""

import inspect

import pytest

from repro.cli import build_parser
from repro.cpu import FrontEndSimulator, MachineConfig, simulate
from repro.cpu.config import DEFAULT_WARMUP
from repro.prefetchers.base import InstructionPrefetcher
from tests.helpers import linear_trace, looping_trace


class TestBasics:
    def test_empty_trace_rejected(self):
        from repro.workloads.trace import Trace

        with pytest.raises(ValueError):
            FrontEndSimulator().run(Trace())

    def test_bad_warmup_fraction(self):
        with pytest.raises(ValueError):
            FrontEndSimulator().run(linear_trace(8), warmup_fraction=1.0)

    def test_instruction_accounting(self):
        trace = linear_trace(100, ninstr=5)
        stats = simulate(trace, warmup_fraction=0.0)
        assert stats.instructions == 500
        assert stats.blocks == 100

    def test_cycles_at_least_width_limited(self):
        trace = linear_trace(100, ninstr=5)
        stats = simulate(trace, warmup_fraction=0.0)
        width = MachineConfig().core.commit_width
        assert stats.cycles >= 500 / width
        assert 0 < stats.ipc <= width

    def test_warmup_excluded_from_stats(self):
        trace = looping_trace(n_blocks=32, repeats=10)
        full = simulate(trace, warmup_fraction=0.0)
        warm = simulate(trace, warmup_fraction=0.5)
        assert warm.instructions < full.instructions
        # The warmed window re-executes hot code: fewer misses per instr.
        assert warm.l1i_mpki <= full.l1i_mpki

    def test_deterministic(self, micro_trace):
        a = simulate(micro_trace)
        b = simulate(micro_trace)
        assert a.cycles == b.cycles
        assert a.l1i_misses == b.l1i_misses
        assert a.cond_mispredicts == b.cond_mispredicts

    def test_perfect_l1i_faster(self, micro_trace):
        base = simulate(micro_trace)
        cfg = MachineConfig().replace(**{"hierarchy.perfect_l1i": True})
        perfect = simulate(micro_trace, config=cfg)
        assert perfect.ipc > base.ipc
        assert perfect.l1i_misses == 0

    def test_loop_trace_mostly_hits_after_warmup(self):
        trace = looping_trace(n_blocks=16, repeats=20)
        stats = simulate(trace, warmup_fraction=0.5)
        assert stats.l1i_mpki < 1.0

    def test_streaming_trace_misses(self):
        trace = linear_trace(4000, ninstr=16)  # 4000 distinct blocks
        stats = simulate(trace, warmup_fraction=0.0)
        assert stats.l1i_misses > 0


class TestConfigEffects:
    def test_itlb_miss_stalls(self):
        trace = linear_trace(2000, ninstr=16)  # spans many pages
        small = MachineConfig().replace(**{"core.itlb_entries": 2})
        a = simulate(trace, config=small, warmup_fraction=0.0)
        assert a.itlb_misses > 0
        assert a.stall_itlb > 0

    def test_bigger_l1i_fewer_misses(self, micro_trace):
        base = simulate(micro_trace)
        big = simulate(
            micro_trace,
            config=MachineConfig().replace(
                **{"hierarchy.l1i_bytes": 256 * 1024}
            ),
        )
        assert big.l1i_misses <= base.l1i_misses

    def test_infinite_btb_fewer_btb_misses(self, micro_trace):
        base = simulate(micro_trace)
        inf = simulate(
            micro_trace,
            config=MachineConfig().replace(**{"frontend.btb_entries": None}),
        )
        assert inf.btb_misses <= base.btb_misses
        assert inf.ipc >= base.ipc

    def test_replace_rejects_unknown_field(self):
        with pytest.raises(AttributeError):
            MachineConfig().replace(**{"hierarchy.nonsense": 1})

    def test_replace_does_not_mutate_original(self):
        cfg = MachineConfig()
        cfg.replace(**{"hierarchy.l1i_bytes": 1024})
        assert cfg.hierarchy.l1i_bytes == 32 * 1024

    def test_track_block_misses(self, micro_trace):
        sim = FrontEndSimulator(track_block_misses=True)
        sim.run(micro_trace)
        assert isinstance(sim.hierarchy.l2_miss_map, dict)


class RecordingPrefetcher(InstructionPrefetcher):
    name = "recording"

    def reset(self):
        self.commits = 0
        self.misses = 0
        self.mispredicts = 0
        self.measurement_started = False
        self.measurement_ended = False

    def on_commit(self, i, now):
        self.commits += 1

    def on_miss(self, block, i, stall):
        self.misses += 1

    def on_mispredict(self, i):
        self.mispredicts += 1

    def on_measurement_start(self):
        self.measurement_started = True

    def on_measurement_end(self):
        self.measurement_ended = True
        self.stats.extra["recorded_commits"] = self.commits


class TestPrefetcherHooks:
    def test_hooks_invoked(self, micro_trace):
        pf = RecordingPrefetcher()
        stats = simulate(micro_trace, prefetcher=pf)
        assert pf.commits == len(micro_trace)
        assert pf.misses > 0
        assert pf.measurement_started and pf.measurement_ended
        assert stats.extra["recorded_commits"] == pf.commits

    def test_mispredict_hook(self, micro_trace):
        pf = RecordingPrefetcher()
        stats = simulate(micro_trace, prefetcher=pf)
        assert pf.mispredicts > 0
        assert pf.mispredicts <= (
            stats.cond_mispredicts + stats.indirect_mispredicts
            + stats.ras_mispredicts + 10_000
        )


# ----------------------------------------------------------------------
# DEFAULT_WARMUP: one source of truth for every entry point
# ----------------------------------------------------------------------
def test_default_warmup_single_source():
    from repro.experiments import runner

    assert runner.DEFAULT_WARMUP is DEFAULT_WARMUP
    sig = inspect.signature(FrontEndSimulator.run)
    assert sig.parameters["warmup_fraction"].default == DEFAULT_WARMUP
    sig = inspect.signature(FrontEndSimulator.warmup)
    assert sig.parameters["warmup_fraction"].default == DEFAULT_WARMUP
    sig = inspect.signature(simulate)
    assert sig.parameters["warmup_fraction"].default == DEFAULT_WARMUP
    sig = inspect.signature(runner.run_prefetcher)
    assert sig.parameters["warmup"].default == DEFAULT_WARMUP
    sig = inspect.signature(runner.run_baseline)
    assert sig.parameters["warmup"].default == DEFAULT_WARMUP


def test_default_warmup_cli_parsers():
    parser = build_parser()
    warmup_defaults = []
    for action in parser._subparsers._group_actions[0].choices.values():
        for sub_action in action._actions:
            if sub_action.dest == "warmup":
                warmup_defaults.append(sub_action.default)
    assert warmup_defaults, "no --warmup flags found in the CLI"
    assert all(d == DEFAULT_WARMUP for d in warmup_defaults)
