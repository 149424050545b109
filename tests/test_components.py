"""Warmup checkpoints: exact state round-trips for every model.

A checkpoint is the machine pickled (``FrontEndSimulator.state_dict``),
so its contract is *bit-identical future behavior*: a component
restored from its pickle and driven through the remaining operations
must end in the original's final state.  Unit sections drive each
component of the checkpoint with randomized operation sequences
(hypothesis); machine sections assert that a simulator resumed from a
checkpoint, at the warmup boundary or mid-measurement, finishes with
``SimStats`` exactly equal to an uninterrupted run's.
(``tests/test_resume.py`` covers every prefetcher, policy and I-TLB
setting on the suite workloads.)
"""

import pickle
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compression import CompressionBuffer
from repro.core.metadata import MetadataAddressTable, MetadataBuffer
from repro.cpu.probes import ProbeBus
from repro.cpu.simulator import FrontEndSimulator
from repro.memory.cache import ORIGIN_DEMAND, ORIGIN_PF, SetAssocCache
from repro.memory.policies import POLICY_NAMES
from repro.memory.tlb import InstructionTLB
from repro.prefetchers import PREFETCHER_NAMES, make_prefetcher
from repro.workloads.trace import Trace

from tests.conftest import micro_machine
from tests.helpers import looping_trace, same_state

# All prefetchers that run on a single core (everything registered).
ALL_PREFETCHERS = [None] + [n for n in PREFETCHER_NAMES if n != "fdip"]


# ======================================================================
# Unit round-trips: snapshot mid-sequence, replay the tail on a clone
# ======================================================================
def _roundtrip(make, ops, drive, split=None):
    """Drive ``ops`` on an original; at ``split``, clone it through
    pickle; drive the tail on both; they must end in the same state."""
    if split is None:
        split = len(ops) // 2
    original = make()
    for op in ops[:split]:
        drive(original, op)
    clone = pickle.loads(pickle.dumps(original))
    assert same_state(clone, original)
    for op in ops[split:]:
        drive(original, op)
        drive(clone, op)
    assert same_state(clone, original)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("ilp"),
                           st.integers(0, 200)), max_size=60))
def test_cache_roundtrip(ops):
    def drive(cache, op):
        kind, block = op
        if kind == "i":
            cache.insert(block, ORIGIN_PF if block % 3 else ORIGIN_DEMAND,
                         issue_index=block)
        elif kind == "l":
            cache.lookup(block)
        else:
            cache.invalidate(block)

    _roundtrip(lambda: SetAssocCache(4096, 4, name="t"), ops, drive)


@pytest.mark.parametrize("policy", POLICY_NAMES)
@settings(max_examples=15, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from("ilp"),
                               st.integers(0, 200)), max_size=60))
def test_cache_roundtrip_every_policy(policy, ops):
    def drive(cache, op):
        kind, block = op
        if kind == "i":
            cache.insert(block, ORIGIN_PF if block % 3 else ORIGIN_DEMAND,
                         issue_index=block)
        elif kind == "l":
            cache.lookup(block)
        else:
            cache.invalidate(block)

    _roundtrip(lambda: SetAssocCache(4096, 4, name="t", policy=policy),
               ops, drive)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 40), max_size=60))
def test_tlb_roundtrip(pages):
    _roundtrip(lambda: InstructionTLB(8),
               pages, lambda tlb, page: tlb.translate(page))


@pytest.mark.parametrize("policy", POLICY_NAMES)
@settings(max_examples=15, deadline=None)
@given(pages=st.lists(st.integers(0, 40), max_size=60))
def test_tlb_roundtrip_every_policy(policy, pages):
    def drive(tlb, page):
        if page % 5 == 0:
            tlb.prefetch(page)
        else:
            tlb.translate(page)

    _roundtrip(lambda: InstructionTLB(8, policy=policy), pages, drive)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 200), max_size=80))
def test_compression_roundtrip(blocks):
    sinks = {}

    def make():
        buf = CompressionBuffer(capacity=4, span=4)
        sinks[id(buf)] = []
        buf.sink = sinks[id(buf)].append
        return buf

    split = len(blocks) // 2
    original = make()
    for b in blocks[:split]:
        original.observe(b)
    # The clone's sink is the bound method of its own copy of the list.
    clone = pickle.loads(pickle.dumps(original))
    for b in blocks[split:]:
        original.observe(b)
        clone.observe(b)
    assert same_state(clone, original)
    # Post-snapshot evictions must be identical streams.
    assert clone.sink.__self__ == sinks[id(original)]


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("liv"),
                           st.integers(0, 60)), max_size=60))
def test_mat_roundtrip(ops):
    def drive(mat, op):
        kind, bid = op
        if kind == "l":
            mat.lookup(bid)
        elif kind == "i":
            mat.insert(bid, bid % 32)
        else:
            mat.invalidate(bid)

    _roundtrip(lambda: MetadataAddressTable(16, 4), ops, drive)


def test_metadata_buffer_roundtrip():
    buf = MetadataBuffer(capacity_bytes=4 * 384)
    for bid in range(6):  # wraps the 4-segment buffer
        seg = buf.allocate(bid, bid * 10, protect=lambda i: False)
        seg.next_seg = (seg.index + 1) % buf.n_segments
        seg.n_valid = 1
    clone = pickle.loads(pickle.dumps(buf))
    assert same_state(clone, buf)
    a = buf.allocate(99, 0, protect=lambda i: False)
    b = clone.allocate(99, 0, protect=lambda i: False)
    assert a.index == b.index
    assert same_state(clone, buf)


# ======================================================================
# Whole-machine round-trips
# ======================================================================
def _machine(prefetcher, **kwargs):
    pf = make_prefetcher(prefetcher) if prefetcher else None
    return FrontEndSimulator(config=micro_machine(), prefetcher=pf, **kwargs)


def _fresh(trace):
    """A freshly loaded copy of ``trace``."""
    return Trace.from_payload(pickle.loads(pickle.dumps(trace.to_payload())))


@pytest.mark.parametrize("prefetcher", ALL_PREFETCHERS)
def test_warmup_checkpoint_resume_is_exact(prefetcher, micro_trace_long):
    """Checkpoint at the warmup boundary; resume must equal an
    uninterrupted run's final SimStats exactly."""
    reference = _machine(prefetcher)
    expected = reference.run(micro_trace_long)

    donor = _machine(prefetcher)
    donor.warmup(micro_trace_long)
    resumed = FrontEndSimulator.resume(
        _fresh(micro_trace_long), donor.state_dict(), micro_machine())
    assert resumed.measure() == expected


@pytest.mark.parametrize("prefetcher", [None, "efetch", "hierarchical"])
def test_mid_measurement_resume_is_exact(prefetcher, micro_trace_long):
    """Checkpoint *inside* the measured window (at the first probe); the
    resumed machine must still finish with identical SimStats, probe
    timelines included."""
    donor = _machine(prefetcher, probe_interval=3_000)
    captured = []
    fire = ProbeBus.fire

    def fire_and_grab(bus, sim):
        sample = fire(bus, sim)
        if not captured:
            captured.append(sim.state_dict())
        return sample

    with mock.patch.object(ProbeBus, "fire", fire_and_grab):
        expected = donor.run(micro_trace_long)
    assert captured

    resumed = FrontEndSimulator.resume(
        _fresh(micro_trace_long), captured[0], micro_machine())
    assert resumed.measure() == expected


def test_resume_requires_matching_config(micro_trace_long):
    donor = _machine(None)
    donor.warmup(micro_trace_long)
    mismatched = micro_machine().replace(
        **{"hierarchy.l1i_bytes": 16 * 1024})
    with pytest.raises(ValueError):
        FrontEndSimulator.resume(micro_trace_long, donor.state_dict(),
                                 mismatched)


def test_stats_load_is_in_place(micro_trace):
    """The pickle keeps aliasing: every part of a resumed machine counts
    into the one SimStats the simulator reports."""
    donor = _machine("hierarchical")
    donor.warmup(micro_trace)
    sim = FrontEndSimulator.resume(micro_trace, donor.state_dict(),
                                   micro_machine())
    assert sim.stats is not donor.stats
    assert sim.hierarchy.stats is sim.stats
    assert sim.frontend.stats is sim.stats
    assert sim.prefetcher.stats is sim.stats
    assert sim.prefetcher.sim is sim


# ======================================================================
# Probe bus
# ======================================================================
class TestProbes:
    def test_disabled_by_default(self, micro_trace):
        sim = _machine("hierarchical")
        assert not sim.probes.enabled
        stats = sim.run(micro_trace)
        assert not any(k.startswith("probe.") for k in stats.extra)

    def test_enabled_run_identical_modulo_probe_keys(self, micro_trace_long):
        plain = _machine("hierarchical").run(micro_trace_long)
        probed = _machine("hierarchical", probe_interval=2_000).run(
            micro_trace_long)
        probe_keys = {k for k in probed.extra if k.startswith("probe.")}
        assert probe_keys  # something was actually sampled
        # Strip the timelines: every simulation counter must be exact.
        stripped = probed.state_dict()
        stripped["extra"] = {k: v for k, v in stripped["extra"].items()
                             if not k.startswith("probe.")}
        assert stripped == plain.state_dict()

    def test_sample_cadence(self, micro_trace_long):
        interval = 2_000
        sim = _machine(None, probe_interval=interval)
        stats = sim.run(micro_trace_long)
        instructions = stats.extra["probe.instructions"]
        assert len(instructions) == stats.instructions // interval
        # Sample i fires at the first request boundary at or after the
        # (i+1)-th interval multiple — never a full interval later.
        for i, count in enumerate(instructions):
            assert interval * (i + 1) <= count < interval * (i + 2)
        assert stats.extra["probe.interval"] == float(interval)

    def test_timeline_columns_consistent(self, micro_trace_long):
        stats = _machine("efetch", probe_interval=2_000).run(micro_trace_long)
        cols = [stats.extra[f"probe.{c}"] for c in
                ("instructions", "cycles", "ipc", "l1i_mpki", "pf_accuracy")]
        assert len({len(c) for c in cols}) == 1
        assert all(isinstance(c, tuple) for c in cols)
        # Cumulative columns are monotonic.
        assert list(cols[0]) == sorted(cols[0])
        assert list(cols[1]) == sorted(cols[1])

    def test_probes_never_fire_during_warmup(self, micro_trace_long):
        sim = _machine(None, probe_interval=500)
        sim.warmup(micro_trace_long)
        assert sim.probes.samples == []

    def test_oversized_interval_yields_no_samples(self, micro_trace):
        sim = _machine(None, probe_interval=10_000_000)
        stats = sim.run(micro_trace)
        assert not any(k.startswith("probe.") for k in stats.extra)


# ======================================================================
# Run-twice guard
# ======================================================================
class TestRunTwice:
    def test_second_run_raises(self):
        trace = looping_trace()
        sim = _machine(None)
        sim.run(trace)
        with pytest.raises(RuntimeError, match="already ran"):
            sim.run(trace)

    def test_resume_on_used_machine_raises(self, micro_trace):
        """A resumed machine is a used one: it cannot warm up again."""
        donor = _machine(None)
        donor.warmup(micro_trace)
        sim = FrontEndSimulator.resume(micro_trace, donor.state_dict(),
                                       micro_machine())
        with pytest.raises(RuntimeError, match="already ran"):
            sim.warmup(micro_trace)
