"""Unit tests for BTB, RAS, I-TLB, TAGE and ITTAGE."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.ittage import ITTagePredictor
from repro.frontend.ras import ReturnAddressStack
from repro.frontend.tage import TagePredictor
from repro.memory.tlb import InstructionTLB

from tests.helpers import same_state


class TestBTB:
    def test_miss_then_hit(self):
        btb = BranchTargetBuffer(64, 4)
        assert btb.lookup(0x100) is None
        btb.update(0x100, 0x900)
        assert btb.lookup(0x100) == 0x900
        assert btb.misses == 1 and btb.lookups == 2

    def test_lru_eviction(self):
        btb = BranchTargetBuffer(8, 2)  # 4 sets
        step = btb.n_sets * 4  # same set stride (pc >> 2 indexing)
        pcs = [0x100, 0x100 + step, 0x100 + 2 * step]
        btb.update(pcs[0], 1)
        btb.update(pcs[1], 2)
        btb.lookup(pcs[0])
        btb.update(pcs[2], 3)
        assert pcs[1] not in btb
        assert pcs[0] in btb

    def test_infinite_mode(self):
        btb = BranchTargetBuffer(None)
        for i in range(100000):
            btb.update(i * 4, i)
        assert len(btb) == 100000
        assert btb.lookup(4 * 50000) == 50000

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            BranchTargetBuffer(100, 8)

    def test_target_update(self):
        btb = BranchTargetBuffer(64, 4)
        btb.update(0x100, 0x900)
        btb.update(0x100, 0xA00)
        assert btb.lookup(0x100) == 0xA00


#: (pc, target) streams over few pcs, so sets fill, hit and evict.
_probes = st.lists(st.tuples(st.integers(0, 40).map(lambda k: 4 * k),
                             st.integers(0, 3)), max_size=200)


@settings(max_examples=100, deadline=None)
@given(stream=_probes, entries=st.sampled_from([8, None]))
def test_probe_is_lookup_then_update(stream, entries):
    """One ``probe`` leaves what ``lookup`` then ``update`` leave, on an
    8-entry 2-way BTB and an infinite one."""
    probed = BranchTargetBuffer(entries, 2)
    reference = BranchTargetBuffer(entries, 2)
    for pc, target in stream:
        expected = reference.lookup(pc)
        reference.update(pc, target)
        assert probed.probe(pc, target) == expected
        assert (probed.lookups, probed.misses) == \
            (reference.lookups, reference.misses)
    assert same_state(probed, reference)


class TestRAS:
    def test_push_pop(self):
        ras = ReturnAddressStack(4)
        ras.push(10)
        ras.push(20)
        assert ras.pop() == 20
        assert ras.pop() == 10
        assert ras.pop() is None
        assert ras.underflows == 1

    def test_overflow_wraps(self):
        ras = ReturnAddressStack(2)
        for v in (1, 2, 3):
            ras.push(v)
        assert ras.overflows == 1
        assert ras.pop() == 3
        assert ras.pop() == 2
        assert ras.pop() is None  # 1 was overwritten

    def test_top_entries_newest_first(self):
        ras = ReturnAddressStack(8)
        for v in (1, 2, 3, 4):
            ras.push(v)
        assert ras.top_entries(3) == (4, 3, 2)
        assert ras.top_entries(10) == (4, 3, 2, 1)

    def test_clear(self):
        ras = ReturnAddressStack(4)
        ras.push(1)
        ras.clear()
        assert len(ras) == 0
        assert ras.top_entries(2) == ()


class TestITLB:
    def test_miss_then_hit(self):
        tlb = InstructionTLB(4, walk_latency=40)
        assert tlb.translate(100) == 40
        assert tlb.translate(100) == 0
        assert tlb.miss_rate == 0.5

    def test_lru_capacity(self):
        tlb = InstructionTLB(2, walk_latency=40)
        tlb.translate(1)
        tlb.translate(2)
        tlb.translate(1)      # refresh 1
        tlb.translate(3)      # evicts 2
        assert 1 in tlb and 3 in tlb and 2 not in tlb

    def test_needs_entries(self):
        with pytest.raises(ValueError):
            InstructionTLB(0)


class TestTage:
    def test_learns_biased_branch(self):
        tage = TagePredictor()
        correct = 0
        for i in range(2000):
            correct += tage.predict_and_update(0x1000, True)
        assert correct / 2000 > 0.98

    def test_learns_alternating_pattern(self):
        tage = TagePredictor()
        correct = 0
        for i in range(4000):
            outcome = (i % 2) == 0
            ok = tage.predict_and_update(0x2000, outcome)
            if i >= 2000:
                correct += ok
        assert correct / 2000 > 0.9

    def test_learns_short_loop_exit(self):
        tage = TagePredictor()
        correct = 0
        total = 0
        for rep in range(600):
            for it in range(4):
                outcome = it < 3  # taken 3x, then exit
                ok = tage.predict_and_update(0x3000, outcome)
                if rep >= 300:
                    total += 1
                    correct += ok
        assert correct / total > 0.85

    def test_random_branch_tracks_bias(self):
        import random
        rng = random.Random(1)
        tage = TagePredictor()
        correct = 0
        n = 4000
        for _ in range(n):
            outcome = rng.random() < 0.1
            correct += tage.predict_and_update(0x4000, outcome)
        assert correct / n > 0.8  # should at least track the 90% bias

    def test_accuracy_property(self):
        tage = TagePredictor()
        assert tage.accuracy == 0.0
        tage.predict_and_update(0x10, True)
        assert 0.0 <= tage.accuracy <= 1.0

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            TagePredictor(bimodal_entries=1000)
        with pytest.raises(ValueError):
            TagePredictor(tables=[(1000, 8, 8)])

    def test_hot_path_hash_matches_index_tag_reference(self):
        # The lane-parallel chunk hashes predict_all uses must reproduce
        # the reference _index_tag under the GHR each branch will see.
        import random
        rng = random.Random(11)
        tage = TagePredictor()
        for _ in range(300):  # a warm GHR going into the chunk
            tage.predict_and_update(rng.randrange(0, 1 << 24) * 4,
                                    rng.random() < 0.5)
        pcs = [rng.randrange(0, 1 << 40) * 4 for _ in range(700)]
        taken = bytes(rng.random() < 0.5 for _ in pcs)
        idx_rows, tag_rows = tage._chunk_hashes(pcs, taken)
        for j, pc in enumerate(pcs):
            for t in range(len(tage.tables)):
                assert (idx_rows[t][j], tag_rows[t][j]) == \
                    tage._index_tag(pc, t)
            tage.ghr = ((tage.ghr << 1) | taken[j]) & ((1 << 64) - 1)

    def test_rejects_hash_wider_than_a_lane(self):
        with pytest.raises(ValueError):
            TagePredictor(tables=[(1 << 17, 8, 9)])
        with pytest.raises(ValueError):
            TagePredictor(tables=[(4096, 8, 17)])


class TestITTage:
    def test_learns_stable_target(self):
        it = ITTagePredictor()
        correct = 0
        for i in range(1000):
            correct += it.predict_and_update(0x100, 0x4000)
        assert correct / 1000 > 0.99

    def test_learns_context_dependent_targets(self):
        # Target alternates with a period the path history can capture.
        it = ITTagePredictor()
        correct = 0
        total = 0
        for i in range(6000):
            target = 0x4000 if (i % 2) == 0 else 0x8000
            ok = it.predict_and_update(0x100, target)
            if i >= 3000:
                total += 1
                correct += ok
        assert correct / total > 0.8

    def test_random_targets_mostly_mispredict(self):
        import random
        rng = random.Random(2)
        it = ITTagePredictor()
        targets = [0x1000 * k for k in range(1, 9)]
        correct = sum(
            it.predict_and_update(0x200, rng.choice(targets))
            for _ in range(2000)
        )
        assert correct / 2000 < 0.5

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            ITTagePredictor(base_entries=1000)
