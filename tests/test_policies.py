"""Replacement policies: unit behavior, checkpoint round trips, the
I-TLB prefetch path, and the policy × prefetcher surface (experiments
family + CLI flags)."""

import pickle

import pytest

from repro.cpu import MachineConfig, simulate
from repro.memory.cache import (
    E_USED,
    ORIGIN_DEMAND,
    ORIGIN_FDIP,
    ORIGIN_PF,
    SetAssocCache,
)
from repro.memory.policies import (
    BIP_MRU_PERIOD,
    POLICY_DESCRIPTIONS,
    POLICY_NAMES,
    BIPPolicy,
    LRUPolicy,
    ReplacementPolicy,
    make_policy,
)
from repro.memory.tlb import InstructionTLB

from tests.helpers import same_state


def _one_set_cache(assoc=4, policy="lru"):
    """A single-set cache so recency order is directly observable."""
    return SetAssocCache(assoc * 64, assoc, name="t", policy=policy)


def _order(cache):
    return cache.resident_blocks()


class TestRegistry:
    def test_names_and_descriptions_align(self):
        assert set(POLICY_DESCRIPTIONS) == set(POLICY_NAMES)
        for name in POLICY_NAMES:
            policy = make_policy(name)
            assert policy.name == name
            assert policy.description == POLICY_DESCRIPTIONS[name]

    def test_instance_passthrough(self):
        policy = LRUPolicy()
        assert make_policy(policy) is policy

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="lru"):
            make_policy("plru")

    def test_base_insert_abstract(self):
        with pytest.raises(NotImplementedError):
            ReplacementPolicy().insert_line({}, 0, [0, 0, -1, False], 1)

    def test_each_cache_gets_its_own_instance(self):
        a = _one_set_cache(policy="bip")
        b = _one_set_cache(policy="bip")
        assert a.policy is not b.policy


class TestLRU:
    def test_insert_at_mru_evict_lru(self):
        cache = _one_set_cache(assoc=2)
        cache.insert(0)
        cache.insert(1)
        evicted = cache.insert(2)
        assert evicted[0] == 0
        assert _order(cache) == [1, 2]  # LRU first

    def test_hit_promotes(self):
        cache = _one_set_cache(assoc=2)
        cache.insert(0)
        cache.insert(1)
        cache.lookup(0)
        assert cache.insert(2)[0] == 1


class TestLIP:
    def test_fill_enters_at_lru(self):
        cache = _one_set_cache(assoc=4, policy="lip")
        for block in range(3):
            cache.insert(block)
        assert _order(cache) == [2, 1, 0]
        # An unreferenced fill is the next victim, not block 0.
        cache.insert(3)
        assert cache.insert(4)[0] == 3  # the newest fill sat at LRU

    def test_only_hits_promote(self):
        cache = _one_set_cache(assoc=2, policy="lip")
        cache.insert(0)
        cache.insert(1)
        cache.lookup(1)  # promote 1 to MRU
        assert cache.insert(2)[0] == 0


class TestBIP:
    def test_every_nth_fill_at_mru(self):
        cache = SetAssocCache(2 * 64 * 1024, 2, name="t", policy="bip")
        # Distinct sets so no evictions interfere; watch the counter.
        for block in range(BIP_MRU_PERIOD - 1):
            cache.insert(block)
        assert cache.policy._fills == BIP_MRU_PERIOD - 1
        cache.insert(BIP_MRU_PERIOD - 1)
        assert cache.policy._fills == 0  # MRU fill resets the counter

    def test_mru_fill_lands_at_mru(self):
        policy = BIPPolicy()
        cache = _one_set_cache(assoc=4, policy=policy)
        policy._fills = BIP_MRU_PERIOD - 2
        cache.insert(0)   # LIP-style: enters at LRU
        cache.insert(1)   # the BIP_MRU_PERIOD-th fill: enters at MRU
        assert _order(cache)[-1] == 1

    def test_counter_snapshots(self):
        """The insertion counter travels with a checkpoint: a cache
        restored from its pickle places the next fills alike."""
        cache = _one_set_cache(policy="bip")
        cache.policy._fills = BIP_MRU_PERIOD - 2
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.policy._fills == BIP_MRU_PERIOD - 2
        for block in range(3):
            cache.insert(block)
            clone.insert(block)
        assert _order(clone) == _order(cache)


class TestPrefetchAware:
    def test_prefetch_inserts_distal(self):
        cache = _one_set_cache(assoc=4, policy="pf_aware")
        cache.insert(0, ORIGIN_DEMAND, used=True)
        cache.insert(1, ORIGIN_PF)
        assert _order(cache)[0] == 1  # prefetch parked at LRU

    def test_unused_prefetch_evicted_before_lru_demand(self):
        cache = _one_set_cache(assoc=3, policy="pf_aware")
        cache.insert(0, ORIGIN_DEMAND, used=True)
        cache.insert(1, ORIGIN_FDIP)            # unused prefetch
        cache.insert(2, ORIGIN_DEMAND, used=True)
        # 1 sits at LRU anyway; move it mid-stack to prove the scan.
        cache.lookup(1)
        evicted = cache.insert(3, ORIGIN_DEMAND, used=True)
        assert evicted[0] == 1

    def test_demand_hit_protects_prefetched_line(self):
        cache = _one_set_cache(assoc=3, policy="pf_aware")
        cache.insert(0, ORIGIN_DEMAND, used=True)
        cache.insert(1, ORIGIN_PF)
        cache.insert(2, ORIGIN_DEMAND, used=True)
        entry = cache.lookup(1)   # first demand touch
        entry[E_USED] = True
        evicted = cache.insert(3, ORIGIN_DEMAND, used=True)
        assert evicted[0] == 0    # strict LRU victim, 1 survived

    def test_falls_back_to_lru_without_prefetches(self):
        cache = _one_set_cache(assoc=2, policy="pf_aware")
        cache.insert(0, ORIGIN_DEMAND, used=True)
        cache.insert(1, ORIGIN_DEMAND, used=True)
        assert cache.insert(2, ORIGIN_DEMAND, used=True)[0] == 0


# ======================================================================
# Snapshot round trips: every policy, through cache and TLB
# ======================================================================
_OPS = [("i", b) for b in range(40)] + \
       [("l", 3), ("i", 41), ("l", 7), ("v", 5)] + \
       [("i", b * 3) for b in range(20)]


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_cache_roundtrip_mid_sequence(policy):
    def make():
        return SetAssocCache(4096, 4, name="t", policy=policy)

    def drive(cache, op):
        kind, block = op
        if kind == "i":
            cache.insert(block, ORIGIN_PF if block % 3 else ORIGIN_DEMAND,
                         issue_index=block)
        elif kind == "l":
            cache.lookup(block)
        else:
            cache.invalidate(block)

    original = make()
    for op in _OPS[:30]:
        drive(original, op)
    clone = pickle.loads(pickle.dumps(original))
    assert same_state(clone, original)
    for op in _OPS[30:]:
        drive(original, op)
        drive(clone, op)
    assert same_state(clone, original)


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_tlb_roundtrip_mid_sequence(policy):
    def drive(tlb, page):
        if page % 5 == 0:
            tlb.prefetch(page)
        else:
            tlb.translate(page)

    original = InstructionTLB(8, policy=policy)
    pages = [p % 13 for p in range(60)]
    for page in pages[:30]:
        drive(original, page)
    clone = pickle.loads(pickle.dumps(original))
    assert same_state(clone, original)
    for page in pages[30:]:
        drive(original, page)
        drive(clone, page)
    assert same_state(clone, original)


def test_cache_snapshot_includes_policy_state():
    """A restored cache or TLB gets its own copy of its policy's state,
    and its insertion path is bound to that copy."""
    for owner in (_one_set_cache(policy="bip"),
                  InstructionTLB(8, policy="bip")):
        owner.policy._fills = 5
        clone = pickle.loads(pickle.dumps(owner))
        assert clone.policy is not owner.policy
        assert clone.policy._fills == 5
        assert clone._insert_line.__self__ is clone.policy


# ======================================================================
# I-TLB prefetch path
# ======================================================================
class TestTLBPrefetch:
    def test_install_does_not_count_as_miss(self):
        tlb = InstructionTLB(8)
        walk = tlb.prefetch(5)
        assert walk == tlb.walk_latency
        assert tlb.misses == 0 and tlb.accesses == 0
        assert tlb.pf_probes == 1 and tlb.pf_installs == 1
        assert 5 in tlb

    def test_resident_probe_is_free_and_does_not_promote(self):
        tlb = InstructionTLB(2)
        tlb.translate(1)
        tlb.translate(2)
        assert tlb.prefetch(1) == 0
        assert tlb.pf_installs == 0
        tlb.translate(3)  # evicts the LRU entry — still page 1
        assert 1 not in tlb

    def test_first_demand_touch_is_a_covered_walk(self):
        tlb = InstructionTLB(8)
        tlb.prefetch(5)
        assert tlb.translate(5) == 0
        assert tlb.pf_hits == 1 and tlb.misses == 0
        # Second touch is an ordinary hit, not another covered walk.
        tlb.translate(5)
        assert tlb.pf_hits == 1

    def test_end_to_end_flag_reduces_walks(self, micro_trace_long):
        base = simulate(micro_trace_long, warmup_fraction=0.2)
        cfg = MachineConfig().replace(**{"core.itlb_prefetch": True})
        on = simulate(micro_trace_long, config=cfg, warmup_fraction=0.2)
        assert base.itlb_pf_probes == 0 and base.itlb_pf_installs == 0
        assert on.itlb_pf_probes > 0
        assert on.itlb_misses <= base.itlb_misses

    def test_flag_off_matches_default_exactly(self, micro_trace):
        default = simulate(micro_trace, warmup_fraction=0.2)
        cfg = MachineConfig().replace(**{"core.itlb_prefetch": False,
                                         "core.itlb_policy": "lru",
                                         "hierarchy.policy": "lru"})
        explicit = simulate(micro_trace, config=cfg, warmup_fraction=0.2)
        assert explicit == default


# ======================================================================
# Split hit counters
# ======================================================================
class TestSplitCounters:
    def test_hits_split_sums_to_aggregate(self, micro_trace):
        from repro.prefetchers import make_prefetcher

        stats = simulate(micro_trace, prefetcher=make_prefetcher("eip"),
                         warmup_fraction=0.2)
        assert (stats.l1i_demand_hits + stats.l1i_prefetch_hits
                == stats.l1i_hits)
        assert 0.0 <= stats.prefetch_hit_rate <= 1.0

    def test_unused_prefetch_evictions_tracks_pf_useless(self, micro_trace):
        from repro.prefetchers import make_prefetcher

        stats = simulate(micro_trace, prefetcher=make_prefetcher("eip"),
                         warmup_fraction=0.2)
        assert stats.unused_prefetch_evictions == sum(
            stats.pf_useless[o] for o in (ORIGIN_FDIP, ORIGIN_PF)
        )


# ======================================================================
# Experiments family + CLI surface (tiny scale)
# ======================================================================
class TestPolicySurface:
    def test_cross_product_grid(self, monkeypatch):
        from repro.experiments import policies

        scheduled = []
        monkeypatch.setattr(policies, "sweep",
                            lambda points, **kw: scheduled.extend(points)
                            or [])
        policies.policy_sweep(("mysql_sibench",), ("fdip", "eip"),
                              ("lru", "lip"), scale="tiny")
        assert sorted((p.prefetcher or "fdip",
                       p.overrides["hierarchy.policy"])
                      for p in scheduled) == sorted(
            [("fdip", "lru"), ("fdip", "lip"),
             ("eip", "lru"), ("eip", "lip")])
        scheduled.clear()
        with pytest.raises(ValueError, match="policy"):
            policies.policy_sweep(policies=("bogus",))
        with pytest.raises(ValueError, match="prefetcher"):
            policies.policy_sweep(prefetchers=("bogus",))
        assert scheduled == []  # rejected before any point is scheduled

    def test_fig20_and_tab06(self):
        from repro.experiments.policies import (
            fig20_policy_grid,
            tab06_policy_summary,
        )

        grid = fig20_policy_grid(
            workloads=("mysql_sibench",), prefetchers=("fdip",),
            policies=("lru", "pf_aware"), scale="tiny",
        )
        cells = grid["mysql_sibench"]["fdip"]
        assert set(cells) == {"lru", "pf_aware"}
        assert cells["lru"]["ipc_vs_lru"] == 1.0
        for cell in cells.values():
            assert cell["demand_hits"] + cell["prefetch_hits"] > 0
            assert "unused_pf_pki" in cell and "itlb_mpki" in cell
        rows = tab06_policy_summary(
            workloads=("mysql_sibench",), prefetchers=("fdip",),
            policies=("lru", "pf_aware"), scale="tiny",
        )
        assert [(r[0], r[1]) for r in rows] == [("fdip", "lru"),
                                                ("fdip", "pf_aware")]
        assert rows[0][2] == 1.0  # lru vs lru

    def test_fig21_itlb_reduction(self):
        from repro.experiments.policies import fig21_itlb_prefetch

        out = fig21_itlb_prefetch(workloads=("mysql_sibench",),
                                  prefetcher="fdip", scale="tiny")
        cell = out["mysql_sibench"]
        assert cell["pf_probes"] > 0
        assert cell["itlb_mpki_on"] <= cell["itlb_mpki_off"]
        assert cell["reduction"] >= 0.0

    def test_cli_list_policies(self, capsys):
        from repro.cli import main

        assert main(["list", "--policies"]) == 0
        out = capsys.readouterr().out
        for name in POLICY_NAMES:
            assert name in out

    def test_cli_sweep_policy_cross_product(self, capsys):
        from repro.cli import main

        rc = main(["sweep", "mysql_sibench", "--prefetchers", "eip",
                   "--policy", "lru", "pf_aware", "--scale", "tiny"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "policy" in out
        assert "pf_aware" in out

    def test_cli_probe_policy_flag(self, capsys):
        import json

        from repro.cli import main

        rc = main(["probe", "mysql_sibench", "--scale", "tiny",
                   "--prefetcher", "fdip", "--policy", "pf_aware",
                   "--itlb-prefetch", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["policy"] == "pf_aware"
