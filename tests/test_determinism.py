"""Determinism guarantees across the whole stack.

Reproducibility is a design contract (DESIGN.md): identical inputs must
produce byte-identical binaries, traces and cycle counts — across
process lifetimes, not just within one (no reliance on hash
randomization or id()s).
"""

import hashlib
import json
import pathlib

import pytest

from repro.cpu import simulate
from repro.cpu.simulator import FrontEndSimulator
from repro.prefetchers import make_prefetcher
from repro.workloads.generator import build_app
from tests.conftest import micro_params


def _binary_digest(binary) -> str:
    h = hashlib.sha256()
    for func in binary:
        h.update(func.name.encode())
        h.update(func.addr.to_bytes(8, "little"))
        for blk in func.blocks:
            h.update(bytes([blk.ninstr & 0xFF, int(blk.kind)]))
            h.update(str(blk.callee).encode())
            h.update(str(blk.targets).encode())
            h.update(f"{blk.taken_prob:.6f}".encode())
            h.update(blk.taken_next.to_bytes(4, "little", signed=True))
            h.update(blk.loop_count.to_bytes(2, "little"))
    return h.hexdigest()


def _trace_digest(trace) -> str:
    h = hashlib.sha256()
    for arr in (trace.pc, trace.ninstr, trace.kind, trace.taken,
                trace.target, trace.tagged):
        h.update(str(arr).encode())
    return h.hexdigest()


class TestDeterminism:
    def test_binary_digest_stable(self):
        a = build_app(micro_params())
        b = build_app(micro_params())
        assert _binary_digest(a.binary) == _binary_digest(b.binary)

    def test_trace_digest_stable(self):
        app = build_app(micro_params())
        t1 = app.trace(6, seed=9)
        t2 = app.trace(6, seed=9)
        assert _trace_digest(t1) == _trace_digest(t2)

    def test_link_result_stable(self):
        a = build_app(micro_params())
        b = build_app(micro_params())
        assert a.program.tagged == b.program.tagged
        assert (a.program.link_result.entry_addrs
                == b.program.link_result.entry_addrs)

    def test_full_pipeline_cycle_exact(self):
        app_a = build_app(micro_params())
        app_b = build_app(micro_params())
        trace_a = app_a.trace(8, seed=4)
        trace_b = app_b.trace(8, seed=4)
        for name in (None, "hierarchical", "eip"):
            pf_a = make_prefetcher(name) if name else None
            pf_b = make_prefetcher(name) if name else None
            sa = simulate(trace_a, prefetcher=pf_a)
            sb = simulate(trace_b, prefetcher=pf_b)
            assert sa.cycles == sb.cycles, name
            assert sa.l1i_misses == sb.l1i_misses, name
            assert sa.pf_issued == sb.pf_issued, name

    def test_route_maps_stable(self):
        a = build_app(micro_params())
        b = build_app(micro_params())
        assert a.route_map == b.route_map
        assert a.request_weights == b.request_weights

    def test_simstats_every_field_identical(self, micro_trace):
        """Two FrontEndSimulator runs of the same trace/config/
        prefetcher agree on *every* raw counter, not just headline
        metrics — the contract the result cache serializes."""
        for name in (None, "hierarchical", "mana"):
            runs = []
            for _ in range(2):
                pf = make_prefetcher(name) if name else None
                sim = FrontEndSimulator(prefetcher=pf,
                                        track_block_misses=True)
                runs.append((sim.run(micro_trace, warmup_fraction=0.4),
                             dict(sim.hierarchy.l2_miss_map)))
            (sa, ma), (sb, mb) = runs
            assert sa == sb, name                      # SimStats.__eq__
            assert sa.state_dict() == sb.state_dict(), name
            assert ma == mb, name


class TestSweepDeterminism:
    """The parallel sweep engine returns byte-identical results to the
    serial path (ISSUE acceptance: worker scheduling must not leak
    into any counter)."""

    POINTS = None  # built lazily: 2 workloads x 2 prefetchers

    @classmethod
    def _points(cls):
        from repro.experiments.sweep import grid

        if cls.POINTS is None:
            cls.POINTS = grid(
                ("mysql_sibench", "beego"), ("eip", "efetch"),
                include_baseline=False, scale="tiny",
            )
        return cls.POINTS

    def test_parallel_matches_serial(self):
        from repro.experiments.runner import clear_run_cache
        from repro.experiments.sweep import sweep

        clear_run_cache()
        serial = sweep(self._points(), jobs=1, use_cache=False)
        parallel = sweep(self._points(), jobs=2, use_cache=False)
        assert len(serial) == len(parallel) == 4
        for s, p in zip(serial, parallel):
            assert s.point == p.point
            assert s.stats.state_dict() == p.stats.state_dict(), \
                s.point.label
            assert s.source == p.source == "sim"

    def test_sweep_results_in_input_order(self):
        from repro.experiments.sweep import sweep

        results = sweep(self._points(), jobs=2)
        assert [r.point for r in results] == self._points()


class TestMicroserviceSweepDeterminism:
    """Golden matrix over the microservice request-graph family: the
    per-request SLO metrics (request.* / probe.request_* in
    SimStats.extra) must be bit-identical between a serial sweep and a
    parallel one — the tracker's timelines ride the same pickle
    transport as every other counter."""

    POINTS = None  # built lazily: 2 msvc workloads x 2 HP variants

    @classmethod
    def _points(cls):
        from repro.experiments.sweep import grid

        if cls.POINTS is None:
            cls.POINTS = grid(
                ("msvc_social", "msvc_hotel"),
                ("hierarchical", "hp_compressed"),
                include_baseline=False, scale="tiny",
            )
        return cls.POINTS

    def test_parallel_matches_serial_with_slo_metrics(self):
        from repro.experiments.runner import clear_run_cache
        from repro.experiments.sweep import sweep

        clear_run_cache()
        serial = sweep(self._points(), jobs=1, use_cache=False)
        parallel = sweep(self._points(), jobs=2, use_cache=False)
        assert len(serial) == len(parallel) == 4
        for s, p in zip(serial, parallel):
            assert s.point == p.point
            assert s.stats.has_request_latency, s.point.label
            assert s.stats.state_dict() == p.stats.state_dict(), \
                s.point.label
            assert (s.stats.extra["probe.request_latency"]
                    == p.stats.extra["probe.request_latency"]), \
                s.point.label


class TestGoldenMatrix:
    """The policy refactor contract: with the default LRU substrate and
    the I-TLB prefetch path off, every workload × prefetcher point is
    bit-identical to the stats recorded before eviction became
    pluggable (tests/data/golden_matrix.json, tiny scale).

    Only the fields present in the golden file are compared — SimStats
    may grow new counters (they start at zero and cannot retroactively
    change the recorded ones).
    """

    _GOLDEN = json.loads(
        (pathlib.Path(__file__).parent / "data" / "golden_matrix.json")
        .read_text()
    )

    @pytest.mark.parametrize(
        "point", _GOLDEN["points"],
        ids=[f"{p['workload']}-{p['prefetcher']}"
             for p in _GOLDEN["points"]],
    )
    def test_point_bit_identical(self, point):
        from repro.experiments.runner import run_prefetcher

        stats, _ = run_prefetcher(
            point["workload"], point["prefetcher"],
            scale=self._GOLDEN["scale"], use_cache=False,
        )
        current = json.loads(json.dumps(stats.state_dict()))
        golden = point["stats"]
        mismatched = {
            field: (golden[field], current[field])
            for field in golden
            if current[field] != golden[field]
        }
        assert not mismatched
