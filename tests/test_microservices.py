"""Microservice request-graph workloads and per-request SLO accounting.

Covers the family end to end: seeded DAG construction (property-based),
byte-identical determinism, trace/arrival invariants, the request-
latency tracker's published metrics, snapshot/warmup-resume round
trips, and v2 trace serialization.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cpu.requests import percentile
from repro.cpu.simulator import FrontEndSimulator, simulate
from repro.cpu.stats import SimStats
from repro.prefetchers import make_prefetcher
from repro.workloads.generator import build_app
from repro.workloads.microservices import (
    ENTRY_SERVICE,
    MICROSERVICE_NAMES,
    MicroserviceParams,
    ServiceSpec,
    build_microservice_app,
    microservice_params,
    request_graphs,
)
from repro.workloads.serialization import load_trace, save_trace
from repro.workloads.suite import ALL_WORKLOAD_NAMES, is_microservice
from tests.conftest import micro_machine, micro_params
from tests.test_determinism import _binary_digest, _trace_digest

SLOW = settings(
    max_examples=40, suppress_health_check=[HealthCheck.too_slow], deadline=None
)


def msvc_params(seed: int = 11, **overrides) -> MicroserviceParams:
    """A tiny but structurally complete three-service system."""
    params = MicroserviceParams(
        name="msvc_test",
        seed=seed,
        stages=[],
        services=[
            ServiceSpec("front", 2, 4.0),
            ServiceSpec("mid", 2, 5.0),
            ServiceSpec("back", 2, 4.0),
        ],
        fanout_max=2,
        max_depth=3,
        edge_prob=0.6,
        n_request_types=3,
        zipf_alpha=0.9,
        shared_pool_kb=14.0,
        hot_pool_kb=4.0,
        cold_func_frac=0.4,
        bundle_threshold=6 * 1024,
        base_requests=8,
    )
    for key, value in overrides.items():
        setattr(params, key, value)
    return params


@pytest.fixture(scope="module")
def msvc_app():
    return build_microservice_app(msvc_params())


@pytest.fixture(scope="module")
def msvc_trace(msvc_app):
    return msvc_app.trace(10, seed=3)


# ======================================================================
# Request-graph construction (property-based)
# ======================================================================
@st.composite
def graph_params(draw):
    n_services = draw(st.integers(2, 6))
    services = [
        ServiceSpec(f"s{i}", draw(st.integers(1, 3)), 4.0)
        for i in range(n_services)
    ]
    return msvc_params(
        seed=draw(st.integers(0, 2**16)),
        services=services,
        fanout_max=draw(st.integers(1, 4)),
        max_depth=draw(st.integers(1, 5)),
        edge_prob=draw(st.floats(0.0, 1.0)),
        n_request_types=draw(st.integers(1, 5)),
    )


class TestRequestGraphs:
    @SLOW
    @given(params=graph_params())
    def test_dag_invariants(self, params):
        """Acyclicity (edges go to strictly higher service indices),
        fan-out and depth bounds, valid endpoint indices."""
        graphs = request_graphs(params)
        assert len(graphs) == params.n_request_types
        for g in graphs:
            assert g.nodes[0][0] == ENTRY_SERVICE
            for k, (svc, ep) in enumerate(g.nodes):
                assert 0 <= ep < params.services[svc].n_endpoints
                for child in g.children[k]:
                    assert g.nodes[child][0] > svc
            assert g.max_fanout() <= params.fanout_max
            assert g.depth() <= params.max_depth
            assert len(g) >= 1

    @SLOW
    @given(params=graph_params())
    def test_seeded_determinism(self, params):
        assert request_graphs(params) == request_graphs(params)

    def test_rejects_single_service(self):
        with pytest.raises(ValueError, match=">= 2 services"):
            request_graphs(
                msvc_params(services=[ServiceSpec("only", 2, 4.0)])
            )


# ======================================================================
# Seeded determinism of the full generation pipeline
# ======================================================================
class TestDeterminism:
    def test_binary_and_trace_bit_identical(self):
        a = build_microservice_app(msvc_params())
        b = build_microservice_app(msvc_params())
        assert _binary_digest(a.binary) == _binary_digest(b.binary)
        ta, tb = a.trace(8, seed=5), b.trace(8, seed=5)
        assert _trace_digest(ta) == _trace_digest(tb)
        assert ta.requests == tb.requests
        assert ta.request_gaps == tb.request_gaps
        assert ta.slo_instr == tb.slo_instr

    def test_trace_seed_matters(self, msvc_app):
        assert (_trace_digest(msvc_app.trace(8, seed=1))
                != _trace_digest(msvc_app.trace(8, seed=2)))


# ======================================================================
# Trace invariants: decode tables, markers, arrival process
# ======================================================================
class TestTraceInvariants:
    def test_decode_tables_consistent(self, msvc_trace):
        t = msvc_trace
        n = len(t.pc)
        for arr in (t.ninstr, t.kind, t.taken, t.target, t.tagged):
            assert len(arr) == n
        assert sum(t.ninstr) == t.n_instructions
        assert all(x >= 1 for x in t.ninstr)
        assert all(flag in (0, 1) for flag in t.taken)
        assert all(flag in (0, 1) for flag in t.tagged)

    def test_request_markers(self, msvc_trace):
        t = msvc_trace
        assert len(t.requests) == 10
        starts = [s for s, _ in t.requests]
        assert starts[0] == 0
        assert starts == sorted(starts)
        assert len(set(starts)) == len(starts)
        assert all(0 <= rt < 3 for _, rt in t.requests)
        assert {span[2] for span in t.stage_spans} == {"rpc"}

    def test_arrival_gaps_normalized(self, msvc_trace):
        """gaps[0] == 0; the mean gap is exactly
        mean_service/utilization (same offered load per prefetcher)."""
        t = msvc_trace
        gaps = t.request_gaps
        n = len(t.requests)
        assert len(gaps) == n
        assert gaps[0] == 0.0
        assert all(g >= 0.0 for g in gaps)
        arrival = msvc_params().arrival
        mean_service = t.n_instructions / n
        assert (sum(gaps) / (n - 1)
                == pytest.approx(mean_service / arrival.utilization))
        assert t.slo_instr == pytest.approx(
            arrival.slo_factor * mean_service
        )

    def test_monolithic_traces_carry_no_arrivals(self):
        trace = build_app(micro_params()).trace(5, seed=2)
        assert trace.request_gaps is None
        assert trace.slo_instr is None


# ======================================================================
# Request-latency tracker
# ======================================================================
class TestPercentile:
    def test_empty(self):
        assert percentile([], 50.0) == 0.0

    def test_nearest_rank(self):
        vals = [1.0, 2.0, 3.0, 4.0]
        assert percentile(vals, 50.0) == 2.0
        assert percentile(vals, 75.0) == 3.0
        assert percentile(vals, 99.0) == 4.0
        assert percentile(vals, 0.0) == 1.0  # rank clamps to 1
        assert percentile([7.0], 99.0) == 7.0


class TestTracker:
    def test_published_metrics(self, msvc_trace):
        sim = FrontEndSimulator(
            config=micro_machine(),
            prefetcher=make_prefetcher("hierarchical"),
        )
        stats = sim.run(msvc_trace, warmup_fraction=0.4)
        assert stats.has_request_latency
        extra = stats.extra
        n = int(extra["request.count"])
        lat = extra["probe.request_latency"]
        svc = extra["probe.request_service"]
        queue = extra["probe.request_queue"]
        assert len(lat) == len(svc) == len(queue) == n
        # Queueing recurrence: latency = wait + service, waits >= 0.
        for l, s, w in zip(lat, svc, queue):
            assert w >= 0.0
            assert l == pytest.approx(s + w)
        assert 0.0 <= stats.slo_attainment <= 1.0
        assert extra["request.slo_threshold"] == pytest.approx(
            msvc_trace.slo_instr / sim.config.core.commit_width
        )
        assert extra["request.p50"] <= extra["request.p95"]
        assert extra["request.p95"] <= extra["request.p99"]
        assert extra["request.p99"] <= extra["request.max"]
        assert stats.request_latency(50.0) == extra["request.p50"]
        window = int(extra["request.window"])
        n_windows = math.ceil(n / window)
        for key in ("p50", "p95", "p99", "slo"):
            assert len(extra[f"probe.request_{key}"]) == n_windows
        # Everything the tracker publishes must survive pickling and
        # the shallow copies state_dict makes: floats and flat tuples.
        for key, value in extra.items():
            if key.startswith(("request.", "probe.request")):
                assert isinstance(value, (float, tuple)), key

    def test_probes_compose_without_perturbing(self, msvc_trace):
        """Splitting the window at probe intervals on top of request
        boundaries must not change any request metric."""
        plain = simulate(msvc_trace, config=micro_machine())
        probed = simulate(msvc_trace, config=micro_machine(),
                          probe_interval=2_000)
        assert "probe.cycles" in probed.extra  # the bus did fire
        assert (probed.extra["probe.request_latency"]
                == plain.extra["probe.request_latency"])
        assert probed.extra["request.p99"] == plain.extra["request.p99"]
        assert (probed.extra["request.slo_attainment"]
                == plain.extra["request.slo_attainment"])

    def test_track_requests_false_disables(self, msvc_trace):
        stats = simulate(msvc_trace, config=micro_machine(),
                         track_requests=False)
        assert not stats.has_request_latency
        assert not any(key.startswith("request.") for key in stats.extra)

    def test_track_requests_requires_gaps(self):
        trace = build_app(micro_params()).trace(5, seed=2)
        sim = FrontEndSimulator(config=micro_machine(),
                                track_requests=True)
        with pytest.raises(ValueError, match="request_gaps"):
            sim.run(trace)

    def test_auto_off_for_monolithic_traces(self):
        trace = build_app(micro_params()).trace(5, seed=2)
        stats = simulate(trace, config=micro_machine())
        assert not stats.has_request_latency
        assert not any(key.startswith("probe.request")
                       for key in stats.extra)


# ======================================================================
# Snapshot round trips
# ======================================================================
class TestSnapshotRoundTrip:
    def test_stats_state_dict_roundtrip(self, msvc_trace):
        stats = simulate(msvc_trace, config=micro_machine())
        assert stats.has_request_latency
        clone = SimStats.from_state(stats.state_dict())
        assert clone == stats
        assert (clone.extra["probe.request_latency"]
                == stats.extra["probe.request_latency"])
        restored = SimStats()
        restored.load_state_dict(stats.state_dict())
        assert restored == stats

    @pytest.mark.parametrize(
        "prefetcher", [None, "hierarchical", "hp_compressed"]
    )
    def test_warmup_checkpoint_resume_is_exact(self, prefetcher,
                                               msvc_trace):
        """Resume from a warmup snapshot: every counter *and* every
        probe.request_* timeline must equal the uninterrupted run."""
        def machine():
            pf = make_prefetcher(prefetcher) if prefetcher else None
            return FrontEndSimulator(config=micro_machine(),
                                     prefetcher=pf)

        expected = machine().run(msvc_trace)
        donor = machine()
        donor.warmup(msvc_trace)
        resumed = FrontEndSimulator.resume(msvc_trace, donor.state_dict(),
                                           micro_machine())
        got = resumed.measure()
        assert got == expected
        assert got.state_dict() == expected.state_dict()
        assert (got.extra["probe.request_latency"]
                == expected.extra["probe.request_latency"])
        assert (got.extra["probe.request_p99"]
                == expected.extra["probe.request_p99"])


# ======================================================================
# Serialization (format v2)
# ======================================================================
class TestSerialization:
    def test_v2_roundtrip_preserves_arrivals(self, msvc_trace, tmp_path):
        path = tmp_path / "msvc.npz"
        save_trace(msvc_trace, path)
        loaded = load_trace(path)
        # Value equality per decode column (the original holds enums
        # and bools; the loaded trace plain ints — IntEnum/bool compare
        # equal to int, and the simulator treats them identically).
        assert loaded.pc == msvc_trace.pc
        assert loaded.ninstr == msvc_trace.ninstr
        assert loaded.kind == msvc_trace.kind
        assert loaded.taken == msvc_trace.taken
        assert loaded.target == msvc_trace.target
        assert loaded.tagged == msvc_trace.tagged
        assert loaded.requests == msvc_trace.requests
        assert loaded.request_gaps == msvc_trace.request_gaps
        assert loaded.slo_instr == msvc_trace.slo_instr
        a = simulate(msvc_trace, config=micro_machine())
        b = simulate(loaded, config=micro_machine())
        assert a == b  # cycle-exact incl. request metrics

    def test_gapless_trace_loads_with_none(self, tmp_path):
        trace = build_app(micro_params()).trace(5, seed=2)
        path = tmp_path / "mono.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.request_gaps is None
        assert loaded.slo_instr is None


# ======================================================================
# Suite / registry integration
# ======================================================================
class TestSuiteIntegration:
    def test_family_registered(self):
        assert len(MICROSERVICE_NAMES) >= 4
        for name in MICROSERVICE_NAMES:
            assert name in ALL_WORKLOAD_NAMES
            assert is_microservice(name)
        assert not is_microservice("beego")

    def test_params_lookup(self):
        params = microservice_params("msvc_social")
        assert len(params.services) >= 2
        assert params.arrival.utilization > 0.0
        with pytest.raises(KeyError):
            microservice_params("not_a_workload")

    def test_hp_compressed_config(self):
        from repro.prefetchers.registry import HP_COMPRESSED_OVERRIDES

        pf = make_prefetcher("hp_compressed")
        for key, value in HP_COMPRESSED_OVERRIDES.items():
            assert getattr(pf.config, key) == value
        baseline = make_prefetcher("hierarchical")
        assert (pf.config.metadata_buffer_bytes
                < baseline.config.metadata_buffer_bytes)
