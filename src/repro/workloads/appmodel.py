"""Application model: the knobs describing a synthetic server program.

An application is a request loop over a pipeline of *stages* (Figure 1:
Read -> Dispatch -> Compile -> Exec -> Finish for TiDB).  Each stage owns
several alternative *routines*; the routine executed for a request is
selected by the request's type at an indirect-call dispatch point — the
coarse-grained divergence points that delimit Bundles.  Routines are
trees of functions mixing private code with calls into shared helper
libraries, plus a small hot pool (allocator/logging-style code) touched
from everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.isa.binary import Binary
from repro.isa.loader import LoadedProgram


@dataclass
class StageSpec:
    """One stage of the request-processing pipeline."""

    name: str
    #: Number of alternative routines the stage dispatches among.
    n_routines: int
    #: Target static code size per routine, in KB.
    routine_kb: float
    #: Fraction of a routine's call sites that go to shared helpers.
    shared_frac: float = 0.3
    #: Probability that a given request type skips this stage entirely.
    skip_prob: float = 0.0


@dataclass
class ArrivalSpec:
    """Open-loop arrival process for request-graph workloads.

    Arrival times are expressed on an *ideal clock* (committed
    instructions at full commit width), so the same trace presents the
    identical offered load to every prefetcher under test — the
    SLOFetch-style methodology where only service times (and therefore
    queueing) respond to front-end quality.
    """

    #: Offered load as a fraction of ideal service capacity.  The mean
    #: inter-arrival gap is ``mean_request_instructions / utilization``.
    utilization: float = 0.65
    #: Probability that the next request repeats the previous type
    #: (tenancy burstiness: same-tenant requests cluster in time).
    burst_repeat_prob: float = 0.6
    #: Inter-arrival gap multiplier inside an arrival burst.
    burst_gap_scale: float = 0.25
    #: Inter-arrival gap multiplier between bursts.
    idle_gap_scale: float = 2.0
    #: Expected burst length in requests (geometric).
    burst_len: float = 6.0
    #: SLO threshold as a multiple of the mean *ideal* request service
    #: time (instructions / commit width).
    slo_factor: float = 6.0


@dataclass
class AppParams:
    """Full parameter set for one synthetic application."""

    name: str
    seed: int
    stages: List[StageSpec]
    n_request_types: int = 6
    #: Zipf exponent of the request-type popularity distribution.
    zipf_alpha: float = 0.9
    #: Shared helper-library size in KB (reused across routines/stages).
    shared_pool_kb: float = 160.0
    #: Hot pool size in KB — tiny functions called from everywhere that
    #: stay cache-resident (allocator, logging, locks).
    hot_pool_kb: float = 24.0
    #: Mean function size in bytes.
    avg_func_bytes: int = 380
    #: Fraction of conditional branches that are hard to predict.
    branch_noise: float = 0.05
    #: Fraction of conditional branches biased toward taken (predictable
    #: direction, but the taken target occupies a BTB entry).
    taken_bias_frac: float = 0.45
    #: Taken probability of a hard branch (easy branches use 0.04).
    noisy_taken_prob: float = 0.15
    #: Probability that an optional call site is skipped per execution
    #: (controls intra-Bundle footprint variation / Jaccard).
    optional_call_prob: float = 0.15
    #: Fraction of call sites that are optional.
    optional_site_frac: float = 0.3
    #: Fraction of eligible routine-tree nodes whose children become a
    #: per-invocation *switch*: an indirect call executing exactly one
    #: child subtree, drawn per execution.  These are the paper's "minor
    #: divergence points ... incorporated into their constituent
    #: Bundles" — the intra-Bundle control-flow variation that bounds
    #: every record-and-replay prefetcher's accuracy.
    switch_site_frac: float = 0.38
    #: Extra never-executed (cold) functions, as a fraction of the
    #: executed function count — real binaries are mostly cold code.
    cold_func_frac: float = 1.2
    #: Bundle divergence threshold in bytes used when linking.  The
    #: paper uses 200 KB on TiDB-scale binaries; synthetic apps scale it
    #: with their code size.
    bundle_threshold: int = 96 * 1024
    #: Requests per trace at scale factor 1.0.
    base_requests: int = 120

    def total_routine_kb(self) -> float:
        return sum(s.n_routines * s.routine_kb for s in self.stages)


class Application:
    """A generated application: binary + loaded program + dispatch maps."""

    def __init__(
        self,
        params: AppParams,
        binary: Binary,
        program: LoadedProgram,
        dispatchers: Dict[str, str],
        route_map: List[Dict[str, str]],
        stage_names: Sequence[str],
        request_weights: Sequence[float],
        arrival: Optional["ArrivalSpec"] = None,
    ):
        self.params = params
        self.binary = binary
        self.program = program
        #: stage name -> dispatcher function name.
        self.dispatchers = dispatchers
        #: route_map[request_type][stage name] -> routine function name
        #: (absent key = the request type skips that stage).
        self.route_map = route_map
        self.stage_names = list(stage_names)
        #: Normalized request-type popularity (Zipf).
        self.request_weights = list(request_weights)
        #: Open-loop arrival process (request-graph workloads only).
        #: When set, traces carry per-request inter-arrival gaps and an
        #: SLO threshold, and the simulator's request-latency tracker
        #: auto-enables on them.
        self.arrival = arrival

    @property
    def name(self) -> str:
        return self.params.name

    @property
    def n_request_types(self) -> int:
        return len(self.route_map)

    def trace(self, n_requests: int, seed: int = 1):
        """Generate an execution trace of ``n_requests`` requests."""
        from repro.workloads.trace import TraceBuilder

        return TraceBuilder(self, seed=seed).build(n_requests)

    def __repr__(self) -> str:
        return (
            f"Application({self.name!r}, functions={len(self.binary)}, "
            f"text={self.binary.text_size >> 10}KB, "
            f"bundles={self.program.n_bundles})"
        )


def zipf_weights(n: int, alpha: float) -> List[float]:
    """Normalized Zipf popularity weights for ``n`` ranks."""
    if n < 1:
        raise ValueError("n must be >= 1")
    raw = [1.0 / (k ** alpha) for k in range(1, n + 1)]
    # Added left to right, as sum() did before Python 3.12 compensated
    # float sums: the weights (and so the pinned binary digests) are
    # the same on every supported Python.
    total = 0.0
    for w in raw:
        total += w
    return [w / total for w in raw]
