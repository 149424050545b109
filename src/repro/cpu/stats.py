"""Simulation statistics.

A single mutable container shared by the simulator, the memory
hierarchy, the front end and the prefetchers.  Per-origin counters are
3-element lists indexed by the fill-origin constants in
:mod:`repro.memory.cache` (0 = demand, 1 = FDIP, 2 = evaluated
prefetcher).
"""

from __future__ import annotations

from typing import Dict, List

from repro.cpu.restore import Restorable

#: Serving-level keys for miss/latency accounting.
LEVEL_L2 = "L2"
LEVEL_LLC = "LLC"
LEVEL_DRAM = "DRAM"
LEVELS = (LEVEL_L2, LEVEL_LLC, LEVEL_DRAM)


def _per_origin() -> List[int]:
    return [0, 0, 0]


def _per_level() -> Dict[str, int]:
    return {LEVEL_L2: 0, LEVEL_LLC: 0, LEVEL_DRAM: 0}


class SimStats(Restorable):
    """All counters collected during one simulation run."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter (used at the warmup boundary)."""
        # Core
        self.instructions = 0
        self.blocks = 0
        self.cycles = 0.0
        self.stall_fetch = 0.0
        self.stall_mispredict = 0.0
        self.stall_itlb = 0.0
        # Branches
        self.cond_branches = 0
        self.cond_mispredicts = 0
        self.indirect_branches = 0
        self.indirect_mispredicts = 0
        self.returns = 0
        self.ras_mispredicts = 0
        self.btb_lookups = 0
        self.btb_misses = 0
        # L1-I demand stream
        self.demand_accesses = 0
        self.l1i_hits = 0
        #: Split of ``l1i_hits`` by the resident line's fill origin
        #: (demand-fetched vs prefetcher-brought) — the attribution the
        #: replacement-policy study keys on.  ``l1i_hits`` stays the
        #: aggregate for back-compat.
        self.l1i_demand_hits = 0
        self.l1i_prefetch_hits = 0
        self.l1i_misses = 0
        self.l2_demand_misses = 0  # demand fetches served beyond the L2
        self.served_by = _per_level()
        self.exposed_latency = _per_level()  # stall cycles by serving level
        # Prefetching (per origin)
        self.pf_issued = _per_origin()
        self.pf_useful = _per_origin()
        self.pf_useless = _per_origin()   # evicted before any demand hit
        self.pf_redundant = _per_origin()
        self.pf_dropped = _per_origin()
        self.pf_late = _per_origin()      # demand hit while still in flight
        #: L1-I evictions of prefetched lines never touched by a demand
        #: fetch (sum over origins of the prefetch part of pf_useless).
        self.unused_prefetch_evictions = 0
        self.covered = _per_origin()      # L1-I demand hit on a prefetched block
        self.covered_l2 = _per_origin()   # demand L1 miss that hit a prefetched L2 block
        self.distance_sum = _per_origin()  # committed-block distance trigger->use
        self.distance_n = _per_origin()
        # Bandwidth (bytes)
        #: Fill traffic crossing the L2<->uncore boundary (demand and
        #: prefetch fills sourced beyond the L2) — the "memory
        #: bandwidth" denominator of Figure 16.
        self.uncore_fill_bytes = 0
        self.dram_read_bytes = 0
        self.dram_write_bytes = 0
        self.metadata_read_bytes = 0
        self.metadata_write_bytes = 0
        # I-TLB
        self.itlb_accesses = 0
        self.itlb_misses = 0
        # I-TLB prefetch path (core.itlb_prefetch); all zero when off.
        self.itlb_pf_probes = 0
        self.itlb_pf_installs = 0
        self.itlb_pf_hits = 0
        # Free-form per-prefetcher extras (bundle stats, table hit rates…)
        self.extra: Dict[str, float] = {}

    # ------------------------------------------------------------------
    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def l1i_mpki(self) -> float:
        """L1-I demand misses per kilo-instruction."""
        if not self.instructions:
            return 0.0
        return 1000.0 * self.l1i_misses / self.instructions

    @property
    def l2_mpki(self) -> float:
        if not self.instructions:
            return 0.0
        return 1000.0 * self.l2_demand_misses / self.instructions

    @property
    def prefetch_hit_rate(self) -> float:
        """Fraction of L1-I demand hits served by a prefetched line."""
        return self.l1i_prefetch_hits / self.l1i_hits if self.l1i_hits else 0.0

    @property
    def itlb_mpki(self) -> float:
        """I-TLB demand misses per kilo-instruction."""
        if not self.instructions:
            return 0.0
        return 1000.0 * self.itlb_misses / self.instructions

    @property
    def dram_bytes(self) -> int:
        return self.dram_read_bytes + self.dram_write_bytes

    @property
    def metadata_bytes(self) -> int:
        return self.metadata_read_bytes + self.metadata_write_bytes

    @property
    def memory_traffic_bytes(self) -> int:
        """All memory-side traffic: uncore fills plus metadata accesses
        (the Figure 16 definition: "all memory accesses")."""
        return self.uncore_fill_bytes + self.metadata_bytes

    def accuracy(self, origin: int) -> float:
        """Fraction of origin's prefetches that served a demand fetch."""
        issued = self.pf_issued[origin]
        return self.pf_useful[origin] / issued if issued else 0.0

    def late_fraction(self, origin: int) -> float:
        """Fraction of origin's *useful* prefetches that arrived late."""
        useful = self.pf_useful[origin]
        return self.pf_late[origin] / useful if useful else 0.0

    def avg_distance(self, origin: int) -> float:
        """Average trigger-to-use distance in committed cache blocks."""
        n = self.distance_n[origin]
        return self.distance_sum[origin] / n if n else 0.0

    def total_exposed_latency(self) -> float:
        return sum(self.exposed_latency.values())

    # ------------------------------------------------------------------
    # Per-request latency (request-graph workloads; see repro.cpu.requests)
    # ------------------------------------------------------------------
    @property
    def has_request_latency(self) -> bool:
        """True when the run carried per-request latency accounting."""
        return "request.count" in self.extra

    def request_latency(self, q: float) -> float:
        """Request-latency percentile in cycles (q in [0, 100]).

        Pre-computed p50/p95/p99 are returned directly; other
        percentiles are derived from the per-request series.  0.0 when
        the run had no request accounting.
        """
        key = f"request.p{int(q)}"
        if key in self.extra and float(q) == int(q):
            return self.extra[key]
        series = self.extra.get("probe.request_latency")
        if not series:
            return 0.0
        from repro.cpu.requests import percentile

        return percentile(sorted(series), q)

    @property
    def slo_attainment(self) -> float:
        """Fraction of measured requests meeting the SLO threshold."""
        return self.extra.get("request.slo_attainment", 0.0)

    # ------------------------------------------------------------------
    # Serialization (disk cache / cross-process transport)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Complete counter state as plain containers.

        Unlike :meth:`as_dict` (a reporting snapshot of derived
        metrics), this captures *every* raw counter so that
        ``SimStats.from_state(s.state_dict())`` reproduces ``s``
        exactly — the contract the on-disk simulation cache relies on.
        """
        out: Dict[str, object] = {}
        for name, value in self.__dict__.items():
            if isinstance(value, list):
                out[name] = list(value)
            elif isinstance(value, dict):
                out[name] = dict(value)
            else:
                out[name] = value
        return out

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot in place.

        Strict: a state whose field set differs from the current class
        (older/newer schema) raises ``ValueError`` so callers treat the
        payload as stale rather than silently loading partial counters.
        """
        expected = set(self.__dict__)
        got = set(state)
        if expected != got:
            missing = expected - got
            unknown = got - expected
            raise ValueError(
                f"stale SimStats state (missing={sorted(missing)}, "
                f"unknown={sorted(unknown)})"
            )
        for name, value in state.items():
            current = self.__dict__[name]
            if isinstance(current, list):
                value = list(value)
            elif isinstance(current, dict):
                value = dict(value)
            setattr(self, name, value)

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "SimStats":
        """Rebuild a fresh :class:`SimStats` from :meth:`state_dict`."""
        stats = cls()
        stats.load_state_dict(state)
        return stats

    def __eq__(self, other: object) -> bool:
        """Field-exact equality (every raw counter identical)."""
        if not isinstance(other, SimStats):
            return NotImplemented
        return self.__dict__ == other.__dict__

    # Keep identity hashing: SimStats is mutable, and equality is only
    # meant for determinism/round-trip assertions.
    __hash__ = object.__hash__

    def as_dict(self) -> Dict[str, object]:
        """Flat snapshot for reporting."""
        out: Dict[str, object] = {
            "instructions": self.instructions,
            "cycles": self.cycles,
            "ipc": self.ipc,
            "l1i_mpki": self.l1i_mpki,
            "l2_mpki": self.l2_mpki,
            "l1i_misses": self.l1i_misses,
            "l2_demand_misses": self.l2_demand_misses,
            "dram_bytes": self.dram_bytes,
        }
        out.update(self.extra)
        return out

    def __repr__(self) -> str:
        return (
            f"SimStats(instrs={self.instructions}, ipc={self.ipc:.3f}, "
            f"l1i_mpki={self.l1i_mpki:.2f})"
        )
