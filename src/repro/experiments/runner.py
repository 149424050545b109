"""Shared simulation runner with layered result caching.

The paper's evaluation methodology (§6.1): warm up, then measure, with
every prefetcher running on top of FDIP and compared to the plain FDIP
baseline on the same workload.  A :class:`SweepPoint` holds every
input of one run and derives its cache keys; :meth:`SweepPoint.run`
handles trace memoization, config overrides, and caching so that
multi-figure benchmarks re-use each simulation (``run_prefetcher`` and
``run_baseline`` build a point from keyword arguments).

Caching is two-level:

* an in-process dict (``_CACHE``) keyed by the full run key, so code
  holding a result keeps getting the *same object* back;
* the on-disk artifact table (:mod:`repro.experiments.diskcache`),
  one store per kind, so fresh processes (a second benchmark
  invocation, or the workers of a parallel
  :func:`repro.experiments.sweep.sweep`) skip finished work.  A cold
  point reads and writes each kind once: its ``result``, its
  ``trace`` (behind the in-process trace memo, so a worker loads a
  trace some earlier point built instead of rebuilding the
  application), the front end's branch-prediction ``pass`` over that
  trace (once per trace and BPU configuration), and its ``warmup``
  checkpoint.

The result key includes every input that can change the result:
workload, scale, prefetcher and its kwargs, config overrides, miss
tracking, warmup fraction, trace seed, and a fingerprint of the default
:class:`~repro.cpu.config.MachineConfig`, the payload schema version
and the simulator's source code (:func:`code_hash`), so cached results
are invalidated when the model, the serialization format or the code
changes.  :func:`run_cache_stats` reports each kind's counters.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from repro.analysis.metrics import PrefetchReport, compare_run
from repro.cpu import MachineConfig
from repro.cpu.config import DEFAULT_WARMUP
from repro.cpu.stats import SimStats
from repro.experiments import diskcache
from repro.prefetchers import PAPER_PREFETCHERS, make_prefetcher
from repro.workloads import cache as workload_cache
from repro.workloads.trace import Trace

__all__ = [
    "DEFAULT_WARMUP",  # re-exported from repro.cpu.config (the source)
    "REPRESENTATIVE_WORKLOADS", "RunCacheStats", "SweepPoint",
    "code_hash", "trace_key", "pass_key", "get_trace",
    "run_prefetcher", "simulate_point", "run_baseline", "compare_all",
    "perfect_l1i_speedup", "run_cache_stats", "reset_run_cache_stats",
    "record_simulation", "seed_cache", "peek_cached", "clear_run_cache",
]

#: Subset used by parameter sweeps where running all 11 workloads per
#: point would be prohibitive: two web stacks and two databases.
REPRESENTATIVE_WORKLOADS = (
    "beego",
    "caddy",
    "mysql_sysbench",
    "tidb_tpcc",
)

_CACHE: Dict[str, Tuple[SimStats, Optional[dict]]] = {}

_FINGERPRINT: Optional[str] = None

#: The packages whose source determines a simulated result or a trace.
_CODE_PACKAGES = ("callgraph", "core", "cpu", "frontend", "isa", "memory",
                  "prefetchers", "workloads")

_CODE_HASH: Optional[str] = None


def source_digest(root: Path) -> str:
    """SHA-256 over the sorted (relative path, bytes) of every ``.py``
    file in the simulator packages under the package root ``root``."""
    files = sorted(
        (path.relative_to(root).as_posix(), path)
        for package in _CODE_PACKAGES
        for path in (root / package).rglob("*.py")
    )
    digest = hashlib.sha256()
    for rel, path in files:
        data = path.read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def code_hash() -> str:
    """:func:`source_digest` of this process's own ``repro`` package,
    computed once per process."""
    global _CODE_HASH
    if _CODE_HASH is None:
        _CODE_HASH = source_digest(Path(__file__).resolve().parent.parent)
    return _CODE_HASH


def _config_fingerprint() -> str:
    """Digest of the default machine configuration, the cache schema and
    the simulator's source code.

    Baked into every cache key: when Table-1 defaults, the payload
    layout or the code change between revisions, old on-disk entries
    silently stop matching instead of serving stale timing results.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        def unwrap(obj):
            if dataclasses.is_dataclass(obj):
                return {
                    f.name: unwrap(getattr(obj, f.name))
                    for f in dataclasses.fields(obj)
                }
            return obj
        blob = json.dumps(
            {"config": unwrap(MachineConfig()),
             "schema": diskcache.SCHEMA_VERSION,
             "code": code_hash()},
            sort_keys=True, default=str,
        )
        _FINGERPRINT = hashlib.sha256(blob.encode()).hexdigest()[:12]
    return _FINGERPRINT


def trace_key(workload: str, scale: str, seed: int) -> str:
    """Trace-store key: a trace depends on its generator's code, not on
    the machine configuration."""
    return f"trace|{workload}|{scale}|s{seed}|{code_hash()[:12]}"


def pass_key(workload: str, scale: str, seed: int, bpu: tuple) -> str:
    """Trace-store key of the prediction pass over a trace under the
    BPU configuration ``bpu`` (``FrontEndParams.bpu_key``)."""
    return "|".join(["bpu", trace_key(workload, scale, seed),
                     *map(str, bpu)])


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One simulation point: every input that can change its result
    (``prefetcher=None`` is the FDIP baseline)."""

    workload: str
    prefetcher: Optional[str] = None
    scale: str = "bench"
    pf_kwargs: Optional[dict] = None
    overrides: Optional[dict] = None
    track_block_misses: bool = False
    warmup: float = DEFAULT_WARMUP
    seed: int = 1

    @property
    def label(self) -> str:
        return f"{self.workload}/{self.prefetcher or 'fdip'}"

    def _join(self, *track: str) -> str:
        """The key fields in their fixed order; ``track`` is the result
        key's miss-tracking field, which the warmup key leaves out."""
        def encode(obj):
            return json.dumps(obj, sort_keys=True, default=str) if obj else ""
        return "|".join([
            self.workload, self.scale, self.prefetcher or "fdip",
            encode(self.pf_kwargs), encode(self.overrides), *track,
            f"{self.warmup}", f"s{self.seed}", _config_fingerprint(),
        ])

    def key(self) -> str:
        """The result key."""
        return self._join("t" if self.track_block_misses else "")

    def warmup_key(self) -> str:
        """Checkpoint key for the post-warmup machine snapshot.

        Deliberately excludes ``track_block_misses``: the L2 miss map is
        observability bookkeeping that is cleared at measurement start,
        so runs that differ only in tracking share one warmup checkpoint
        — which is exactly what lets a tracked re-run of an untracked
        point skip its warmup.
        """
        return "warmup|" + self._join()

    def run(self, use_cache: bool = True) -> Tuple[SimStats, Optional[dict]]:
        """``(stats, l2_miss_map)`` of this point — the map is None
        unless ``track_block_misses``: from the result layers, else
        simulated (:func:`simulate_point`).  ``use_cache=False``
        neither reads nor writes any layer or store."""
        if use_cache:
            hit = peek_cached(self.key())
            if hit is not None:
                return hit[0], hit[1]
        return simulate_point(self, use_cache)


# ----------------------------------------------------------------------
# Cache observability
# ----------------------------------------------------------------------
@dataclasses.dataclass
class RunCacheStats:
    """Where results came from since the last reset (observability for
    the sweep engine and the zero-resimulation acceptance tests)."""

    memory_hits: int = 0
    simulations: int = 0
    #: Each artifact kind's counters (``diskcache.KINDS``).
    kinds: Dict[str, diskcache.KindCounts] = dataclasses.field(
        default_factory=lambda: {kind: diskcache.KindCounts()
                                 for kind in diskcache.KINDS})

    @property
    def disk_hits(self) -> int:
        """Results loaded from the on-disk store."""
        return self.kinds["result"].hits

    @property
    def corrupt(self) -> int:
        return sum(c.corrupt for c in self.kinds.values())

    @property
    def refused(self) -> int:
        return sum(c.refused for c in self.kinds.values())

    @property
    def lookups(self) -> int:
        return self.memory_hits + self.disk_hits + self.simulations


_STATS = RunCacheStats()


def run_cache_stats() -> RunCacheStats:
    """Snapshot of the hit/miss counters."""
    return dataclasses.replace(_STATS, kinds={
        kind: store.counts()
        for kind, store in diskcache.stores().items()})


def reset_run_cache_stats() -> None:
    global _STATS
    _STATS = RunCacheStats()
    for store in diskcache.stores().values():
        store.reset_counts()


def record_simulation() -> None:
    """Count a point a sweep worker simulated on this process's behalf,
    so :func:`run_cache_stats` reflects it."""
    _STATS.simulations += 1


def seed_cache(key: str, stats: SimStats,
               miss_map: Optional[dict]) -> None:
    """Install an externally computed result (parallel sweep workers)
    into the in-process cache."""
    _CACHE[key] = (stats, miss_map)


def peek_cached(key: str) -> Optional[Tuple[SimStats, Optional[dict], str]]:
    """Probe both cache layers for ``key`` without ever simulating.

    Returns ``(stats, miss_map, source)`` with source ``"memory"`` or
    ``"disk"`` (disk hits are promoted into the in-process layer), or
    None on a miss; either way the lookup is counted.  The sweep
    engine uses it to resolve warm points in the parent process.
    """
    cached = _CACHE.get(key)
    if cached is not None:
        _STATS.memory_hits += 1
        return cached[0], cached[1], "memory"
    loaded = diskcache.get_cache().load(key)
    if loaded is not None:
        _CACHE[key] = loaded
        return loaded[0], loaded[1], "disk"
    return None


class _TraceStore:
    """The :class:`~repro.workloads.cache.TraceStore` over the ``trace``
    kind."""

    def load(self, name: str, scale: str, seed: int) -> Optional[Trace]:
        return diskcache.stores()["trace"].load(trace_key(name, scale, seed))

    def save(self, name: str, scale: str, seed: int, trace: Trace) -> None:
        diskcache.stores()["trace"].save(trace_key(name, scale, seed),
                                         trace=trace.to_payload())


_TRACE_STORE = _TraceStore()


def get_trace(workload: str, scale: str = "bench", seed: int = 1,
              use_cache: bool = True) -> Trace:
    """The trace for (workload, scale, seed): from the in-process memo,
    else the on-disk trace store, else built and stored.
    ``use_cache=False`` (and ``REPRO_DISK_CACHE=0``) skip the store."""
    store = (_TRACE_STORE
             if use_cache and diskcache.disk_cache_enabled() else None)
    return workload_cache.get_trace(workload, scale=scale, seed=seed,
                                    store=store)


# ----------------------------------------------------------------------
# Runners
# ----------------------------------------------------------------------
def run_prefetcher(
    workload: str,
    prefetcher: Optional[str],
    scale: str = "bench",
    pf_kwargs: Optional[dict] = None,
    overrides: Optional[dict] = None,
    track_block_misses: bool = False,
    warmup: float = DEFAULT_WARMUP,
    seed: int = 1,
    use_cache: bool = True,
) -> Tuple[SimStats, Optional[dict]]:
    """Simulate ``workload`` under ``prefetcher``: :meth:`SweepPoint.run`
    of that point."""
    return SweepPoint(workload, prefetcher, scale, pf_kwargs, overrides,
                      track_block_misses, warmup, seed).run(use_cache)


def simulate_point(
    point: SweepPoint, use_cache: bool = True,
) -> Tuple[SimStats, Optional[dict]]:
    """Simulate a point known to miss the result layers (a sweep probes
    each point before it schedules it), through the trace, pass and
    warmup stores, and cache the result."""
    stores = diskcache.stores()
    trace = get_trace(point.workload, scale=point.scale, seed=point.seed,
                      use_cache=use_cache)
    config = MachineConfig()
    if point.overrides:
        config = config.replace(**point.overrides)
    track = point.track_block_misses
    # The prediction pass: from the trace, else the pass store, else
    # run by bind() below and then stored.
    bpu = config.frontend.bpu_key
    pkey = None
    if use_cache and bpu not in trace.bpu_passes:
        pkey = pass_key(point.workload, point.scale, point.seed, bpu)
        done = stores["pass"].load(pkey, trace)
        if done is not None:
            trace.bpu_passes[bpu] = done
            pkey = None
    from repro.cpu.simulator import FrontEndSimulator

    sim = None
    if use_cache:
        # A checkpoint that resume() rejects counts as corrupt, and the
        # point warms up cold on a fresh simulator.
        wkey = point.warmup_key()
        sim = stores["warmup"].load(wkey, trace, config)
        if sim is not None:
            # The warmup key leaves miss tracking out: this run's flag
            # decides it, as it does for a fresh simulator.
            sim.hierarchy.l2_miss_map = {} if track else None
    if sim is None:
        pf = (
            make_prefetcher(point.prefetcher, **(point.pf_kwargs or {}))
            if point.prefetcher else None
        )
        sim = FrontEndSimulator(config=config, prefetcher=pf,
                                track_block_misses=track)
        sim.warmup(trace, warmup_fraction=point.warmup)
        if use_cache:
            state = sim.state_dict()
            stores["warmup"].save(wkey, state=state)
            # Pickling read every object's __dict__, which slows the
            # attribute access of the pickled machine on CPython 3.11
            # and 3.12 (repro.cpu.restore): measure on its unpickled
            # twin instead.
            sim = FrontEndSimulator.resume(trace, state, config)
    if pkey is not None:
        stores["pass"].save(pkey, events=trace.bpu_passes[bpu])
    stats = sim.measure()
    miss_map = dict(sim.hierarchy.l2_miss_map) if track else None
    _STATS.simulations += 1
    result = (stats, miss_map)
    if use_cache:
        key = point.key()
        _CACHE[key] = result
        stores["result"].save(key, stats=stats.state_dict(),
                              miss_map=miss_map)
    return result


def run_baseline(
    workload: str,
    scale: str = "bench",
    overrides: Optional[dict] = None,
    track_block_misses: bool = False,
    warmup: float = DEFAULT_WARMUP,
    seed: int = 1,
    use_cache: bool = True,
) -> Tuple[SimStats, Optional[dict]]:
    """FDIP-only run (the baseline of every comparison)."""
    return SweepPoint(workload, None, scale, None, overrides,
                      track_block_misses, warmup, seed).run(use_cache)


def compare_all(
    workload: str,
    prefetchers: Sequence[str] = PAPER_PREFETCHERS,
    scale: str = "bench",
    overrides: Optional[dict] = None,
    jobs: int = 1,
) -> Dict[str, PrefetchReport]:
    """Run the named prefetchers against the FDIP baseline.

    With ``jobs > 1`` the points fan out over a process pool via the
    sweep engine (uncached points simulate concurrently).
    """
    if jobs > 1:
        from repro.experiments.sweep import grid, sweep

        sweep(grid([workload], prefetchers, scale=scale,
                   overrides=overrides), jobs=jobs)
    baseline, _ = run_baseline(workload, scale=scale, overrides=overrides)
    out: Dict[str, PrefetchReport] = {}
    for name in prefetchers:
        stats, _ = run_prefetcher(
            workload, name, scale=scale, overrides=overrides
        )
        out[name] = compare_run(name, stats, baseline)
    return out


def perfect_l1i_speedup(workload: str, scale: str = "bench") -> float:
    """IPC gain of a perfect L1-I over FDIP (§7.1's headroom study)."""
    baseline, _ = run_baseline(workload, scale=scale)
    perfect, _ = run_baseline(
        workload, scale=scale, overrides={"hierarchy.perfect_l1i": True}
    )
    return perfect.ipc / baseline.ipc - 1.0


def clear_run_cache(disk: bool = False) -> None:
    """Drop all cached simulation results (in-process; plus every
    on-disk artifact store when ``disk=True``)."""
    _CACHE.clear()
    if disk and diskcache.disk_cache_enabled():
        for store in diskcache.stores().values():
            store.clear()
