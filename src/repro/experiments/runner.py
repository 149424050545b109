"""Shared simulation runner with layered result caching.

The paper's evaluation methodology (§6.1): warm up, then measure, with
every prefetcher running on top of FDIP and compared to the plain FDIP
baseline on the same workload.  ``run_prefetcher`` handles trace
memoization, config overrides, and caching so that multi-figure
benchmarks re-use each simulation.

Caching is two-level:

* an in-process dict (``_CACHE``) keyed by the full run key, so code
  holding a result keeps getting the *same object* back;
* a content-addressed on-disk store (:mod:`repro.experiments.diskcache`)
  keyed by SHA-256 of the same key, so fresh processes — a second
  benchmark invocation, or the workers of a parallel
  :func:`repro.experiments.sweep.sweep` — skip finished simulations.

The key includes every input that can change the result: workload,
scale, prefetcher and its kwargs, config overrides, miss tracking,
warmup fraction, trace seed, and a fingerprint of the default
:class:`~repro.cpu.config.MachineConfig`, the payload schema version
and the simulator's source code (:func:`code_hash`), so cached results
are invalidated when the model, the serialization format or the code
changes.

Traces get the same treatment: :func:`get_trace` puts a nested on-disk
trace store (``<cache>/traces``) behind the in-process trace memo, so
each worker of a cold sweep loads a trace some earlier point built
instead of rebuilding the application.  It also keeps the front end's
branch-prediction pass, once per (trace, BPU configuration).
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
from repro.prefetchers import make_prefetcher
from repro.workloads import cache as workload_cache
from repro.workloads.trace import Trace

__all__ = [
    "DEFAULT_WARMUP",  # re-exported from repro.cpu.config (the source)
    "REPRESENTATIVE_WORKLOADS", "RunCacheStats", "cache_key",
    "code_hash", "trace_key", "pass_key", "get_trace",
    "run_prefetcher", "run_baseline", "compare_all",
    "perfect_l1i_speedup", "run_cache_stats", "reset_run_cache_stats",
    "record_source", "seed_cache", "peek_cached", "clear_run_cache",
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


def _key(workload: str, scale: str, prefetcher: Optional[str],
         pf_kwargs: Optional[dict], overrides: Optional[dict],
         track: bool, warmup: float, seed: int) -> str:
    def encode(obj):
        return json.dumps(obj, sort_keys=True, default=str) if obj else ""
    return "|".join([
        workload, scale, prefetcher or "fdip", encode(pf_kwargs),
        encode(overrides), "t" if track else "", f"{warmup}",
        f"s{seed}", _config_fingerprint(),
    ])


def _warmup_key(workload: str, scale: str, prefetcher: Optional[str],
                pf_kwargs: Optional[dict], overrides: Optional[dict],
                warmup: float, seed: int) -> str:
    """Checkpoint key for the post-warmup machine snapshot.

    Deliberately excludes ``track_block_misses``: the L2 miss map is
    observability bookkeeping that is cleared at measurement start, so
    runs that differ only in tracking share one warmup checkpoint —
    which is exactly what lets a tracked re-run of an untracked point
    skip its warmup.
    """
    def encode(obj):
        return json.dumps(obj, sort_keys=True, default=str) if obj else ""
    return "|".join([
        "warmup", workload, scale, prefetcher or "fdip", encode(pf_kwargs),
        encode(overrides), f"{warmup}", f"s{seed}", _config_fingerprint(),
    ])


def trace_key(workload: str, scale: str, seed: int) -> str:
    """Trace-store key: a trace depends on its generator's code, not on
    the machine configuration."""
    return f"trace|{workload}|{scale}|s{seed}|{code_hash()[:12]}"


def pass_key(workload: str, scale: str, seed: int, bpu: tuple) -> str:
    """Trace-store key of the prediction pass over a trace under the
    BPU configuration ``bpu`` (``FrontEndParams.bpu_key``)."""
    return "|".join(["bpu", trace_key(workload, scale, seed),
                     *map(str, bpu)])


def cache_key(
    workload: str,
    prefetcher: Optional[str],
    scale: str = "bench",
    pf_kwargs: Optional[dict] = None,
    overrides: Optional[dict] = None,
    track_block_misses: bool = False,
    warmup: float = DEFAULT_WARMUP,
    seed: int = 1,
) -> str:
    """Public form of the run key (same signature as run_prefetcher)."""
    return _key(workload, scale, prefetcher, pf_kwargs, overrides,
                track_block_misses, warmup, seed)


# ----------------------------------------------------------------------
# Cache observability
# ----------------------------------------------------------------------
@dataclasses.dataclass
class RunCacheStats:
    """Where results came from since the last reset (observability for
    the sweep engine and the zero-resimulation acceptance tests)."""

    memory_hits: int = 0
    disk_hits: int = 0
    simulations: int = 0
    disk_writes: int = 0
    #: Simulations that restored a warmup checkpoint instead of
    #: re-running the warmup window.
    warmup_hits: int = 0
    warmup_writes: int = 0
    #: Warmup checkpoints that loaded from disk but that ``resume``
    #: rejected (a stale or mismatched machine layout); the point
    #: re-ran its warmup cold.
    warmup_fallbacks: int = 0
    #: On-disk entries (results or warmup checkpoints) that failed
    #: checksum/decode validation and were quarantined (see
    #: docs/RESILIENCE.md), plus result payloads that passed those
    #: checks but would not decode; each one degrades to a miss, never
    #: a crash.
    cache_corrupt: int = 0
    #: Cache writes refused by the disk-space guard (the volume was
    #: nearly full); the result still flows, it just is not persisted.
    write_refusals: int = 0
    #: Traces loaded from the on-disk trace store instead of built.
    trace_hits: int = 0
    trace_writes: int = 0
    #: Branch-prediction passes loaded from the trace store instead of
    #: run, and passes written to it.
    pass_hits: int = 0
    pass_writes: int = 0

    @property
    def lookups(self) -> int:
        return self.memory_hits + self.disk_hits + self.simulations


_STATS = RunCacheStats()


def _count_corruption(error: diskcache.CorruptArtifactError) -> None:
    from repro.experiments.errors import DiskFullError

    if isinstance(error, DiskFullError):
        _STATS.write_refusals += 1
    else:
        _STATS.cache_corrupt += 1


diskcache.add_corruption_listener(_count_corruption)


def run_cache_stats() -> RunCacheStats:
    """Snapshot of the hit/miss counters."""
    return dataclasses.replace(_STATS)


def reset_run_cache_stats() -> None:
    global _STATS
    _STATS = RunCacheStats()


def record_source(source: str) -> None:
    """Count a result resolved outside ``run_prefetcher`` (the sweep
    engine's parent-side cache probes and pool workers) so
    :func:`run_cache_stats` reflects work done on this process's
    behalf."""
    if source == "sim":
        _STATS.simulations += 1
    elif source == "disk":
        _STATS.disk_hits += 1
    else:
        _STATS.memory_hits += 1


# ----------------------------------------------------------------------
# Disk layer
# ----------------------------------------------------------------------
def _disk_load(key: str) -> Optional[Tuple[SimStats, Optional[dict]]]:
    if not diskcache.disk_cache_enabled():
        return None
    payload = diskcache.get_cache().get(key)
    if payload is None:
        return None
    try:
        if payload.get("schema") != diskcache.SCHEMA_VERSION:
            return None
        if payload.get("key") != key:  # digest collision / moved file
            return None
        stats = SimStats.from_state(payload["stats"])
        miss_map = payload.get("miss_map")
        if miss_map is not None:
            miss_map = dict(miss_map)
    except Exception:
        # The key carries the code hash, so a payload stored under it
        # that will not decode is malformed, not stale: count it and
        # re-simulate.
        _STATS.cache_corrupt += 1
        return None
    return stats, miss_map


def _disk_store(key: str, stats: SimStats,
                miss_map: Optional[dict]) -> None:
    if not diskcache.disk_cache_enabled():
        return
    payload = {
        "schema": diskcache.SCHEMA_VERSION,
        "key": key,
        "stats": stats.state_dict(),
        "miss_map": dict(miss_map) if miss_map is not None else None,
    }
    diskcache.get_cache().put(key, payload)
    _STATS.disk_writes += 1


def seed_cache(key: str, stats: SimStats,
               miss_map: Optional[dict]) -> None:
    """Install an externally computed result (parallel sweep workers)
    into the in-process cache."""
    _CACHE[key] = (stats, miss_map)


def peek_cached(key: str) -> Optional[Tuple[SimStats, Optional[dict], str]]:
    """Probe both cache layers for ``key`` without ever simulating.

    Returns ``(stats, miss_map, source)`` with source ``"memory"`` or
    ``"disk"`` (disk hits are promoted into the in-process layer), or
    None on a miss.  This is the supported cross-module probe — the
    sweep engine uses it to resolve warm points in the parent process
    without reaching into the runner's private cache dict.
    """
    cached = _CACHE.get(key)
    if cached is not None:
        return cached[0], cached[1], "memory"
    loaded = _disk_load(key)
    if loaded is not None:
        _CACHE[key] = loaded
        return loaded[0], loaded[1], "disk"
    return None


# ----------------------------------------------------------------------
# Warmup checkpoints
# ----------------------------------------------------------------------
def _warmup_load(wkey: str) -> Optional[dict]:
    """Load a post-warmup machine snapshot, or None."""
    if not diskcache.disk_cache_enabled():
        return None
    payload = diskcache.get_warmup_cache().get(wkey)
    if payload is None:
        return None
    if payload.get("schema") != diskcache.SCHEMA_VERSION:
        return None
    if payload.get("key") != wkey:
        return None
    state = payload.get("state")
    return state if isinstance(state, dict) else None


def _warmup_store(wkey: str, state: dict) -> None:
    if not diskcache.disk_cache_enabled():
        return
    payload = {
        "schema": diskcache.SCHEMA_VERSION,
        "key": wkey,
        "state": state,
    }
    diskcache.get_warmup_cache().put(wkey, payload)
    _STATS.warmup_writes += 1


# ----------------------------------------------------------------------
# Trace store
# ----------------------------------------------------------------------
class _DiskTraceStore:
    """The :class:`~repro.workloads.cache.TraceStore` at
    ``<cache>/traces``, validated like the result store."""

    def load(self, name: str, scale: str, seed: int) -> Optional[Trace]:
        key = trace_key(name, scale, seed)
        payload = diskcache.get_trace_cache().get(key)
        if payload is None:
            return None
        if payload.get("schema") != diskcache.SCHEMA_VERSION:
            return None
        if payload.get("key") != key:
            return None
        try:
            trace = Trace.from_payload(payload["trace"])
        except (KeyError, TypeError, ValueError):
            return None  # stale or malformed payload: rebuild
        _STATS.trace_hits += 1
        return trace

    def save(self, name: str, scale: str, seed: int, trace: Trace) -> None:
        key = trace_key(name, scale, seed)
        payload = {
            "schema": diskcache.SCHEMA_VERSION,
            "key": key,
            "trace": trace.to_payload(),
        }
        diskcache.get_trace_cache().put(key, payload)
        _STATS.trace_writes += 1


_TRACE_STORE = _DiskTraceStore()


def _pass_load(key: str, trace: Trace) -> Optional[tuple]:
    """The stored prediction pass over ``trace``, or None.  A payload
    that passed the checksum but does not fit the trace counts as
    corrupt."""
    payload = diskcache.get_trace_cache().get(key)
    if payload is None:
        return None
    if (payload.get("schema") != diskcache.SCHEMA_VERSION
            or payload.get("key") != key):
        return None
    events = payload.get("events")
    units = payload.get("units")
    if not (isinstance(events, bytes) and len(events) == len(trace)
            and isinstance(units, dict)):
        _STATS.cache_corrupt += 1
        return None
    _STATS.pass_hits += 1
    return events, units


def _pass_store(key: str, done: tuple) -> None:
    diskcache.get_trace_cache().put(key, {
        "schema": diskcache.SCHEMA_VERSION, "key": key,
        "events": done[0], "units": done[1]})
    _STATS.pass_writes += 1


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
    """Simulate ``workload`` under ``prefetcher``; returns
    ``(stats, l2_miss_map)`` — the map is None unless
    ``track_block_misses``.  Results are cached in-process and (unless
    disabled) on disk; ``use_cache=False`` neither reads nor writes
    either layer.
    """
    key = _key(workload, scale, prefetcher, pf_kwargs, overrides,
               track_block_misses, warmup, seed)
    if use_cache:
        cached = _CACHE.get(key)
        if cached is not None:
            _STATS.memory_hits += 1
            return cached
        loaded = _disk_load(key)
        if loaded is not None:
            _STATS.disk_hits += 1
            _CACHE[key] = loaded
            return loaded
    trace = get_trace(workload, scale=scale, seed=seed, use_cache=use_cache)
    config = MachineConfig()
    if overrides:
        config = config.replace(**overrides)
    # The prediction pass: from the trace, else the trace store, else
    # run by bind() below and then stored.
    bpu = config.frontend.bpu_key
    pkey = None
    if (use_cache and diskcache.disk_cache_enabled()
            and bpu not in trace.bpu_passes):
        pkey = pass_key(workload, scale, seed, bpu)
        done = _pass_load(pkey, trace)
        if done is not None:
            trace.bpu_passes[bpu] = done
            pkey = None
    from repro.cpu.simulator import FrontEndSimulator

    def build_sim() -> FrontEndSimulator:
        pf = (
            make_prefetcher(prefetcher, **(pf_kwargs or {}))
            if prefetcher else None
        )
        return FrontEndSimulator(
            config=config, prefetcher=pf,
            track_block_misses=track_block_misses,
        )

    sim = build_sim()
    resumed = False
    wkey = None
    if use_cache:
        wkey = _warmup_key(workload, scale, prefetcher, pf_kwargs,
                           overrides, warmup, seed)
        state = _warmup_load(wkey)
        if state is not None:
            try:
                sim.resume(trace, state)
                resumed = True
                _STATS.warmup_hits += 1
            except Exception:
                # Stale, mismatched, or corrupted checkpoint — whatever
                # the load_state_dict path raised, a partial load may
                # have corrupted the machine, so fall back to a cold
                # warmup on a fresh simulator.  A checkpoint is an
                # accelerator; it must never change (or abort) results.
                _STATS.warmup_fallbacks += 1
                sim = build_sim()
    if not resumed:
        sim.warmup(trace, warmup_fraction=warmup)
        if use_cache:
            _warmup_store(wkey, sim.state_dict())
    if pkey is not None:
        _pass_store(pkey, trace.bpu_passes[bpu])
    stats = sim.measure()
    miss_map = (
        dict(sim.hierarchy.l2_miss_map) if track_block_misses else None
    )
    _STATS.simulations += 1
    result = (stats, miss_map)
    if use_cache:
        _CACHE[key] = result
        _disk_store(key, stats, miss_map)
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
    return run_prefetcher(
        workload, None, scale=scale, overrides=overrides,
        track_block_misses=track_block_misses, warmup=warmup,
        seed=seed, use_cache=use_cache,
    )


def compare_all(
    workload: str,
    prefetchers: Sequence[str] = ("efetch", "mana", "eip", "hierarchical"),
    scale: str = "bench",
    overrides: Optional[dict] = None,
    jobs: int = 1,
) -> Dict[str, PrefetchReport]:
    """Run the named prefetchers against the FDIP baseline.

    With ``jobs > 1`` the points fan out over a process pool via the
    sweep engine (uncached points simulate concurrently).
    """
    if jobs > 1:
        from repro.experiments.sweep import SweepPoint, sweep

        points = [SweepPoint(workload, None, scale=scale,
                             overrides=overrides)]
        points += [
            SweepPoint(workload, name, scale=scale, overrides=overrides)
            for name in prefetchers
        ]
        sweep(points, jobs=jobs, progress=None)
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
    """Drop all cached simulation results (in-process; plus the on-disk
    result, warmup-checkpoint and trace stores when ``disk=True``)."""
    _CACHE.clear()
    if disk and diskcache.disk_cache_enabled():
        diskcache.get_cache().clear()
        diskcache.get_warmup_cache().clear()
        diskcache.get_trace_cache().clear()
