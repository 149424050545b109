"""One function per paper figure (motivation §3 and evaluation §7).

Each returns plain data structures; the scripts under ``benchmarks/``
print them as the paper's rows/series.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.footprints import stage_footprints
from repro.analysis.jaccard import trigger_footprint_similarity
from repro.analysis.longrange import (
    long_range_blocks,
    long_range_miss_elimination,
)
from repro.analysis.metrics import compare_run, latency_reduction, speedup
from repro.analysis.reporting import geomean
from repro.experiments.runner import (
    DEFAULT_WARMUP,
    REPRESENTATIVE_WORKLOADS,
    get_trace,
    perfect_l1i_speedup,
    run_baseline,
    run_prefetcher,
)
from repro.prefetchers import PAPER_PREFETCHERS as PREFETCHERS
from repro.workloads.suite import WORKLOAD_NAMES


def _mean_speedup(prefetcher: str, workloads: Sequence[str], scale: str,
                  pf_kwargs: Optional[dict] = None,
                  overrides: Optional[dict] = None) -> float:
    ratios = []
    for w in workloads:
        base, _ = run_baseline(w, scale=scale, overrides=overrides)
        stats, _ = run_prefetcher(w, prefetcher, scale=scale,
                                  pf_kwargs=pf_kwargs, overrides=overrides)
        ratios.append(stats.ipc / base.ipc)
    return geomean(ratios) - 1.0


# ----------------------------------------------------------------------
# Figure 1 — stage footprints of a TiDB-like workload
# ----------------------------------------------------------------------
def fig01_stage_footprints(workload: str = "tidb_tpcc",
                           scale: str = "bench") -> Dict[str, float]:
    """Average per-stage instruction footprint in KB."""
    trace = get_trace(workload, scale=scale)
    return stage_footprints(trace)


# ----------------------------------------------------------------------
# Figure 2 — look-ahead sensitivity of the fine-grained prefetchers
# ----------------------------------------------------------------------
def fig02_mana_lookahead(
    lookaheads: Sequence[int] = (1, 2, 3, 4, 6, 8),
    workloads: Sequence[str] = REPRESENTATIVE_WORKLOADS,
    scale: str = "bench",
) -> List[Tuple[int, float, float]]:
    """(lookahead, mean accuracy, mean coverage) per point (Fig. 2a)."""
    out = []
    for la in lookaheads:
        accs, covs = [], []
        for w in workloads:
            base, _ = run_baseline(w, scale=scale)
            stats, _ = run_prefetcher(w, "mana", scale=scale,
                                      pf_kwargs={"lookahead": la})
            report = compare_run("mana", stats, base)
            accs.append(report.accuracy)
            covs.append(report.coverage_l1)
        out.append((la, sum(accs) / len(accs), sum(covs) / len(covs)))
    return out


def fig02_efetch_lookahead(
    lookaheads: Sequence[int] = (1, 2, 3, 5, 7, 10),
    workloads: Sequence[str] = REPRESENTATIVE_WORKLOADS,
    scale: str = "bench",
) -> List[Tuple[int, float, float]]:
    """(lookahead, mean accuracy, mean coverage) per point (Fig. 2b)."""
    out = []
    for la in lookaheads:
        accs, covs = [], []
        for w in workloads:
            base, _ = run_baseline(w, scale=scale)
            stats, _ = run_prefetcher(w, "efetch", scale=scale,
                                      pf_kwargs={"lookahead": la})
            report = compare_run("efetch", stats, base)
            accs.append(report.accuracy)
            covs.append(report.coverage_l1)
        out.append((la, sum(accs) / len(accs), sum(covs) / len(covs)))
    return out


def fig02_eip_distance_accuracy(
    workloads: Sequence[str] = REPRESENTATIVE_WORKLOADS,
    scale: str = "bench",
    buckets: Sequence[int] = (4, 8, 16, 32, 64, 128),
) -> List[Tuple[int, float]]:
    """EIP accuracy bucketed by prefetch distance (Fig. 2c).

    EIP has no look-ahead knob; its issued prefetches are grouped by
    trigger-to-use distance.  We approximate the bucketed accuracy by
    sweeping the latency slack (larger slack = earlier trigger = larger
    distance) and reporting (avg distance, accuracy) pairs.
    """
    out = []
    for slack in (5, 15, 30, 60, 120, 240):
        accs, dists = [], []
        for w in workloads:
            stats, _ = run_prefetcher(w, "eip", scale=scale,
                                      pf_kwargs={"latency_slack": slack})
            accs.append(stats.accuracy(2))
            dists.append(stats.avg_distance(2))
        out.append((sum(dists) / len(dists), sum(accs) / len(accs)))
    return out


# ----------------------------------------------------------------------
# Figure 3 — accuracy/coverage vs. average prefetch distance
# ----------------------------------------------------------------------
def fig03_distance_tradeoff(
    workloads: Sequence[str] = REPRESENTATIVE_WORKLOADS,
    scale: str = "bench",
) -> Dict[str, Tuple[float, float, float]]:
    """prefetcher -> (avg distance, accuracy, coverage)."""
    out: Dict[str, Tuple[float, float, float]] = {}
    for name in ("efetch", "mana", "eip"):
        dists, accs, covs = [], [], []
        for w in workloads:
            base, _ = run_baseline(w, scale=scale)
            stats, _ = run_prefetcher(w, name, scale=scale)
            report = compare_run(name, stats, base)
            dists.append(report.avg_distance)
            accs.append(report.accuracy)
            covs.append(report.coverage_l1)
        n = len(workloads)
        out[name] = (sum(dists) / n, sum(accs) / n, sum(covs) / n)
    return out


# ----------------------------------------------------------------------
# Figure 4 — trigger-footprint Jaccard similarity
# ----------------------------------------------------------------------
def fig04_trigger_jaccard(
    footprint_sizes: Sequence[int] = (16, 32, 64, 128, 256, 512),
    workloads: Sequence[str] = REPRESENTATIVE_WORKLOADS,
    scale: str = "bench",
) -> Dict[str, List[float]]:
    """model -> similarity per footprint size."""
    out: Dict[str, List[float]] = {}
    for model in ("efetch", "mana", "eip"):
        series = []
        for size in footprint_sizes:
            values = [
                trigger_footprint_similarity(
                    get_trace(w, scale=scale), model, size
                )
                for w in workloads
            ]
            series.append(sum(values) / len(values))
        out[model] = series
    return out


# ----------------------------------------------------------------------
# Figure 9 — IPC speedups over FDIP (plus §7.1's Perfect L1-I)
# ----------------------------------------------------------------------
def fig09_speedups(
    workloads: Sequence[str] = WORKLOAD_NAMES,
    scale: str = "bench",
) -> Dict[str, Dict[str, float]]:
    """workload -> {prefetcher: speedup, 'perfect_l1i': headroom}."""
    out: Dict[str, Dict[str, float]] = {}
    for w in workloads:
        base, _ = run_baseline(w, scale=scale)
        row: Dict[str, float] = {}
        for name in PREFETCHERS:
            stats, _ = run_prefetcher(w, name, scale=scale)
            row[name] = speedup(stats, base)
        row["perfect_l1i"] = perfect_l1i_speedup(w, scale=scale)
        out[w] = row
    return out


# ----------------------------------------------------------------------
# Figure 10 — late prefetches
# ----------------------------------------------------------------------
def fig10_late_prefetches(
    workloads: Sequence[str] = WORKLOAD_NAMES,
    scale: str = "bench",
) -> Dict[str, Dict[str, float]]:
    """workload -> {prefetcher: late fraction of useful prefetches}."""
    out: Dict[str, Dict[str, float]] = {}
    for w in workloads:
        row = {}
        for name in PREFETCHERS:
            stats, _ = run_prefetcher(w, name, scale=scale)
            row[name] = stats.late_fraction(2)
        out[w] = row
    return out


# ----------------------------------------------------------------------
# Figure 11 — instruction miss latency by serving level
# ----------------------------------------------------------------------
def fig11_miss_latency(
    workloads: Sequence[str] = WORKLOAD_NAMES,
    scale: str = "bench",
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """workload -> prefetcher -> exposed latency by level, normalized to
    the workload's FDIP baseline total."""
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for w in workloads:
        base, _ = run_baseline(w, scale=scale)
        base_total = base.total_exposed_latency() or 1.0
        rows: Dict[str, Dict[str, float]] = {
            "fdip": {
                k: v / base_total for k, v in base.exposed_latency.items()
            }
        }
        for name in PREFETCHERS:
            stats, _ = run_prefetcher(w, name, scale=scale)
            rows[name] = {
                k: v / base_total for k, v in stats.exposed_latency.items()
            }
        out[w] = rows
    return out


# ----------------------------------------------------------------------
# Figure 12 — long-range L2 miss elimination
# ----------------------------------------------------------------------
def fig12_long_range(
    workloads: Sequence[str] = WORKLOAD_NAMES,
    scale: str = "bench",
    fraction: float = 0.10,
) -> Dict[str, Dict[str, float]]:
    """workload -> {prefetcher: fraction of long-range L2 misses
    eliminated over FDIP}."""
    out: Dict[str, Dict[str, float]] = {}
    for w in workloads:
        trace = get_trace(w, scale=scale)
        start = int(len(trace) * DEFAULT_WARMUP)
        blocks = long_range_blocks(trace, fraction=fraction, start=start)
        _, base_map = run_baseline(w, scale=scale, track_block_misses=True)
        row = {}
        for name in PREFETCHERS:
            _, pf_map = run_prefetcher(
                w, name, scale=scale, track_block_misses=True
            )
            row[name] = long_range_miss_elimination(
                base_map or {}, pf_map or {}, blocks
            )
        out[w] = row
    return out


# ----------------------------------------------------------------------
# Figure 13 — Metadata Address Table / Metadata Buffer sensitivity
# ----------------------------------------------------------------------
def fig13_metadata_sensitivity(
    mat_sizes: Sequence[int] = (64, 128, 256, 512, 1024),
    buffer_kb: Sequence[int] = (64, 128, 256, 512, 1024),
    workloads: Sequence[str] = REPRESENTATIVE_WORKLOADS,
    scale: str = "bench",
) -> Dict[str, List[Tuple[int, float]]]:
    """{'mat': [(entries, mean speedup)...], 'buffer': [(KB, ...)]}."""
    mat_series = [
        (n, _mean_speedup("hierarchical", workloads, scale,
                          pf_kwargs={"config": {"mat_entries": n}}))
        for n in mat_sizes
    ]
    buf_series = [
        (kb, _mean_speedup(
            "hierarchical", workloads, scale,
            pf_kwargs={"config": {"metadata_buffer_bytes": kb * 1024}}))
        for kb in buffer_kb
    ]
    return {"mat": mat_series, "buffer": buf_series}


# ----------------------------------------------------------------------
# Figure 14 — infinite BTB
# ----------------------------------------------------------------------
def fig14_infinite_btb(
    workloads: Sequence[str] = WORKLOAD_NAMES,
    scale: str = "bench",
) -> Dict[str, Dict[str, float]]:
    """workload -> {prefetcher: speedup over FDIP-with-infinite-BTB}."""
    overrides = {"frontend.btb_entries": None}
    out: Dict[str, Dict[str, float]] = {}
    for w in workloads:
        base, _ = run_baseline(w, scale=scale, overrides=overrides)
        row = {}
        for name in PREFETCHERS:
            stats, _ = run_prefetcher(w, name, scale=scale,
                                      overrides=overrides)
            row[name] = speedup(stats, base)
        out[w] = row
    return out


# ----------------------------------------------------------------------
# Figure 15 — FTQ size and I-TLB size
# ----------------------------------------------------------------------
def fig15_ftq(
    sizes: Sequence[int] = (8, 16, 24, 32, 48, 64),
    workloads: Sequence[str] = REPRESENTATIVE_WORKLOADS,
    scale: str = "bench",
) -> List[Tuple[int, float]]:
    """(FTQ entries, mean FDIP IPC normalized to the 24-entry config)."""
    ref = None
    out = []
    for size in sizes:
        ipcs = []
        for w in workloads:
            stats, _ = run_baseline(
                w, scale=scale, overrides={"frontend.ftq_entries": size}
            )
            ipcs.append(stats.ipc)
        mean_ipc = sum(ipcs) / len(ipcs)
        out.append((size, mean_ipc))
    ref = dict(out).get(24) or out[0][1]
    return [(size, ipc / ref) for size, ipc in out]


def fig15_itlb(
    sizes: Sequence[int] = (32, 64, 128, 256),
    workloads: Sequence[str] = REPRESENTATIVE_WORKLOADS,
    scale: str = "bench",
) -> List[Tuple[int, float, float]]:
    """(ITLB entries, mean FDIP IPC, mean HP IPC)."""
    out = []
    for size in sizes:
        base_ipcs, hp_ipcs = [], []
        overrides = {"core.itlb_entries": size}
        for w in workloads:
            base, _ = run_baseline(w, scale=scale, overrides=overrides)
            hp, _ = run_prefetcher(w, "hierarchical", scale=scale,
                                   overrides=overrides)
            base_ipcs.append(base.ipc)
            hp_ipcs.append(hp.ipc)
        out.append((size, sum(base_ipcs) / len(base_ipcs),
                    sum(hp_ipcs) / len(hp_ipcs)))
    return out


# ----------------------------------------------------------------------
# Figure 16 — memory bandwidth overhead
# ----------------------------------------------------------------------
def fig16_bandwidth(
    workloads: Sequence[str] = WORKLOAD_NAMES,
    scale: str = "bench",
) -> Dict[str, Dict[str, float]]:
    """workload -> {'overhead': HP memory traffic normalized to the
    baseline, 'metadata_fraction': share of the extra traffic due to
    metadata reads/writes}.

    Memory traffic counts all memory-side accesses (fills crossing the
    L2<->uncore boundary plus metadata), matching Figure 16's "all
    memory accesses" definition — our data side is not modelled, so
    DRAM-only traffic would be degenerate at this scale.
    """
    out: Dict[str, Dict[str, float]] = {}
    for w in workloads:
        base, _ = run_baseline(w, scale=scale)
        hp, _ = run_prefetcher(w, "hierarchical", scale=scale)
        base_bytes = base.memory_traffic_bytes or 1
        extra = hp.memory_traffic_bytes - base.memory_traffic_bytes
        metadata = hp.metadata_bytes
        out[w] = {
            "overhead": hp.memory_traffic_bytes / base_bytes - 1.0,
            "metadata_fraction": (
                min(1.0, metadata / extra) if extra > 0 else 0.0
            ),
        }
    return out


# ----------------------------------------------------------------------
# Figure 17 — prefetching into the L2
# ----------------------------------------------------------------------
def fig17_l2_prefetch(
    workloads: Sequence[str] = WORKLOAD_NAMES,
    scale: str = "bench",
) -> Dict[str, Dict[str, float]]:
    """workload -> {'l1': HP-to-L1 speedup, 'l2': HP-to-L2 speedup}."""
    out: Dict[str, Dict[str, float]] = {}
    for w in workloads:
        base, _ = run_baseline(w, scale=scale)
        l1, _ = run_prefetcher(w, "hierarchical", scale=scale)
        l2, _ = run_prefetcher(
            w, "hierarchical", scale=scale,
            pf_kwargs={"config": {"target_level": "l2"}},
        )
        out[w] = {"l1": speedup(l1, base), "l2": speedup(l2, base)}
    return out


def fig11_latency_reduction(
    workloads: Sequence[str] = WORKLOAD_NAMES, scale: str = "bench"
) -> Dict[str, Dict[str, float]]:
    """workload -> {prefetcher: fraction of FDIP miss latency removed}."""
    out: Dict[str, Dict[str, float]] = {}
    for w in workloads:
        base, _ = run_baseline(w, scale=scale)
        row = {}
        for name in PREFETCHERS:
            stats, _ = run_prefetcher(w, name, scale=scale)
            row[name] = latency_reduction(stats, base)
        out[w] = row
    return out
