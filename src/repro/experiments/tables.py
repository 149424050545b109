"""Table experiments (Tables 2-4 of the paper)."""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.analysis.jaccard import bundle_similarity
from repro.analysis.metrics import compare_run
from repro.core.bundles import identify_bundles
from repro.experiments.runner import (
    REPRESENTATIVE_WORKLOADS,
    get_trace,
    run_baseline,
    run_prefetcher,
)
from repro.prefetchers import PAPER_PREFETCHERS as PREFETCHERS
from repro.workloads.cache import get_application
from repro.workloads.suite import WORKLOAD_NAMES


# ----------------------------------------------------------------------
# Table 2 — average distance / accuracy / coverage
# ----------------------------------------------------------------------
def tab02_distance_accuracy_coverage(
    workloads: Sequence[str] = WORKLOAD_NAMES,
    scale: str = "bench",
) -> Dict[str, Dict[str, float]]:
    """prefetcher -> mean {distance, accuracy, coverage_l1, coverage_l2}."""
    out: Dict[str, Dict[str, float]] = {}
    for name in PREFETCHERS:
        rows = []
        for w in workloads:
            base, _ = run_baseline(w, scale=scale)
            stats, _ = run_prefetcher(w, name, scale=scale)
            rows.append(compare_run(name, stats, base))
        n = len(rows)
        out[name] = {
            "distance": sum(r.avg_distance for r in rows) / n,
            "accuracy": sum(r.accuracy for r in rows) / n,
            "coverage_l1": sum(r.coverage_l1 for r in rows) / n,
            "coverage_l2": sum(r.coverage_l2 for r in rows) / n,
        }
    return out


# ----------------------------------------------------------------------
# Table 3 — L1-I size sensitivity
# ----------------------------------------------------------------------
def tab03_l1i_sensitivity(
    sizes_kb: Sequence[int] = (32, 64, 128, 256),
    workloads: Sequence[str] = REPRESENTATIVE_WORKLOADS,
    scale: str = "bench",
) -> List[Dict[str, object]]:
    """Rows of {prefetcher, l1i_kb, accuracy, coverage, speedup}."""
    rows: List[Dict[str, object]] = []
    for name in PREFETCHERS:
        for kb in sizes_kb:
            overrides = {"hierarchy.l1i_bytes": kb * 1024}
            accs, covs, ratios = [], [], []
            for w in workloads:
                base, _ = run_baseline(w, scale=scale, overrides=overrides)
                stats, _ = run_prefetcher(w, name, scale=scale,
                                          overrides=overrides)
                report = compare_run(name, stats, base)
                accs.append(report.accuracy)
                covs.append(report.coverage_l1)
                ratios.append(stats.ipc / base.ipc)
            n = len(workloads)
            rows.append({
                "prefetcher": name,
                "l1i_kb": kb,
                "accuracy": sum(accs) / n,
                "coverage": sum(covs) / n,
                "speedup": sum(ratios) / n - 1.0,
            })
    return rows


# ----------------------------------------------------------------------
# Table 4 — Bundle statistics
# ----------------------------------------------------------------------
def tab04_bundle_stats(
    workloads: Sequence[str] = (
        "beego", "caddy", "dgraph", "echo", "gin", "gorm",
        "mysql_sysbench", "tidb_tpcc",
    ),
    scale: str = "bench",
) -> Dict[str, Dict[str, float]]:
    """workload -> static + dynamic Bundle statistics (Table 4 rows).

    Static: total functions, static bundle count, bundle fraction (from
    Algorithm 1 over the binary).  Dynamic: average recorded footprint,
    execution cycles (from an HP run with bundle tracking) and the
    consecutive-execution Jaccard (trace analysis).
    """
    out: Dict[str, Dict[str, float]] = {}
    for w in workloads:
        app = get_application(w)
        info = identify_bundles(app.binary, app.params.bundle_threshold)
        stats, _ = run_prefetcher(
            w, "hierarchical", scale=scale,
            pf_kwargs={"config": {"track_bundles": True}},
        )
        trace = get_trace(w, scale=scale)
        sim_stats = bundle_similarity(trace)
        out[w] = {
            "static_bundles": info.n_bundles,
            "total_functions": info.n_functions,
            "bundle_fraction": info.bundle_fraction,
            "avg_footprint_kb": stats.extra.get(
                "hp_avg_footprint_kb", sim_stats["avg_footprint_kb"]
            ),
            "avg_exec_cycles": stats.extra.get("hp_avg_exec_cycles", 0.0),
            "avg_jaccard": sim_stats["avg_jaccard"],
        }
    return out
