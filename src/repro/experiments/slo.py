"""SLO / tail-latency evaluation on the microservice request-graph grid.

The paper's figures rank prefetchers by IPC speedup; for cloud
microservices the ranking that matters is *per-request tail latency
under an SLO* (SLOFetch, arXiv 2511.04774): a prefetcher that trims
mean fetch stalls but leaves the occasional deep-chain request slow
loses exactly where operators look.  The functions here sweep the
microservice workload family (docs/MICROSERVICES.md) and read the
``request.*`` metrics the simulator's per-request latency tracker
publishes:

* :func:`fig18_slo_grid` — the headline grid: per (workload ×
  prefetcher), p50/p95/p99 latency, SLO attainment, and p99 normalized
  to the FDIP baseline;
* :func:`tab05_slo_summary` — per prefetcher across workloads: geomean
  p99/p50 latency reduction vs. FDIP and mean SLO-attainment delta —
  the compressed-metadata HP variant's scorecard against baseline HP;
* :func:`fig19_slo_timeline` — the windowed p99/attainment timeline of
  one run, for burst-response plots.

Everything routes through :func:`repro.experiments.sweep.sweep`, so
grids are parallel, fault-tolerant, disk-cached, and bit-identical
between serial and ``jobs=N`` runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.reporting import geomean
from repro.experiments.errors import InvalidConfigError
from repro.experiments.sweep import SweepResult, grid, sweep
from repro.workloads.microservices import MICROSERVICE_NAMES

#: The SLO comparison set: FDIP baseline (implicit), the paper's HP,
#: and the compressed-metadata variant (smaller Metadata Buffer shared
#: across services).
SLO_PREFETCHERS = ("hierarchical", "hp_compressed")

#: Metrics copied out of ``SimStats`` per grid cell.
_CELL_METRICS = ("p50", "p95", "p99", "mean", "max",
                 "slo_attainment", "count")


def _cell(result: SweepResult) -> Dict[str, float]:
    stats = result.stats
    extra = stats.extra
    cell = {m: extra.get(f"request.{m}", 0.0) for m in _CELL_METRICS}
    cell["slo_attainment"] = stats.slo_attainment
    cell["ipc"] = stats.ipc
    cell["l1i_mpki"] = stats.l1i_mpki
    return cell


def slo_sweep(
    workloads: Sequence[str] = MICROSERVICE_NAMES,
    prefetchers: Sequence[str] = SLO_PREFETCHERS,
    scale: str = "bench",
    jobs: int = 1,
    use_cache: bool = True,
    **common,
) -> Dict[str, Dict[str, SweepResult]]:
    """Run the microservice grid (FDIP baseline included) and return
    ``{workload: {prefetcher_or_'fdip': SweepResult}}``."""
    points = grid(workloads, prefetchers, include_baseline=True,
                  scale=scale, **common)
    report = sweep(points, jobs=jobs, use_cache=use_cache)
    out: Dict[str, Dict[str, SweepResult]] = {}
    for result in report:
        name = result.point.prefetcher or "fdip"
        out.setdefault(result.point.workload, {})[name] = result
    return out


# ----------------------------------------------------------------------
# Figure 18 — per-request tail latency across the microservice grid
# ----------------------------------------------------------------------
def fig18_slo_grid(
    workloads: Sequence[str] = MICROSERVICE_NAMES,
    prefetchers: Sequence[str] = SLO_PREFETCHERS,
    scale: str = "bench",
    jobs: int = 1,
    **common,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """``{workload: {prefetcher: metrics}}`` over the SLO grid.

    Per cell: request-latency percentiles (cycles), SLO attainment,
    IPC/MPKI, plus ``p99_vs_fdip`` — the cell's p99 relative to the
    workload's FDIP baseline (< 1.0 is an improvement).
    """
    raw = slo_sweep(workloads, prefetchers, scale=scale, jobs=jobs,
                    **common)
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for workload, row in raw.items():
        base = _cell(row["fdip"])
        cells: Dict[str, Dict[str, float]] = {}
        for name, result in row.items():
            cell = _cell(result)
            cell["p99_vs_fdip"] = (cell["p99"] / base["p99"]
                                   if base["p99"] else 0.0)
            cells[name] = cell
        out[workload] = cells
    return out


# ----------------------------------------------------------------------
# Table 5 — prefetcher scorecard on the SLO metrics
# ----------------------------------------------------------------------
def tab05_slo_summary(
    workloads: Sequence[str] = MICROSERVICE_NAMES,
    prefetchers: Sequence[str] = SLO_PREFETCHERS,
    scale: str = "bench",
    jobs: int = 1,
    **common,
) -> List[Tuple[str, float, float, float]]:
    """Rows of ``(prefetcher, p99_reduction, p50_reduction,
    slo_attainment_delta)`` aggregated across the workloads.

    Reductions are geomean ``1 - pXX/pXX_fdip`` (positive is better);
    the attainment delta is the mean absolute gain in SLO attainment
    over the FDIP baseline.
    """
    cells = fig18_slo_grid(workloads, prefetchers, scale=scale,
                           jobs=jobs, **common)
    rows: List[Tuple[str, float, float, float]] = []
    for name in prefetchers:
        r99, r50, dslo = [], [], []
        for workload in workloads:
            base = cells[workload]["fdip"]
            cell = cells[workload][name]
            if base["p99"]:
                r99.append(cell["p99"] / base["p99"])
            if base["p50"]:
                r50.append(cell["p50"] / base["p50"])
            dslo.append(cell["slo_attainment"] - base["slo_attainment"])
        rows.append((
            name,
            1.0 - geomean(r99) if r99 else 0.0,
            1.0 - geomean(r50) if r50 else 0.0,
            sum(dslo) / len(dslo) if dslo else 0.0,
        ))
    return rows


# ----------------------------------------------------------------------
# Figure 19 — windowed SLO timeline of one run
# ----------------------------------------------------------------------
def fig19_slo_timeline(
    workload: str,
    prefetcher: Optional[str] = "hierarchical",
    scale: str = "bench",
    **common,
) -> Dict[str, Tuple[float, ...]]:
    """The run's tumbling-window latency timeline.

    Returns the ``probe.request_p50/p95/p99/slo`` series (one value per
    window of ``request.window`` requests) — how tail latency and SLO
    attainment track the arrival bursts over the measurement window.
    """
    from repro.experiments.runner import run_prefetcher

    stats, _ = run_prefetcher(workload, prefetcher, scale=scale, **common)
    extra = stats.extra
    if "probe.request_p99" not in extra:
        raise InvalidConfigError(
            f"{workload} carries no request-latency timelines; only "
            f"microservice workloads ({MICROSERVICE_NAMES}) have an "
            "open-loop arrival process"
        )
    return {
        "window": extra["request.window"],
        "p50": extra["probe.request_p50"],
        "p95": extra["probe.request_p95"],
        "p99": extra["probe.request_p99"],
        "slo": extra["probe.request_slo"],
        "slo_threshold": extra["request.slo_threshold"],
    }
