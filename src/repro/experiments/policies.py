"""Replacement-policy × prefetcher cross-product study.

The paper evaluates every prefetcher on a fixed LRU cache/TLB
substrate; Jamet et al. (arXiv 2605.12433) show prefetched-line-aware
replacement and I-TLB prefetching act as multipliers on *any*
instruction prefetcher.  The functions here sweep the cross-product of
:data:`~repro.prefetchers.registry.PREFETCHER_NAMES` ×
:data:`~repro.memory.policies.POLICY_NAMES` and read the split
hit/eviction counters the policy refactor added:

* :func:`fig20_policy_grid` — per (workload × prefetcher × policy):
  IPC, L1-I MPKI, prefetch-hit vs demand-hit rates, unused-prefetch
  evictions, plus ``ipc_vs_lru`` normalized to the same prefetcher on
  the LRU substrate;
* :func:`tab06_policy_summary` — per (prefetcher × policy) across
  workloads: geomean IPC speedup over LRU, mean prefetch-hit rate and
  unused-prefetch evictions per kilo-instruction;
* :func:`fig21_itlb_prefetch` — the I-TLB prefetch path's miss
  reduction per workload (``core.itlb_prefetch`` off vs on).

Everything routes through :func:`repro.experiments.sweep.sweep`, so
grids are parallel, fault-tolerant, disk-cached, and bit-identical
between serial and ``jobs=N`` runs; the policy rides in each point's
``overrides`` and therefore lands in the cache key automatically.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.reporting import geomean
from repro.experiments.runner import REPRESENTATIVE_WORKLOADS
from repro.experiments.sweep import SweepResult, grid, sweep
from repro.memory.policies import POLICY_NAMES
from repro.prefetchers import PREFETCHER_NAMES

#: The cross-product's default prefetcher axis: the FDIP baseline, a
#: representative table-based prefetcher, and the paper's HP.
POLICY_PREFETCHERS = ("fdip", "eip", "hierarchical")


def policy_overrides(policy: str, itlb_prefetch: bool = False) -> dict:
    """Config overrides applying ``policy`` to the caches *and* the
    I-TLB (one knob per point keeps the cross-product square)."""
    return {
        "hierarchy.policy": policy,
        "core.itlb_policy": policy,
        "core.itlb_prefetch": itlb_prefetch,
    }


def _cell(result: SweepResult) -> Dict[str, float]:
    stats = result.stats
    instr = stats.instructions
    kilo = instr / 1000.0 if instr else 0.0
    return {
        "ipc": stats.ipc,
        "l1i_mpki": stats.l1i_mpki,
        "demand_hits": float(stats.l1i_demand_hits),
        "prefetch_hits": float(stats.l1i_prefetch_hits),
        "prefetch_hit_rate": stats.prefetch_hit_rate,
        "unused_pf_evictions": float(stats.unused_prefetch_evictions),
        "unused_pf_pki": (stats.unused_prefetch_evictions / kilo
                          if kilo else 0.0),
        "itlb_mpki": stats.itlb_mpki,
        "itlb_pf_probes": float(stats.itlb_pf_probes),
        "itlb_pf_installs": float(stats.itlb_pf_installs),
        "itlb_pf_hits": float(stats.itlb_pf_hits),
    }


def policy_sweep(
    workloads: Sequence[str] = REPRESENTATIVE_WORKLOADS,
    prefetchers: Sequence[str] = POLICY_PREFETCHERS,
    policies: Sequence[str] = POLICY_NAMES,
    scale: str = "bench",
    jobs: int = 1,
    use_cache: bool = True,
    itlb_prefetch: bool = False,
    **common,
) -> Dict[str, Dict[Tuple[str, str], SweepResult]]:
    """Run the cross-product; returns
    ``{workload: {(prefetcher, policy): SweepResult}}``.

    ``"fdip"`` names the baseline (no evaluated prefetcher): the FDIP
    points are in the grid only when ``prefetchers`` lists it, because
    the baseline changes per policy too.  An unknown prefetcher or
    policy name raises ``ValueError`` before any point is scheduled.
    """
    unknown = ([f"prefetcher {n!r}" for n in prefetchers
                if n not in PREFETCHER_NAMES]
               + [f"replacement policy {n!r}" for n in policies
                  if n not in POLICY_NAMES])
    if unknown:
        raise ValueError(f"unknown {', '.join(unknown)}")
    points = []
    for policy in policies:
        points += grid(workloads, prefetchers,
                       include_baseline="fdip" in prefetchers, scale=scale,
                       overrides=policy_overrides(policy, itlb_prefetch),
                       **common)
    report = sweep(points, jobs=jobs, use_cache=use_cache)
    out: Dict[str, Dict[Tuple[str, str], SweepResult]] = {}
    for result in report:
        point = result.point
        policy = point.overrides["hierarchy.policy"]
        key = (point.prefetcher or "fdip", policy)
        out.setdefault(point.workload, {})[key] = result
    return out


# ----------------------------------------------------------------------
# Figure 20 — the policy × prefetcher grid
# ----------------------------------------------------------------------
def fig20_policy_grid(
    workloads: Sequence[str] = REPRESENTATIVE_WORKLOADS,
    prefetchers: Sequence[str] = POLICY_PREFETCHERS,
    policies: Sequence[str] = POLICY_NAMES,
    scale: str = "bench",
    jobs: int = 1,
    **common,
) -> Dict[str, Dict[str, Dict[str, Dict[str, float]]]]:
    """``{workload: {prefetcher: {policy: metrics}}}``.

    Per cell: IPC, MPKI, the split hit counters and unused-prefetch
    evictions, plus ``ipc_vs_lru`` — the cell's IPC relative to the
    same (workload, prefetcher) on the LRU substrate (> 1.0 means the
    policy helps that prefetcher).
    """
    raw = policy_sweep(workloads, prefetchers, policies, scale=scale,
                       jobs=jobs, **common)
    out: Dict[str, Dict[str, Dict[str, Dict[str, float]]]] = {}
    for workload, row in raw.items():
        grid_row: Dict[str, Dict[str, Dict[str, float]]] = {}
        for (pf, policy), result in row.items():
            grid_row.setdefault(pf, {})[policy] = _cell(result)
        for pf, cells in grid_row.items():
            base = cells.get("lru")
            for cell in cells.values():
                cell["ipc_vs_lru"] = (cell["ipc"] / base["ipc"]
                                      if base and base["ipc"] else 0.0)
        out[workload] = grid_row
    return out


# ----------------------------------------------------------------------
# Table 6 — policy scorecard per prefetcher
# ----------------------------------------------------------------------
def tab06_policy_summary(
    workloads: Sequence[str] = REPRESENTATIVE_WORKLOADS,
    prefetchers: Sequence[str] = POLICY_PREFETCHERS,
    policies: Sequence[str] = POLICY_NAMES,
    scale: str = "bench",
    jobs: int = 1,
    **common,
) -> List[Tuple[str, str, float, float, float]]:
    """Rows of ``(prefetcher, policy, ipc_speedup_vs_lru,
    mean_prefetch_hit_rate, mean_unused_pf_pki)``.

    The speedup is the geomean of per-workload ``ipc_vs_lru``; the
    other two columns are plain means across the workloads.
    """
    cells = fig20_policy_grid(workloads, prefetchers, policies,
                              scale=scale, jobs=jobs, **common)
    rows: List[Tuple[str, str, float, float, float]] = []
    for pf in prefetchers:
        for policy in policies:
            speedups, hit_rates, unused = [], [], []
            for workload in workloads:
                cell = cells[workload][pf][policy]
                if cell["ipc_vs_lru"]:
                    speedups.append(cell["ipc_vs_lru"])
                hit_rates.append(cell["prefetch_hit_rate"])
                unused.append(cell["unused_pf_pki"])
            rows.append((
                pf,
                policy,
                geomean(speedups) if speedups else 0.0,
                sum(hit_rates) / len(hit_rates) if hit_rates else 0.0,
                sum(unused) / len(unused) if unused else 0.0,
            ))
    return rows


# ----------------------------------------------------------------------
# Figure 21 — I-TLB prefetch-path miss reduction
# ----------------------------------------------------------------------
def fig21_itlb_prefetch(
    workloads: Sequence[str] = REPRESENTATIVE_WORKLOADS,
    prefetcher: Optional[str] = "hierarchical",
    policy: str = "lru",
    scale: str = "bench",
    jobs: int = 1,
    use_cache: bool = True,
    **common,
) -> Dict[str, Dict[str, float]]:
    """Per workload: I-TLB MPKI with the prefetch path off vs on.

    ``reduction`` is the fractional miss reduction (positive when
    prefetched translations cover demand walks); ``pf_installs`` and
    ``pf_hits`` report the path's traffic and usefulness.
    """
    points = []
    for enabled in (False, True):
        points += grid(workloads, (prefetcher,),
                       include_baseline=prefetcher in (None, "fdip"),
                       scale=scale,
                       overrides=policy_overrides(policy, enabled), **common)
    report = sweep(points, jobs=jobs, use_cache=use_cache)
    by_key = {(r.point.workload,
               r.point.overrides["core.itlb_prefetch"]): r
              for r in report}
    out: Dict[str, Dict[str, float]] = {}
    for w in workloads:
        off = by_key[(w, False)].stats
        on = by_key[(w, True)].stats
        out[w] = {
            "itlb_mpki_off": off.itlb_mpki,
            "itlb_mpki_on": on.itlb_mpki,
            "reduction": (1.0 - on.itlb_misses / off.itlb_misses
                          if off.itlb_misses else 0.0),
            "pf_probes": float(on.itlb_pf_probes),
            "pf_installs": float(on.itlb_pf_installs),
            "pf_hits": float(on.itlb_pf_hits),
        }
    return out
