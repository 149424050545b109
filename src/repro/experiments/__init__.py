"""Experiment harness: one entry point per paper table/figure.

Every artifact in the paper's evaluation has a function here returning
structured results; the scripts under ``benchmarks/`` call these and
print the corresponding rows/series.  Results are cached per
(workload, scale, config, prefetcher, seed) in-process *and* in a
content-addressed on-disk store (see docs/SWEEP_CACHE.md), so figures
sharing runs pay for each simulation once — across processes, not just
within one.  ``repro.experiments.sweep`` fans independent points out
over worker processes.
"""

from repro.experiments.runner import (
    DEFAULT_WARMUP,
    REPRESENTATIVE_WORKLOADS,
    cache_key,
    clear_run_cache,
    compare_all,
    reset_run_cache_stats,
    run_baseline,
    run_cache_stats,
    run_prefetcher,
)
from repro.experiments.errors import (
    CorruptArtifactError,
    DiskFullError,
    ExperimentError,
    PointFailure,
    JournalError,
    PointTimeoutError,
    SweepInterrupted,
    TransientError,
    WorkerCrashError,
)
from repro.experiments.faults import Fault, FaultPlan
from repro.experiments.manifest import (
    GridSample,
    ManifestError,
    SweepManifest,
    load_manifest,
    parse_manifest,
)
from repro.experiments.policies import (
    POLICY_PREFETCHERS,
    fig20_policy_grid,
    fig21_itlb_prefetch,
    policy_overrides,
    policy_sweep,
    tab06_policy_summary,
)
from repro.experiments.slo import (
    SLO_PREFETCHERS,
    fig18_slo_grid,
    fig19_slo_timeline,
    slo_sweep,
    tab05_slo_summary,
)
from repro.experiments.journal import (
    RunJournal,
    grid_fingerprint,
    list_runs,
    read_run_events,
    run_sweep,
)
from repro.experiments.service import (
    JsonlEventLog,
    ShutdownRequest,
    follow_events,
    read_events,
    summarize_events,
)
from repro.experiments.sweep import (
    SweepPoint,
    SweepReport,
    SweepResult,
    grid,
    sweep,
    sweep_grid,
)

__all__ = [
    "DEFAULT_WARMUP",
    "REPRESENTATIVE_WORKLOADS",
    "cache_key",
    "run_baseline",
    "run_prefetcher",
    "run_cache_stats",
    "reset_run_cache_stats",
    "compare_all",
    "clear_run_cache",
    "ExperimentError",
    "TransientError",
    "WorkerCrashError",
    "PointTimeoutError",
    "CorruptArtifactError",
    "DiskFullError",
    "SweepInterrupted",
    "PointFailure",
    "Fault",
    "FaultPlan",
    "SweepPoint",
    "SweepResult",
    "SweepReport",
    "grid",
    "sweep",
    "sweep_grid",
    "GridSample",
    "ManifestError",
    "SweepManifest",
    "load_manifest",
    "parse_manifest",
    "JsonlEventLog",
    "ShutdownRequest",
    "read_events",
    "follow_events",
    "summarize_events",
    "JournalError",
    "RunJournal",
    "grid_fingerprint",
    "list_runs",
    "read_run_events",
    "run_sweep",
    "SLO_PREFETCHERS",
    "slo_sweep",
    "fig18_slo_grid",
    "tab05_slo_summary",
    "fig19_slo_timeline",
    "POLICY_PREFETCHERS",
    "policy_overrides",
    "policy_sweep",
    "fig20_policy_grid",
    "tab06_policy_summary",
    "fig21_itlb_prefetch",
]
