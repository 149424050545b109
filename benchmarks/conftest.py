"""Benchmark configuration.

Every benchmark regenerates one paper artifact and prints the same
rows/series the paper reports (through ``capfd.disabled()`` so the
output survives pytest's capture).  The workload scale is controlled by
``REPRO_SCALE`` (tiny / bench / full; default bench).

Simulation results flow through the layered cache in
``repro.experiments.runner``: benchmarks sharing runs (Figures 9-11,
Table 2, ...) pay for each simulation once per *disk cache lifetime*,
not once per process — a second benchmark invocation re-simulates
nothing (see docs/SWEEP_CACHE.md; root overridable with
``REPRO_CACHE_DIR``, disable with ``REPRO_DISK_CACHE=0``).  Set
``REPRO_JOBS=N`` to pre-warm the standard evaluation grid over N
worker processes before the (serial) benchmarks start.
"""

import os

import pytest


@pytest.fixture(scope="session")
def scale() -> str:
    value = os.environ.get("REPRO_SCALE", "bench")
    if value not in ("tiny", "bench", "full"):
        raise ValueError(f"REPRO_SCALE must be tiny/bench/full, got {value}")
    return value


@pytest.fixture(scope="session", autouse=True)
def _sim_cache(scale):
    """Pre-warm the grid in parallel (opt-in) and report cache traffic.

    The standard grid covers what Figures 9-12 and Tables 2-3 need:
    every workload under the FDIP baseline, the comparison prefetchers,
    and the perfect-L1I headroom config.  Points already on disk are
    skipped, so a warm session forks no workers at all.
    """
    jobs = int(os.environ.get("REPRO_JOBS", "1"))
    if jobs > 1:
        from repro.experiments.events import ProgressLines
        from repro.experiments.sweep import DEFAULT_PREFETCHERS, grid, sweep
        from repro.workloads.suite import WORKLOAD_NAMES

        points = grid(WORKLOAD_NAMES, DEFAULT_PREFETCHERS, scale=scale)
        points += grid(WORKLOAD_NAMES, (), scale=scale,
                       overrides={"hierarchy.perfect_l1i": True})
        sweep(points, jobs=jobs, events=ProgressLines())
    yield


def pytest_terminal_summary(terminalreporter):
    """Show where this session's simulation results came from."""
    from repro.experiments.runner import run_cache_stats

    s = run_cache_stats()
    if s.lookups:
        terminalreporter.write_line(
            f"[repro] simulation cache: {s.simulations} simulated, "
            f"{s.disk_hits} disk hits, {s.memory_hits} memory hits"
        )


@pytest.fixture()
def emit(capfd):
    """Print a report block to the real terminal and persist it.

    Terminal capture can garble interleaved writes under some pytest
    configurations, so every block is also appended to
    ``benchmark_results.txt`` (override with ``REPRO_BENCH_RESULTS``).
    """
    results_path = os.environ.get("REPRO_BENCH_RESULTS",
                                  "benchmark_results.txt")

    def _emit(title: str, body: str) -> None:
        block = f"\n=== {title} ===\n{body}\n"
        with open(results_path, "a") as fh:
            fh.write(block)
            fh.flush()
        with capfd.disabled():
            print(block, flush=True)

    return _emit
