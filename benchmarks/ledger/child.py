"""The process the ledger launches: it drives the program through its
public entry points and reports what it timed.

Two modes::

    python child.py point --report R.json WORKLOAD PREFETCHER SCALE SEED
                          [OVERRIDES_JSON]
        one cold ``runner.run_prefetcher`` call
    python child.py cli --phases P.jsonl -- ARGS...
        ``repro.cli.main(ARGS)``, e.g. a ``sweep --manifest`` run

Both wrap ``FrontEndSimulator.warmup`` and ``measure`` once per call
(never per block) to record when simulation starts and how long the
measured window takes.  ``--trace-dir D`` additionally installs the
layer tracer (see tracer.py); ``--profile F`` (point mode) runs the
point under cProfile instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402

#: Per-block layers: (module, class, method, layer name).  Wrapped on
#: the class, so the bound method ``_run_range`` fetches once per range
#: is the wrapper.  Class level rather than per instance because
#: ``InstructionPrefetcher.state_dict`` deep-copies the instance
#: ``__dict__`` into warmup checkpoints, and HP builds its compression,
#: record and replay engines inside ``attach``.
BLOCK_LAYERS = (
    ("repro.frontend.fdip", "FDIPFrontEnd", "advance",
     "frontend.fdip.advance"),
    ("repro.frontend.tage", "TagePredictor", "predict_and_update",
     "frontend.tage.predict_and_update"),
    ("repro.frontend.btb", "BranchTargetBuffer", "lookup",
     "frontend.btb.lookup"),
    ("repro.frontend.btb", "BranchTargetBuffer", "update",
     "frontend.btb.update"),
    ("repro.frontend.ittage", "ITTagePredictor", "predict_and_update",
     "frontend.ittage.predict_and_update"),
    ("repro.memory.hierarchy", "MemoryHierarchy", "demand_fetch",
     "memory.hierarchy.demand_fetch"),
    ("repro.memory.hierarchy", "MemoryHierarchy", "prefetch",
     "memory.hierarchy.prefetch"),
    ("repro.memory.hierarchy", "MemoryHierarchy", "metadata_read",
     "memory.hierarchy.metadata"),
    ("repro.memory.hierarchy", "MemoryHierarchy", "metadata_write",
     "memory.hierarchy.metadata"),
    ("repro.memory.tlb", "InstructionTLB", "translate",
     "memory.tlb.translate"),
    ("repro.core.compression", "CompressionBuffer", "observe",
     "core.compression.observe"),
    ("repro.core.replay", "ReplayEngine", "take_eligible",
     "core.replay.take_eligible"),
    ("repro.core.record", "RecordEngine", "observe_instructions",
     "core.record.observe_instructions"),
)

#: Prefetcher hooks, patched on the attached prefetcher's class.
HOOKS = ("on_commit", "on_miss", "on_mispredict")

#: The layer whose wrapper cost is measured in place (Tracer.probe):
#: it runs once per committed block under every prefetcher.
PROBED_LAYER = "frontend.fdip.advance"


def stats_digest(state: dict) -> str:
    """Digest of a SimStats ``state_dict`` (exact: floats keep repr)."""
    blob = json.dumps(state, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark, in MB.

    Read from /proc rather than ``getrusage``: ``ru_maxrss`` also
    counts the memory of the process that launched this one, which the
    child holds until it execs.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def install_phase_timer(sink) -> None:
    """Time each ``warmup`` and ``measure`` call; ``sink(record)`` gets
    one record per measured window."""
    from repro.cpu.simulator import FrontEndSimulator

    warmup, measure = FrontEndSimulator.warmup, FrontEndSimulator.measure
    state = {}

    def timed_warmup(self, *args, **kwargs):
        state["warmup_start"] = time.monotonic()
        t0 = time.perf_counter()
        try:
            return warmup(self, *args, **kwargs)
        finally:
            state["warmup_s"] = time.perf_counter() - t0

    def timed_measure(self, *args, **kwargs):
        t0 = time.perf_counter()
        stats = measure(self, *args, **kwargs)
        measure_s = time.perf_counter() - t0
        sink({"kind": "point", "pid": os.getpid(),
              "warmup_start": state.pop("warmup_start", None),
              "warmup_s": state.pop("warmup_s", 0.0),
              "measure_s": measure_s,
              "instructions": stats.instructions,
              "trace_instructions": int(sum(self.trace.ninstr)),
              "peak_rss_mb": peak_rss_mb()})
        return stats

    FrontEndSimulator.warmup = timed_warmup
    FrontEndSimulator.measure = timed_measure


def install_tracer(trace_dir: Path) -> Tracer:
    """Calibrate a tracer and wrap every layer with it."""
    import importlib

    from repro.cpu.simulator import FrontEndSimulator
    from repro.experiments import diskcache, runner
    from repro.workloads import cache as workload_cache
    from repro.workloads.appmodel import Application

    tracer = Tracer(flush_dir=trace_dir)
    tracer.calibrate()
    os.register_at_fork(after_in_child=tracer.reset)
    for module, cls_name, method, name in BLOCK_LAYERS:
        cls = getattr(importlib.import_module(module), cls_name)
        wrapped = tracer.wrap(getattr(cls, method), name)
        if name == PROBED_LAYER:
            wrapped = tracer.probe(wrapped, name)
        setattr(cls, method, wrapped)
    runner.run_prefetcher = tracer.wrap_span(
        runner.run_prefetcher, "experiments.runner.run_prefetcher")
    runner.get_trace = tracer.wrap_span(
        runner.get_trace, "workloads.cache.get_trace")
    workload_cache.build_application = tracer.wrap(
        workload_cache.build_application, "workloads.build_application")
    Application.trace = tracer.wrap(Application.trace, "workloads.trace")
    FrontEndSimulator.state_dict = tracer.wrap(
        FrontEndSimulator.state_dict, "cpu.simulator.state_dict")
    diskcache.DiskCache.put = tracer.wrap_span(
        diskcache.DiskCache.put, "experiments.diskcache.put")
    diskcache.DiskCache.get = tracer.wrap(
        diskcache.DiskCache.get, "experiments.diskcache.get")
    FrontEndSimulator.measure = tracer.wrap_span(
        FrontEndSimulator.measure, "cpu.simulator.measure")
    traced_warmup = tracer.wrap_span(
        FrontEndSimulator.warmup, "cpu.simulator.warmup")
    patched = set()

    def warmup(self, *args, **kwargs):
        cls = type(self.prefetcher)
        if self.prefetcher is not None and cls not in patched:
            patched.add(cls)
            for hook in HOOKS:
                setattr(cls, hook, tracer.wrap(getattr(cls, hook),
                                               f"prefetchers.{hook}"))
        return traced_warmup(self, *args, **kwargs)

    FrontEndSimulator.warmup = warmup
    return tracer


def _append_line(path: Path, record: dict) -> None:
    # One short O_APPEND write per record: lines from concurrent pool
    # workers never interleave.
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")


def run_point(args) -> int:
    t0 = time.perf_counter()
    from repro.experiments import runner
    import_s = time.perf_counter() - t0
    tracer = None
    if args.trace_dir:
        tracer = install_tracer(Path(args.trace_dir))
    # Installed last, so it sits outside the tracer's warmup/measure
    # spans and its own work never counts as commit-loop time.
    phases = []
    install_phase_timer(phases.append)
    overrides = json.loads(args.overrides) if args.overrides else None

    def call():
        return runner.run_prefetcher(args.workload, args.prefetcher,
                                     scale=args.scale, seed=args.seed,
                                     overrides=overrides)

    if args.profile:
        import cProfile

        profile = cProfile.Profile()
        stats, _ = profile.runcall(call)
        profile.dump_stats(args.profile)
    else:
        stats, _ = call()
    state = stats.state_dict()
    report = {"import_s": import_s, "peak_rss_mb": peak_rss_mb(),
              "calibrate_s": tracer.calibrate_s if tracer else 0.0,
              "phases": phases, "digest": stats_digest(state),
              "stats": state}
    Path(args.report).write_text(json.dumps(report))
    if tracer is not None:
        tracer.flush()
    return 0


def run_cli(args) -> int:
    phases = Path(args.phases)
    t0 = time.perf_counter()
    import repro.cli
    _append_line(phases, {"kind": "import",
                          "seconds": time.perf_counter() - t0})
    tracer = None
    if args.trace_dir:
        tracer = install_tracer(Path(args.trace_dir))
        _append_line(phases, {"kind": "calibrate",
                              "seconds": tracer.calibrate_s})
    install_phase_timer(lambda record: _append_line(phases, record))
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    try:
        if tracer is not None and _start_method() != "fork":
            _append_line(phases, {"kind": "serial"})
            return _serial_grid(argv)
        return repro.cli.main(argv)
    finally:
        if tracer is not None:
            tracer.flush()
        _append_line(phases, {"kind": "exit", "peak_rss_mb": peak_rss_mb()})


def _start_method() -> str:
    import multiprocessing

    return multiprocessing.get_start_method()


def _serial_grid(argv) -> int:
    """Traced fallback when pool workers would not inherit the
    wrappers: evaluate the manifest's points one by one in-process."""
    from repro.experiments.manifest import load_manifest

    print(f"multiprocessing start method is {_start_method()!r}, not "
          "'fork': tracing the grid's points serially in-process",
          file=sys.stderr)
    manifest = argv[argv.index("--manifest") + 1]
    for point in load_manifest(manifest).expand():
        point.run()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    point = sub.add_parser("point")
    point.add_argument("workload")
    point.add_argument("prefetcher")
    point.add_argument("scale")
    point.add_argument("seed", type=int)
    point.add_argument("overrides", nargs="?", default=None)
    point.add_argument("--report", required=True)
    point.add_argument("--trace-dir", default=None)
    point.add_argument("--profile", default=None)
    cli = sub.add_parser("cli")
    cli.add_argument("--phases", required=True)
    cli.add_argument("--trace-dir", default=None)
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    return run_point(args) if args.mode == "point" else run_cli(args)


if __name__ == "__main__":
    sys.exit(main())
