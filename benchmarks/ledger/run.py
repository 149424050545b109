#!/usr/bin/env python3
"""Performance ledger: end-to-end and per-layer cost of the simulator,
measured from outside the program.

    python3 benchmarks/ledger/run.py [--workload W ...] [--seed N]
        [--seconds S] [--repeats R] [--trace [0|1]] [--out DIR]
    python3 benchmarks/ledger/run.py --noise N        # writes noise.json
    python3 benchmarks/ledger/run.py --profile point_db
    python3 benchmarks/ledger/run.py --update-reference

Every workload runs one discarded warm-up repetition, then timed
repetitions until at least ``--repeats`` are done and ``--seconds``
have passed.  ``--trace`` then adds untraced+traced repetition pairs
for the per-layer numbers.  The last line of standard output is a JSON
summary.  See README.md for the workloads, metrics and bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"
NOISE = HERE / "noise.json"
GOLDEN = ROOT / "tests" / "data" / "golden_matrix.json"
WORK = ROOT / ".ledger-work"

sys.path.insert(0, str(HERE))

from child import BLOCK_LAYERS, HOOKS, stats_digest  # noqa: E402
from tracer import merge  # noqa: E402

WORKLOADS = ("grid_cold", "grid_warm", "point_db", "point_msvc")
GRIDS = ("grid_cold", "grid_warm")

GRID_WORKLOADS = ("mysql_sibench", "msvc_social")
GRID_PREFETCHERS = ("eip", "hierarchical", "hp_compressed")
GRID_SCALE = "tiny"
# The grids always simulate seed-1 traces: msvc_social's tiny trace
# length swings tenfold with its seed, which would swamp the grid's
# cost.  --seed shuffles the order of the grid's points instead.
GRID_TRACE_SEED = 1
GRID_JOBS = 2


@dataclass(frozen=True)
class PointSpec:
    workload: str
    prefetcher: str
    overrides: Optional[dict] = None

    @property
    def label(self) -> str:
        return f"{self.workload}/{self.prefetcher}"


POINT_SCALE = "bench"
POINTS = {
    "point_db": PointSpec("mysql_sibench", "hierarchical"),
    # msvc_hotel rather than msvc_social: the same microservice mix
    # (few BTB misses, ~4 prefetch requests per block, request
    # tracker on), but a trace length that varies 9% with the seed
    # instead of 31%.
    "point_msvc": PointSpec("msvc_hotel", "eip",
                            {"hierarchy.policy": "pf_aware"}),
}

#: (name, unit, better) of every end-to-end metric.
END_TO_END = (
    ("instr_per_s", "instr/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

CHILD_TIMEOUT = 150.0
#: Untraced+traced repetition pairs per traced workload; the pair with
#: the median coverage is reported.  Pairing keeps the machine's drift
#: over a run out of the comparison.
TRACED_PAIRS = 3
#: A percentile is reported when at least this many samples lie beyond.
TAIL_SAMPLES = 10


def loop_layers() -> List[str]:
    """Per-block layer names, in commit-loop order."""
    names = []
    for _module, _cls, _method, name in BLOCK_LAYERS:
        if name not in names:
            names.append(name)
    return names + [f"prefetchers.{hook}" for hook in HOOKS]


def per_layer_units() -> List[tuple]:
    """(name, unit) of every per-layer metric, in print order."""
    out = []
    for name in loop_layers():
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s"),
                (f"{name}.ns_per_call", "ns"), (f"{name}.share", "fraction")]
    out += [("cpu.simulator.loop.self_s", "s"),
            ("cpu.simulator.loop.share", "fraction"),
            ("cpu.simulator.measure_ips", "instr/s"),
            ("cpu.simulator.state_dict.s", "s")]
    for name in ("workloads.build_application", "workloads.trace",
                 "experiments.diskcache.put", "experiments.diskcache.get"):
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [("entry.import_s", "s"),
            ("memory.hierarchy.prefetch.requests", "count"),
            ("memory.hierarchy.prefetch.issued", "count"),
            ("memory.hierarchy.prefetch.issued_frac", "fraction"),
            ("memory.hierarchy.prefetch.useful_frac", "fraction"),
            ("memory.hierarchy.demand_accesses", "count"),
            ("memory.hierarchy.l1i_hit_frac", "fraction"),
            ("memory.tlb.accesses", "count"),
            ("memory.tlb.miss_frac", "fraction"),
            ("experiments.sweep.busy_frac", "fraction"),
            ("experiments.sweep.point_p50_s", "s"),
            ("trace.overhead_pct", "%"),
            ("trace.coverage", "fraction")]
    return out


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def summarize(values: List[float], better: str = "lower") -> dict:
    """Median, sample count, and the worst-side percentile that still
    has at least TAIL_SAMPLES samples beyond it (None if none does)."""
    n = len(values)
    out = {"median": statistics.median(values) if values else 0.0,
           "n": n, "tail": None}
    for pct in (99, 95, 90, 75):
        if (100 - pct) * n >= TAIL_SAMPLES * 100:
            cuts = statistics.quantiles(values, n=100, method="inclusive")
            side = pct if better == "lower" else 100 - pct
            out["tail"] = (f"p{side}", cuts[side - 1])
            break
    return out


def spread(values: List[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


# ----------------------------------------------------------------------
# Launching the program
# ----------------------------------------------------------------------
class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


@dataclass
class Launch:
    code: int
    start: float
    wall_s: float
    begin: Optional[float]
    log_dir: Path

    def stderr_tail(self) -> str:
        path = self.log_dir / "stderr.txt"
        text = path.read_text(errors="replace") if path.exists() else ""
        return text.strip()[-600:]


def _begin_seen(events: Path) -> bool:
    try:
        text = events.read_text()
    except FileNotFoundError:
        return False
    line = text.split("\n", 1)[0]
    return text.count("\n") > 0 and json.loads(line).get("event") == "begin"


def _stop_group(pgid: int) -> None:
    """Kill whatever is left of a reaped child's process group (pool
    workers it failed to join), and wait for it to go."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return
    os.killpg(pgid, signal.SIGKILL)
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def launch(cmd: List[str], env: dict, log_dir: Path,
           events: Optional[Path] = None) -> Launch:
    """Run ``cmd`` to completion and time it.

    With ``events``, also note when the ``begin`` record appears in
    that JSONL file (polled every 2 ms until it does).
    """
    log_dir.mkdir(parents=True, exist_ok=True)
    with open(log_dir / "stdout.txt", "w") as out, \
            open(log_dir / "stderr.txt", "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=out,
                                stderr=err, start_new_session=True)
    begin = None
    pid = 0
    try:
        deadline = start + CHILD_TIMEOUT
        while events is not None and begin is None:
            pid, status = os.waitpid(proc.pid, os.WNOHANG)
            if pid:
                break
            if _begin_seen(events):
                begin = time.monotonic()
            elif time.monotonic() > deadline:
                raise _Timeout()
            else:
                time.sleep(0.002)
        if not pid:
            previous = signal.signal(signal.SIGALRM, _alarm)
            signal.setitimer(signal.ITIMER_REAL,
                             max(0.01, deadline - time.monotonic()))
            try:
                _, status = os.waitpid(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        end = time.monotonic()
        code = os.waitstatus_to_exitcode(status)
    except _Timeout:
        _kill(proc)
        end, code = time.monotonic(), -1
    except BaseException:
        _kill(proc)
        raise
    finally:
        _stop_group(proc.pid)
    proc.returncode = code
    return Launch(code, start, end - start, begin, log_dir)


def _kill(proc: subprocess.Popen) -> None:
    """SIGKILL the child's process group and reap the child."""
    proc.returncode = -1
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    try:
        os.waitpid(proc.pid, 0)
    except ChildProcessError:
        pass


# ----------------------------------------------------------------------
# One repetition
# ----------------------------------------------------------------------
@dataclass
class Rep:
    wall_s: float = 0.0
    setup_s: float = 0.0
    rss_mb: float = 0.0
    points: int = 0
    failed: int = 0
    #: Trace instructions of every point the repetition delivered.
    instructions: int = 0
    #: Σ warmup+measure seconds and measured-window totals.
    wm_s: float = 0.0
    measure_s: float = 0.0
    measured_instructions: int = 0
    import_s: float = 0.0
    calibrate_s: float = 0.0
    busy_frac: float = 0.0
    point_p50_s: float = 0.0
    digests: Dict[str, str] = field(default_factory=dict)
    stats: Dict[str, dict] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    dumps: List[dict] = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.errors.append(message)


class Bench:
    """One invocation's state: seed, scratch space, reference data."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self._dirs = 0
        (work / "tmp").mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        for key in ("REPRO_DISK_CACHE", "REPRO_FAULT_PLAN",
                    "REPRO_TRACE_CACHE", "REPRO_CACHE_MIN_FREE"):
            self.env.pop(key, None)
        self.env.update({"PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0",
                         "TMPDIR": str(work / "tmp")})
        self.reference = (json.loads(REFERENCE.read_text())
                          if REFERENCE.exists() else {})
        golden = json.loads(GOLDEN.read_text())
        self.golden = {(p["workload"], p["prefetcher"]): p["stats"]
                       for p in golden["points"]
                       if golden["scale"] == GRID_SCALE}
        #: (workload, label) -> first digest seen in this invocation.
        self.seen: Dict[tuple, str] = {}
        self._manifest: Optional[Path] = None
        self._lane: Optional[List[str]] = None
        self.warm_cache: Optional[Path] = None
        self.grid_instructions = 0

    def fresh_dir(self, name: str) -> Path:
        self._dirs += 1
        path = self.work / f"{self._dirs:04d}-{name}"
        path.mkdir(parents=True)
        return path

    def env_for(self, cache: Path, run_dir: Path) -> dict:
        return dict(self.env, REPRO_CACHE_DIR=str(cache),
                    REPRO_RUN_DIR=str(run_dir))

    # -- grid inputs ---------------------------------------------------
    @property
    def manifest(self) -> Path:
        if self._manifest is None:
            rng = random.Random(self.seed)
            workloads = list(GRID_WORKLOADS)
            prefetchers = list(GRID_PREFETCHERS)
            rng.shuffle(workloads)
            rng.shuffle(prefetchers)
            doc = {"sweep": {"name": f"ledger-grid-seed{self.seed}",
                             "workloads": workloads,
                             "prefetchers": prefetchers,
                             "include_baseline": True,
                             "scale": GRID_SCALE, "seed": GRID_TRACE_SEED}}
            self._manifest = self.work / "grid-manifest.json"
            self._manifest.write_text(json.dumps(doc, indent=1))
        return self._manifest

    @property
    def lane(self) -> List[str]:
        if self._lane is None:
            help_text = subprocess.run(
                [sys.executable, "-m", "repro.cli", "sweep", "--help"],
                env=self.env, cwd=ROOT, capture_output=True, text=True,
                check=True, timeout=60).stdout
            self._lane = lane_flags(help_text)
        return self._lane

    def grid_points(self):
        from repro.experiments.manifest import load_manifest

        return load_manifest(self.manifest).expand()

    # -- correctness ---------------------------------------------------
    def check(self, workload: str, rep: Rep) -> None:
        """Compare every result of ``rep`` with the reference (seed 1,
        and the grids, whose traces always use seed 1), with the golden
        matrix, and with the first result this invocation saw."""
        uses_reference = workload in GRIDS or self.seed == 1
        reference = self.reference.get(workload, {})
        for label, state in rep.stats.items():
            digest = stats_digest(state)
            rep.digests[label] = digest
            first = self.seen.setdefault((workload, label), digest)
            expected = reference.get(label) if uses_reference else None
            if digest != first or (expected and digest != expected):
                rep.fail(1, f"{label}: digest {digest} != "
                            f"{expected or first}")
                continue
            golden = (self.golden.get(tuple(label.split("/")))
                      if workload in GRIDS else None)
            if golden:
                current = json.loads(json.dumps(state))
                bad = sorted(k for k in golden if current.get(k) != golden[k])
                if bad:
                    rep.fail(1, f"{label}: differs from golden_matrix.json "
                                f"in {', '.join(bad)}")


def lane_flags(help_text: str) -> List[str]:
    """Worker flags for ``repro sweep``: one shard of GRID_JOBS workers
    where sharding exists, GRID_JOBS plain workers otherwise."""
    if "--shards" in help_text:
        return ["--shards", "1", "--jobs", str(GRID_JOBS)]
    return ["--jobs", str(GRID_JOBS)]


def _read_jsonl(path: Path) -> List[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


def _trace_dumps(trace_dir: Optional[Path]) -> List[dict]:
    if trace_dir is None:
        return []
    return [json.loads(p.read_text())
            for p in sorted(trace_dir.glob("spans-*.json"))]


def point_rep(bench: Bench, workload: str, trace: bool = False,
              profile: Optional[Path] = None) -> Rep:
    spec = POINTS[workload]
    d = bench.fresh_dir(workload)
    trace_dir = d / "trace" if trace else None
    report = d / "report.json"
    cmd = [sys.executable, str(CHILD), "point", spec.workload,
           spec.prefetcher, POINT_SCALE, str(bench.seed)]
    if spec.overrides:
        cmd.append(json.dumps(spec.overrides))
    cmd += ["--report", str(report)]
    if trace_dir is not None:
        trace_dir.mkdir()
        cmd += ["--trace-dir", str(trace_dir)]
    if profile is not None:
        cmd += ["--profile", str(profile)]
    run = launch(cmd, bench.env_for(d / "cache", d / "runs"), d)
    rep = Rep(wall_s=run.wall_s, points=1)
    if run.code != 0 or not report.exists():
        rep.fail(1, f"{spec.label}: exit {run.code}: {run.stderr_tail()}")
        return rep
    data = json.loads(report.read_text())
    phase = data["phases"][0]
    rep.setup_s = phase["warmup_start"] - run.start
    rep.instructions = phase["trace_instructions"]
    rep.wm_s = phase["warmup_s"] + phase["measure_s"]
    rep.measure_s = phase["measure_s"]
    rep.measured_instructions = phase["instructions"]
    rep.import_s = data["import_s"]
    rep.calibrate_s = data["calibrate_s"]
    rep.rss_mb = data["peak_rss_mb"]
    rep.stats = {spec.label: data["stats"]}
    rep.dumps = _trace_dumps(trace_dir)
    bench.check(workload, rep)
    return rep


def grid_rep(bench: Bench, workload: str, cache: Optional[Path] = None,
             trace: bool = False) -> Rep:
    """One ``repro sweep --manifest`` invocation against ``cache``
    (a fresh, empty cache when None)."""
    from repro.experiments.diskcache import DiskCache

    d = bench.fresh_dir(workload)
    cache = cache or d / "cache"
    cold = not cache.exists() or not any(cache.iterdir())
    trace_dir = d / "trace" if trace else None
    events, phases = d / "events.jsonl", d / "phases.jsonl"
    cmd = [sys.executable, str(CHILD), "cli", "--phases", str(phases)]
    if trace_dir is not None:
        trace_dir.mkdir()
        cmd += ["--trace-dir", str(trace_dir)]
    cmd += ["--", "sweep", "--manifest", str(bench.manifest),
            "--events", str(events), *bench.lane]
    run = launch(cmd, bench.env_for(cache, d / "runs"), d, events=events)
    points = bench.grid_points()
    rep = Rep(wall_s=run.wall_s, points=len(points))
    if run.code != 0:
        rep.fail(len(points), f"sweep exit {run.code}: {run.stderr_tail()}")
        return rep
    records = _read_jsonl(phases)
    sims = [r for r in records if r["kind"] == "point"]
    rep.import_s = sum(r["seconds"] for r in records if r["kind"] == "import")
    rep.calibrate_s = sum(r["seconds"] for r in records
                          if r["kind"] == "calibrate")
    rep.rss_mb = max(r.get("peak_rss_mb", 0.0) for r in records)
    rep.wm_s = sum(r["warmup_s"] + r["measure_s"] for r in sims)
    rep.measure_s = sum(r["measure_s"] for r in sims)
    rep.measured_instructions = sum(r["instructions"] for r in sims)
    rep.instructions = (sum(r["trace_instructions"] for r in sims)
                        or bench.grid_instructions)
    rep.setup_s = (run.begin - run.start) if run.begin else 0.0
    # Without fork, a traced grid runs its points in-process, with no
    # sweep output to check (child.py's serial fallback).
    serial = any(r["kind"] == "serial" for r in records)
    if cold and len(sims) != len(points):
        rep.fail(len(points), f"{len(sims)} of {len(points)} points "
                              "reported their phases")
    stream = _read_jsonl(events)
    end = [e for e in stream if e["event"] == "end"]
    begin = [e for e in stream if e["event"] == "begin"]
    scheduled = [e["seconds"] for e in stream
                 if e["event"] == "completed" and e["shard"] is not None]
    if scheduled and end and begin:
        workers = begin[0]["shards"] * begin[0]["jobs"]
        rep.busy_frac = sum(scheduled) / (workers * end[0]["seconds"])
        rep.point_p50_s = statistics.median(scheduled)
    if not serial and (not end or end[0]["failed"]
                       or end[0]["status"] != "ok"):
        rep.fail(len(points) - (end[0]["completed"] if end else 0),
                 f"sweep end record: {end[0] if end else 'missing'}")
    store = DiskCache(cache)
    for point in points:
        payload = store.get(point.key())
        if payload is None:
            rep.fail(1, f"{point.label}: no result in the cache")
        else:
            rep.stats[point.label] = payload["stats"]
    bench.check(workload, rep)
    if not serial:
        _check_table(rep, (d / "stdout.txt").read_text(), len(points), cold)
    rep.dumps = _trace_dumps(trace_dir)
    return rep


def _check_table(rep: Rep, stdout: str, total: int, cold: bool) -> None:
    """The sweep's printed table must show each verified result's IPC
    and MPKI, and its summary line the expected cache traffic."""
    from repro.cpu.stats import SimStats

    rows = {}
    for line in stdout.splitlines():
        cells = line.split()
        if len(cells) > 3 and "/".join(cells[:2]) in rep.stats:
            rows["/".join(cells[:2])] = cells
    for label, state in rep.stats.items():
        stats = SimStats.from_state(state)
        want = [f"{stats.ipc:.3f}", f"{stats.l1i_mpki:.2f}"]
        if rows.get(label, [None] * 4)[2:4] != want:
            rep.fail(1, f"{label}: printed row {rows.get(label)} lacks "
                        f"ipc/mpki {want}")
    summary = f"{total} simulated" if cold else f"0 simulated, {total} disk"
    if f"{total}/{total} points" not in stdout or summary not in stdout:
        rep.fail(1, f"sweep summary lacks '{summary}'")


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
@dataclass
class WorkloadRun:
    name: str
    reps: List[Rep]
    extra: List[Rep]
    #: (untraced, traced) repetitions run back to back.
    pairs: List[tuple] = field(default_factory=list)

    @property
    def all_reps(self) -> List[Rep]:
        return self.reps + self.extra + [r for pair in self.pairs
                                         for r in pair]

    @property
    def attempted(self) -> int:
        return sum(r.points for r in self.all_reps)

    @property
    def failed(self) -> int:
        return sum(min(r.failed, r.points) for r in self.all_reps)

    @property
    def ok(self) -> List[Rep]:
        return [r for r in self.reps if not r.failed]


def run_workload(bench: Bench, name: str, seconds: float, repeats: int,
                 trace: bool) -> WorkloadRun:
    extra = []
    if name == "grid_warm":
        # Untimed: one cold run fills the cache the timed runs read.
        fill = bench.fresh_dir("grid_warm-cache")
        extra.append(grid_rep(bench, "grid_warm", cache=fill))
        bench.warm_cache = fill
        bench.grid_instructions = extra[-1].instructions

    def rep(traced=False):
        if name in POINTS:
            return point_rep(bench, name, trace=traced)
        warm = name == "grid_warm"
        return grid_rep(bench, name, trace=traced,
                        cache=bench.warm_cache if warm else None)

    extra.append(rep())  # warm-up repetition, discarded
    reps = []
    deadline = time.monotonic() + seconds
    while len(reps) < repeats or time.monotonic() < deadline:
        reps.append(rep())
    pairs = [(rep(), rep(traced=True))
             for _ in range(TRACED_PAIRS if trace else 0)]
    return WorkloadRun(name, reps, extra, pairs)


def end_to_end(run: WorkloadRun) -> Dict[str, dict]:
    reps = run.ok
    values = {
        "instr_per_s": [r.instructions / r.wall_s for r in reps],
        "setup_s": [r.setup_s for r in reps],
        "peak_rss_mb": [r.rss_mb for r in reps],
    }
    return {name: dict(summarize(values[name], better), unit=unit)
            for name, unit, better in END_TO_END}


def per_layer(run: WorkloadRun):
    """``(metrics, traced rep)`` of the pair whose coverage is the
    median one (a single traced run is at the mercy of the machine)."""
    found = sorted(((_layers(run, *pair), pair[1]) for pair in run.pairs),
                   key=lambda item: item[0]["trace.coverage"])
    return found[len(found) // 2]


def _layers(run: WorkloadRun, plain: Rep, traced: Rep) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition, with shares of the
    warmup+measure time of the untraced one run just before it."""
    reps = run.ok
    med = (lambda xs: statistics.median(xs) if xs else 0.0)
    wm, wall = plain.wm_s, plain.wall_s
    layers = merge(traced.dumps)
    out: Dict[str, float] = {}

    def layer(name):
        return layers.get(name, {"calls": 0, "self_s": 0.0})

    covered = 0.0
    for name in loop_layers():
        calls, self_s = layer(name)["calls"], layer(name)["self_s"]
        covered += self_s
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
        out[f"{name}.ns_per_call"] = self_s / calls * 1e9 if calls else 0.0
        out[f"{name}.share"] = self_s / wm if wm else 0.0
    loop = (layer("cpu.simulator.warmup")["self_s"]
            + layer("cpu.simulator.measure")["self_s"])
    covered += loop
    out["cpu.simulator.loop.self_s"] = loop
    out["cpu.simulator.loop.share"] = loop / wm if wm else 0.0
    out["cpu.simulator.measure_ips"] = med(
        [r.measured_instructions / r.measure_s for r in reps if r.measure_s])
    out["cpu.simulator.state_dict.s"] = layer(
        "cpu.simulator.state_dict")["self_s"]
    for name in ("workloads.build_application", "workloads.trace",
                 "experiments.diskcache.put", "experiments.diskcache.get"):
        out[f"{name}.calls"] = layer(name)["calls"]
        out[f"{name}.self_s"] = layer(name)["self_s"]
    out["entry.import_s"] = med([r.import_s for r in reps])
    out.update(_waste(reps[0].stats.values() if reps else []))
    out["experiments.sweep.busy_frac"] = med([r.busy_frac for r in reps])
    out["experiments.sweep.point_p50_s"] = med([r.point_p50_s for r in reps])
    busy = traced.wall_s - traced.calibrate_s
    out["trace.overhead_pct"] = (busy - wall) / wall * 100.0
    out["trace.coverage"] = covered / wm if wm else 0.0
    return out


def _waste(states) -> Dict[str, float]:
    """Useful-to-attempted ratios from SimStats counts (measured
    window), summed over the repetition's points."""
    total = {"requests": 0, "issued": 0, "useful": 0, "demand": 0,
             "l1i_hits": 0, "itlb": 0, "itlb_misses": 0}
    for s in states:
        total["requests"] += (sum(s["pf_issued"]) + sum(s["pf_redundant"])
                              + sum(s["pf_dropped"]))
        total["issued"] += sum(s["pf_issued"])
        total["useful"] += sum(s["pf_useful"])
        total["demand"] += s["demand_accesses"]
        total["l1i_hits"] += s["l1i_hits"]
        total["itlb"] += s["itlb_accesses"]
        total["itlb_misses"] += s["itlb_misses"]

    def ratio(a, b):
        return total[a] / total[b] if total[b] else 0.0

    return {
        "memory.hierarchy.prefetch.requests": total["requests"],
        "memory.hierarchy.prefetch.issued": total["issued"],
        "memory.hierarchy.prefetch.issued_frac": ratio("issued", "requests"),
        "memory.hierarchy.prefetch.useful_frac": ratio("useful", "issued"),
        "memory.hierarchy.demand_accesses": total["demand"],
        "memory.hierarchy.l1i_hit_frac": ratio("l1i_hits", "demand"),
        "memory.tlb.accesses": total["itlb"],
        "memory.tlb.miss_frac": ratio("itlb_misses", "itlb"),
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def report_workload(run: WorkloadRun, trace: bool) -> dict:
    e2e = end_to_end(run)
    walls = summarize([r.wall_s for r in run.ok])
    print(f"\n== {run.name}: {len(run.reps)} timed repetitions "
          f"({len(run.ok)} ok), {run.attempted} points attempted, "
          f"{run.failed} failed")
    print(f"  wall_s (one repetition) = {_fmt(walls['median'])} s")
    for name, unit, _better in END_TO_END:
        m = e2e[name]
        tail = (f", {m['tail'][0]} {_fmt(m['tail'][1])}" if m["tail"]
                else "")
        print(f"  {name} = {_fmt(m['median'])} {unit} "
              f"(median of {m['n']}{tail})")
    digests = {}
    for rep in run.all_reps:
        digests.update(rep.digests)
    for label, digest in sorted(digests.items()):
        print(f"  digest {label} {digest}")
    for rep in run.all_reps:
        for error in rep.errors:
            print(f"  ERROR {error}")
    out = {"name": run.name, "attempted": run.attempted,
           "failed": run.failed, "end_to_end": e2e, "wall_s": walls,
           "digests": digests,
           "reps": [{k: v for k, v in vars(r).items()
                     if k not in ("stats", "dumps")} for r in run.all_reps]}
    if trace:
        layers, traced = per_layer(run)
        units = dict(per_layer_units())
        print("  per-layer (traced repetition of the median-coverage "
              "pair; share = of the paired untraced warmup+measure):")
        for name, unit in per_layer_units():
            print(f"    {name} = {_fmt(layers[name])} {unit}")
        out["per_layer"] = {k: {"value": v, "unit": units[k]}
                            for k, v in layers.items()}
        out["spans"] = [s for d in traced.dumps for s in d["spans"]]
    return out


def result_line(runs: List[dict], trace: bool) -> dict:
    metrics = {}
    for run in runs:
        prefix = "" if len(runs) == 1 else f"{run['name']}."
        if trace:
            for name, m in run["per_layer"].items():
                metrics[prefix + name] = m
        else:
            for name, unit, _better in END_TO_END:
                metrics[prefix + name] = {
                    "value": run["end_to_end"][name]["median"], "unit": unit}
    failed = sum(r["failed"] for r in runs)
    return {"correct": failed == 0, "attempted": sum(r["attempted"]
                                                      for r in runs),
            "failed": failed, "metrics": metrics}


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def measure(args, workloads) -> dict:
    bench = Bench(args.seed, WORK / f"seed{args.seed}")
    runs, results = [], []
    for name in workloads:
        run = run_workload(bench, name, args.seconds, args.repeats,
                           bool(args.trace))
        runs.append(run)
        results.append(report_workload(run, bool(args.trace)))
    if args.update_reference:
        write_reference(bench, runs)
    line = result_line(results, bool(args.trace))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        doc = {"seed": args.seed, "seconds": args.seconds,
               "repeats": args.repeats, "trace": bool(args.trace),
               "workloads": results, "result": line}
        (out / "ledger.json").write_text(json.dumps(doc, indent=1))
    return line


def write_reference(bench: Bench, runs: List[WorkloadRun]) -> None:
    if bench.seed != 1:
        raise SystemExit("--update-reference needs --seed 1")
    reference = bench.reference
    for run in runs:
        if run.failed:
            raise SystemExit(f"{run.name} failed; reference not written")
        digests = {}
        for rep in run.all_reps:
            digests.update(rep.digests)
        reference[run.name] = dict(sorted(digests.items()))
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE}")


def noise(args, workloads) -> None:
    """Run every workload ``args.noise`` times, seeds 1..N, each as its
    own invocation of this script, and record how far each end-to-end
    metric's run medians spread."""
    table: Dict[str, dict] = {}
    for name in workloads:
        values: Dict[str, list] = {m: [] for m, _u, _b in END_TO_END}
        for seed in range(1, args.noise + 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds),
                 "--repeats", str(args.repeats)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            line = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode or not line["correct"]:
                raise SystemExit(f"{name} seed {seed} failed:\n"
                                 f"{done.stdout[-2000:]}{done.stderr}")
            for metric in values:
                values[metric].append(line["metrics"][metric]["value"])
        table[name] = {m: dict(spread(v), values=v)
                       for m, v in values.items()}
    bounds = {}
    for metric, _unit, _better in END_TO_END:
        widest = max(table[w][metric]["spread"] for w in table)
        bounds[metric] = min(0.25, max(0.05, 3 * widest))
    doc = {"runs": args.noise, "seconds": args.seconds,
           "repeats": args.repeats, "workloads": table,
           "suggested_bounds": bounds}
    NOISE.write_text(json.dumps(doc, indent=1) + "\n")
    for name, metrics in table.items():
        for metric, s in metrics.items():
            print(f"{name:11s} {metric:12s} median {_fmt(s['median'])} "
                  f"q1 {_fmt(s['q1'])} q3 {_fmt(s['q3'])} "
                  f"spread {s['spread']:.3f}")
    print("suggested bounds:", json.dumps(bounds))


def profile(args) -> None:
    """Compare span shares with cProfile shares on one point workload."""
    import pstats

    from profile_map import profile_shares

    name = args.profile
    bench = Bench(args.seed, WORK / f"profile-{args.seed}")
    point_rep(bench, name)  # warm-up
    plain = point_rep(bench, name)
    traced = point_rep(bench, name, trace=True)
    prof_path = bench.work / "point.pstats"
    profiled = point_rep(bench, name, profile=prof_path)
    for rep in (plain, traced, profiled):
        if rep.failed:
            raise SystemExit(f"profile run failed: {rep.errors}")
    run = WorkloadRun(name, [plain], [], [(plain, traced)])
    layers, _ = per_layer(run)
    span = {n: layers[f"{n}.share"] for n in loop_layers()}
    span["cpu.simulator.loop"] = layers["cpu.simulator.loop.share"]
    prof = profile_shares(pstats.Stats(str(prof_path)).stats)
    span_total = sum(span.values())
    print(f"{'layer':40s} {'span':>7s} {'profile':>8s} {'diff':>6s}")
    for layer in sorted(span, key=lambda k: -span[k]):
        s = span[layer] / span_total if span_total else 0.0
        p = prof.get(layer, 0.0)
        flag = "  <-- >10 points" if abs(s - p) > 0.10 else ""
        print(f"{layer:40s} {s:7.3f} {p:8.3f} {s - p:+6.3f}{flag}")
    print(f"(span shares renormalized to their coverage "
          f"{layers['trace.coverage']:.3f}; untraced warmup+measure "
          f"{plain.wm_s:.3f} s, profiled {profiled.wm_s:.3f} s)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Performance ledger for the repro simulator.")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="timed seconds per workload (default 15)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="minimum timed repetitions (default 5)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add traced repetitions; print per-layer "
                             "metrics")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="write ledger.json with every repetition")
    parser.add_argument("--noise", type=int, default=0, metavar="N",
                        help="run each workload N times and write "
                             "noise.json")
    parser.add_argument("--profile", choices=tuple(POINTS), default=None,
                        help="compare span shares with cProfile shares")
    parser.add_argument("--update-reference", action="store_true",
                        help="record this run's digests in "
                             "reference.json (seed 1)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workloads = args.workload or list(WORKLOADS)
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        if args.noise:
            noise(args, workloads)
            return 0
        if args.profile:
            profile(args)
            return 0
        line = measure(args, workloads)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
