"""Command-line interface.

Subcommands::

    repro list                       enumerate workloads and prefetchers
    repro run WORKLOAD               simulate one prefetcher vs. FDIP
    repro compare WORKLOAD           run the paper's comparison set
    repro sweep [WORKLOAD...]        cached, journaled grid (--jobs N
                                     worker processes); --resume
                                     [RUN_ID] continues an interrupted
                                     run
    repro sweep --manifest F.toml    the same for a declarative grid
    repro manifest validate F...     check sweep manifests
    repro manifest expand F          show a manifest's expanded points
    repro manifest events F|DIR      summarize a progress event stream
                                     or run journal (--follow to tail)
    repro cache info|compact|clear   on-disk result cache maintenance
    repro probe WORKLOAD             interval IPC/MPKI/accuracy timelines
    repro bundles WORKLOAD           Algorithm 1 report for a workload
    repro characterize WORKLOAD      structural workload profile
    repro trace WORKLOAD -o F.npz    generate + save a trace
    repro replay F.npz               simulate a saved trace
    repro lint [PATH...]             project-specific static analysis

Installed as the ``repro`` console script; also runnable via
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.metrics import compare_run
from repro.analysis.reporting import format_table
from repro.cpu import DEFAULT_WARMUP, MachineConfig, simulate
from repro.memory.policies import POLICY_DESCRIPTIONS, POLICY_NAMES
from repro.prefetchers import (
    PAPER_PREFETCHERS,
    PREFETCHER_NAMES,
    make_prefetcher,
)
from repro.workloads.suite import (
    ALL_WORKLOAD_NAMES,
    SCALES,
    WORKLOAD_NAMES,
    workload_params,
)


def _add_scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", default="bench", choices=sorted(SCALES),
                        help="trace length preset (default: bench)")
    parser.add_argument("--seed", type=int, default=1,
                        help="trace RNG seed (default: 1)")
    parser.add_argument("--warmup", type=float, default=DEFAULT_WARMUP,
                        help=f"warmup fraction (default: {DEFAULT_WARMUP})")


def _get_trace(args):
    from repro.experiments.runner import get_trace

    return get_trace(args.workload, scale=args.scale, seed=args.seed)


def _print_policies() -> None:
    print("replacement policies (cache + I-TLB; --policy axis of "
          "repro sweep, docs/POLICIES.md):")
    print(format_table(
        ["policy", "description"],
        [[name, POLICY_DESCRIPTIONS[name]] for name in POLICY_NAMES],
    ))


def cmd_list(args) -> int:
    from repro.workloads.microservices import (
        MICROSERVICE_NAMES,
        request_graphs,
    )

    if args.policies:
        _print_policies()
        return 0
    rows = []
    for name in WORKLOAD_NAMES:
        params = workload_params(name)
        rows.append([
            name, len(params.stages), params.n_request_types,
            f"{params.total_routine_kb():.0f}",
            params.bundle_threshold // 1024,
        ])
    print(format_table(
        ["workload", "stages", "req_types", "routines_kb", "threshold_kb"],
        rows,
    ))
    rows = []
    for name in MICROSERVICE_NAMES:
        params = workload_params(name)
        graphs = request_graphs(params)
        rows.append([
            name, len(params.services), params.n_request_types,
            max(g.depth() for g in graphs),
            f"{params.total_routine_kb():.0f}",
            f"{params.arrival.utilization:.2f}",
            f"{params.arrival.slo_factor:.1f}",
        ])
    print("\nmicroservice request-graph workloads "
          "(per-request SLO metrics; docs/MICROSERVICES.md):")
    print(format_table(
        ["workload", "services", "req_types", "max_depth", "endpoints_kb",
         "utilization", "slo_factor"],
        rows,
    ))
    print(f"\nprefetchers: {', '.join(PREFETCHER_NAMES)}")
    print()
    _print_policies()
    return 0


def cmd_run(args) -> int:
    trace = _get_trace(args)
    print(f"{trace}")
    baseline = simulate(trace, warmup_fraction=args.warmup)
    print(f"FDIP baseline: IPC {baseline.ipc:.3f}, "
          f"L1-I MPKI {baseline.l1i_mpki:.2f}")
    if args.prefetcher in ("fdip", "none"):
        return 0
    pf = make_prefetcher(args.prefetcher)
    stats = simulate(trace, prefetcher=pf, warmup_fraction=args.warmup)
    report = compare_run(args.prefetcher, stats, baseline)
    print(format_table(
        ["prefetcher", "distance", "accuracy", "cov_L1", "cov_L2",
         "late", "speedup"],
        [report.row()],
    ))
    return 0


def cmd_compare(args) -> int:
    trace = _get_trace(args)
    baseline = simulate(trace, warmup_fraction=args.warmup)
    rows = []
    for name in args.prefetchers:
        pf = make_prefetcher(name)
        stats = simulate(trace, prefetcher=pf, warmup_fraction=args.warmup)
        rows.append(compare_run(name, stats, baseline).row())
    if args.perfect:
        cfg = MachineConfig().replace(**{"hierarchy.perfect_l1i": True})
        perfect = simulate(trace, config=cfg, warmup_fraction=args.warmup)
        rows.append(["perfect_l1i", "-", "-", "-", "-", "-",
                     f"{perfect.ipc / baseline.ipc - 1:+.1%}"])
    print(f"{args.workload} @ {args.scale}: baseline IPC "
          f"{baseline.ipc:.3f}, MPKI {baseline.l1i_mpki:.2f}\n")
    print(format_table(
        ["prefetcher", "distance", "accuracy", "cov_L1", "cov_L2",
         "late", "speedup"],
        rows,
    ))
    return 0


def cmd_sweep(args) -> int:
    import time
    from pathlib import Path

    from repro.experiments import runner
    from repro.experiments.errors import (
        JournalError,
        PointFailure,
        SweepInterrupted,
    )
    from repro.experiments.journal import run_sweep
    from repro.experiments.manifest import (
        ManifestError,
        SweepManifest,
        load_manifest,
    )
    from repro.experiments.events import JsonlEventLog, ProgressLines

    if args.point_timeout is not None and args.jobs < 2:
        print("--point-timeout needs --jobs >= 2: with --jobs 1 points "
              "run in-process, where a running point cannot be killed",
              file=sys.stderr)
        return 2
    if args.manifest:
        if args.workloads or args.policy:
            print("--manifest already defines the grid; drop the "
                  "positional workloads / --policy arguments",
                  file=sys.stderr)
            return 2
        try:
            manifest = load_manifest(args.manifest)
        except ManifestError as exc:
            print(exc, file=sys.stderr)
            return 2
        points = manifest.expand()
        title = manifest.name or args.manifest
        print(f"manifest {title}: {len(points)} point(s)"
              + (f" (sampled from {manifest.full_count})"
                 if manifest.sample else ""))
    else:
        workloads = args.workloads or list(WORKLOAD_NAMES)
        unknown = [w for w in workloads if w not in ALL_WORKLOAD_NAMES]
        if unknown:
            print(f"unknown workload(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
        points = SweepManifest(
            tuple(workloads), tuple(args.prefetchers),
            policies=tuple(args.policy or ()),
            itlb_prefetch=args.itlb_prefetch, scales=(args.scale,),
            seeds=(args.seed,), warmup=args.warmup,
        ).expand()
    if args.resume is not None and args.no_cache:
        print("--resume needs the disk cache: the journal records "
              "which points completed, the cache holds their results",
              file=sys.stderr)
        return 2

    before = runner.run_cache_stats()
    start = time.perf_counter()
    log = JsonlEventLog(args.events) if args.events else None
    try:
        report, journal = run_sweep(
            points, events=[ProgressLines(), log],
            resume=args.resume is not None,
            run_id=args.resume or None,
            run_root=Path(args.run_dir) if args.run_dir else None,
            handle_signals=True,
            extra_meta=({"manifest": args.manifest}
                        if args.manifest else None),
            jobs=args.jobs, use_cache=not args.no_cache,
            max_retries=args.max_retries,
            point_timeout=args.point_timeout,
            keep_going=args.keep_going,
        )
    except JournalError as exc:
        print(exc, file=sys.stderr)
        return 2
    except SweepInterrupted as exc:
        done = len(exc.report.results) if exc.report else 0
        print(f"\nsweep interrupted: {done}/{len(points)} point(s) "
              "resolved; in-flight workers reaped, "
              + ("nothing journaled (--no-cache)" if args.no_cache
                 else "completed points journaled"), file=sys.stderr)
        if args.no_cache:
            return exc.exit_code
        resume = f"--resume {exc.run_id}" if exc.run_id else "--resume"
        print("resume with: "
              + (f"repro sweep --manifest {args.manifest} {resume}"
                 if args.manifest
                 else f"the same repro sweep command plus {resume}"),
              file=sys.stderr)
        return exc.exit_code
    except PointFailure as failure:
        print(f"sweep aborted: {failure} "
              "(use --keep-going to collect partial results)",
              file=sys.stderr)
        return 1
    finally:
        if log is not None:
            log.close()
    if args.events:
        print(f"progress events -> {args.events}")
    if journal is not None:
        print(f"run journal {journal.run_id} "
              f"(segment {journal.segment}) -> {journal.run_dir}")
    if args.resume is not None:
        print(f"resumed: {journal.replay_preresolved} "
              f"completed point(s) replayed from the journal, "
              f"{journal.replay_poisoned} poisoned point(s) "
              "quarantined")
    elapsed = time.perf_counter() - start
    results = report.results

    def _policy_of(point):
        return (point.overrides or {}).get("hierarchy.policy", "lru")

    # FDIP baselines are per (workload, policy, scale, seed): a policy
    # reshapes the baseline substrate too, and a manifest may sweep
    # heterogeneous scales/seeds, so speedups must compare like with
    # like.
    def _base_key(point):
        return (point.workload, _policy_of(point), point.scale,
                point.seed)

    baselines = {_base_key(r.point): r.stats
                 for r in results if r.point.prefetcher is None}
    with_policy = bool(getattr(args, "policy", None)) or any(
        "hierarchy.policy" in (r.point.overrides or {}) for r in results)
    # Scale/seed columns appear only when the grid actually varies them
    # (manifests can; the flag path cannot).
    with_scale = len({r.point.scale for r in results}) > 1
    with_seed = len({r.point.seed for r in results}) > 1
    # Request-latency columns appear when any swept workload carries
    # per-request SLO accounting (the microservice family).
    with_slo = any(r.stats.has_request_latency for r in results)
    rows = []
    for r in results:
        base = baselines.get(_base_key(r.point))
        speedup = ("-" if r.point.prefetcher is None or base is None
                   else f"{r.stats.ipc / base.ipc - 1:+.1%}")
        row = [
            r.point.workload, r.point.prefetcher or "fdip",
        ]
        if with_scale:
            row.append(r.point.scale)
        if with_seed:
            row.append(str(r.point.seed))
        if with_policy:
            row.append(_policy_of(r.point))
        row += [
            f"{r.stats.ipc:.3f}", f"{r.stats.l1i_mpki:.2f}", speedup,
        ]
        if with_slo:
            if r.stats.has_request_latency:
                extra = r.stats.extra
                row += [
                    f"{extra['request.p50']:.0f}",
                    f"{extra['request.p95']:.0f}",
                    f"{extra['request.p99']:.0f}",
                    f"{r.stats.slo_attainment:.1%}",
                ]
            else:
                row += ["-", "-", "-", "-"]
        row += [r.source, f"{r.seconds:.2f}"]
        rows.append(row)
    header = ["workload", "prefetcher"]
    if with_scale:
        header.append("scale")
    if with_seed:
        header.append("seed")
    if with_policy:
        header.append("policy")
    header += ["ipc", "l1i_mpki", "speedup"]
    if with_slo:
        header += ["p50", "p95", "p99", "slo"]
    header += ["source", "secs"]
    print()
    print(format_table(header, rows))
    s = runner.run_cache_stats()
    simulated = s.simulations - before.simulations
    disk = s.disk_hits - before.disk_hits
    memory = s.memory_hits - before.memory_hits
    corrupt = s.corrupt - before.corrupt
    refused = s.refused - before.refused
    summary = (f"\n{len(results)}/{len(points)} points in {elapsed:.1f}s "
               f"with --jobs {args.jobs}: {simulated} simulated, "
               f"{disk} disk hits, {memory} memory hits")
    if corrupt:
        summary += f", {corrupt} corrupt cache entries recomputed"
    if refused:
        summary += (f", {refused} cache write(s) refused "
                    "(volume nearly full)")
    print(summary)
    if report.failures:
        print(f"\n{len(report.failures)} point(s) failed after retries:",
              file=sys.stderr)
        for failure in report.failures:
            print(f"  FAIL {failure}", file=sys.stderr)
        return 1
    return 0


def cmd_probe(args) -> int:
    import json

    trace = _get_trace(args)
    pf = (make_prefetcher(args.prefetcher)
          if args.prefetcher not in ("fdip", "none") else None)
    config = None
    if args.policy != "lru" or args.itlb_prefetch:
        from repro.experiments.policies import policy_overrides

        config = MachineConfig().replace(
            **policy_overrides(args.policy, args.itlb_prefetch)
        )
    stats = simulate(trace, config=config, prefetcher=pf,
                     warmup_fraction=args.warmup,
                     probe_interval=args.interval)
    instructions = stats.extra.get("probe.instructions", ())
    if not instructions:
        print("no probe samples: trace's measured window is shorter than "
              f"--interval {args.interval}", file=sys.stderr)
        return 1
    ipc = stats.extra["probe.ipc"]
    mpki = stats.extra["probe.l1i_mpki"]
    acc = stats.extra["probe.pf_accuracy"]
    if args.json:
        payload = {
            "workload": args.workload,
            "prefetcher": args.prefetcher,
            "policy": args.policy,
            "interval": args.interval,
            "instructions": list(instructions),
            "cycles": list(stats.extra["probe.cycles"]),
            "ipc": list(ipc),
            "l1i_mpki": list(mpki),
            "pf_accuracy": list(acc),
        }
        if stats.has_request_latency:
            extra = stats.extra
            payload["requests"] = {
                "count": extra["request.count"],
                "p50": extra["request.p50"],
                "p95": extra["request.p95"],
                "p99": extra["request.p99"],
                "slo_threshold": extra["request.slo_threshold"],
                "slo_attainment": extra["request.slo_attainment"],
                "window": extra["request.window"],
                "latency": list(extra["probe.request_latency"]),
                "timeline_p99": list(extra["probe.request_p99"]),
                "timeline_slo": list(extra["probe.request_slo"]),
            }
        print(json.dumps(payload))
        return 0
    print(f"{args.workload} @ {args.scale}, {args.prefetcher}: "
          f"{len(instructions)} samples every {args.interval} instructions")
    rows = [
        [f"{int(n):,}", f"{i:.3f}", f"{m:.2f}", f"{a:.2%}"]
        for n, i, m, a in zip(instructions, ipc, mpki, acc)
    ]
    print(format_table(
        ["instructions", "ipc", "l1i_mpki", "pf_accuracy"], rows,
    ))
    print(f"\nwhole window: IPC {stats.ipc:.3f}, "
          f"L1-I MPKI {stats.l1i_mpki:.2f}")
    if args.itlb_prefetch:
        print(f"I-TLB prefetch: {stats.itlb_misses} demand walks "
              f"(MPKI {stats.itlb_mpki:.3f}), {stats.itlb_pf_probes} "
              f"probes, {stats.itlb_pf_installs} installs, "
              f"{stats.itlb_pf_hits} covered by prefetch")
    if stats.has_request_latency:
        extra = stats.extra
        print(f"\nper-request latency ({int(extra['request.count'])} "
              f"requests, SLO threshold "
              f"{extra['request.slo_threshold']:.0f} cycles):")
        print(f"  p50 {extra['request.p50']:.0f}  "
              f"p95 {extra['request.p95']:.0f}  "
              f"p99 {extra['request.p99']:.0f}  "
              f"max {extra['request.max']:.0f}  "
              f"SLO attainment {stats.slo_attainment:.1%}")
        window = int(extra["request.window"])
        rows = [
            [f"{i * window}", f"{p50:.0f}", f"{p95:.0f}", f"{p99:.0f}",
             f"{slo:.1%}"]
            for i, (p50, p95, p99, slo) in enumerate(zip(
                extra["probe.request_p50"], extra["probe.request_p95"],
                extra["probe.request_p99"], extra["probe.request_slo"]))
        ]
        print(format_table(
            ["request#", "p50", "p95", "p99", "slo"], rows,
        ))
    return 0


def cmd_bundles(args) -> int:
    from repro.core.bundles import identify_bundles
    from repro.workloads.cache import get_application

    app = get_application(args.workload)
    threshold = (args.threshold * 1024 if args.threshold
                 else app.params.bundle_threshold)
    info = identify_bundles(app.binary, threshold)
    print(f"{app}")
    print(f"threshold {threshold // 1024} KB: {info.n_bundles} Bundle "
          f"entries / {info.n_functions} functions "
          f"({info.bundle_fraction:.2%})")
    live = sorted(
        (n for n in info.entries if not n.startswith("cold")),
        key=lambda n: -info.reachable[n],
    )[: args.top]
    print(format_table(
        ["entry point", "reachable_kb"],
        [[n, info.reachable[n] // 1024] for n in live],
    ))
    return 0


def cmd_characterize(args) -> int:
    from repro.workloads.cache import get_application
    from repro.workloads.characterize import characterize

    app = get_application(args.workload)
    trace = _get_trace(args)
    profile = characterize(app, trace)
    print(f"{args.workload} @ {args.scale}")
    print(format_table(["property", "value"], profile.rows()))
    print()
    print(format_table(
        ["stage", "avg footprint (KB)"],
        [[stage, f"{kb:.1f}"]
         for stage, kb in profile.stage_footprints_kb.items()],
    ))
    return 0


def cmd_trace(args) -> int:
    from repro.workloads.serialization import save_trace

    trace = _get_trace(args)
    save_trace(trace, args.output)
    print(f"wrote {trace} -> {args.output}")
    return 0


def cmd_manifest(args) -> int:
    from repro.experiments.manifest import ManifestError, load_manifest

    if args.action == "validate":
        bad = 0
        for path in args.files:
            try:
                manifest = load_manifest(path)
            except ManifestError as exc:
                print(exc, file=sys.stderr)
                bad += 1
                continue
            except FileNotFoundError:
                print(f"{path}: no such file", file=sys.stderr)
                bad += 1
                continue
            n = len(manifest.expand())
            sampled = (f" (sampled from {manifest.full_count})"
                       if manifest.sample else "")
            print(f"OK {path}: {manifest.name or '<unnamed>'}, "
                  f"{n} point(s){sampled}")
        return 2 if bad else 0

    if args.action == "expand":
        try:
            manifest = load_manifest(args.files[0])
        except ManifestError as exc:
            print(exc, file=sys.stderr)
            return 2
        points = manifest.expand()
        if args.json:
            import json

            print(json.dumps({
                "manifest": manifest.to_dict(),
                "count": len(points),
                "points": [
                    {"workload": p.workload,
                     "prefetcher": p.prefetcher or "fdip",
                     "scale": p.scale, "seed": p.seed,
                     "overrides": p.overrides or {}}
                    for p in points
                ],
            }, indent=2, sort_keys=True))
            return 0
        rows = [[str(i), p.workload, p.prefetcher or "fdip", p.scale,
                 str(p.seed),
                 (p.overrides or {}).get("hierarchy.policy", "-")]
                for i, p in enumerate(points)]
        print(format_table(
            ["#", "workload", "prefetcher", "scale", "seed", "policy"],
            rows))
        print(f"\n{len(points)} point(s)"
              + (f" sampled from {manifest.full_count}"
                 if manifest.sample else ""))
        return 0

    # action == "events": summarize (or tail) a sweep's JSONL progress
    # stream — one file, or a run-journal directory whose segments are
    # joined and seq-deduplicated.
    from pathlib import Path

    from repro.experiments.journal import read_run_events
    from repro.experiments.events import (
        follow_events,
        format_events_summary,
        read_events,
        summarize_events,
    )

    target = Path(args.files[0])
    if args.follow:
        import json

        path = target
        if target.is_dir():
            segments = sorted(target.glob("events-*.jsonl"))
            path = (segments[-1] if segments
                    else target / "events-0001.jsonl")
        try:
            for event in follow_events(path):
                print(json.dumps(event, sort_keys=True), flush=True)
        except KeyboardInterrupt:
            return 130
        return 0
    try:
        events = (read_run_events(target) if target.is_dir()
                  else read_events(target))
        summary = summarize_events(events)
    except (OSError, ValueError) as exc:
        print(f"{args.files[0]}: {exc}", file=sys.stderr)
        return 2
    print(format_events_summary(summary))
    if args.check and (summary["failed"] or summary["missing"]
                       or summary["duplicates"]):
        return 1
    return 0


def cmd_cache(args) -> int:
    from repro.experiments import diskcache

    stores = diskcache.stores()
    cache = stores["result"]
    if args.action == "info":
        for title, store in stores.items():
            s = store.stats()
            print(f"{title}: {s['entries']} entries, {s['bytes']} bytes, "
                  f"{s['quarantined']} quarantined, {s['shard_dirs']} "
                  f"shard dir(s) [{s['root']}]")
        s = cache.stats()
        if s["free_bytes"] is not None:
            floor = s["min_free_bytes"]
            print(f"volume: {s['free_bytes'] / 1e6:.0f} MB free "
                  f"(writes refused below {floor / 1e6:.0f} MB; "
                  "REPRO_CACHE_MIN_FREE)")
        return 0
    if args.action == "compact":
        for title, store in stores.items():
            report = store.compact(
                purge_quarantined=not args.keep_quarantined)
            print(f"{title}: {report.describe()}")
        return 0
    # action == "clear"
    from repro.experiments import runner

    runner.clear_run_cache(disk=True)
    print(f"cleared simulation cache at {cache.root}")
    return 0


def cmd_lint(args) -> int:
    from repro.lint.cli import cmd_lint as _cmd_lint

    return _cmd_lint(args)


def cmd_replay(args) -> int:
    from repro.workloads.serialization import load_trace

    trace = load_trace(args.file)
    print(f"loaded {trace}")
    pf = (make_prefetcher(args.prefetcher)
          if args.prefetcher not in ("fdip", "none") else None)
    stats = simulate(trace, prefetcher=pf, warmup_fraction=args.warmup)
    print(f"IPC {stats.ipc:.3f}, L1-I MPKI {stats.l1i_mpki:.2f}, "
          f"cycles {stats.cycles:.0f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hierarchical Prefetching (ASPLOS 2025) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ls = sub.add_parser("list",
                        help="list workloads, prefetchers and policies")
    ls.add_argument("--policies", action="store_true",
                    help="show only the replacement-policy table")

    run = sub.add_parser("run", help="simulate one prefetcher")
    run.add_argument("workload", choices=ALL_WORKLOAD_NAMES)
    run.add_argument("--prefetcher", default="hierarchical",
                     choices=PREFETCHER_NAMES)
    _add_scale(run)

    cmp_ = sub.add_parser("compare", help="run the comparison set")
    cmp_.add_argument("workload", choices=ALL_WORKLOAD_NAMES)
    cmp_.add_argument("--prefetchers", nargs="+",
                      default=list(PAPER_PREFETCHERS),
                      choices=[n for n in PREFETCHER_NAMES if n != "fdip"])
    cmp_.add_argument("--perfect", action="store_true",
                      help="include the perfect-L1I headroom row")
    _add_scale(cmp_)

    sw = sub.add_parser(
        "sweep",
        help="run a workload x prefetcher grid in parallel, with the "
             "persistent simulation cache",
    )
    sw.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                    help="workloads to sweep (default: all)")
    sw.add_argument("--prefetchers", nargs="+",
                    default=list(PAPER_PREFETCHERS),
                    choices=[n for n in PREFETCHER_NAMES if n != "fdip"])
    sw.add_argument("--jobs", type=int, default=1,
                    help="worker processes, one per point attempt "
                         "(default: 1 = run points in-process)")
    sw.add_argument("--no-cache", action="store_true",
                    help="ignore and do not update the result caches; "
                         "no run journal is written (nothing could "
                         "resume it)")
    sw.add_argument("--max-retries", type=int, default=2,
                    help="retries per point after a worker crash, "
                         "timeout, or transient fault (default: 2)")
    sw.add_argument("--point-timeout", type=float, default=None,
                    metavar="SECONDS",
                    help="kill and retry any point running longer than "
                         "this (needs --jobs >= 2)")
    sw.add_argument("--keep-going", action="store_true",
                    help="on unrecoverable point failures, keep "
                         "sweeping and report partial results "
                         "(exit 1 if any point failed)")
    sw.add_argument("--policy", nargs="+", choices=POLICY_NAMES,
                    metavar="POLICY",
                    help="replacement policies to cross with the "
                         f"prefetchers (choices: {', '.join(POLICY_NAMES)}; "
                         "default: lru only, no policy column)")
    sw.add_argument("--itlb-prefetch", action="store_true",
                    help="enable the I-TLB prefetch path on every "
                         "--policy point")
    sw.add_argument("--manifest", default=None, metavar="FILE",
                    help="run a declarative sweep manifest (.toml/.json, "
                         "docs/SWEEP_SERVICE.md) instead of building the "
                         "grid from flags")
    sw.add_argument("--events", default=None, metavar="FILE",
                    help="stream JSONL progress events (scheduled/"
                         "completed/retried/failed) to FILE")
    sw.add_argument("--resume", nargs="?", const="", default=None,
                    metavar="RUN_ID",
                    help="resume an interrupted run of the same grid — "
                         "completed points replay from journal + cache, "
                         "poison points are quarantined (default: the "
                         "grid's most recent run)")
    sw.add_argument("--run-dir", default=None, metavar="DIR",
                    help="run-journal root (default: <cache root>/runs "
                         "or REPRO_RUN_DIR)")
    _add_scale(sw)

    man = sub.add_parser(
        "manifest",
        help="validate, expand, or summarize declarative sweep "
             "manifests (docs/SWEEP_SERVICE.md)",
    )
    man.add_argument("action", choices=("validate", "expand", "events"),
                     help="validate FILES... | expand FILE | events FILE")
    man.add_argument("files", nargs="+", metavar="FILE",
                     help="manifest file(s); for 'events' one JSONL "
                          "stream or a run-journal directory (segments "
                          "joined)")
    man.add_argument("--json", action="store_true",
                     help="expand: emit the canonical manifest + points "
                          "as JSON")
    man.add_argument("--check", action="store_true",
                     help="events: exit 1 when the stream records "
                          "failures, unaccounted points, or duplicate "
                          "terminal events")
    man.add_argument("--follow", action="store_true",
                     help="events: tail the stream live (JSONL to "
                          "stdout), returning after its end record")

    cache = sub.add_parser(
        "cache",
        help="inspect or maintain the on-disk simulation cache "
             "(docs/SWEEP_CACHE.md)",
    )
    cache.add_argument("action", choices=("info", "compact", "clear"),
                       help="info: counters | compact: re-verify "
                            "entries, drop stale schemas and flat root "
                            "files, purge quarantine, GC empty shard "
                            "dirs | clear: delete everything")
    cache.add_argument("--keep-quarantined", action="store_true",
                       help="compact: keep *.corrupt sidecars instead "
                            "of purging them")

    probe = sub.add_parser(
        "probe",
        help="sample IPC/miss-rate/accuracy timelines over the measured "
             "window via the interval probe bus",
    )
    probe.add_argument("workload", choices=ALL_WORKLOAD_NAMES)
    probe.add_argument("--prefetcher", default="hierarchical",
                       choices=PREFETCHER_NAMES)
    probe.add_argument("--interval", type=int, default=20_000,
                       help="committed instructions between samples "
                            "(default: 20000)")
    probe.add_argument("--json", action="store_true",
                       help="emit the timelines as JSON")
    probe.add_argument("--policy", default="lru", choices=POLICY_NAMES,
                       help="replacement policy for caches + I-TLB "
                            "(default: lru)")
    probe.add_argument("--itlb-prefetch", action="store_true",
                       help="enable the I-TLB prefetch path")
    _add_scale(probe)

    bundles = sub.add_parser("bundles", help="Algorithm 1 report")
    bundles.add_argument("workload", choices=ALL_WORKLOAD_NAMES)
    bundles.add_argument("--threshold", type=int, default=0,
                         help="divergence threshold in KB "
                              "(default: the workload's)")
    bundles.add_argument("--top", type=int, default=15,
                         help="entries to display")

    char = sub.add_parser("characterize",
                          help="structural workload profile")
    char.add_argument("workload", choices=ALL_WORKLOAD_NAMES)
    _add_scale(char)

    trace = sub.add_parser("trace", help="generate and save a trace")
    trace.add_argument("workload", choices=ALL_WORKLOAD_NAMES)
    trace.add_argument("-o", "--output", required=True,
                       help="output .npz path")
    _add_scale(trace)

    replay = sub.add_parser("replay", help="simulate a saved trace")
    replay.add_argument("file", help="trace .npz path")
    replay.add_argument("--prefetcher", default="hierarchical",
                        choices=PREFETCHER_NAMES)
    replay.add_argument("--warmup", type=float, default=DEFAULT_WARMUP)

    lint = sub.add_parser(
        "lint",
        help="AST-based project lints (determinism, hot-loop hygiene, "
             "crash ordering); see docs/LINTING.md",
    )
    from repro.lint.cli import add_arguments as _add_lint_arguments
    _add_lint_arguments(lint)
    return parser


_COMMANDS = {
    "list": cmd_list,
    "run": cmd_run,
    "compare": cmd_compare,
    "sweep": cmd_sweep,
    "manifest": cmd_manifest,
    "cache": cmd_cache,
    "probe": cmd_probe,
    "bundles": cmd_bundles,
    "characterize": cmd_characterize,
    "trace": cmd_trace,
    "replay": cmd_replay,
    "lint": cmd_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
