#!/usr/bin/env python3
"""Paired A/B gate on the performance ledger (benchmarks/ledger/).

    python3 .github/scripts/ledger_ab.py BASE_TREE HEAD_TREE

Runs each tree's own ``benchmarks/ledger/run.py`` on ``point_db`` and
``point_msvc`` for PAIRS pairs, alternating which tree goes first, so
both sides share the runner's drift.  Each ledger puts its own tree's
``src`` on ``PYTHONPATH``; neither tree needs installing.

Two rates are compared per workload: the ledger's end-to-end
``instr_per_s`` (trace instructions over the whole point, setup
included) and ``measure_ips``, the measured window's instructions over
its seconds, read from the timed repetition in ``ledger.json`` (the
discarded warm-up is skipped).  The measured window is where the
commit loop runs, and setup dilutes its slowdowns in ``instr_per_s``.
Two costs are compared as well, where lower is better: memory, the
ledger's ``peak_rss_mb``, and the fixed cost of a point, ``setup_s``
(process start to the first ``warmup()``: imports, the application
and trace builds).  ``instr_per_s`` alone dilutes a slower setup.

Exit status 1 when any invocation exits nonzero, reports
``correct: false`` or ``failed > 0``, or lacks a metric, or when on
either workload the median of the per-pair ratios head/base of either
rate is below ``1 - T``, or that of either cost above ``1 + T``, with
``T = max(FLOOR, Q3 - Q1)`` of those ratios: only the spread this run
measured can widen the floor.  A failed invocation ends the run after
its pair.  Exit 2 on a usage error.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

PAIRS = 10
FLOOR = 0.15
WORKLOADS = ("point_db", "point_msvc")
METRICS = ("instr_per_s", "measure_ips", "peak_rss_mb", "setup_s")
#: The gated metrics where lower is better; higher is better for the
#: others.
LOWER_IS_BETTER = ("peak_rss_mb", "setup_s")
#: With ``--seconds 0`` the ledger runs exactly ``--repeats`` timed
#: repetitions and lists them in ``ledger.json`` before the warm-up.
REPEATS = 1
LEDGER_ARGS = [arg for w in WORKLOADS for arg in ("--workload", w)] + [
    "--seconds", "0", "--repeats", str(REPEATS)]
#: One invocation takes about 20 s on a 2-vCPU runner.
TIMEOUT_S = 600


def parse_line(stdout: str) -> Optional[dict]:
    lines = stdout.strip().splitlines()
    try:
        line = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    return line if isinstance(line, dict) else None


def add_measure_ips(line: Optional[dict], doc: dict) -> None:
    """Add ``<workload>.measure_ips`` to ``line["metrics"]`` from the
    timed repetitions of the ledger's ``ledger.json`` document."""
    if not isinstance(line, dict) or not isinstance(
            line.get("metrics"), dict):
        return
    for run in doc.get("workloads", []):
        try:
            timed = run["reps"][:REPEATS]
            seconds = sum(r["measure_s"] for r in timed)
            instructions = sum(r["measured_instructions"] for r in timed)
        except (KeyError, TypeError):
            continue  # reported as a missing metric
        if seconds > 0:
            line["metrics"][f"{run['name']}.measure_ips"] = {
                "value": instructions / seconds, "unit": "instr/s"}


def metric(result: dict, workload: str, name: str) -> Optional[float]:
    try:
        value = result["line"]["metrics"][f"{workload}.{name}"]["value"]
    except (KeyError, TypeError):
        return None
    if isinstance(value, (int, float)) and value > 0:
        return float(value)
    return None


def problems_of(name: str, result: dict) -> List[str]:
    out = []
    if result["exit"] != 0:
        out.append(f"{name}: exit {result['exit']}")
    line = result["line"]
    if line is None:
        return out + [f"{name}: no JSON result line"]
    if line.get("correct") is not True:
        out.append(f"{name}: correct: {line.get('correct')}")
    if line.get("failed") != 0:
        out.append(f"{name}: failed: {line.get('failed')}")
    out += [f"{name}: no {w}.{m}" for w in WORKLOADS for m in METRICS
            if metric(result, w, m) is None]
    return out


def verdict(pairs: Sequence[Tuple[dict, dict]],
            ) -> Tuple[List[tuple], List[str]]:
    """``(rows, problems)`` for ``(base, head)`` pairs of invocation
    results ``{"exit": int, "line": dict | None}``, where ``line`` is
    the JSON object on the ledger's last stdout line, with the metrics
    :func:`add_measure_ips` adds.  The gate passes
    only when ``problems`` is empty.  A row is ``(workload, metric,
    base median, head median, median ratio, q1, q3, T, verdict)``."""
    problems: List[str] = []
    for i, (base, head) in enumerate(pairs, 1):
        problems += problems_of(f"pair {i} base", base)
        problems += problems_of(f"pair {i} head", head)
    rows = []
    for w in WORKLOADS:
        for m in METRICS:
            values = [(metric(b, w, m), metric(h, w, m)) for b, h in pairs]
            values = [(b, h) for b, h in values if b and h]
            if len(values) < 2:
                problems.append(f"{w}.{m}: fewer than 2 complete pairs")
                continue
            ratios = [h / b for b, h in values]
            q1, med, q3 = statistics.quantiles(ratios, n=4)
            threshold = max(FLOOR, q3 - q1)
            if m in LOWER_IS_BETTER:
                ok = med <= 1 + threshold
                failure = f"> {1 + threshold:.3f}"
            else:
                ok = med >= 1 - threshold
                failure = f"< {1 - threshold:.3f}"
            rows.append((w, m, statistics.median(b for b, _ in values),
                         statistics.median(h for _, h in values), med, q1,
                         q3, threshold, "ok" if ok else "REGRESSED"))
            if not ok:
                problems.append(f"{w}.{m}: median ratio {med:.3f} "
                                f"{failure}")
    return rows, problems


def shown(value: float) -> str:
    """A metric value for the report: whole numbers for rates and
    megabytes, three decimals for values below 100 (seconds)."""
    return f"{value:,.3f}" if value < 100 else f"{value:,.0f}"


def format_rows(rows: List[tuple]) -> str:
    lines = [f"{'workload':11s} {'metric':11s} {'base':>9s} {'head':>9s} "
             f"{'ratio':>6s} {'q1':>6s} {'q3':>6s} {'T':>6s}  verdict"]
    for w, m, base, head, med, q1, q3, threshold, verdict_ in rows:
        lines.append(f"{w:11s} {m:11s} {shown(base):>9s} {shown(head):>9s} "
                     f"{med:6.3f} {q1:6.3f} {q3:6.3f} {threshold:6.3f}  "
                     f"{verdict_}")
    return "\n".join(lines)


def run_ledger(tree: Path) -> dict:
    with tempfile.TemporaryDirectory(prefix="ledger-ab-") as out:
        cmd = [sys.executable,
               str(tree / "benchmarks" / "ledger" / "run.py"),
               *LEDGER_ARGS, "--out", out]
        try:
            done = subprocess.run(cmd, cwd=tree, capture_output=True,
                                  text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"{tree}: ledger killed after {TIMEOUT_S} s",
                  file=sys.stderr)
            return {"exit": -9, "line": None}
        if done.returncode:
            sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        line = parse_line(done.stdout)
        try:
            doc = json.loads((Path(out) / "ledger.json").read_text())
        except (OSError, ValueError):
            doc = {}
        add_measure_ips(line, doc)
    return {"exit": done.returncode, "line": line}


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print("usage: ledger_ab.py BASE_TREE HEAD_TREE", file=sys.stderr)
        return 2
    trees = {"base": Path(argv[0]).resolve(),
             "head": Path(argv[1]).resolve()}
    pairs = []
    for i in range(PAIRS):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        got = {}
        for side in order:
            t0 = time.monotonic()
            got[side] = run_ledger(trees[side])
            values = "  ".join(
                f"{w} " + "/".join(shown(metric(got[side], w, m) or 0)
                                   for m in METRICS) for w in WORKLOADS)
            print(f"pair {i + 1}/{PAIRS} {side} ({'/'.join(METRICS)}): "
                  f"{values} ({time.monotonic() - t0:.1f} s)", flush=True)
        pairs.append((got["base"], got["head"]))
        if any(problems_of(side, r) for side, r in got.items()):
            break  # simulated results repeat exactly: no more pairs
    rows, problems = verdict(pairs)
    table = format_rows(rows)
    report = "\n".join([table, *(f"FAIL {p}" for p in problems)])
    print("\n" + report)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as fh:
            fh.write(f"## Ledger A/B: head/base ratios, {len(pairs)} "
                     f"pairs\n```\n{report}\n```\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
