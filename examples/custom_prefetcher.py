#!/usr/bin/env python3
"""Write your own instruction prefetcher against the simulator API.

Implements a simple next-N-line prefetcher through the
:class:`~repro.prefetchers.base.InstructionPrefetcher` hook interface
and races it against the built-in prefetchers — demonstrating how to
plug new ideas into the evaluation harness.

Run:
    python examples/custom_prefetcher.py [workload] [scale]
"""

import sys

from repro import get_trace, make_prefetcher, simulate
from repro.analysis.reporting import format_table
from repro.memory.cache import ORIGIN_PF
from repro.prefetchers.base import InstructionPrefetcher


class NextLinesPrefetcher(InstructionPrefetcher):
    """On every new cache block, prefetch the next ``depth`` blocks.

    The classic sequential prefetcher.  Note that it is surprisingly
    strong on this substrate: the synthetic code layout is highly
    sequential and the FDIP model does not fetch through unknown
    branches (DESIGN.md §5), so blind next-line prefetching covers
    misses the baseline leaves exposed.  Record-and-replay prefetchers
    earn their keep on the *long-range* misses instead.
    """

    name = "nextline"

    def __init__(self, depth: int = 2):
        super().__init__()
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.depth = depth

    def reset(self) -> None:
        self._last_block = -1

    def on_commit(self, i: int, now: float) -> None:
        block = self.trace.block1[i]  # the block's last cache line
        if block == self._last_block:
            return
        self._last_block = block
        self.issue_many(range(block + 1, block + self.depth + 1), now)


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "beego"
    scale = sys.argv[2] if len(sys.argv) > 2 else "bench"

    trace = get_trace(workload, scale=scale)
    baseline = simulate(trace)

    contenders = [
        ("nextline(2)", NextLinesPrefetcher(depth=2)),
        ("nextline(8)", NextLinesPrefetcher(depth=8)),
        ("eip", make_prefetcher("eip")),
        ("hierarchical", make_prefetcher("hierarchical")),
    ]
    rows = []
    for label, pf in contenders:
        stats = simulate(trace, prefetcher=pf)
        rows.append([
            label,
            f"{stats.ipc / baseline.ipc - 1:+.1%}",
            f"{stats.accuracy(ORIGIN_PF):.0%}",
            f"{stats.l1i_mpki:.1f}",
        ])
    print(f"{workload} @ {scale} — baseline IPC {baseline.ipc:.3f}, "
          f"MPKI {baseline.l1i_mpki:.1f}\n")
    print(format_table(
        ["prefetcher", "speedup", "accuracy", "mpki"], rows,
    ))


if __name__ == "__main__":
    main()
