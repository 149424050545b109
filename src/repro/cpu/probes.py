"""Interval probe bus: periodic observability hooks over the commit loop.

A :class:`ProbeBus` with interval N fires once every N committed
instructions *inside the measurement window*, sampling the machine
(IPC, L1-I MPKI, prefetch accuracy) and publishing the resulting
timelines into ``SimStats.extra`` as flat immutable tuples under
``probe.*`` keys.

Zero-overhead-when-disabled is structural, not conditional: the
simulator pre-splits the measurement range at probe boundaries and runs
each chunk through the unmodified hot loop, firing the bus only between
chunks.  With probes disabled the measurement window is one chunk and
the hot loop is untouched.

Probes never fire during warmup, so a probed run's counters equal an
unprobed run's.  A warmup checkpoint (the pickled machine, see
:mod:`repro.experiments.runner`) carries the bus it was taken with.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.cpu.restore import Restorable
from repro.memory.cache import ORIGIN_PF

#: One probe sample: cumulative measured instructions and cycles, plus
#: interval IPC / L1-I MPKI and cumulative prefetch accuracy.
ProbeSample = Tuple[float, float, float, float, float]


class ProbeBus(Restorable):
    """Fires sampling hooks every ``interval`` committed instructions.

    ``interval <= 0`` disables the bus entirely.
    """

    def __init__(self, interval: int = 0):
        self.interval = int(interval)
        self.samples: List[ProbeSample] = []
        self._next_fire = 0
        self._prev_instructions = 0
        self._prev_cycles = 0.0
        self._prev_misses = 0

    @property
    def enabled(self) -> bool:
        return self.interval > 0

    # ------------------------------------------------------------------
    def begin(self) -> None:
        """Start a measurement window (stats were just reset)."""
        self.samples = []
        self._next_fire = self.interval
        self._prev_instructions = 0
        self._prev_cycles = 0.0
        self._prev_misses = 0

    @property
    def next_fire(self) -> int:
        """Measured-instruction count at which the next probe fires."""
        return self._next_fire

    def fire(self, sim) -> ProbeSample:
        """Sample the machine at a chunk boundary."""
        stats = sim.stats
        instructions = stats.instructions
        cycles = sim.now - sim._cycle0
        d_inst = instructions - self._prev_instructions
        d_cyc = cycles - self._prev_cycles
        d_miss = stats.l1i_misses - self._prev_misses
        sample: ProbeSample = (
            float(instructions),
            cycles,
            d_inst / d_cyc if d_cyc else 0.0,
            1000.0 * d_miss / d_inst if d_inst else 0.0,
            stats.accuracy(ORIGIN_PF),
        )
        self.samples.append(sample)
        self._prev_instructions = instructions
        self._prev_cycles = cycles
        self._prev_misses = stats.l1i_misses
        self._next_fire += self.interval
        return sample

    def publish(self, stats) -> None:
        """Write the collected timelines into ``stats.extra``.

        Values are flat immutable tuples, so they survive the shallow
        dict copies ``SimStats.state_dict`` makes for the disk cache.
        """
        if not self.samples:
            return
        columns = tuple(zip(*self.samples))
        extra: Dict[str, object] = stats.extra
        extra["probe.interval"] = float(self.interval)
        extra["probe.instructions"] = columns[0]
        extra["probe.cycles"] = columns[1]
        extra["probe.ipc"] = columns[2]
        extra["probe.l1i_mpki"] = columns[3]
        extra["probe.pf_accuracy"] = columns[4]

    def __repr__(self) -> str:
        return f"ProbeBus(interval={self.interval}, samples={len(self.samples)})"
