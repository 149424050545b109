"""Bundle entry-point identification (Algorithm 1 of the paper).

A *Bundle* is a stable acyclic region of the call graph between major
divergence points.  The algorithm marks a function as a Bundle entry
point when:

* its reachable size meets the divergence threshold, **and**
* for at least one caller (*father*), the caller's reachable size exceeds
  this function's reachable size by more than the threshold (the caller
  sits at a divergence point whose other paths are also large), **or**
* it is a root of the call graph (no callers) meeting the size
  requirement.

The paper's default divergence threshold is 200 KB; our synthetic
binaries are smaller than TiDB-scale ones, so workloads pick a threshold
proportional to their code size (see :mod:`repro.workloads.suite`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Set

from repro.callgraph import build_call_graph, reachable_sizes
from repro.callgraph.graph import CallGraph

#: Divergence threshold used in the paper (bytes).
DEFAULT_THRESHOLD = 200 * 1024


@dataclass
class BundleInfo:
    """Result of bundle identification over one binary."""

    threshold: int
    entries: Set[str]
    reachable: Dict[str, int]
    graph: CallGraph = field(repr=False)

    @property
    def n_functions(self) -> int:
        return len(self.graph)

    @property
    def n_bundles(self) -> int:
        return len(self.entries)

    @property
    def bundle_fraction(self) -> float:
        """Fraction of functions chosen as Bundle entry points (Table 4)."""
        if not self.graph:
            return 0.0
        return len(self.entries) / len(self.graph)


def get_bundle_entries(
    graph: CallGraph, threshold: int,
    reachable: Optional[Dict[str, int]] = None,
) -> Set[str]:
    """Algorithm 1: return the Bundle entry-point functions of ``graph``.

    Follows the paper's pseudo-code line by line: skip functions whose
    reachable size is below ``threshold``; mark a function when any
    father's reachable size exceeds it by more than ``threshold``; treat
    qualifying roots as entries.  ``reachable`` is
    ``reachable_sizes(graph)`` when the caller already has it.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    if reachable is None:
        reachable = reachable_sizes(graph)
    entries: Set[str] = set()
    for func, size in reachable.items():
        if size < threshold:
            continue
        fathers = graph.callers(func)
        if not fathers:
            entries.add(func)
            continue
        if any(reachable[father] - size > threshold for father in fathers):
            entries.add(func)
    return entries


def identify_bundles(
    binary: Iterable, threshold: int = DEFAULT_THRESHOLD
) -> BundleInfo:
    """Run the full software pass on ``binary`` and return a report.

    ``binary`` is any iterable of function-like objects (see
    :func:`repro.callgraph.build_call_graph`).
    """
    graph = build_call_graph(binary)
    reachable = reachable_sizes(graph)
    entries = get_bundle_entries(graph, threshold, reachable)
    return BundleInfo(
        threshold=threshold, entries=entries, reachable=reachable, graph=graph
    )
