"""Lint scope: which files each rule applies to.

The constants encode this repository's layout.  A fixture tree (or an
out-of-tree checkout) passes its own scope as
``run_lint(config=LintConfig(...))``.  All paths are project-root
relative with POSIX separators.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

#: The simulator packages, whose code must be deterministic.  The same
#: list as ``repro.experiments.runner._CODE_PACKAGES``, the packages the
#: result cache hashes as simulator code (a test keeps the two equal).
DETERMINISM_PATHS = tuple(
    f"src/repro/{package}"
    for package in ("callgraph", "core", "cpu", "frontend", "isa",
                    "memory", "prefetchers", "workloads")
)

#: Paths where environment reads are configuration, not nondeterminism.
ENV_OK_PATHS = (
    "src/repro/cpu/config.py",
    "src/repro/experiments",
)

#: Files required to contain at least one hot-begin/hot-end fence —
#: deleting a fence (and with it the hygiene checks) is itself an error.
FENCED_PATHS = (
    "src/repro/cpu/simulator.py",
    "src/repro/frontend/fdip.py",
    "src/repro/core/prefetcher.py",
    "src/repro/memory/hierarchy.py",
    "src/repro/memory/policies.py",
)

#: Files required to contain at least one ``# lint: ordered[...]``
#: region — crash-consistency sequences must stay annotated.
ORDERED_PATHS = (
    "src/repro/experiments/diskcache.py",
    "src/repro/experiments/journal.py",
)


@dataclass(frozen=True)
class LintConfig:
    """The scope of one lint run."""

    paths: Tuple[str, ...] = ("src/repro",)
    determinism_paths: Tuple[str, ...] = DETERMINISM_PATHS
    env_ok_paths: Tuple[str, ...] = ENV_OK_PATHS
    fenced_paths: Tuple[str, ...] = FENCED_PATHS
    ordered_paths: Tuple[str, ...] = ORDERED_PATHS


def find_project_root(start: Path) -> Path:
    """Nearest ancestor of ``start`` holding a ``pyproject.toml``."""
    start = start.resolve()
    if start.is_file():
        start = start.parent
    for candidate in (start, *start.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return start
