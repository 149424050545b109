"""Lint configuration: defaults plus the ``[tool.repro.lint]`` table.

The defaults encode this repository's layout; an out-of-tree checkout
(or a test fixture tree) overrides them through its own
``pyproject.toml``.  Parsing uses :mod:`tomllib` when available
(Python 3.11+); on older interpreters the defaults apply unchanged,
which is exactly what the CI lint job (pinned to 3.11) relies on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Tuple

try:
    import tomllib
except ImportError:  # Python < 3.11; run with the built-in defaults.
    tomllib = None

#: Directories whose code sits on the simulation path and must be
#: deterministic (relative to the project root, POSIX separators).
DEFAULT_DETERMINISM_PATHS = (
    "src/repro/cpu",
    "src/repro/frontend",
    "src/repro/prefetchers",
    "src/repro/workloads",
)

#: Paths where environment reads are configuration, not nondeterminism.
DEFAULT_ENV_OK_PATHS = (
    "src/repro/cpu/config.py",
    "src/repro/experiments",
)

#: Attributes that are machine wiring, never serialized state (see
#: docs/ARCHITECTURE.md §1 "Wiring is not state").
DEFAULT_WIRING_ATTRS = (
    "sim", "trace", "hierarchy", "stats", "params", "config",
)

#: Callables whose arguments cross a pickling process boundary.
DEFAULT_BOUNDARY_CALLABLES = (
    "Process", "apply_async", "submit", "map_async", "starmap_async",
    "sweep", "sweep_grid", "run_sweep",
)

#: Files required to contain at least one hot-begin/hot-end fence —
#: deleting a fence (and with it the hygiene checks) is itself an error.
DEFAULT_FENCED_PATHS = (
    "src/repro/cpu/simulator.py",
    "src/repro/frontend/fdip.py",
    "src/repro/core/prefetcher.py",
    "src/repro/memory/hierarchy.py",
    "src/repro/memory/policies.py",
)

#: Directories mapped to importable package roots when resolving
#: ``import repro.x`` to a project file (ProjectGraph).
DEFAULT_SRC_ROOTS = ("src",)

#: Files whose emitted-event dict literals and event consumers are
#: checked against the declarative schema table.
DEFAULT_EVENT_CONSUMER_PATHS = (
    "src/repro/experiments/service.py",
    "src/repro/experiments/sweep.py",
    "src/repro/experiments/journal.py",
    "src/repro/cli.py",
)

#: Functions that must mention every event kind in the schema.
DEFAULT_EVENT_EXHAUSTIVE_CONSUMERS = ("summarize_events",)

#: Directories where every ``raise`` must resolve to the taxonomy root.
DEFAULT_TAXONOMY_PATHS = ("src/repro/experiments",)

#: Files required to contain at least one ``# lint: ordered[...]``
#: region — crash-consistency sequences must stay annotated.
DEFAULT_ORDERED_PATHS = (
    "src/repro/experiments/diskcache.py",
    "src/repro/experiments/journal.py",
    "src/repro/experiments/sweep.py",
)


@dataclass(frozen=True)
class LintConfig:
    """Resolved configuration for one lint run."""

    paths: Tuple[str, ...] = ("src/repro",)
    determinism_paths: Tuple[str, ...] = DEFAULT_DETERMINISM_PATHS
    env_ok_paths: Tuple[str, ...] = DEFAULT_ENV_OK_PATHS
    wiring_attrs: Tuple[str, ...] = DEFAULT_WIRING_ATTRS
    boundary_callables: Tuple[str, ...] = DEFAULT_BOUNDARY_CALLABLES
    fenced_paths: Tuple[str, ...] = DEFAULT_FENCED_PATHS
    cache_file: str = ".repro-lint-cache.json"
    #: Waiver kinds honored in source comments; removing one from the
    #: config turns the corresponding waivers off repo-wide.
    waivers: Tuple[str, ...] = ("ephemeral", "allow")
    src_roots: Tuple[str, ...] = DEFAULT_SRC_ROOTS
    #: ``path::NAME`` of the declarative event-schema dict literal.
    event_schema_table: str = "src/repro/experiments/service.py::EVENT_SCHEMA"
    event_consumer_paths: Tuple[str, ...] = DEFAULT_EVENT_CONSUMER_PATHS
    event_exhaustive_consumers: Tuple[str, ...] = (
        DEFAULT_EVENT_EXHAUSTIVE_CONSUMERS)
    taxonomy_paths: Tuple[str, ...] = DEFAULT_TAXONOMY_PATHS
    taxonomy_root: str = "ExperimentError"
    ordered_paths: Tuple[str, ...] = DEFAULT_ORDERED_PATHS

    def fingerprint(self) -> str:
        """Hash of everything that invalidates cached file results."""
        payload = json.dumps(
            {k: list(v) if isinstance(v, tuple) else v
             for k, v in sorted(self.__dict__.items())},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()


_TABLE_KEYS = {
    "paths": "paths",
    "determinism-paths": "determinism_paths",
    "env-ok-paths": "env_ok_paths",
    "wiring-attrs": "wiring_attrs",
    "boundary-callables": "boundary_callables",
    "fenced-paths": "fenced_paths",
    "cache-file": "cache_file",
    "waivers": "waivers",
    "src-roots": "src_roots",
    "event-schema-table": "event_schema_table",
    "event-consumer-paths": "event_consumer_paths",
    "event-exhaustive-consumers": "event_exhaustive_consumers",
    "taxonomy-paths": "taxonomy_paths",
    "taxonomy-root": "taxonomy_root",
    "ordered-paths": "ordered_paths",
}

#: Keys holding a single string rather than a list of strings.
_SCALAR_KEYS = frozenset({
    "cache_file", "event_schema_table", "taxonomy_root",
})


def find_project_root(start: Path) -> Path:
    """Nearest ancestor of ``start`` holding a ``pyproject.toml``."""
    start = start.resolve()
    if start.is_file():
        start = start.parent
    for candidate in (start, *start.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return start


def load_config(root: Path) -> LintConfig:
    """Defaults overlaid with the root's ``[tool.repro.lint]`` table."""
    config = LintConfig()
    pyproject = root / "pyproject.toml"
    if tomllib is None or not pyproject.is_file():
        return config
    try:
        with open(pyproject, "rb") as fh:
            data = tomllib.load(fh)
    except (OSError, tomllib.TOMLDecodeError):
        return config
    table = data.get("tool", {}).get("repro", {}).get("lint", {})
    overrides = {}
    for key, value in table.items():
        attr = _TABLE_KEYS.get(key)
        if attr is None:
            raise ValueError(
                f"unknown [tool.repro.lint] key {key!r}; expected one of "
                f"{sorted(_TABLE_KEYS)}"
            )
        if attr in _SCALAR_KEYS:
            overrides[attr] = str(value)
        else:
            overrides[attr] = tuple(str(v) for v in value)
    return replace(config, **overrides) if overrides else config
