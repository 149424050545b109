"""Declarative sweep manifests: the evaluation grid as reviewable data.

A manifest describes a full (workloads × prefetchers × policies ×
scales × seeds × config-overrides) cross-product — optionally thinned
by a seeded sampler — in a TOML or JSON file, so the same grid
definition drives a local ``repro sweep --manifest`` and the CI smoke
and chaos jobs, instead of being re-spelled as ad-hoc Python (or
YAML-embedded shell) at every call site.

Schema (TOML form; the JSON form is the same structure)::

    [sweep]
    name = "ci-smoke"                 # optional, for reports
    workloads = ["mysql_sibench"]     # required, suite names
    prefetchers = ["eip", "mana"]     # default: the paper's set
    include_baseline = true           # prepend the FDIP point/workload
    policies = ["lru", "pf_aware"]    # optional replacement-policy axis
    itlb_prefetch = false             # applied with the policy axis
    scales = ["tiny"]                 # or: scale = "tiny"
    seeds = [1, 2]                    # or: seed = 1
    warmup = 0.4
    track_block_misses = false

    [sweep.overrides]                 # dotted MachineConfig overrides
    "hierarchy.l2_bytes" = 262144     # applied to every point

    [sample]                          # optional: thin the full grid
    count = 500                       # points to keep
    seed = 7                          # selection seed (deterministic)

Guarantees:

* **Validation** — every field is checked against the live registries
  (workload suite, prefetcher registry, replacement policies, scale
  presets, ``MachineConfig`` override keys); all problems are reported
  at once with their ``section.key`` path in a :class:`ManifestError`.
* **Deterministic expansion** — :meth:`SweepManifest.expand` emits
  :class:`~repro.experiments.sweep.SweepPoint` s in a fixed documented
  order (scale → seed → policy → workload, baseline first), and the
  sampler ranks points by a SHA-256 of ``(sample seed, index)`` — not a
  global RNG — so the same manifest always expands to the same points,
  on every platform and interpreter.
* **Round-trip** — ``from_dict(m.to_dict())`` reproduces the manifest
  exactly (asserted by tests/test_manifest.py), so tools can rewrite
  manifests without drift.

TOML parsing needs :mod:`tomllib` (Python 3.11+); on older
interpreters use the JSON form — the loader says so explicitly rather
than failing with an ImportError.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

try:
    import tomllib
except ImportError:  # Python < 3.9..3.10: JSON manifests only.
    tomllib = None

from repro.cpu import MachineConfig
from repro.experiments.errors import ExperimentError
from repro.experiments.policies import policy_overrides
from repro.experiments.runner import DEFAULT_WARMUP
from repro.experiments.sweep import DEFAULT_PREFETCHERS, SweepPoint, grid
from repro.memory.policies import POLICY_NAMES
from repro.prefetchers import PREFETCHER_NAMES
from repro.workloads.suite import ALL_WORKLOAD_NAMES, SCALES

__all__ = [
    "GridSample", "ManifestError", "SweepManifest",
    "load_manifest", "parse_manifest",
]


class ManifestError(ExperimentError, ValueError):
    """A manifest failed validation; ``errors`` lists every problem.

    ``ValueError`` is kept in the bases for callers that predate the
    :class:`~repro.experiments.errors.ExperimentError` taxonomy.
    """

    def __init__(self, source: str, errors: Sequence[str]):
        self.source = source
        self.errors = list(errors)
        lines = "\n".join(f"  - {e}" for e in self.errors)
        super().__init__(
            f"{source}: invalid sweep manifest "
            f"({len(self.errors)} problem(s)):\n{lines}"
        )


@dataclasses.dataclass(frozen=True)
class GridSample:
    """Seeded thinning of the full factorial grid."""

    count: int
    seed: int = 0

    def indices(self, total: int) -> List[int]:
        """The kept input-order indices of an ``total``-point grid.

        Each index is ranked by SHA-256 of ``"<seed>|<index>"`` and the
        ``count`` smallest digests win — deterministic across runs,
        platforms, and Python versions (unlike ``random.sample``, whose
        algorithm is an implementation detail).
        """
        if self.count >= total:
            return list(range(total))
        ranked = sorted(
            range(total),
            key=lambda i: hashlib.sha256(
                f"{self.seed}|{i}".encode("utf-8")).digest(),
        )
        return sorted(ranked[: self.count])


#: ``[sweep]`` keys (scalar aliases ``scale``/``seed`` included).
_SWEEP_KEYS = frozenset((
    "name", "workloads", "prefetchers", "include_baseline", "policies",
    "itlb_prefetch", "scale", "scales", "seed", "seeds", "warmup",
    "track_block_misses", "overrides",
))
_SAMPLE_KEYS = frozenset(("count", "seed"))


@dataclasses.dataclass(frozen=True)
class SweepManifest:
    """A validated sweep-grid definition (see the module docstring)."""

    workloads: Tuple[str, ...]
    prefetchers: Tuple[str, ...] = DEFAULT_PREFETCHERS
    name: str = ""
    include_baseline: bool = True
    policies: Tuple[str, ...] = ()
    itlb_prefetch: bool = False
    scales: Tuple[str, ...] = ("bench",)
    seeds: Tuple[int, ...] = (1,)
    warmup: float = DEFAULT_WARMUP
    track_block_misses: bool = False
    overrides: Optional[Mapping] = None
    sample: Optional[GridSample] = None

    # -- expansion -----------------------------------------------------
    @property
    def full_count(self) -> int:
        """Points in the un-sampled factorial grid."""
        per_workload = int(self.include_baseline) + sum(
            1 for p in self.prefetchers if p != "fdip")
        return (len(self.scales) * len(self.seeds)
                * max(1, len(self.policies))
                * len(self.workloads) * per_workload)

    def expand(self) -> List[SweepPoint]:
        """The manifest's :class:`SweepPoint` s, in canonical order
        (scale → seed → policy → workload, FDIP baseline first), after
        sampling when a ``[sample]`` table is present."""
        points: List[SweepPoint] = []
        for scale in self.scales:
            for seed in self.seeds:
                for policy in (self.policies or (None,)):
                    overrides = dict(self.overrides or {})
                    if policy is not None:
                        overrides.update(
                            policy_overrides(policy, self.itlb_prefetch))
                    points += grid(
                        self.workloads, self.prefetchers,
                        include_baseline=self.include_baseline,
                        scale=scale, seed=seed, warmup=self.warmup,
                        overrides=overrides or None,
                        track_block_misses=self.track_block_misses)
        if self.sample is not None:
            keep = self.sample.indices(len(points))
            points = [points[i] for i in keep]
        return points

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        """Canonical dict form; ``parse_manifest`` of it reproduces this
        manifest exactly (the round-trip contract)."""
        sweep: Dict[str, object] = {
            "name": self.name,
            "workloads": list(self.workloads),
            "prefetchers": list(self.prefetchers),
            "include_baseline": self.include_baseline,
            "policies": list(self.policies),
            "itlb_prefetch": self.itlb_prefetch,
            "scales": list(self.scales),
            "seeds": list(self.seeds),
            "warmup": self.warmup,
            "track_block_misses": self.track_block_misses,
        }
        if self.overrides:
            sweep["overrides"] = dict(self.overrides)
        data: Dict[str, object] = {"sweep": sweep}
        if self.sample is not None:
            data["sample"] = {"count": self.sample.count,
                              "seed": self.sample.seed}
        return data

    def dumps_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


# ----------------------------------------------------------------------
# Parsing + validation
# ----------------------------------------------------------------------
class _Checker:
    """Collects every problem before raising one ManifestError."""

    def __init__(self, source: str):
        self.source = source
        self.errors: List[str] = []

    def fail(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def raise_if_failed(self) -> None:
        if self.errors:
            raise ManifestError(self.source, self.errors)

    def names(self, raw, path: str, allowed: Sequence[str],
              what: str) -> Tuple[str, ...]:
        if not isinstance(raw, (list, tuple)):
            self.fail(path, f"expected a list of {what} names, "
                            f"got {type(raw).__name__}")
            return ()
        out = []
        for i, name in enumerate(raw):
            if not isinstance(name, str):
                self.fail(f"{path}[{i}]",
                          f"expected a {what} name string, got {name!r}")
            elif name not in allowed:
                self.fail(f"{path}[{i}]",
                          f"unknown {what} {name!r} (expected one of "
                          f"{', '.join(allowed)})")
            else:
                out.append(name)
        return tuple(out)

    def boolean(self, raw, path: str, default: bool) -> bool:
        if raw is None:
            return default
        if not isinstance(raw, bool):
            self.fail(path, f"expected true/false, got {raw!r}")
            return default
        return raw

    def number(self, raw, path: str, default: float) -> float:
        if raw is None:
            return default
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            self.fail(path, f"expected a number, got {raw!r}")
            return default
        return float(raw)


def _axis(checker: _Checker, table: dict, singular: str, plural: str,
          default: tuple) -> tuple:
    """Resolve a ``seed = 1`` / ``seeds = [1, 2]`` style axis pair."""
    if singular in table and plural in table:
        checker.fail(f"sweep.{singular}",
                     f"give either {singular!r} or {plural!r}, not both")
        return default
    if singular in table:
        return (table[singular],)
    if plural in table:
        raw = table[plural]
        if not isinstance(raw, (list, tuple)) or not raw:
            checker.fail(f"sweep.{plural}",
                         f"expected a non-empty list, got {raw!r}")
            return default
        return tuple(raw)
    return default


def parse_manifest(data: dict, source: str = "<manifest>") -> SweepManifest:
    """Validate ``data`` (the decoded TOML/JSON document) and build the
    manifest; raises :class:`ManifestError` listing *every* problem."""
    checker = _Checker(source)
    if not isinstance(data, dict):
        checker.fail("<document>",
                     f"expected a table/object, got {type(data).__name__}")
        checker.raise_if_failed()
    unknown = set(data) - {"sweep", "sample"}
    if unknown:
        checker.fail("<document>",
                     f"unknown section(s) {sorted(unknown)}; expected "
                     "[sweep] and optionally [sample]")
    sweep = data.get("sweep")
    if not isinstance(sweep, dict):
        checker.fail("sweep", "required [sweep] table is missing")
        checker.raise_if_failed()

    unknown = set(sweep) - _SWEEP_KEYS
    if unknown:
        checker.fail("sweep",
                     f"unknown key(s) {sorted(unknown)}; expected "
                     f"{sorted(_SWEEP_KEYS)}")

    name = sweep.get("name", "")
    if not isinstance(name, str):
        checker.fail("sweep.name", f"expected a string, got {name!r}")
        name = ""

    if "workloads" not in sweep:
        checker.fail("sweep.workloads", "required key is missing")
        workloads: Tuple[str, ...] = ()
    else:
        workloads = checker.names(sweep["workloads"], "sweep.workloads",
                                  ALL_WORKLOAD_NAMES, "workload")
        if isinstance(sweep["workloads"], (list, tuple)) \
                and not sweep["workloads"]:
            checker.fail("sweep.workloads", "must name at least one "
                         "workload")

    if "prefetchers" in sweep:
        raw_pf = sweep["prefetchers"]
        if isinstance(raw_pf, (list, tuple)):
            # JSON null is the baseline; normalize to its registry name.
            raw_pf = ["fdip" if p is None else p for p in raw_pf]
        prefetchers = checker.names(raw_pf, "sweep.prefetchers",
                                    PREFETCHER_NAMES, "prefetcher")
    else:
        prefetchers = DEFAULT_PREFETCHERS

    include_baseline = checker.boolean(
        sweep.get("include_baseline"), "sweep.include_baseline", True)
    itlb_prefetch = checker.boolean(
        sweep.get("itlb_prefetch"), "sweep.itlb_prefetch", False)
    track = checker.boolean(
        sweep.get("track_block_misses"), "sweep.track_block_misses",
        False)
    policies = checker.names(sweep.get("policies", []), "sweep.policies",
                             POLICY_NAMES, "policy")

    scales = _axis(checker, sweep, "scale", "scales", ("bench",))
    scales = checker.names(scales, "sweep.scales", tuple(sorted(SCALES)),
                           "scale")
    if not scales:
        scales = ("bench",)

    seeds = _axis(checker, sweep, "seed", "seeds", (1,))
    clean_seeds = []
    for i, seed in enumerate(seeds):
        if isinstance(seed, bool) or not isinstance(seed, int):
            checker.fail(f"sweep.seeds[{i}]",
                         f"expected an integer trace seed, got {seed!r}")
        else:
            clean_seeds.append(seed)
    seeds = tuple(clean_seeds) or (1,)

    warmup = checker.number(sweep.get("warmup"), "sweep.warmup",
                            DEFAULT_WARMUP)
    if not 0.0 <= warmup < 1.0:
        checker.fail("sweep.warmup",
                     f"warmup fraction must be in [0, 1), got {warmup}")

    overrides = sweep.get("overrides")
    if overrides is not None:
        if not isinstance(overrides, dict):
            checker.fail("sweep.overrides",
                         f"expected a table of dotted MachineConfig "
                         f"overrides, got {type(overrides).__name__}")
            overrides = None
        else:
            try:
                MachineConfig().replace(**overrides)
            except AttributeError as exc:
                checker.fail("sweep.overrides", str(exc))
            except TypeError as exc:
                checker.fail("sweep.overrides", f"bad override: {exc}")

    sample = None
    if "sample" in data:
        table = data["sample"]
        if not isinstance(table, dict):
            checker.fail("sample", f"expected a table, got "
                                   f"{type(table).__name__}")
        else:
            unknown = set(table) - _SAMPLE_KEYS
            if unknown:
                checker.fail("sample",
                             f"unknown key(s) {sorted(unknown)}; "
                             f"expected {sorted(_SAMPLE_KEYS)}")
            count = table.get("count")
            if isinstance(count, bool) or not isinstance(count, int) \
                    or count < 1:
                checker.fail("sample.count",
                             f"expected a positive integer, got {count!r}")
            seed = table.get("seed", 0)
            if isinstance(seed, bool) or not isinstance(seed, int):
                checker.fail("sample.seed",
                             f"expected an integer, got {seed!r}")
            if not checker.errors:
                sample = GridSample(count=count, seed=seed)

    checker.raise_if_failed()
    return SweepManifest(
        workloads=workloads, prefetchers=prefetchers, name=name,
        include_baseline=include_baseline, policies=policies,
        itlb_prefetch=itlb_prefetch, scales=scales, seeds=seeds,
        warmup=warmup, track_block_misses=track,
        overrides=dict(overrides) if overrides else None, sample=sample,
    )


def load_manifest(path: Union[str, Path]) -> SweepManifest:
    """Parse + validate the manifest file at ``path`` (``.toml`` or
    ``.json``, by suffix)."""
    path = Path(path)
    source = str(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ManifestError(source, [f"<file>: unreadable: {exc}"])
    suffix = path.suffix.lower()
    if suffix == ".toml":
        if tomllib is None:
            raise ManifestError(source, [
                "<file>: TOML manifests need Python 3.11+ (tomllib); "
                "use the JSON form on older interpreters"])
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ManifestError(source, [f"<file>: TOML parse error: "
                                         f"{exc}"])
    elif suffix == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ManifestError(source, [f"<file>: JSON parse error: "
                                         f"{exc}"])
    else:
        raise ManifestError(source, [
            f"<file>: unsupported manifest suffix {suffix!r} "
            "(expected .toml or .json)"])
    return parse_manifest(data, source=source)
