"""Project-specific static analysis (``repro lint``).

Three AST-based rules guard the simulator's invariants that the dynamic
test suite can only spot-check:

* ``determinism`` — no wall-clock, unseeded RNG, environment reads, or
  hash/set-order hazards in the simulator packages;
* ``hot-loop`` — inside ``# lint: hot-begin``/``hot-end`` fences, no
  repeated attribute chains, per-iteration allocation, or global
  lookups;
* ``crash-ordering`` — inside ``# lint: ordered[...]`` regions, the
  write → fsync → replace order holds.

See ``docs/LINTING.md`` for rule semantics and the waiver syntax.
"""

from repro.lint.config import LintConfig
from repro.lint.engine import LintReport, run_lint
from repro.lint.findings import Finding
from repro.lint.registry import RULES, rule_names

__all__ = [
    "Finding",
    "LintConfig",
    "LintReport",
    "RULES",
    "rule_names",
    "run_lint",
]
