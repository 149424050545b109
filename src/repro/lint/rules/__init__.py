"""Per-rule AST visitors for ``repro lint``.

Each rule module exposes a class with:

* ``name`` — the rule identifier (``--rule NAME``);
* ``analyze(ctx)`` — walk ``ctx.tree`` once and return a per-file
  payload;
* ``report(payloads, config)`` — turn the per-file payloads of a whole
  run into :class:`~repro.lint.findings.Finding` records.  Most rules
  emit findings directly from ``analyze``; ``snapshot-coverage``
  resolves the ``SimComponent`` hierarchy across files here.
"""

from repro.lint.rules.determinism import DeterminismRule
from repro.lint.rules.hotloop import HotLoopRule
from repro.lint.rules.ordering import CrashOrderingRule
from repro.lint.rules.snapshot import SnapshotCoverageRule

__all__ = [
    "CrashOrderingRule",
    "DeterminismRule",
    "HotLoopRule",
    "SnapshotCoverageRule",
]
