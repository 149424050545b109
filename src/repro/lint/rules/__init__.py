"""Per-rule AST visitors for ``repro lint``.

Each rule module exposes a class with:

* ``name`` — the rule identifier (``--rule NAME``);
* ``analyze(ctx)`` — walk ``ctx.tree`` once and return a per-file
  payload;
* ``report(payloads, config)`` — turn the per-file payloads of a whole
  run into :class:`~repro.lint.findings.Finding` records.  The rules
  here emit findings directly from ``analyze``.
"""

from repro.lint.rules.determinism import DeterminismRule
from repro.lint.rules.hotloop import HotLoopRule
from repro.lint.rules.ordering import CrashOrderingRule

__all__ = [
    "CrashOrderingRule",
    "DeterminismRule",
    "HotLoopRule",
]
