"""crash-ordering: annotated fsync sequences keep their order.

The resume correctness proof (docs/RESILIENCE.md) rests on two
write-ordering disciplines:

* **atomic-replace** — durable files are produced as
  mkstemp → write → fsync → ``os.replace`` so a crash leaves either
  the old complete file or the new complete file, never a torn one
  (``DiskCache.put``, the journal's ``meta.json`` writer);
* **persist-before-append** — a point's result is persisted to the
  disk cache *before* its ``completed`` record is appended to the
  journal, so replay never trusts a journal record whose artifact
  is missing (``sweep._Supervisor.resolve``).

Those sequences are marked in source with ``# lint: ordered[template]``
… ``# lint: ordered-end``; inside each region the rule classifies
calls (write/dump, fsync, replace/rename, cache-put/seed, emit/append)
and verifies the template's ops are all present and ordered.  Files
listed under ``ordered-paths`` must contain at least one region —
deleting the annotation (and with it the check) is itself an error,
exactly like the hot-loop fences.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Tuple

from repro.lint.findings import ERROR
from repro.lint.rules.base import FileContext, Rule, dotted_name, finding_dict

ATOMIC_REPLACE = "atomic-replace"
PERSIST_BEFORE_APPEND = "persist-before-append"
_TEMPLATES = (ATOMIC_REPLACE, PERSIST_BEFORE_APPEND)

#: Call-name last segments per op class.
_WRITE_OPS = frozenset({"write", "writelines", "dump"})
_FSYNC_OPS = frozenset({"fsync", "fdatasync"})
_REPLACE_OPS = frozenset({"replace", "rename"})
_PERSIST_OPS = frozenset({"seed_cache", "put"})
_APPEND_OPS = frozenset({"emit", "append"})


def _region_calls(tree: ast.Module, lo: int,
                  hi: int) -> List[Tuple[str, int]]:
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and lo <= node.lineno <= hi:
            name = dotted_name(node.func)
            if name:
                calls.append((name, node.lineno))
    return sorted(calls, key=lambda c: c[1])


def _op_lines(calls: List[Tuple[str, int]],
              ops: frozenset) -> List[int]:
    return [line for name, line in calls
            if name.rsplit(".", 1)[-1] in ops]


class CrashOrderingRule(Rule):
    name = "crash-ordering"

    def analyze(self, ctx: FileContext) -> dict:
        findings: List[dict] = []

        def flag(line: int, message: str) -> None:
            findings.append(finding_dict(self.name, ctx.path, line, 0,
                                         message, ERROR))

        regions = ctx.directives.ordered
        if ctx.path in ctx.config.ordered_paths and not regions:
            flag(1, "file is listed in [tool.repro.lint] ordered-paths "
                    "but contains no '# lint: ordered[...]' region — "
                    "the crash-ordering checks are silently off")
        for lo, hi, template in regions:
            if template == ATOMIC_REPLACE:
                self._check_atomic(ctx, lo, hi, flag)
            elif template == PERSIST_BEFORE_APPEND:
                self._check_persist(ctx, lo, hi, flag)
            else:
                flag(lo, f"unknown ordered template {template!r}; "
                         f"expected one of {', '.join(_TEMPLATES)}")
        return {"findings": findings, "regions": len(regions)}

    def _check_atomic(self, ctx: FileContext, lo: int, hi: int,
                      flag) -> None:
        calls = _region_calls(ctx.tree, lo, hi)
        writes = _op_lines(calls, _WRITE_OPS)
        fsyncs = _op_lines(calls, _FSYNC_OPS)
        replaces = _op_lines(calls, _REPLACE_OPS)
        for ops, label in ((writes, "write/dump"),
                           (fsyncs, "fsync"),
                           (replaces, "replace/rename")):
            if not ops:
                flag(lo, f"ordered[{ATOMIC_REPLACE}] region has no "
                         f"{label} call; the sequence this annotation "
                         "protects is gone")
        if not (writes and fsyncs and replaces):
            return
        if max(writes) > min(fsyncs):
            flag(min(fsyncs),
                 f"ordered[{ATOMIC_REPLACE}] region writes after "
                 "fsync: every write must be flushed before the sync "
                 "that makes it durable")
        if max(fsyncs) > min(replaces):
            flag(min(replaces),
                 f"ordered[{ATOMIC_REPLACE}] region fsyncs after "
                 "replace: the rename must publish already-durable "
                 "bytes (write → fsync → replace)")

    def _check_persist(self, ctx: FileContext, lo: int, hi: int,
                       flag) -> None:
        calls = _region_calls(ctx.tree, lo, hi)
        persists = _op_lines(calls, _PERSIST_OPS)
        appends = _op_lines(calls, _APPEND_OPS)
        if not persists:
            flag(lo, f"ordered[{PERSIST_BEFORE_APPEND}] region has no "
                     "cache-persist call (seed_cache/put)")
        if not appends:
            flag(lo, f"ordered[{PERSIST_BEFORE_APPEND}] region has no "
                     "journal-append call (emit/append)")
        if persists and appends and min(appends) < min(persists):
            flag(min(appends),
                 f"ordered[{PERSIST_BEFORE_APPEND}] region appends to "
                 "the journal before persisting the artifact; a crash "
                 "between the two would journal a completion whose "
                 "result is unrecoverable")
