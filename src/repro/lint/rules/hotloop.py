"""hot-loop: hygiene inside ``# lint: hot-begin``/``hot-end`` fences.

The fenced regions are the per-commit code paths: the commit loop
(``FrontEndSimulator._run_range``), FDIP's runahead
(``FDIPFrontEnd.advance``), HP's ``HierarchicalPrefetcher.on_commit``,
the replacement policies' ``insert_line`` and the prefetch path of
``repro.memory.hierarchy`` (the ``MemoryHierarchy.prefetch_many`` loop
and the fill drain ``_drain``).  Every statement there executes once
per committed block or per prefetch request, so the hot-loop wins
regress silently if costly idioms creep back in.  Inside a fence the
rule flags:

* per-iteration allocation — list/dict/set displays, comprehensions,
  generator expressions, lambdas and nested ``def`` (error);
* module-global name reads inside a ``for``/``while`` loop — PR 3
  hoisted these to locals before the loop; a global read per iteration
  is a dict lookup per commit (error);
* repeated ``self.x.y`` attribute chains — two attribute lookups per
  occurrence that a single local binding would pay once (warning).

Files listed in ``FENCED_PATHS`` (:mod:`repro.lint.config`) must
contain at least one fence: deleting a fence silently disables the
checks, so its absence is itself an error.
"""

from __future__ import annotations

import ast
import builtins
from collections import Counter
from typing import Dict, List, Set, Tuple

from repro.lint.findings import ERROR, WARNING
from repro.lint.rules.base import (
    FileContext,
    Rule,
    finding_dict,
    self_attr_chain,
)

_BUILTIN_NAMES = frozenset(dir(builtins))
_ALLOC_NODES = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp,
                ast.DictComp, ast.GeneratorExp, ast.Lambda)
_ALLOC_LABEL = {
    ast.List: "list display", ast.Dict: "dict display",
    ast.Set: "set display", ast.ListComp: "list comprehension",
    ast.SetComp: "set comprehension", ast.DictComp: "dict comprehension",
    ast.GeneratorExp: "generator expression", ast.Lambda: "lambda",
}


def _span(node: ast.AST) -> Tuple[int, int]:
    return node.lineno, getattr(node, "end_lineno", node.lineno)


def _function_locals(fn: ast.AST) -> Set[str]:
    """Names bound anywhere in the function (conservative superset)."""
    names: Set[str] = set()
    args = fn.args
    for a in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        names.add(a.arg)
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and \
                isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)) and node is not fn:
            names.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
    return names


def _module_globals(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for t in targets:
                for sub in ast.walk(t):
                    if isinstance(sub, ast.Name):
                        names.add(sub.id)
    return names


class HotLoopRule(Rule):
    name = "hot-loop"

    def analyze(self, ctx: FileContext) -> dict:
        findings: List[dict] = []

        def flag(line: int, col: int, message: str,
                 severity: str = ERROR) -> None:
            findings.append(finding_dict(self.name, ctx.path, line, col,
                                         message, severity))

        for line, message in ctx.directives.problems:
            flag(line, 0, message)
        fences = ctx.directives.fences
        if ctx.path in ctx.config.fenced_paths and not fences:
            flag(1, 0, "file is listed in the lint config's fenced-paths "
                       "but contains no '# lint: hot-begin' fence — the "
                       "hot-loop hygiene checks are silently off")
        if not fences:
            return {"findings": findings}

        functions = [n for n in ast.walk(ctx.tree)
                     if isinstance(n, (ast.FunctionDef,
                                       ast.AsyncFunctionDef))]
        module_names = _module_globals(ctx.tree)

        for lo, hi in fences:
            scope = self._enclosing_function(functions, lo, hi)
            local_names = _function_locals(scope) if scope else set()
            region = self._region_nodes(scope or ctx.tree, lo, hi)
            self._check_allocations(region, flag)
            self._check_chains(region, flag)
            self._check_global_loads(region, module_names, local_names,
                                     flag)
        return {"findings": findings}

    # ------------------------------------------------------------------
    @staticmethod
    def _enclosing_function(functions, lo: int, hi: int):
        """Innermost function containing the whole fence, if any."""
        best = None
        for fn in functions:
            f_lo, f_hi = _span(fn)
            if f_lo <= lo and hi <= f_hi:
                if best is None or f_lo >= best.lineno:
                    best = fn
        return best

    @staticmethod
    def _region_nodes(root: ast.AST, lo: int, hi: int) -> List[ast.AST]:
        return [n for n in ast.walk(root)
                if getattr(n, "lineno", None) is not None
                and lo <= n.lineno <= hi]

    def _check_allocations(self, region, flag) -> None:
        for node in region:
            if isinstance(node, _ALLOC_NODES):
                flag(node.lineno, node.col_offset,
                     f"{_ALLOC_LABEL[type(node)]} allocated inside a hot "
                     "region; hoist it above the fence")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                flag(node.lineno, node.col_offset,
                     "closure defined inside a hot region; define it "
                     "once outside the fence")

    def _check_chains(self, region, flag) -> None:
        """Repeated ``self.x.y``+ load chains within one fence."""
        counts: Counter = Counter()
        first: Dict[str, Tuple[int, int]] = {}
        inner_attrs: Set[int] = set()
        for node in region:
            if not isinstance(node, ast.Attribute) or \
                    not isinstance(node.ctx, ast.Load):
                continue
            if id(node) in inner_attrs:
                continue
            chain = self_attr_chain(node)
            if not chain or len(chain) < 2:
                continue
            # Only count the outermost attribute of each chain.
            for sub in ast.walk(node):
                if sub is not node and isinstance(sub, ast.Attribute):
                    inner_attrs.add(id(sub))
            key = "self." + ".".join(chain)
            counts[key] += 1
            first.setdefault(key, (node.lineno, node.col_offset))
        for key, n in sorted(counts.items()):
            if n >= 2:
                line, col = first[key]
                flag(line, col,
                     f"attribute chain {key} read {n} times in a hot "
                     "region; bind it to a local once", WARNING)

    def _check_global_loads(self, region, module_names: Set[str],
                            local_names: Set[str], flag) -> None:
        seen: Set[str] = set()
        for node in region:
            if not isinstance(node, (ast.For, ast.While)):
                continue
            for sub in ast.walk(node):
                if not (isinstance(sub, ast.Name)
                        and isinstance(sub.ctx, ast.Load)):
                    continue
                name = sub.id
                if name in seen or name in local_names \
                        or name in _BUILTIN_NAMES \
                        or name not in module_names:
                    continue
                seen.add(name)
                flag(sub.lineno, sub.col_offset,
                     f"module-global '{name}' read inside a hot loop; "
                     "hoist it to a local before the loop (PR 3 idiom)")
