"""snapshot-coverage: every mutable SimComponent attribute is snapshotted.

For each ``SimComponent`` subclass the rule collects every ``self.X``
assignment target (plain/annotated/augmented assigns, stores through
subscripts or nested attributes, and receivers of mutating calls such
as ``self.X.append(...)``) across all methods, then checks the state
protocol:

* attributes assigned **only** in ``__init__`` are configuration and
  exempt;
* every other (mutable) attribute must be *covered* by ``state_dict``
  and ``load_state_dict``;
* attributes mutated outside ``reset`` must additionally be covered by
  ``reset``.

"Covered" means the method mentions ``self.X``, names the attribute as
a string constant (``"x"`` or ``"_x"`` — the ``_STATE_FIELDS`` idiom,
including class-level tuples of field names), or escapes to dynamic
attribute access (``self.__dict__`` / ``vars(self)`` /
``getattr(self, ...)`` — the ``InstructionPrefetcher`` deepcopy and
``HierarchicalPrefetcher`` scalar-loop idioms).  Protocol methods are
resolved through the class hierarchy across files, so a prefetcher that
inherits ``InstructionPrefetcher.state_dict`` is judged against it.

Derived state that is provably rebuilt (FDIP's trace-derived branch
prediction unit, bound decode tables) is waived with ``# lint: ephemeral`` on — or
directly above — any of its assignment sites.

The per-file output is a pure class index; hierarchy resolution
happens at report time over the whole run.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.config import LintConfig
from repro.lint.findings import ERROR, Finding
from repro.lint.rules.base import (
    FileContext,
    Rule,
    self_attr_chain,
    self_attr_root,
)

#: Method names whose call on ``self.X`` mutates ``X`` in place.
MUTATOR_METHODS = frozenset({
    "append", "appendleft", "add", "clear", "discard", "extend",
    "insert", "move_to_end", "pop", "popleft", "popitem", "push",
    "remove", "reverse", "rotate", "setdefault", "sort", "update",
})

_PROTOCOL = ("state_dict", "load_state_dict", "reset")
_ROOT_CLASS = "SimComponent"


def _base_names(node: ast.ClassDef) -> List[str]:
    names = []
    for base in node.bases:
        if isinstance(base, ast.Attribute):
            names.append(base.attr)
        elif isinstance(base, ast.Name):
            names.append(base.id)
    return names


def _assignment_targets(node: ast.AST) -> List[ast.AST]:
    """Flattened assignment-target expressions of a statement."""
    targets: List[ast.AST] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target] if node.value is not None else []
    elif isinstance(node, ast.AugAssign):
        targets = [node.target]
    elif isinstance(node, ast.For):
        targets = [node.target]
    flat: List[ast.AST] = []
    stack = list(targets)
    while stack:
        t = stack.pop()
        if isinstance(t, (ast.Tuple, ast.List)):
            stack.extend(t.elts)
        elif isinstance(t, ast.Starred):
            stack.append(t.value)
        else:
            flat.append(t)
    return flat


def _analyze_method(fn: ast.AST, ctx: FileContext) -> dict:
    """Attribute stores/mentions/strings/escape info for one method."""
    assigned: Dict[str, int] = {}      # attr -> first site line
    waived: Set[str] = set()
    mentions: Set[str] = set()
    strings: Set[str] = set()
    self_calls: Set[str] = set()       # self.m(...) -> coverage via m
    escape = False
    for node in ast.walk(fn):
        stores: List[str] = []
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign,
                             ast.For)):
            for target in _assignment_targets(node):
                attr = self_attr_root(target)
                if attr:
                    stores.append(attr)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and \
                    func.attr in MUTATOR_METHODS:
                attr = self_attr_root(func.value)
                if attr:
                    stores.append(attr)
            if isinstance(func, ast.Attribute) and \
                    isinstance(func.value, ast.Name) and \
                    func.value.id == "self":
                self_calls.add(func.attr)
            if isinstance(func, ast.Name) and \
                    func.id in ("getattr", "setattr", "delattr", "vars") \
                    and node.args \
                    and isinstance(node.args[0], ast.Name) \
                    and node.args[0].id == "self":
                escape = True
        if isinstance(node, ast.Attribute):
            chain = self_attr_chain(node)
            if chain:
                if chain[0] == "__dict__":
                    escape = True
                elif not chain[0].startswith("__"):
                    mentions.add(chain[0])
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            strings.add(node.value)
        for attr in stores:
            if attr.startswith("__"):
                continue
            assigned.setdefault(attr, node.lineno)
            if ctx.waived_ephemeral(node):
                waived.add(attr)
    return {
        "assigned": {a: line for a, line in assigned.items()},
        "waived": sorted(waived),
        "mentions": sorted(mentions),
        "strings": sorted(strings),
        "self_calls": sorted(self_calls),
        "escape": escape,
    }


def _covered(attr: str, proto: Optional[dict],
             class_strings: Sequence[str],
             method_map: Dict[str, dict]) -> bool:
    """Coverage closure: a protocol method covers an attribute directly
    or through any ``self.helper()`` it (transitively) calls — e.g.
    ``reset`` delegating to ``clear``."""
    if proto is None:
        return False
    stripped = attr.lstrip("_")
    seen_names: Set[str] = set(class_strings)
    visited: Set[int] = set()
    stack = [proto]
    while stack:
        m = stack.pop()
        if id(m) in visited:
            continue
        visited.add(id(m))
        if m["escape"] or attr in m["mentions"]:
            return True
        seen_names.update(m["strings"])
        for call in m.get("self_calls", ()):
            target = method_map.get(call)
            if target is not None:
                stack.append(target)
    return attr in seen_names or stripped in seen_names


class SnapshotCoverageRule(Rule):
    name = "snapshot-coverage"

    def analyze(self, ctx: FileContext) -> dict:
        classes: Dict[str, dict] = {}
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            class_strings: Set[str] = set()
            methods: Dict[str, dict] = {}
            for stmt in node.body:
                if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    for sub in ast.walk(stmt):
                        if isinstance(sub, ast.Constant) and \
                                isinstance(sub.value, str):
                            class_strings.add(sub.value)
                elif isinstance(stmt, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    methods[stmt.name] = _analyze_method(stmt, ctx)
            classes[node.name] = {
                "line": node.lineno,
                "bases": _base_names(node),
                "class_strings": sorted(class_strings),
                "methods": methods,
            }
        return {"classes": classes, "findings": []}

    # ------------------------------------------------------------------
    def report(self, payloads: Dict[str, dict],
               config: LintConfig) -> List[Finding]:
        # name -> (path, info); simple names are unique in this repo.
        index: Dict[str, Tuple[str, dict]] = {}
        for path in sorted(payloads):
            for name, info in payloads[path].get("classes", {}).items():
                index[name] = (path, info)

        descendants: Set[str] = set()
        known = {_ROOT_CLASS}
        changed = True
        while changed:
            changed = False
            for name, (_, info) in index.items():
                if name in known or name == _ROOT_CLASS:
                    continue
                if any(base in known for base in info["bases"]):
                    known.add(name)
                    descendants.add(name)
                    changed = True

        findings: List[Finding] = []
        for name in sorted(descendants):
            path, info = index[name]
            findings.extend(self._check_class(name, path, info, index,
                                              config))
        return findings

    def _chain(self, name: str,
               index: Dict[str, Tuple[str, dict]]) -> List[dict]:
        """DFS linearization of ``name`` and its scanned ancestors."""
        out: List[dict] = []
        seen: Set[str] = set()
        stack = [name]
        while stack:
            current = stack.pop(0)
            if current in seen or current == _ROOT_CLASS or \
                    current not in index:
                continue
            seen.add(current)
            info = index[current][1]
            out.append(info)
            stack = info["bases"] + stack
        return out

    def _check_class(self, name: str, path: str, info: dict,
                     index: Dict[str, Tuple[str, dict]],
                     config: LintConfig) -> List[Finding]:
        chain = self._chain(name, index)
        chain_strings: List[str] = []
        for c in chain:
            chain_strings.extend(c["class_strings"])
        # First definition along the chain wins (approximate MRO).
        method_map: Dict[str, dict] = {}
        for c in chain:
            for m_name, m in c["methods"].items():
                method_map.setdefault(m_name, m)
        protocol: Dict[str, Optional[dict]] = {
            proto_name: method_map.get(proto_name)
            for proto_name in _PROTOCOL
        }

        # Own attributes only: inherited state is checked on the class
        # that defines the methods mutating it.
        attrs: Dict[str, dict] = {}
        waived: Set[str] = set()
        for method_name, method in info["methods"].items():
            waived.update(method["waived"])
            for attr, line in method["assigned"].items():
                entry = attrs.setdefault(attr, {"methods": set(),
                                                "line": line})
                entry["methods"].add(method_name)
                entry["line"] = min(entry["line"], line)

        findings: List[Finding] = []
        wiring = set(config.wiring_attrs)
        for attr in sorted(attrs):
            if attr in wiring or attr in waived:
                continue
            methods = attrs[attr]["methods"]
            mutators = methods - {"__init__", "state_dict",
                                  "load_state_dict"}
            if not mutators:
                continue  # configuration: only ever set in __init__
            missing = [m for m in ("state_dict", "load_state_dict")
                       if not _covered(attr, protocol[m], chain_strings,
                                       method_map)]
            if mutators - {"reset"} and \
                    not _covered(attr, protocol["reset"], chain_strings,
                                 method_map):
                missing.append("reset")
            if missing:
                where = ", ".join(sorted(mutators))
                findings.append(Finding(
                    rule=self.name,
                    path=path,
                    line=attrs[attr]["line"],
                    col=0,
                    message=(
                        f"{name}.{attr} is mutated (in {where}) but not "
                        f"covered by {', '.join(missing)}; snapshot it "
                        "or waive derived state with '# lint: ephemeral'"
                    ),
                    severity=ERROR,
                ))
        return findings
