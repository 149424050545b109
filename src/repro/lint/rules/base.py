"""Shared per-file context, waiver/fence directives, and AST helpers."""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.config import LintConfig

# Anchored at the start of a COMMENT token, so directive text quoted in
# docstrings or string literals never registers.
_DIRECTIVE_RE = re.compile(r"^#\s*lint:\s*([a-z-]+)(?:\[([^\]]*)\])?")


@dataclass
class Directives:
    """Lint directives scanned from one file's comments."""

    #: Line -> rule names from ``# lint: allow[rule, ...]``.
    allows: Dict[int, Set[str]] = field(default_factory=dict)
    #: ``# lint: hot-begin`` .. ``# lint: hot-end`` line ranges.
    fences: List[Tuple[int, int]] = field(default_factory=list)
    #: ``# lint: ordered[template]`` .. ``# lint: ordered-end`` regions
    #: as ``(lo, hi, template)`` (crash-ordering rule).
    ordered: List[Tuple[int, int, str]] = field(default_factory=list)
    #: Malformed directive messages, reported as findings.
    problems: List[Tuple[int, str]] = field(default_factory=list)


def _comment_tokens(source: str) -> List[Tuple[int, str]]:
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        return [(tok.start[0], tok.string) for tok in tokens
                if tok.type == tokenize.COMMENT]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return []


def scan_directives(source: str) -> Directives:
    """Parse every ``# lint:`` comment in a file (1-indexed lines)."""
    out = Directives()
    open_fence: Optional[int] = None
    open_ordered: Optional[Tuple[int, str]] = None
    for lineno, text in _comment_tokens(source):
        m = _DIRECTIVE_RE.match(text)
        if not m:
            continue
        kind, payload = m.group(1), m.group(2)
        if kind == "allow":
            if not payload:
                out.problems.append(
                    (lineno, "allow waiver needs rule names: "
                             "# lint: allow[rule, ...]"))
            else:
                rules = {r.strip() for r in payload.split(",") if r.strip()}
                out.allows.setdefault(lineno, set()).update(rules)
        elif kind == "hot-begin":
            if open_fence is not None:
                out.problems.append((lineno, "nested hot-begin fence"))
            open_fence = lineno
        elif kind == "hot-end":
            if open_fence is None:
                out.problems.append((lineno, "hot-end without hot-begin"))
            else:
                out.fences.append((open_fence, lineno))
                open_fence = None
        elif kind == "ordered":
            if not payload or not payload.strip():
                out.problems.append(
                    (lineno, "ordered region needs a template name: "
                             "# lint: ordered[template]"))
            elif open_ordered is not None:
                out.problems.append((lineno, "nested ordered region"))
            else:
                open_ordered = (lineno, payload.strip())
        elif kind == "ordered-end":
            if open_ordered is None:
                out.problems.append((lineno, "ordered-end without ordered"))
            else:
                out.ordered.append((open_ordered[0], lineno, open_ordered[1]))
                open_ordered = None
        else:
            out.problems.append((lineno, f"unknown lint directive {kind!r}"))
    if open_fence is not None:
        out.problems.append((open_fence, "hot-begin fence never closed"))
    if open_ordered is not None:
        out.problems.append((open_ordered[0], "ordered region never closed"))
    return out


@dataclass
class FileContext:
    """Everything a rule needs to analyze one file."""

    path: str                 # project-root-relative, POSIX separators
    tree: ast.Module
    directives: Directives
    config: LintConfig


class Rule:
    """Base interface; see ``repro.lint.rules.__doc__``."""

    name: str = ""

    def analyze(self, ctx: FileContext) -> dict:
        raise NotImplementedError

    def report(self, payloads: Dict[str, dict],
               config: LintConfig) -> list:
        """Default: findings were emitted inline during ``analyze``."""
        from repro.lint.findings import Finding
        out = []
        for path in sorted(payloads):
            for f in payloads[path].get("findings", ()):
                out.append(Finding(**f))
        return out


def finding_dict(rule: str, path: str, line: int, col: int, message: str,
                 severity: str) -> dict:
    """Finding payload, turned into a :class:`Finding` by ``report``."""
    return {"rule": rule, "path": path, "line": line, "col": col,
            "message": message, "severity": severity}


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def self_attr_chain(node: ast.AST) -> Optional[List[str]]:
    """Attribute names of a ``self.a.b...`` chain (subscripts skipped).

    ``self.x`` -> ``["x"]``; ``self.x.y[i].z`` -> ``["x", "y", "z"]``;
    anything not rooted at the name ``self`` -> None.
    """
    parts: List[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Name):
            return list(reversed(parts)) if node.id == "self" else None
        else:
            return None
