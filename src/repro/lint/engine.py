"""The lint engine: file discovery, one pass per file, report.

Each file is parsed once, and every enabled rule analyzes that tree
into a per-file payload.  At report time each rule turns the payloads
of the whole run into :class:`~repro.lint.findings.Finding` records,
and ``# lint: allow[rule]`` waivers apply.  Nothing is cached: a full
scan of ``src/repro`` takes about a second.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.lint.config import LintConfig, find_project_root
from repro.lint.findings import ERROR, Finding, severity_rank
from repro.lint.registry import select_rules
from repro.lint.rules.base import FileContext, scan_directives

_SKIP_DIRS = {"__pycache__", ".git", "node_modules"}


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0

    def failed(self, fail_on: str = ERROR) -> bool:
        threshold = severity_rank(fail_on)
        return any(severity_rank(f.severity) >= threshold
                   for f in self.findings)


def iter_py_files(paths: Sequence[Path]) -> List[Path]:
    out: Set[Path] = set()
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                out.add(path.resolve())
        elif path.is_dir():
            for p in path.rglob("*.py"):
                if not any(part in _SKIP_DIRS or part.startswith(".")
                           for part in p.relative_to(path).parts):
                    out.add(p.resolve())
        else:
            raise FileNotFoundError(f"lint path does not exist: {path}")
    return sorted(out)


def _rel_posix(path: Path, root: Path) -> str:
    try:
        return path.relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def run_lint(
    paths: Optional[Sequence] = None,
    root: Optional[Path] = None,
    config: Optional[LintConfig] = None,
    rules: Optional[Iterable[str]] = None,
) -> LintReport:
    """Lint ``paths`` (default: ``config.paths`` under ``root``)."""
    if root is None:
        anchor = Path(paths[0]) if paths else Path.cwd()
        root = find_project_root(anchor)
    root = Path(root).resolve()
    config = config or LintConfig()
    active = select_rules(rules)
    lint_paths = [Path(p) for p in paths] if paths \
        else [root / p for p in config.paths]
    files = iter_py_files(lint_paths)

    payloads: Dict[str, Dict[str, dict]] = {}
    allows: Dict[str, Dict[int, Set[str]]] = {}
    findings: List[Finding] = []
    for path in files:
        rel = _rel_posix(path, root)
        source = path.read_bytes().decode("utf-8", errors="replace")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            findings.append(Finding(
                rule="parse", path=rel, line=exc.lineno or 1,
                col=exc.offset or 0,
                message=f"file does not parse: {exc.msg}"))
            continue
        directives = scan_directives(source)
        allows[rel] = directives.allows
        ctx = FileContext(path=rel, tree=tree, directives=directives,
                          config=config)
        payloads[rel] = {rule.name: rule.analyze(ctx) for rule in active}

    for rule in active:
        findings.extend(rule.report(
            {rel: p[rule.name] for rel, p in payloads.items()}, config))
    findings = [f for f in findings
                if not _allowed(f, allows.get(f.path, {}))]
    findings.sort(key=Finding.sort_key)
    return LintReport(findings=findings, files_scanned=len(files))


def _allowed(finding: Finding, allows: Dict[int, Set[str]]) -> bool:
    """Is ``finding`` waived by ``# lint: allow[...]`` on its line or
    the line above?"""
    granted = allows.get(finding.line, set()) | \
        allows.get(finding.line - 1, set())
    return finding.rule in granted or "all" in granted
