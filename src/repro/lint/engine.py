"""The lint engine: file discovery, dependency-aware cache, dispatch.

Each file is parsed into one AST; every enabled rule analyzes that tree
into a JSON-serializable per-file payload, and the engine adds a
project index (module, imports, classes, call sites — see
:mod:`repro.lint.project`).  Payloads are cached in
``.repro-lint-cache.json`` keyed by a SHA-256 of

* the file's content,
* the configuration fingerprint, engine version, and enabled rule set,
* a fingerprint of the lint package's own sources (editing a rule
  invalidates every cached payload it produced), and
* the content hashes of the file's resolved project imports — so
  editing ``errors.py`` re-analyzes everything that imports it, fixing
  the v1 staleness hole where cross-file rules served stale findings.

At report time the engine assembles the per-file project indices into a
:class:`~repro.lint.project.ProjectGraph`, hands it to every rule's
``report`` and applies ``# lint: allow[rule]`` waivers.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.lint.config import LintConfig, find_project_root, load_config
from repro.lint.findings import ERROR, Finding, severity_rank
from repro.lint.project import ProjectGraph, build_file_index
from repro.lint.registry import select_rules
from repro.lint.rules.base import FileContext, scan_directives

#: Bump to invalidate every cached file result after engine changes.
ENGINE_VERSION = "2"

_SKIP_DIRS = {"__pycache__", ".git", ".lint-cache", "node_modules"}


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    cache_hits: int = 0

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


def _load_cache(path: Path) -> Dict[str, dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if data.get("engine") == ENGINE_VERSION:
            return data.get("files", {})
    except (OSError, ValueError):
        pass
    return {}


def _save_cache(path: Path, files: Dict[str, dict]) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"engine": ENGINE_VERSION, "files": files}, fh)
    except OSError:
        pass  # a read-only tree just loses caching, never correctness


_RULE_SOURCES_FP: Optional[str] = None


def rule_sources_fingerprint() -> str:
    """SHA-256 over every ``repro.lint`` source file (memoized).

    Folding this into each cache key means editing a rule module — or
    the engine itself — invalidates every cached payload, closing the
    second half of the v1 staleness bug.
    """
    global _RULE_SOURCES_FP
    if _RULE_SOURCES_FP is None:
        digest = hashlib.sha256()
        pkg = Path(__file__).resolve().parent
        for source in sorted(pkg.rglob("*.py")):
            digest.update(source.relative_to(pkg).as_posix().encode())
            try:
                digest.update(source.read_bytes())
            except OSError:
                pass
        _RULE_SOURCES_FP = digest.hexdigest()
    return _RULE_SOURCES_FP


def run_lint(
    paths: Optional[Sequence] = None,
    root: Optional[Path] = None,
    config: Optional[LintConfig] = None,
    rules: Optional[Iterable[str]] = None,
    use_cache: bool = True,
    changed_only: Optional[Set[str]] = None,
) -> LintReport:
    """Lint ``paths`` (default: the configured ones) and report.

    ``changed_only`` narrows *reporting* to the given project-relative
    paths plus everything re-analyzed because of them (dependents whose
    cache keys moved); analysis still covers the full scan set so
    cross-file rules see a complete graph.
    """
    if root is None:
        anchor = Path(paths[0]) if paths else Path.cwd()
        root = find_project_root(anchor)
    root = Path(root).resolve()
    if config is None:
        config = load_config(root)
    active = select_rules(rules)
    lint_paths = [Path(p) for p in paths] if paths \
        else [root / p for p in config.paths]
    files = iter_py_files(lint_paths)

    fingerprint = "|".join((config.fingerprint(), ENGINE_VERSION,
                            ",".join(r.name for r in active),
                            rule_sources_fingerprint()))
    cache_path = root / config.cache_file
    cache = _load_cache(cache_path) if use_cache else {}
    new_cache: Dict[str, dict] = {}

    rels: List[str] = []
    contents: Dict[str, bytes] = {}
    shas: Dict[str, str] = {}
    path_by_rel: Dict[str, Path] = {}
    for path in files:
        rel = _rel_posix(path, root)
        rels.append(rel)
        path_by_rel[rel] = path
        contents[rel] = path.read_bytes()
        shas[rel] = hashlib.sha256(contents[rel]).hexdigest()
    known = set(rels)

    # Pass 1: resolve each file's project imports.  Unchanged files
    # reuse the cached dependency list (same content, same imports);
    # changed files are parsed once here and the tree kept for pass 2.
    trees: Dict[str, Optional[ast.Module]] = {}
    deps_map: Dict[str, List[str]] = {}
    for rel in rels:
        cached = cache.get(rel)
        if cached is not None and cached.get("content_sha") == shas[rel]:
            deps_map[rel] = list(cached.get("deps", ()))
            continue
        tree = _parse(contents[rel], path_by_rel[rel])
        trees[rel] = tree
        if tree is None:
            deps_map[rel] = []
        else:
            deps_map[rel] = build_file_index(tree, rel, config,
                                             known)["deps"]

    def _dep_sha(dep: str) -> str:
        if dep in shas:
            return shas[dep]
        try:  # dependency outside the scan set, hashed from disk
            return hashlib.sha256((root / dep).read_bytes()).hexdigest()
        except OSError:
            return "missing"

    # Pass 2: dependency-aware keys, then analyze what moved.
    summaries: Dict[str, dict] = {}
    analyzed: Set[str] = set()
    cache_hits = 0
    for rel in rels:
        dep_tail = "".join(f"|{d}={_dep_sha(d)}"
                           for d in sorted(deps_map[rel]))
        key = hashlib.sha256(
            contents[rel] + (fingerprint + dep_tail).encode()
        ).hexdigest()
        cached = cache.get(rel)
        if cached is not None and cached.get("key") == key:
            summaries[rel] = cached["summary"]
            new_cache[rel] = cached
            cache_hits += 1
            continue
        tree = trees.get(rel, _MISSING)
        if tree is _MISSING:
            tree = _parse(contents[rel], path_by_rel[rel])
        summary = _analyze_file(tree, path_by_rel[rel], rel,
                                contents[rel], active, config, known)
        summaries[rel] = summary
        analyzed.add(rel)
        new_cache[rel] = {"key": key, "content_sha": shas[rel],
                          "deps": deps_map[rel], "summary": summary}
    if use_cache:
        _save_cache(cache_path, new_cache)

    graph = ProjectGraph(
        {rel: s.get("project", {}) for rel, s in summaries.items()},
        config)

    findings: List[Finding] = []
    for rule in active:
        payloads = {rel: s["rules"].get(rule.name, {})
                    for rel, s in summaries.items()}
        findings.extend(rule.report(payloads, config, graph))
    for rel, s in summaries.items():
        for f in s.get("findings", ()):
            findings.append(Finding(**f))
    findings = _apply_allows(findings, summaries)

    if changed_only is not None:
        visible = set(changed_only) | analyzed
        findings = [f for f in findings if f.path in visible]
    findings.sort(key=Finding.sort_key)
    return LintReport(findings=findings, files_scanned=len(files),
                      cache_hits=cache_hits)


_MISSING = object()


def _parse(content: bytes, path: Path) -> Optional[ast.Module]:
    try:
        return ast.parse(content.decode("utf-8", errors="replace"),
                         filename=str(path))
    except SyntaxError:
        return None


def _analyze_file(tree: Optional[ast.Module], path: Path, rel: str,
                  content: bytes, rules, config: LintConfig,
                  known: Set[str]) -> dict:
    source = content.decode("utf-8", errors="replace")
    summary: Dict[str, object] = {"rules": {}, "allows": {},
                                  "findings": [], "project": {}}
    if tree is None:
        try:
            ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            summary["findings"] = [{
                "rule": "parse", "path": rel,
                "line": exc.lineno or 1, "col": exc.offset or 0,
                "message": f"file does not parse: {exc.msg}",
                "severity": ERROR,
            }]
        return summary
    directives = scan_directives(source, config)
    summary["allows"] = {str(line): sorted(rules_)
                         for line, rules_ in directives.allows.items()}
    summary["project"] = build_file_index(tree, rel, config, known)
    ctx = FileContext(path=rel, tree=tree, directives=directives,
                      config=config)
    for rule in rules:
        summary["rules"][rule.name] = rule.analyze(ctx)
    return summary


def _apply_allows(findings: List[Finding],
                  summaries: Dict[str, dict]) -> List[Finding]:
    out = []
    for f in findings:
        allows = summaries.get(f.path, {}).get("allows", {})
        granted = set(allows.get(str(f.line), ())) | \
            set(allows.get(str(f.line - 1), ()))
        if f.rule in granted or "all" in granted:
            continue
        out.append(f)
    return out
