"""``repro lint`` command-line front end.

Exit status: 0 when no finding reaches the ``--fail-on`` severity
(default: ``warning``, i.e. any finding fails), 1 otherwise, 2 on a
usage error such as an unknown rule.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Set

from repro.lint.config import find_project_root
from repro.lint.engine import run_lint
from repro.lint.findings import (
    ERROR,
    WARNING,
    format_json,
    format_text,
    severity_rank,
)
from repro.lint.registry import rule_names


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("paths", nargs="*", metavar="PATH",
                        help="files/directories to lint (default: the "
                             "paths from [tool.repro.lint])")
    parser.add_argument("--rule", action="append", dest="rules",
                        metavar="NAME", choices=rule_names(),
                        help="run only this rule (repeatable); "
                             f"available: {', '.join(rule_names())}")
    parser.add_argument("--format", default="text",
                        choices=("text", "json"),
                        help="report format (default: text)")
    parser.add_argument("--output", default=None, metavar="FILE",
                        help="write the report to FILE instead of "
                             "stdout (stdout keeps a text summary)")
    parser.add_argument("--fail-on", default=WARNING,
                        choices=(WARNING, ERROR),
                        help="lowest severity that fails the run "
                             "(default: warning — any finding fails)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not write the result cache")
    parser.add_argument("--changed", action="store_true",
                        help="report only findings in files changed vs "
                             "--base-ref (full scan still feeds the "
                             "project graph; falls back to a full "
                             "report outside a git checkout)")
    parser.add_argument("--base-ref", default="HEAD", metavar="REF",
                        help="git ref --changed diffs against "
                             "(default: HEAD)")
    parser.add_argument("--root", default=None,
                        help="project root (default: nearest ancestor "
                             "with a pyproject.toml)")


def changed_files(root: Path, base_ref: str) -> Optional[Set[str]]:
    """Changed + untracked ``.py`` paths vs ``base_ref`` (POSIX,
    root-relative), or None when git is unavailable — the caller then
    falls back to a full report."""
    out: Set[str] = set()
    for cmd in (["git", "diff", "--name-only", base_ref, "--"],
                ["git", "ls-files", "--others",
                 "--exclude-standard", "--"]):
        try:
            proc = subprocess.run(
                cmd, cwd=root, capture_output=True, text=True,
                timeout=30, check=True)
        except (OSError, subprocess.SubprocessError):
            return None
        out.update(line.strip() for line in proc.stdout.splitlines()
                   if line.strip().endswith(".py"))
    return out


def cmd_lint(args: argparse.Namespace) -> int:
    root = Path(args.root).resolve() if args.root else \
        find_project_root(Path(args.paths[0]) if args.paths
                          else Path.cwd())
    changed: Optional[Set[str]] = None
    if getattr(args, "changed", False):
        changed = changed_files(root, getattr(args, "base_ref", "HEAD"))
    try:
        report = run_lint(
            paths=args.paths or None,
            root=root,
            rules=args.rules,
            use_cache=not args.no_cache,
            changed_only=changed,
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        formatted = format_json(report.findings, report.files_scanned,
                                report.cache_hits)
    else:
        formatted = format_text(report.findings, report.files_scanned,
                                report.cache_hits)
    if args.output:
        Path(args.output).write_text(formatted + "\n",
                                     encoding="utf-8")
        print(format_text(report.findings, report.files_scanned,
                          report.cache_hits))
    else:
        print(formatted)

    threshold = severity_rank(args.fail_on)
    failed = any(severity_rank(f.severity) >= threshold
                 for f in report.findings)
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (used by tests; ``repro lint`` wraps it)."""
    parser = argparse.ArgumentParser(prog="repro lint")
    add_arguments(parser)
    return cmd_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pre-commit runs the module directly
    raise SystemExit(main())
