"""``repro lint`` command-line front end.

Exit status: 0 when no finding reaches the ``--fail-on`` severity
(default: ``warning``, i.e. any finding fails), 1 otherwise, 2 on a
usage error such as a missing path.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.engine import run_lint
from repro.lint.findings import ERROR, WARNING, format_json, format_text
from repro.lint.registry import rule_names


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("paths", nargs="*", metavar="PATH",
                        help="files/directories to lint (default: "
                             "src/repro)")
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
    parser.add_argument("--root", default=None,
                        help="project root (default: nearest ancestor "
                             "with a pyproject.toml)")


def cmd_lint(args: argparse.Namespace) -> int:
    try:
        report = run_lint(paths=args.paths or None, root=args.root,
                          rules=args.rules)
    except (FileNotFoundError, ValueError) as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    text = format_text(report.findings, report.files_scanned)
    if args.format == "json":
        formatted = format_json(report.findings, report.files_scanned)
    else:
        formatted = text
    if args.output:
        Path(args.output).write_text(formatted + "\n", encoding="utf-8")
        print(text)
    else:
        print(formatted)
    return 1 if report.failed(args.fail_on) else 0


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (used by tests; ``repro lint`` wraps it)."""
    parser = argparse.ArgumentParser(prog="repro lint")
    add_arguments(parser)
    return cmd_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pre-commit runs the module directly
    raise SystemExit(main())
