"""Finding records and the text/JSON report formats."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Sequence

WARNING = "warning"
ERROR = "error"
_SEVERITY_RANK = {WARNING: 1, ERROR: 2}

#: JSON schema version of the ``--format json`` output.
JSON_VERSION = 2


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: str = ERROR

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule, self.message)


def severity_rank(severity: str) -> int:
    try:
        return _SEVERITY_RANK[severity]
    except KeyError:
        raise ValueError(
            f"unknown severity {severity!r}; expected one of "
            f"{sorted(_SEVERITY_RANK)}"
        ) from None


def counts(findings: Sequence[Finding]) -> Dict[str, int]:
    out = {ERROR: 0, WARNING: 0}
    for f in findings:
        out[f.severity] = out.get(f.severity, 0) + 1
    return out


def format_text(findings: Sequence[Finding], files_scanned: int) -> str:
    lines: List[str] = [
        f"{f.path}:{f.line}:{f.col}: {f.severity} [{f.rule}] {f.message}"
        for f in findings
    ]
    c = counts(findings)
    lines.append(
        f"{len(findings)} finding(s) ({c[ERROR]} error(s), "
        f"{c[WARNING]} warning(s)) in {files_scanned} file(s)"
    )
    return "\n".join(lines)


def format_json(findings: Sequence[Finding], files_scanned: int) -> str:
    return json.dumps(
        {
            "version": JSON_VERSION,
            "findings": [asdict(f) for f in findings],
            "counts": counts(findings),
            "files_scanned": files_scanned,
        },
        indent=2,
        sort_keys=True,
    )
