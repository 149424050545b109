"""SARIF 2.1.0 serialization of lint findings (CI annotations).

One run, one tool (``repro-lint``), one result per finding.  Columns
and lines are 1-based per the SARIF spec; the ``ruleIndex`` of each
result points into the deduplicated ``tool.driver.rules`` array so
viewers can group by rule.
"""

from __future__ import annotations

import json
from typing import List, Sequence

from repro.lint.findings import ERROR, Finding

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")

#: Per-rule one-liners surfaced in SARIF viewers.
RULE_DESCRIPTIONS = {
    "snapshot-coverage": "Mutable component state must be snapshotted.",
    "determinism": "Simulation code must stay deterministic.",
    "hot-loop": "Fenced hot loops must stay allocation-free.",
    "pickle-safety": "Worker-boundary arguments must pickle cleanly.",
    "event-schema": "Emitted events must match the declared schema.",
    "error-taxonomy": "Raises must resolve to the experiment taxonomy.",
    "crash-ordering": "Annotated regions must keep their fsync order.",
}


def to_sarif(findings: Sequence[Finding]) -> dict:
    """SARIF 2.1.0 log dict for one lint run."""
    rule_ids: List[str] = []
    for f in findings:
        if f.rule not in rule_ids:
            rule_ids.append(f.rule)
    rules = [
        {
            "id": rule_id,
            "shortDescription": {
                "text": RULE_DESCRIPTIONS.get(rule_id, rule_id),
            },
        }
        for rule_id in rule_ids
    ]
    results = [
        {
            "ruleId": f.rule,
            "ruleIndex": rule_ids.index(f.rule),
            "level": "error" if f.severity == ERROR else "warning",
            "message": {"text": f.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": f.path},
                    "region": {
                        "startLine": max(f.line, 1),
                        "startColumn": max(f.col + 1, 1),
                    },
                },
            }],
        }
        for f in findings
    ]
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "rules": rules,
                },
            },
            "results": results,
        }],
    }


def format_sarif(findings: Sequence[Finding]) -> str:
    return json.dumps(to_sarif(findings), indent=2, sort_keys=False)
