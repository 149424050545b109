"""Rule registry: name -> rule instance.

Adding a rule is three steps (see docs/LINTING.md "Adding a rule"):
subclass :class:`repro.lint.rules.base.Rule` in a new module under
``repro/lint/rules/``, give it a unique ``name``, and list it here.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.lint.rules import (
    CrashOrderingRule,
    DeterminismRule,
    HotLoopRule,
)
from repro.lint.rules.base import Rule

RULES: Dict[str, Rule] = {
    rule.name: rule
    for rule in (
        DeterminismRule(),
        HotLoopRule(),
        CrashOrderingRule(),
    )
}


def rule_names() -> List[str]:
    return sorted(RULES)


def select_rules(names: Optional[Iterable[str]] = None) -> List[Rule]:
    """Resolve ``--rule`` selections (None = every registered rule)."""
    if names is None:
        return [RULES[n] for n in sorted(RULES)]
    out = []
    for name in names:
        try:
            out.append(RULES[name])
        except KeyError:
            raise ValueError(
                f"unknown rule {name!r}; available: {', '.join(sorted(RULES))}"
            ) from None
    return out
