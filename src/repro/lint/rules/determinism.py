"""determinism: no nondeterminism sources on the simulation path.

Applies only to files under ``DETERMINISM_PATHS`` (:mod:`repro.lint.config`):
the simulator packages ``callgraph``, ``core``, ``cpu``, ``frontend``,
``isa``, ``memory``, ``prefetchers`` and ``workloads``.  Forbidden:

* wall-clock reads — any ``time.*`` call, ``datetime.now/utcnow``,
  ``date.today``;
* unseeded randomness — module-level ``random.*`` calls, ``random.Random()``
  with no seed, ``numpy.random.*`` except explicitly seeded constructors,
  and ``os.urandom``;
* environment reads (``os.environ`` / ``os.getenv``) outside
  ``ENV_OK_PATHS`` — configuration belongs in config or the
  experiment layer, not on the simulation path;
* iteration over ``set`` literals/comprehensions (``for x in {...}``):
  set order is insertion-and-hash dependent and must not reach results;
* builtin ``hash()`` of strings: randomized per process by
  PYTHONHASHSEED (the repo's stable hashing lives in
  ``repro.isa.loader.bundle_id_of`` / ``analysis.jaccard``).

A justified exception carries ``# lint: allow[determinism]`` on or
above the offending line.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.lint.findings import ERROR
from repro.lint.rules.base import FileContext, Rule, dotted_name, finding_dict

#: numpy RNG constructors that are deterministic when given a seed.
_SEEDED_NP = {"default_rng", "RandomState", "Generator", "SeedSequence",
              "PCG64", "Philox", "MT19937", "SFC64"}
_DATETIME_PREFIXES = {"datetime", "date"}
_DATETIME_CALLS = {"now", "utcnow", "today"}


def _path_matches(path: str, prefixes) -> bool:
    return any(path == p or path.startswith(p.rstrip("/") + "/")
               for p in prefixes)


def _is_stringish(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str)
    if isinstance(node, ast.JoinedStr):
        return True
    if isinstance(node, ast.Call):
        d = dotted_name(node.func)
        return d == "str" or (isinstance(node.func, ast.Attribute)
                              and node.func.attr in ("format", "join"))
    if isinstance(node, ast.BinOp):
        return _is_stringish(node.left) or _is_stringish(node.right)
    return False


class DeterminismRule(Rule):
    name = "determinism"

    def analyze(self, ctx: FileContext) -> dict:
        cfg = ctx.config
        if not _path_matches(ctx.path, cfg.determinism_paths):
            return {"findings": []}
        env_ok = _path_matches(ctx.path, cfg.env_ok_paths)
        findings: List[dict] = []

        def flag(node: ast.AST, message: str) -> None:
            findings.append(finding_dict(
                self.name, ctx.path, node.lineno, node.col_offset,
                message, ERROR,
            ))

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                self._check_call(node, flag)
            if isinstance(node, ast.Attribute) and node.attr == "environ" \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "os" and not env_ok:
                flag(node, "os.environ read on the simulation path; move "
                           "the knob to config/ or the experiment layer")
            if isinstance(node, ast.For) and \
                    isinstance(node.iter, (ast.Set, ast.SetComp)):
                flag(node, "iteration over a set literal/comprehension: "
                           "set order is nondeterministic; iterate a "
                           "sorted() or ordered collection")
            if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                 ast.GeneratorExp)):
                for gen in node.generators:
                    if isinstance(gen.iter, (ast.Set, ast.SetComp)):
                        flag(gen.iter,
                             "comprehension over a set literal: order is "
                             "nondeterministic; sort it first")
        return {"findings": findings}

    # ------------------------------------------------------------------
    def _check_call(self, node: ast.Call, flag) -> None:
        d: Optional[str] = dotted_name(node.func)
        if d is None:
            return
        parts = d.split(".")
        last = parts[-1]
        if parts[0] == "time" and len(parts) > 1:
            flag(node, f"wall-clock call {d}(): simulation code must be "
                       "deterministic (use cycle counts, not real time)")
        elif last in _DATETIME_CALLS and \
                any(p in _DATETIME_PREFIXES for p in parts[:-1]):
            flag(node, f"wall-clock call {d}(): nondeterministic")
        elif last == "urandom":
            flag(node, "os.urandom is nondeterministic; use a seeded "
                       "random.Random or xorshift")
        elif last == "getenv" and (len(parts) == 1 or parts[0] == "os"):
            flag(node, "os.getenv on the simulation path; move the knob "
                       "to config/ or the experiment layer")
        elif parts[0] == "random" and len(parts) > 1:
            if last == "Random":
                if not node.args:
                    flag(node, "random.Random() without a seed; pass an "
                               "explicit seed")
            elif last == "SystemRandom":
                flag(node, "random.SystemRandom is OS-entropy seeded and "
                           "nondeterministic")
            else:
                flag(node, f"module-level {d}() uses the shared unseeded "
                           "RNG; use an explicitly seeded random.Random "
                           "instance")
        elif len(parts) >= 3 and parts[0] in ("np", "numpy") \
                and parts[1] == "random":
            if last in _SEEDED_NP:
                if not node.args and not node.keywords:
                    flag(node, f"{d}() without a seed; pass one explicitly")
            else:
                flag(node, f"{d}() uses numpy's global unseeded RNG; use "
                           "a seeded Generator")
        elif d == "hash" and len(node.args) == 1 and \
                _is_stringish(node.args[0]):
            flag(node, "builtin hash() of a string varies with "
                       "PYTHONHASHSEED; use a stable hash (sha256, or "
                       "repro.isa.loader.bundle_id_of)")
