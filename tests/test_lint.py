"""The ``repro lint`` static-analysis suite (docs/LINTING.md).

Each rule gets a positive (violating), negative (clean), and waived
fixture tree; the engine sections cover the JSON schema, exit codes,
rule selection, and the per-file result cache.  The final section runs
the real linter over the real ``src/repro`` tree — the same blocking
check CI runs — so a regression anywhere in the repo fails here first.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import run_lint
from repro.lint.cli import main as lint_main
from repro.lint.config import LintConfig, load_config
from repro.lint.findings import ERROR, WARNING
from repro.lint.registry import rule_names

REPO_ROOT = Path(__file__).resolve().parents[1]


def project(tmp_path, files, pyproject="[project]\nname = 'fixture'\n"):
    """Materialize a fixture project tree under ``tmp_path``."""
    (tmp_path / "pyproject.toml").write_text(pyproject)
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return tmp_path


def lint(tmp_path, **kwargs):
    kwargs.setdefault("use_cache", False)
    return run_lint(root=tmp_path, **kwargs)


def rules_hit(report):
    return sorted({f.rule for f in report.findings})


# ======================================================================
# snapshot-coverage
# ======================================================================
class TestSnapshotCoverage:
    def test_uncovered_mutable_attr_is_flagged(self, tmp_path):
        project(tmp_path, {"src/repro/comp.py": """\
            from repro.cpu.component import SimComponent

            class Counter(SimComponent):
                def __init__(self):
                    self.count = 0
                def bump(self):
                    self.count += 1
                def reset(self):
                    self.count = 0
                def state_dict(self):
                    return {}
                def load_state_dict(self, state):
                    pass
            """})
        report = lint(tmp_path, rules=["snapshot-coverage"])
        assert len(report.findings) == 1
        f = report.findings[0]
        assert f.severity == ERROR
        assert "Counter.count" in f.message
        assert "state_dict, load_state_dict" in f.message
        assert "reset" not in f.message.split("covered by")[1]

    def test_missing_reset_coverage_is_flagged(self, tmp_path):
        project(tmp_path, {"src/repro/comp.py": """\
            class Gauge(SimComponent):
                def __init__(self):
                    self.value = 0
                def poke(self):
                    self.value += 1
                def reset(self):
                    pass
                def state_dict(self):
                    return {"value": self.value}
                def load_state_dict(self, state):
                    self.value = state["value"]
            """})
        report = lint(tmp_path, rules=["snapshot-coverage"])
        assert len(report.findings) == 1
        assert "covered by reset" in report.findings[0].message

    def test_covered_component_is_clean(self, tmp_path):
        project(tmp_path, {"src/repro/comp.py": """\
            class Gauge(SimComponent):
                _STATE_FIELDS = ("value", "_ticks")

                def __init__(self):
                    self.value = 0
                    self._ticks = 0
                def poke(self):
                    self.value += 1
                    self._ticks += 1
                def reset(self):
                    self.value = 0
                    self._ticks = 0
                def state_dict(self):
                    return {f: getattr(self, f) for f in self._STATE_FIELDS}
                def load_state_dict(self, state):
                    for f in self._STATE_FIELDS:
                        setattr(self, f, state[f])
            """})
        assert lint(tmp_path, rules=["snapshot-coverage"]).findings == []

    def test_string_field_names_count_as_coverage(self, tmp_path):
        # The _STATE_FIELDS idiom: "ptr" covers self._ptr.
        project(tmp_path, {"src/repro/comp.py": """\
            class Walker(SimComponent):
                def __init__(self):
                    self._ptr = 0
                def advance(self):
                    self._ptr += 1
                def reset(self):
                    self._ptr = 0
                def state_dict(self):
                    return {"ptr": self._ptr}
                def load_state_dict(self, state):
                    self._ptr = state["ptr"]
            """})
        assert lint(tmp_path, rules=["snapshot-coverage"]).findings == []

    def test_init_only_attrs_are_configuration(self, tmp_path):
        project(tmp_path, {"src/repro/comp.py": """\
            class Sized(SimComponent):
                def __init__(self, n):
                    self.capacity = n  # never reassigned: config
                def state_dict(self):
                    return {}
                def load_state_dict(self, state):
                    pass
                def reset(self):
                    pass
            """})
        assert lint(tmp_path, rules=["snapshot-coverage"]).findings == []

    def test_ephemeral_waiver_suppresses(self, tmp_path):
        project(tmp_path, {"src/repro/comp.py": """\
            class Cached(SimComponent):
                def __init__(self):
                    self._derived = None  # lint: ephemeral
                def warm(self):
                    self._derived = 1
                def state_dict(self):
                    return {}
                def load_state_dict(self, state):
                    pass
                def reset(self):
                    pass
            """})
        assert lint(tmp_path, rules=["snapshot-coverage"]).findings == []

    def test_mutating_method_calls_count_as_mutation(self, tmp_path):
        project(tmp_path, {"src/repro/comp.py": """\
            class Bag(SimComponent):
                def __init__(self):
                    self.items = []
                def put(self, x):
                    self.items.append(x)
                def state_dict(self):
                    return {}
                def load_state_dict(self, state):
                    pass
                def reset(self):
                    self.items.clear()
            """})
        report = lint(tmp_path, rules=["snapshot-coverage"])
        assert len(report.findings) == 1
        assert "Bag.items" in report.findings[0].message

    def test_transitive_helper_coverage(self, tmp_path):
        # reset() delegating to clear() still covers the attribute.
        project(tmp_path, {"src/repro/comp.py": """\
            class Buffer(SimComponent):
                def __init__(self):
                    self.entries = []
                def put(self, x):
                    self.entries.append(x)
                def clear(self):
                    self.entries = []
                def reset(self):
                    self.clear()
                def state_dict(self):
                    return {"entries": list(self.entries)}
                def load_state_dict(self, state):
                    self.entries = list(state["entries"])
            """})
        assert lint(tmp_path, rules=["snapshot-coverage"]).findings == []

    def test_cross_file_inherited_protocol(self, tmp_path):
        # Child inherits Base's vars(self)-based snapshot: covered.
        # Orphan inherits a snapshot that names only Base's fields: not.
        files = {
            "src/repro/base.py": """\
                class DynamicBase(SimComponent):
                    def state_dict(self):
                        return dict(vars(self))
                    def load_state_dict(self, state):
                        self.__dict__.update(state)
                    def reset(self):
                        for key in vars(self):
                            setattr(self, key, 0)

                class NarrowBase(SimComponent):
                    def __init__(self):
                        self.x = 0
                    def tick(self):
                        self.x += 1
                    def state_dict(self):
                        return {"x": self.x}
                    def load_state_dict(self, state):
                        self.x = state["x"]
                    def reset(self):
                        self.x = 0
                """,
            "src/repro/child.py": """\
                from repro.base import DynamicBase, NarrowBase

                class Child(DynamicBase):
                    def __init__(self):
                        self.score = 0
                    def bump(self):
                        self.score += 1

                class Orphan(NarrowBase):
                    def __init__(self):
                        super().__init__()
                        self.extra = 0
                    def bump(self):
                        self.extra += 1
                """,
        }
        project(tmp_path, files)
        report = lint(tmp_path, rules=["snapshot-coverage"])
        assert len(report.findings) == 1
        f = report.findings[0]
        assert "Orphan.extra" in f.message
        assert f.path == "src/repro/child.py"

    def test_non_components_are_ignored(self, tmp_path):
        project(tmp_path, {"src/repro/plain.py": """\
            class Helper:
                def __init__(self):
                    self.n = 0
                def bump(self):
                    self.n += 1
            """})
        assert lint(tmp_path, rules=["snapshot-coverage"]).findings == []


# ======================================================================
# determinism
# ======================================================================
class TestDeterminism:
    def test_forbidden_idioms_on_simulation_path(self, tmp_path):
        project(tmp_path, {"src/repro/cpu/mod.py": """\
            import os
            import random
            import time

            def f(pages):
                t = time.time()
                knob = os.getenv("KNOB")
                other = os.environ.get("OTHER")
                r = random.random()
                h = hash("label")
                for p in {1, 2, 3}:
                    pages.append(p)
                return t, knob, other, r, h
            """})
        report = lint(tmp_path, rules=["determinism"])
        messages = " | ".join(f.message for f in report.findings)
        assert len(report.findings) == 6
        assert "time.time" in messages
        assert "os.getenv" in messages
        assert "os.environ" in messages
        assert "random.random" in messages
        assert "hash()" in messages
        assert "set literal" in messages

    def test_seeded_rng_is_clean(self, tmp_path):
        project(tmp_path, {"src/repro/cpu/mod.py": """\
            import random

            def f():
                rng = random.Random(42)
                return rng.random()
            """})
        assert lint(tmp_path, rules=["determinism"]).findings == []

    def test_unseeded_random_constructor_flagged(self, tmp_path):
        project(tmp_path, {"src/repro/cpu/mod.py": """\
            import random

            def f():
                return random.Random()
            """})
        report = lint(tmp_path, rules=["determinism"])
        assert len(report.findings) == 1
        assert "without a seed" in report.findings[0].message

    def test_outside_determinism_paths_is_exempt(self, tmp_path):
        project(tmp_path, {"src/repro/tools/mod.py": """\
            import time

            def f():
                return time.time()
            """})
        assert lint(tmp_path, rules=["determinism"]).findings == []

    def test_env_read_in_env_ok_path_is_policy(self, tmp_path):
        # src/repro/cpu/config.py is determinism-scoped but env-exempt.
        project(tmp_path, {"src/repro/cpu/config.py": """\
            import os

            def knob():
                return os.environ.get("REPRO_KNOB", "0")
            """})
        assert lint(tmp_path, rules=["determinism"]).findings == []

    def test_allow_waiver_suppresses(self, tmp_path):
        project(tmp_path, {"src/repro/cpu/mod.py": """\
            import os

            def capacity():
                # lint: allow[determinism]
                return int(os.environ.get("CAP", "6"))
            """})
        assert lint(tmp_path, rules=["determinism"]).findings == []


# ======================================================================
# hot-loop
# ======================================================================
class TestHotLoop:
    def test_allocation_inside_fence_is_error(self, tmp_path):
        project(tmp_path, {"src/repro/mod.py": """\
            def run(items, out):
                # lint: hot-begin
                for x in items:
                    out.append([x, x + 1])
                # lint: hot-end
            """})
        report = lint(tmp_path, rules=["hot-loop"])
        assert len(report.findings) == 1
        f = report.findings[0]
        assert f.severity == ERROR
        assert "list display" in f.message

    def test_repeated_attr_chain_is_warning(self, tmp_path):
        project(tmp_path, {"src/repro/mod.py": """\
            class Sim:
                def run(self, items):
                    total = 0
                    # lint: hot-begin
                    for x in items:
                        total += self.stats.hits
                        total -= self.stats.hits
                    # lint: hot-end
                    return total
            """})
        report = lint(tmp_path, rules=["hot-loop"])
        assert len(report.findings) == 1
        f = report.findings[0]
        assert f.severity == WARNING
        assert "self.stats.hits" in f.message

    def test_module_global_read_in_fenced_loop(self, tmp_path):
        project(tmp_path, {"src/repro/mod.py": """\
            PENALTY = 15.0

            def run(items):
                total = 0.0
                # lint: hot-begin
                for x in items:
                    total += PENALTY
                # lint: hot-end
                return total
            """})
        report = lint(tmp_path, rules=["hot-loop"])
        assert len(report.findings) == 1
        assert "'PENALTY'" in report.findings[0].message

    def test_hoisted_version_is_clean(self, tmp_path):
        project(tmp_path, {"src/repro/mod.py": """\
            PENALTY = 15.0

            def run(items):
                penalty = PENALTY
                total = 0.0
                # lint: hot-begin
                for x in items:
                    total += penalty
                # lint: hot-end
                return total
            """})
        assert lint(tmp_path, rules=["hot-loop"]).findings == []

    def test_outside_fence_is_not_checked(self, tmp_path):
        project(tmp_path, {"src/repro/mod.py": """\
            PENALTY = 15.0

            def run(items):
                out = []
                for x in items:
                    out.append([x, PENALTY])
                return out
            """})
        assert lint(tmp_path, rules=["hot-loop"]).findings == []

    def test_fenced_path_without_fence_is_error(self, tmp_path):
        project(tmp_path, {"src/repro/cpu/simulator.py": """\
            def run(items):
                return sum(items)
            """})
        report = lint(tmp_path, rules=["hot-loop"])
        assert len(report.findings) == 1
        assert "fenced-paths" in report.findings[0].message

    def test_unbalanced_fence_is_reported(self, tmp_path):
        project(tmp_path, {"src/repro/mod.py": """\
            def run(items):
                # lint: hot-begin
                return sum(items)
            """})
        report = lint(tmp_path, rules=["hot-loop"])
        assert any("never closed" in f.message for f in report.findings)

    def test_unknown_directive_is_reported(self, tmp_path):
        project(tmp_path, {"src/repro/mod.py": """\
            X = 1  # lint: hotbegin
            """})
        report = lint(tmp_path, rules=["hot-loop"])
        assert len(report.findings) == 1
        assert "unknown lint directive" in report.findings[0].message


# ======================================================================
# pickle-safety
# ======================================================================
class TestPickleSafety:
    def test_unpicklable_boundary_args_flagged(self, tmp_path):
        project(tmp_path, {"src/repro/mod.py": """\
            from multiprocessing import Process

            def launch(path):
                def helper(x):
                    return x

                p = Process(target=lambda: 1,
                            args=(open(path), helper))
                return p
            """})
        report = lint(tmp_path, rules=["pickle-safety"])
        messages = " | ".join(f.message for f in report.findings)
        assert len(report.findings) == 3
        assert "lambda" in messages
        assert "open() handle" in messages
        assert "'helper'" in messages

    def test_module_level_target_is_clean(self, tmp_path):
        project(tmp_path, {"src/repro/mod.py": """\
            from multiprocessing import Process

            def work(n):
                return n * 2

            def launch():
                return Process(target=work, args=(3,))
            """})
        assert lint(tmp_path, rules=["pickle-safety"]).findings == []

    def test_non_boundary_calls_are_ignored(self, tmp_path):
        project(tmp_path, {"src/repro/mod.py": """\
            def apply(fn):
                return fn()

            def run():
                return apply(lambda: 1)
            """})
        assert lint(tmp_path, rules=["pickle-safety"]).findings == []


# ======================================================================
# Engine: config, cache, output formats, exit codes
# ======================================================================
CLEAN = {"src/repro/mod.py": "X = 1\n"}
DIRTY = {"src/repro/mod.py": """\
    def run(items, out):
        # lint: hot-begin
        for x in items:
            out.append([x])
        # lint: hot-end
    """}


class TestEngine:
    def test_clean_tree_empty_report(self, tmp_path):
        project(tmp_path, CLEAN)
        report = lint(tmp_path)
        assert report.findings == []
        assert report.files_scanned == 1
        assert not report.failed(WARNING)

    def test_rule_selection(self, tmp_path):
        project(tmp_path, DIRTY)
        assert rules_hit(lint(tmp_path)) == ["hot-loop"]
        assert lint(tmp_path, rules=["determinism"]).findings == []
        with pytest.raises(ValueError, match="unknown rule"):
            lint(tmp_path, rules=["nope"])

    def test_unknown_config_key_rejected(self, tmp_path):
        project(tmp_path, CLEAN,
                pyproject="[tool.repro.lint]\nbogus = ['x']\n")
        with pytest.raises(ValueError, match="bogus"):
            load_config(tmp_path)

    def test_config_table_overrides(self, tmp_path):
        project(tmp_path, {"src/repro/other.py": "import time\n"
                                                 "t = time.time()\n"},
                pyproject="[tool.repro.lint]\n"
                          "determinism-paths = ['src/repro']\n"
                          "fenced-paths = []\n")
        report = lint(tmp_path)
        assert rules_hit(report) == ["determinism"]

    def test_explicit_paths_override_config(self, tmp_path):
        project(tmp_path, dict(DIRTY, **{
            "scripts/helper.py": "Y = 2\n"}))
        report = run_lint(paths=[tmp_path / "scripts"], root=tmp_path,
                          use_cache=False)
        assert report.files_scanned == 1
        assert report.findings == []

    def test_missing_path_raises(self, tmp_path):
        project(tmp_path, CLEAN)
        with pytest.raises(FileNotFoundError):
            run_lint(paths=[tmp_path / "no/such/dir"], root=tmp_path,
                     use_cache=False)

    def test_syntax_error_becomes_finding(self, tmp_path):
        project(tmp_path, {"src/repro/bad.py": "def broken(:\n"})
        report = lint(tmp_path)
        assert len(report.findings) == 1
        f = report.findings[0]
        assert f.rule == "parse" and f.severity == ERROR

    def test_cache_roundtrip_and_invalidation(self, tmp_path):
        project(tmp_path, dict(DIRTY, **CLEAN,
                               **{"src/repro/extra.py": "Z = 3\n"}))
        first = run_lint(root=tmp_path)
        assert first.cache_hits == 0
        assert (tmp_path / ".repro-lint-cache.json").is_file()

        second = run_lint(root=tmp_path)
        assert second.cache_hits == second.files_scanned == 2
        assert [f.message for f in second.findings] == \
            [f.message for f in first.findings]

        (tmp_path / "src/repro/extra.py").write_text("Z = 4\n")
        third = run_lint(root=tmp_path)
        assert third.cache_hits == 1

    def test_findings_are_sorted_and_stable(self, tmp_path):
        project(tmp_path, {
            "src/repro/cpu/b.py": "import time\nt = time.time()\n",
            "src/repro/cpu/a.py": "import time\nu = time.time()\n",
        })
        report = lint(tmp_path)
        paths = [f.path for f in report.findings]
        assert paths == sorted(paths)


class TestCli:
    def test_json_schema_and_exit_zero(self, tmp_path, capsys):
        project(tmp_path, CLEAN)
        rc = lint_main(["--root", str(tmp_path), "--format", "json",
                        "--no-cache"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["version"] == 1
        assert payload["findings"] == []
        assert payload["counts"] == {"error": 0, "warning": 0}
        assert payload["files_scanned"] == 1
        assert payload["cache_hits"] == 0

    def test_findings_exit_nonzero_with_locations(self, tmp_path, capsys):
        project(tmp_path, DIRTY)
        rc = lint_main(["--root", str(tmp_path), "--format", "json",
                        "--no-cache"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        (f,) = payload["findings"]
        assert set(f) == {"rule", "path", "line", "col", "message",
                          "severity"}
        assert f["path"] == "src/repro/mod.py"
        assert f["line"] == 4

    def test_fail_on_error_passes_warnings(self, tmp_path, capsys):
        project(tmp_path, {"src/repro/mod.py": """\
            class Sim:
                def run(self, items):
                    total = 0
                    # lint: hot-begin
                    for x in items:
                        total += self.stats.hits + self.stats.hits
                    # lint: hot-end
                    return total
            """})
        root = str(tmp_path)
        assert lint_main(["--root", root, "--no-cache"]) == 1
        capsys.readouterr()
        assert lint_main(["--root", root, "--no-cache",
                          "--fail-on", "error"]) == 0

    def test_usage_error_exit_two(self, tmp_path, capsys):
        project(tmp_path, CLEAN)
        rc = lint_main(["--root", str(tmp_path), "--no-cache",
                        "no/such/path"])
        assert rc == 2
        assert "repro lint:" in capsys.readouterr().err

    def test_text_format_summary_line(self, tmp_path, capsys):
        project(tmp_path, DIRTY)
        lint_main(["--root", str(tmp_path), "--no-cache"])
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].startswith("src/repro/mod.py:4:")
        assert out[-1].endswith("in 1 file(s) (0 cached)")


# ======================================================================
# event-schema
# ======================================================================
EVENT_PYPROJECT = """\
[project]
name = 'fixture'
[tool.repro.lint]
event-schema-table = 'src/repro/svc.py::EVENT_SCHEMA'
event-consumer-paths = ['src/repro/svc.py', 'src/repro/consume.py']
event-exhaustive-consumers = ['summarize']
"""

EVENT_TABLE = """\
EVENT_SCHEMA = {
    "begin": {"required": ("total",), "optional": ("run_id",)},
    "end": {"required": ("status",)},
}
"""


class TestEventSchema:
    def lint_events(self, tmp_path, svc_extra="", consume=None):
        files = {"src/repro/svc.py":
                 EVENT_TABLE + textwrap.dedent(svc_extra)}
        if consume is not None:
            files["src/repro/consume.py"] = consume
        project(tmp_path, files, pyproject=EVENT_PYPROJECT)
        return lint(tmp_path, rules=["event-schema"])

    def test_conforming_emits_are_clean(self, tmp_path):
        report = self.lint_events(tmp_path, """\

            def run(emit):
                emit("begin", total=3, run_id="r1")
                emit("end", status="ok")
            """)
        assert report.findings == []

    def test_unknown_kind_flagged(self, tmp_path):
        report = self.lint_events(tmp_path, """\

            def run(emit):
                emit("bogus", total=3)
            """)
        assert len(report.findings) == 1
        assert "unknown event kind 'bogus'" in report.findings[0].message

    def test_missing_required_key_flagged(self, tmp_path):
        report = self.lint_events(tmp_path, """\

            def run(emit):
                emit("begin", run_id="r1")
            """)
        assert len(report.findings) == 1
        assert "missing required key(s): total" in \
            report.findings[0].message

    def test_undeclared_key_flagged(self, tmp_path):
        report = self.lint_events(tmp_path, """\

            def run(emit):
                emit("begin", total=1, color="red")
            """)
        assert len(report.findings) == 1
        assert "undeclared key(s): color" in report.findings[0].message

    def test_splat_skips_required_check(self, tmp_path):
        report = self.lint_events(tmp_path, """\

            def run(emit, info):
                emit("begin", **info)
            """)
        assert report.findings == []

    def test_consumer_unknown_kind_flagged(self, tmp_path):
        report = self.lint_events(tmp_path, consume="""\
            def dispatch(event):
                kind = event.get("event")
                if kind == "begun":
                    return 1
                return 0
            """)
        assert len(report.findings) == 1
        assert "dispatches on event kind 'begun'" in \
            report.findings[0].message

    def test_exhaustive_consumer_missing_kind_flagged(self, tmp_path):
        report = self.lint_events(tmp_path, consume="""\
            def summarize(events):
                for e in events:
                    k = e["event"]
                    if k == "begin":
                        pass
            """)
        assert len(report.findings) == 1
        assert "missing: end" in report.findings[0].message

    def test_non_literal_table_is_schema_error(self, tmp_path):
        project(tmp_path, {
            "src/repro/svc.py": "EVENT_SCHEMA = make_schema()\n"},
            pyproject=EVENT_PYPROJECT)
        report = lint(tmp_path, rules=["event-schema"])
        assert len(report.findings) == 1
        assert "not a literal dict" in report.findings[0].message

    def test_rule_inert_without_table_in_scan_set(self, tmp_path):
        project(tmp_path, {"src/repro/consume.py": """\
            def run(emit):
                emit("whatever", x=1)
            """},
            pyproject="[project]\nname = 'fixture'\n"
                      "[tool.repro.lint]\n"
                      "event-schema-table = "
                      "'src/repro/absent.py::EVENT_SCHEMA'\n"
                      "event-consumer-paths = ['src/repro/consume.py']\n")
        assert lint(tmp_path, rules=["event-schema"]).findings == []


# ======================================================================
# error-taxonomy
# ======================================================================
TAXONOMY_PYPROJECT = """\
[project]
name = 'fixture'
[tool.repro.lint]
taxonomy-paths = ['src/repro']
"""

TAXONOMY_ERRORS = """\
class ExperimentError(Exception):
    pass


class GoodError(ExperimentError, ValueError):
    pass
"""


class TestErrorTaxonomy:
    def lint_tax(self, tmp_path, mod):
        project(tmp_path, {
            "src/repro/errors.py": TAXONOMY_ERRORS,
            "src/repro/mod.py": mod,
        }, pyproject=TAXONOMY_PYPROJECT)
        return lint(tmp_path, rules=["error-taxonomy"])

    def test_builtin_raise_flagged(self, tmp_path):
        report = self.lint_tax(tmp_path, """\
            def bad():
                raise ValueError("nope")
            """)
        assert len(report.findings) == 1
        assert "builtin ValueError" in report.findings[0].message

    def test_taxonomy_mixin_is_clean(self, tmp_path):
        report = self.lint_tax(tmp_path, """\
            from repro.errors import GoodError

            def ok():
                raise GoodError("fine")
            """)
        assert report.findings == []

    def test_foreign_class_flagged(self, tmp_path):
        report = self.lint_tax(tmp_path, """\
            class LocalError(Exception):
                pass

            def bad():
                raise LocalError("nope")
            """)
        assert len(report.findings) == 1
        assert "not a ExperimentError subclass" in \
            report.findings[0].message

    def test_factory_followed_one_hop(self, tmp_path):
        clean = self.lint_tax(tmp_path, """\
            from repro.errors import GoodError

            def make(msg):
                return GoodError(msg)

            def use():
                raise make("x")
            """)
        assert clean.findings == []

    def test_factory_returning_builtin_flagged(self, tmp_path):
        report = self.lint_tax(tmp_path, """\
            def make(msg):
                return ValueError(msg)

            def use():
                raise make("x")
            """)
        assert len(report.findings) == 1
        f = report.findings[0]
        assert "factory make" in f.message and f.line == 2

    def test_exempt_builtins_pass(self, tmp_path):
        report = self.lint_tax(tmp_path, """\
            def todo():
                raise NotImplementedError("later")
            """)
        assert report.findings == []

    def test_swallowed_interrupt_flagged(self, tmp_path):
        report = self.lint_tax(tmp_path, """\
            def guard(task):
                try:
                    task()
                except KeyboardInterrupt:
                    pass
            """)
        assert len(report.findings) == 1
        assert "swallows KeyboardInterrupt" in \
            report.findings[0].message

    def test_reraising_handler_is_clean(self, tmp_path):
        report = self.lint_tax(tmp_path, """\
            def guard(task):
                try:
                    task()
                except KeyboardInterrupt:
                    task = None
                    raise
            """)
        assert report.findings == []

    def test_rule_inert_without_taxonomy_root(self, tmp_path):
        project(tmp_path, {"src/repro/mod.py": """\
            def bad():
                raise ValueError("nope")
            """}, pyproject=TAXONOMY_PYPROJECT)
        assert lint(tmp_path, rules=["error-taxonomy"]).findings == []

    def test_outside_taxonomy_paths_exempt(self, tmp_path):
        # Default taxonomy-paths is src/repro/experiments; a raise
        # elsewhere is out of scope.
        project(tmp_path, {
            "src/repro/errors.py": TAXONOMY_ERRORS,
            "src/repro/mod.py": "def bad():\n"
                                "    raise ValueError('nope')\n",
        })
        assert lint(tmp_path, rules=["error-taxonomy"]).findings == []


# ======================================================================
# crash-ordering
# ======================================================================
class TestCrashOrdering:
    def test_correct_atomic_replace_is_clean(self, tmp_path):
        project(tmp_path, {"src/repro/mod.py": """\
            import json
            import os
            import tempfile

            def write(path, data):
                # lint: ordered[atomic-replace]
                fd, tmp = tempfile.mkstemp()
                with os.fdopen(fd, "w") as fh:
                    json.dump(data, fh)
                    os.fsync(fh.fileno())
                os.replace(tmp, path)
                # lint: ordered-end
            """})
        assert lint(tmp_path, rules=["crash-ordering"]).findings == []

    def test_fsync_after_replace_flagged(self, tmp_path):
        project(tmp_path, {"src/repro/mod.py": """\
            import json
            import os
            import tempfile

            def write(path, data):
                # lint: ordered[atomic-replace]
                fd, tmp = tempfile.mkstemp()
                with os.fdopen(fd, "w") as fh:
                    json.dump(data, fh)
                os.replace(tmp, path)
                os.fsync(fd)
                # lint: ordered-end
            """})
        report = lint(tmp_path, rules=["crash-ordering"])
        assert len(report.findings) == 1
        assert "fsyncs after replace" in report.findings[0].message

    def test_missing_fsync_flagged(self, tmp_path):
        project(tmp_path, {"src/repro/mod.py": """\
            import json
            import os
            import tempfile

            def write(path, data):
                # lint: ordered[atomic-replace]
                fd, tmp = tempfile.mkstemp()
                with os.fdopen(fd, "w") as fh:
                    json.dump(data, fh)
                os.replace(tmp, path)
                # lint: ordered-end
            """})
        report = lint(tmp_path, rules=["crash-ordering"])
        assert len(report.findings) == 1
        assert "no fsync call" in report.findings[0].message

    def test_persist_before_append_order(self, tmp_path):
        project(tmp_path, {"src/repro/mod.py": """\
            def resolve(cache, journal, key, record):
                # lint: ordered[persist-before-append]
                cache.put(key, record)
                journal.emit(record)
                # lint: ordered-end
            """})
        assert lint(tmp_path, rules=["crash-ordering"]).findings == []

    def test_append_before_persist_flagged(self, tmp_path):
        project(tmp_path, {"src/repro/mod.py": """\
            def resolve(cache, journal, key, record):
                # lint: ordered[persist-before-append]
                journal.emit(record)
                cache.put(key, record)
                # lint: ordered-end
            """})
        report = lint(tmp_path, rules=["crash-ordering"])
        assert len(report.findings) == 1
        assert "before persisting" in report.findings[0].message

    def test_ordered_path_without_region_flagged(self, tmp_path):
        project(tmp_path, {"src/repro/mod.py": "X = 1\n"},
                pyproject="[project]\nname = 'fixture'\n"
                          "[tool.repro.lint]\n"
                          "ordered-paths = ['src/repro/mod.py']\n")
        report = lint(tmp_path, rules=["crash-ordering"])
        assert len(report.findings) == 1
        assert "contains no '# lint: ordered[...]'" in \
            report.findings[0].message

    def test_unknown_template_flagged(self, tmp_path):
        project(tmp_path, {"src/repro/mod.py": """\
            def f():
                # lint: ordered[fancy]
                pass
                # lint: ordered-end
            """})
        report = lint(tmp_path, rules=["crash-ordering"])
        assert len(report.findings) == 1
        assert "unknown ordered template 'fancy'" in \
            report.findings[0].message


# ======================================================================
# dependency-aware cache (the v1 staleness regression)
# ======================================================================
class TestDepAwareCache:
    def test_cross_file_dependency_edit_reanalyzes(self, tmp_path):
        """Editing only base.py must re-analyze child.py: the v1 cache
        keyed on child.py's own bytes and served stale cross-file
        findings."""
        narrow_base = textwrap.dedent("""\
            class NarrowBase(SimComponent):
                def __init__(self):
                    self.x = 0
                def tick(self):
                    self.x += 1
                def state_dict(self):
                    return {"x": self.x}
                def load_state_dict(self, state):
                    self.x = state["x"]
                def reset(self):
                    self.x = 0
            """)
        wide_base = textwrap.dedent("""\
            class NarrowBase(SimComponent):
                def __init__(self):
                    self.x = 0
                def tick(self):
                    self.x += 1
                def state_dict(self):
                    return dict(vars(self))
                def load_state_dict(self, state):
                    self.__dict__.update(state)
                def reset(self):
                    for key in vars(self):
                        setattr(self, key, 0)
            """)
        child = """\
            from repro.base import NarrowBase

            class Orphan(NarrowBase):
                def __init__(self):
                    super().__init__()
                    self.extra = 0
                def bump(self):
                    self.extra += 1
            """
        project(tmp_path, {"src/repro/base.py": narrow_base,
                           "src/repro/child.py": child})
        first = run_lint(root=tmp_path)
        assert any("Orphan.extra" in f.message for f in first.findings)

        warm = run_lint(root=tmp_path)
        assert warm.cache_hits == warm.files_scanned == 2

        # Widen only the base snapshot; child.py's bytes are untouched.
        (tmp_path / "src/repro/base.py").write_text(wide_base)
        third = run_lint(root=tmp_path)
        assert third.cache_hits == 0  # dependency fingerprint moved
        assert third.findings == []

    def test_rule_source_fingerprint_in_cache_key(self, tmp_path,
                                                  monkeypatch):
        import repro.lint.engine as engine_mod

        project(tmp_path, CLEAN)
        run_lint(root=tmp_path)
        assert run_lint(root=tmp_path).cache_hits == 1
        # Simulate an edit to a rule module: the memoized fingerprint
        # changes, so every cached payload must be discarded.
        monkeypatch.setattr(engine_mod, "_RULE_SOURCES_FP", "edited")
        assert run_lint(root=tmp_path).cache_hits == 0


# ======================================================================
# baseline + SARIF + --changed
# ======================================================================
class TestBaseline:
    def test_update_then_suppress(self, tmp_path, capsys):
        project(tmp_path, DIRTY)
        root = str(tmp_path)
        assert lint_main(["--root", root, "--no-cache",
                          "--update-baseline"]) == 0
        baseline = json.loads(
            (tmp_path / ".repro-lint-baseline.json").read_text())
        assert baseline["version"] == 1
        assert len(baseline["entries"]) == 1
        entry = baseline["entries"][0]
        assert set(entry) >= {"fingerprint", "rule", "path", "message",
                              "justification"}
        capsys.readouterr()

        assert lint_main(["--root", root, "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "1 baselined finding(s) suppressed" in out

    def test_no_baseline_flag_reports_again(self, tmp_path, capsys):
        project(tmp_path, DIRTY)
        root = str(tmp_path)
        lint_main(["--root", root, "--no-cache", "--update-baseline"])
        assert lint_main(["--root", root, "--no-cache",
                          "--no-baseline"]) == 1

    def test_stale_baseline_detected(self, tmp_path, capsys):
        project(tmp_path, DIRTY)
        root = str(tmp_path)
        lint_main(["--root", root, "--no-cache", "--update-baseline"])
        capsys.readouterr()
        # Fix the violation: the baseline entry now waives nothing.
        (tmp_path / "src/repro/mod.py").write_text("X = 1\n")
        assert lint_main(["--root", root, "--no-cache"]) == 0
        capsys.readouterr()
        assert lint_main(["--root", root, "--no-cache",
                          "--check-baseline"]) == 1
        assert "stale baseline entry" in capsys.readouterr().err

    def test_baseline_is_line_independent(self, tmp_path, capsys):
        project(tmp_path, DIRTY)
        root = str(tmp_path)
        lint_main(["--root", root, "--no-cache", "--update-baseline"])
        # Shift the violation down two lines: same rule+path+message,
        # so the waiver must still apply.
        mod = tmp_path / "src/repro/mod.py"
        mod.write_text("# pad\n# pad\n" + mod.read_text())
        capsys.readouterr()
        assert lint_main(["--root", root, "--no-cache",
                          "--check-baseline"]) == 0


class TestSarif:
    def test_sarif_validates_against_2_1_0_shape(self, tmp_path,
                                                 capsys):
        """Hand-rolled structural validation of the SARIF 2.1.0 log
        (the schema validator dependency is deliberately absent)."""
        project(tmp_path, DIRTY)
        lint_main(["--root", str(tmp_path), "--no-cache",
                   "--format", "sarif"])
        log = json.loads(capsys.readouterr().out)

        assert log["version"] == "2.1.0"
        assert log["$schema"].endswith("sarif-schema-2.1.0.json")
        assert isinstance(log["runs"], list) and len(log["runs"]) == 1
        run = log["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        rules = driver["rules"]
        assert all(set(r) >= {"id", "shortDescription"} for r in rules)
        assert all(isinstance(r["shortDescription"]["text"], str)
                   for r in rules)
        ids = [r["id"] for r in rules]
        assert len(ids) == len(set(ids))  # deduplicated

        assert run["results"], "fixture must produce findings"
        for result in run["results"]:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]
            assert result["level"] in ("error", "warning", "note")
            assert result["message"]["text"]
            loc = result["locations"][0]["physicalLocation"]
            assert loc["artifactLocation"]["uri"] == "src/repro/mod.py"
            assert loc["region"]["startLine"] >= 1
            assert loc["region"]["startColumn"] >= 1

    def test_output_file_keeps_text_summary_on_stdout(self, tmp_path,
                                                      capsys):
        project(tmp_path, DIRTY)
        out_file = tmp_path / "lint.sarif"
        lint_main(["--root", str(tmp_path), "--no-cache",
                   "--format", "sarif", "--output", str(out_file)])
        assert json.loads(out_file.read_text())["version"] == "2.1.0"
        assert "file(s)" in capsys.readouterr().out


class TestChangedOnly:
    def git(self, tmp_path, *args):
        import subprocess
        subprocess.run(["git", *args], cwd=tmp_path, check=True,
                       capture_output=True)

    def test_changed_narrows_to_edited_files(self, tmp_path, capsys):
        project(tmp_path, {
            "src/repro/cpu/a.py": "import time\nt = time.time()\n",
            "src/repro/cpu/b.py": "Y = 1\n",
        })
        self.git(tmp_path, "init", "-q")
        self.git(tmp_path, "config", "user.email", "t@example.com")
        self.git(tmp_path, "config", "user.name", "t")
        self.git(tmp_path, "add", ".")
        self.git(tmp_path, "commit", "-qm", "seed")
        root = str(tmp_path)

        # Warm the cache so unchanged files are not re-analyzed.
        lint_main(["--root", root])
        capsys.readouterr()

        # Edit only b.py; a.py's pre-existing finding must drop out of
        # a --changed report while b.py's new one stays.
        (tmp_path / "src/repro/cpu/b.py").write_text(
            "import time\nu = time.time()\n")
        rc = lint_main(["--root", root, "--changed",
                        "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert [f["path"] for f in payload["findings"]] == \
            ["src/repro/cpu/b.py"]

    def test_outside_git_falls_back_to_full_report(self, tmp_path,
                                                   capsys):
        project(tmp_path, DIRTY)
        rc = lint_main(["--root", str(tmp_path), "--no-cache",
                        "--changed", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["findings"]  # full report, not an empty one


# ======================================================================
# The real tree
# ======================================================================
class TestRealTree:
    def test_repository_is_lint_clean(self):
        """The blocking CI invariant: HEAD has zero findings."""
        report = run_lint(root=REPO_ROOT, use_cache=False)
        assert report.findings == [], "\n".join(
            f"{f.path}:{f.line}: [{f.rule}] {f.message}"
            for f in report.findings)
        assert report.files_scanned > 50

    def test_every_rule_registered(self):
        assert rule_names() == [
            "crash-ordering", "determinism", "error-taxonomy",
            "event-schema", "hot-loop", "pickle-safety",
            "snapshot-coverage",
        ]

    def test_repo_config_matches_defaults(self):
        """[tool.repro.lint] restates the defaults explicitly — drift
        between the table and config.py would silently change scope."""
        assert load_config(REPO_ROOT) == LintConfig()
