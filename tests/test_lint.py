"""The ``repro lint`` static-analysis suite (docs/LINTING.md).

Each rule gets a positive (violating), negative (clean), and waived
fixture tree; the engine sections cover the JSON schema, exit codes,
rule selection, and scope passed as ``LintConfig``.  The final section runs
the real linter over the real ``src/repro`` tree — the same blocking
check CI runs — so a regression anywhere in the repo fails here first.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import run_lint
from repro.lint.cli import main as lint_main
from repro.lint.config import DETERMINISM_PATHS, LintConfig
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
    return run_lint(root=tmp_path, **kwargs)


def rules_hit(report):
    return sorted({f.rule for f in report.findings})


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
# Engine: scope, output formats, exit codes
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

    def test_config_overrides_scope(self, tmp_path):
        project(tmp_path, {"src/repro/other.py": "import time\n"
                                                 "t = time.time()\n"})
        assert lint(tmp_path).findings == []
        config = LintConfig(determinism_paths=("src/repro",))
        report = lint(tmp_path, config=config)
        assert rules_hit(report) == ["determinism"]

    def test_explicit_paths_override_config(self, tmp_path):
        project(tmp_path, dict(DIRTY, **{
            "scripts/helper.py": "Y = 2\n"}))
        report = run_lint(paths=[tmp_path / "scripts"], root=tmp_path)
        assert report.files_scanned == 1
        assert report.findings == []

    def test_missing_path_raises(self, tmp_path):
        project(tmp_path, CLEAN)
        with pytest.raises(FileNotFoundError):
            run_lint(paths=[tmp_path / "no/such/dir"], root=tmp_path)

    def test_syntax_error_becomes_finding(self, tmp_path):
        project(tmp_path, {"src/repro/bad.py": "def broken(:\n"})
        report = lint(tmp_path)
        assert len(report.findings) == 1
        f = report.findings[0]
        assert f.rule == "parse" and f.severity == ERROR

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
        rc = lint_main(["--root", str(tmp_path), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["version"] == 2
        assert payload["findings"] == []
        assert payload["counts"] == {"error": 0, "warning": 0}
        assert payload["files_scanned"] == 1
        assert "cache_hits" not in payload

    def test_findings_exit_nonzero_with_locations(self, tmp_path, capsys):
        project(tmp_path, DIRTY)
        rc = lint_main(["--root", str(tmp_path), "--format", "json"])
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
        assert lint_main(["--root", root]) == 1
        capsys.readouterr()
        assert lint_main(["--root", root, "--fail-on", "error"]) == 0

    def test_usage_error_exit_two(self, tmp_path, capsys):
        project(tmp_path, CLEAN)
        rc = lint_main(["--root", str(tmp_path), "no/such/path"])
        assert rc == 2
        assert "repro lint:" in capsys.readouterr().err

    def test_text_format_summary_line(self, tmp_path, capsys):
        project(tmp_path, DIRTY)
        lint_main(["--root", str(tmp_path)])
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].startswith("src/repro/mod.py:4:")
        assert out[-1].endswith("in 1 file(s)")

    def test_output_file_keeps_text_summary_on_stdout(self, tmp_path,
                                                      capsys):
        project(tmp_path, DIRTY)
        out_file = tmp_path / "lint.json"
        lint_main(["--root", str(tmp_path),
                   "--format", "json", "--output", str(out_file)])
        assert len(json.loads(out_file.read_text())["findings"]) == 1
        assert "file(s)" in capsys.readouterr().out


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

    def test_ordered_path_without_region_flagged(self, tmp_path):
        project(tmp_path, {"src/repro/mod.py": "X = 1\n"})
        report = lint(tmp_path, rules=["crash-ordering"],
                      config=LintConfig(ordered_paths=("src/repro/mod.py",)))
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
# The real tree
# ======================================================================
class TestRealTree:
    def test_repository_is_lint_clean(self):
        """The blocking CI invariant: HEAD has zero findings."""
        report = run_lint(root=REPO_ROOT)
        assert report.findings == [], "\n".join(
            f"{f.path}:{f.line}: [{f.rule}] {f.message}"
            for f in report.findings)
        assert report.files_scanned > 50

    def test_every_rule_registered(self):
        assert rule_names() == ["crash-ordering", "determinism", "hot-loop"]

    def test_determinism_scope_matches_code_packages(self):
        """determinism covers exactly the packages the result cache
        hashes as simulator code: a package added to one list and not
        the other would go unchecked or unhashed."""
        from repro.experiments.runner import _CODE_PACKAGES
        assert sorted(DETERMINISM_PATHS) == \
            sorted(f"src/repro/{p}" for p in _CODE_PACKAGES)
