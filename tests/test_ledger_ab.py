"""The CI ledger A/B gate's verdict (.github/scripts/ledger_ab.py),
checked on synthetic ledger result lines."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "scripts" / \
    "ledger_ab.py"
_spec = importlib.util.spec_from_file_location("ledger_ab", SCRIPT)
ledger_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger_ab)


UNITS = {"instr_per_s": "instr/s", "measure_ips": "instr/s",
         "peak_rss_mb": "MB", "setup_s": "s"}


def result(db=200_000.0, msvc=250_000.0, db_loop=600_000.0,
           msvc_loop=500_000.0, db_rss=120.0, msvc_rss=115.0,
           db_setup=0.85, msvc_setup=0.6, exit=0, correct=True, failed=0):
    """A parsed invocation: ``db``/``msvc`` are the end-to-end
    ``instr_per_s``, ``*_loop`` the measured window's ``measure_ips``,
    ``*_rss`` the ``peak_rss_mb``, ``*_setup`` the ``setup_s``; None
    leaves the metric out."""
    metrics = {}
    for key, value in (("point_db.instr_per_s", db),
                       ("point_msvc.instr_per_s", msvc),
                       ("point_db.measure_ips", db_loop),
                       ("point_msvc.measure_ips", msvc_loop),
                       ("point_db.peak_rss_mb", db_rss),
                       ("point_msvc.peak_rss_mb", msvc_rss),
                       ("point_db.setup_s", db_setup),
                       ("point_msvc.setup_s", msvc_setup)):
        if value is not None:
            unit = UNITS[key.split(".")[1]]
            metrics[key] = {"value": value, "unit": unit}
    return {"exit": exit, "line": {"correct": correct, "attempted": 4,
                                   "failed": failed, "metrics": metrics}}


def pairs(db_ratios, msvc_ratio=1.0, loop_ratios=None, **head):
    """Pairs whose head runs point_db at ``db_ratios`` of the base, end
    to end and in the measured window (``loop_ratios`` when given)."""
    loop_ratios = loop_ratios or db_ratios
    return [(result(), result(db=200_000.0 * r, db_loop=600_000.0 * lr,
                              msvc=250_000.0 * msvc_ratio,
                              msvc_loop=500_000.0 * msvc_ratio, **head))
            for r, lr in zip(db_ratios, loop_ratios)]


def verdicts(rows):
    return {(w, m): v for w, m, *_, v in rows}


def test_passes_at_ratio_one():
    rows, problems = ledger_ab.verdict(pairs([1.0] * ledger_ab.PAIRS))
    assert problems == []
    assert len(rows) == 8
    assert set(verdicts(rows).values()) == {"ok"}
    assert rows[0][4] == pytest.approx(1.0)
    assert rows[0][7] == pytest.approx(ledger_ab.FLOOR)


def test_fails_at_ratio_080():
    rows, problems = ledger_ab.verdict(pairs([0.80] * ledger_ab.PAIRS))
    assert verdicts(rows) == {
        ("point_db", "instr_per_s"): "REGRESSED",
        ("point_db", "measure_ips"): "REGRESSED",
        ("point_db", "peak_rss_mb"): "ok",
        ("point_db", "setup_s"): "ok",
        ("point_msvc", "instr_per_s"): "ok",
        ("point_msvc", "measure_ips"): "ok",
        ("point_msvc", "peak_rss_mb"): "ok",
        ("point_msvc", "setup_s"): "ok"}
    assert problems == [
        "point_db.instr_per_s: median ratio 0.800 < 0.850",
        "point_db.measure_ips: median ratio 0.800 < 0.850"]


def test_fails_on_a_slower_measured_window_alone():
    # Setup dilutes a commit-loop slowdown in the end-to-end rate: the
    # measured window's rate still catches it.
    rows, problems = ledger_ab.verdict(pairs(
        [0.92] * ledger_ab.PAIRS, loop_ratios=[0.75] * ledger_ab.PAIRS))
    assert verdicts(rows)[("point_db", "instr_per_s")] == "ok"
    assert problems == ["point_db.measure_ips: median ratio 0.750 < 0.850"]


def test_measured_spread_widens_the_floor():
    # Median 0.80, but the pairs spread wider than 0.20 between their
    # quartiles: the run cannot tell a 20% loss from its own noise.
    ratios = [0.6, 0.65, 0.7, 0.75, 0.8, 0.8, 0.85, 0.9, 0.95, 1.0]
    rows, problems = ledger_ab.verdict(pairs(ratios))
    for db in rows[:2]:
        assert db[:2] in (("point_db", "instr_per_s"),
                          ("point_db", "measure_ips"))
        assert db[4] == pytest.approx(0.80)
        assert db[6] - db[5] > 0.20
        assert db[7] == pytest.approx(db[6] - db[5])
    assert problems == []


@pytest.mark.parametrize("head, message", [
    ({"correct": False}, "pair 1 head: correct: False"),
    ({"failed": 1}, "pair 1 head: failed: 1"),
    ({"exit": 1}, "pair 1 head: exit 1"),
])
def test_fails_on_a_bad_invocation(head, message):
    cases = pairs([1.0] * ledger_ab.PAIRS)
    cases[0] = (cases[0][0], result(**head))
    _rows, problems = ledger_ab.verdict(cases)
    assert problems == [message]


def test_fails_on_a_missing_metric():
    cases = pairs([1.0] * ledger_ab.PAIRS)
    cases[3] = (result(msvc=None), cases[3][1])
    cases[5] = (cases[5][0], result(db_loop=None))
    rows, problems = ledger_ab.verdict(cases)
    assert problems == ["pair 4 base: no point_msvc.instr_per_s",
                        "pair 6 head: no point_db.measure_ips"]
    assert set(verdicts(rows).values()) == {"ok"}


def rss_pairs(db_ratios, msvc_ratio=1.0):
    """Pairs at equal rates whose head peaks at ``db_ratios`` of the
    base's point_db RSS and ``msvc_ratio`` of its point_msvc RSS."""
    return [(result(), result(db_rss=120.0 * r, msvc_rss=115.0 * msvc_ratio))
            for r in db_ratios]


def test_memory_gate_passes_at_ratio_one():
    rows, problems = ledger_ab.verdict(rss_pairs([1.0] * ledger_ab.PAIRS))
    assert problems == []
    rss = [row for row in rows if row[1] == "peak_rss_mb"]
    assert [row[0] for row in rss] == ["point_db", "point_msvc"]
    assert [row[4] for row in rss] == [pytest.approx(1.0)] * 2


def test_memory_gate_fails_at_ratio_120():
    rows, problems = ledger_ab.verdict(rss_pairs([1.20] * ledger_ab.PAIRS,
                                                 msvc_ratio=1.20))
    assert problems == ["point_db.peak_rss_mb: median ratio 1.200 > 1.150",
                        "point_msvc.peak_rss_mb: median ratio 1.200 > 1.150"]
    assert verdicts(rows)[("point_db", "instr_per_s")] == "ok"


def test_memory_gate_spread_widens_the_floor():
    # Median 1.20, but the quartiles lie more than 0.20 apart.
    ratios = [1.0, 1.05, 1.1, 1.15, 1.2, 1.2, 1.25, 1.3, 1.35, 1.4]
    rows, problems = ledger_ab.verdict(rss_pairs(ratios))
    row = next(r for r in rows if r[:2] == ("point_db", "peak_rss_mb"))
    assert row[4] == pytest.approx(1.20)
    assert row[6] - row[5] > 0.20
    assert row[7] == pytest.approx(row[6] - row[5])
    assert problems == []


def test_memory_gate_fails_on_a_missing_metric():
    cases = rss_pairs([1.0] * ledger_ab.PAIRS)
    cases[2] = (cases[2][0], result(msvc_rss=None))
    _rows, problems = ledger_ab.verdict(cases)
    assert problems == ["pair 3 head: no point_msvc.peak_rss_mb"]


def setup_pairs(db_ratios, msvc_ratio=1.0):
    """Pairs at equal rates and memory whose head spends ``db_ratios``
    of the base's point_db setup and ``msvc_ratio`` of its point_msvc
    setup."""
    return [(result(), result(db_setup=0.85 * r, msvc_setup=0.6 * msvc_ratio))
            for r in db_ratios]


def test_setup_gate_fails_on_a_slower_setup():
    # 30% more setup moves point_db's end-to-end rate by only a few
    # percent: the setup gate catches it on its own.
    rows, problems = ledger_ab.verdict(setup_pairs([1.30] * ledger_ab.PAIRS))
    assert problems == ["point_db.setup_s: median ratio 1.300 > 1.150"]
    assert verdicts(rows)[("point_db", "setup_s")] == "REGRESSED"
    assert verdicts(rows)[("point_msvc", "setup_s")] == "ok"
    assert verdicts(rows)[("point_db", "instr_per_s")] == "ok"


def test_setup_gate_passes_a_faster_or_noisy_setup():
    ratios = [0.62, 0.65, 0.66, 0.7, 1.08, 0.64, 0.69, 0.61, 1.1, 0.67]
    rows, problems = ledger_ab.verdict(setup_pairs(ratios, msvc_ratio=1.1))
    assert problems == []
    row = next(r for r in rows if r[:2] == ("point_db", "setup_s"))
    assert row[2] == pytest.approx(0.85)
    assert row[4] == pytest.approx(0.665)
    assert row[8] == "ok"
    assert "point_db    setup_s         0.850" in ledger_ab.format_rows(rows)


def test_fails_without_a_result_line():
    cases = pairs([1.0] * ledger_ab.PAIRS)
    cases[0] = (cases[0][0], {"exit": 0, "line": None})
    _rows, problems = ledger_ab.verdict(cases)
    assert problems == ["pair 1 head: no JSON result line"]


def test_parse_line_takes_the_last_stdout_line():
    assert ledger_ab.parse_line('noise\n{"correct": true}\n') == \
        {"correct": True}
    assert ledger_ab.parse_line("Traceback ...\n") is None
    assert ledger_ab.parse_line("") is None


def _rep(measure_s, measured_instructions):
    return {"measure_s": measure_s,
            "measured_instructions": measured_instructions}


def test_measure_ips_reads_the_timed_repetition():
    line = {"correct": True, "metrics": {}}
    doc = {"workloads": [
        # timed repetitions first, then the discarded warm-up
        {"name": "point_db", "reps": [_rep(0.5, 400_000),
                                      _rep(2.0, 400_000)]},
        {"name": "point_msvc", "reps": [_rep(0.0, 0)]},
        {"name": "grid_cold", "reps": [{"wall_s": 1.0}]},
    ]}
    ledger_ab.add_measure_ips(line, doc)
    assert line["metrics"] == {
        "point_db.measure_ips": {"value": 800_000.0, "unit": "instr/s"}}
    ledger_ab.add_measure_ips(None, doc)  # no result line: nothing to add


FAKE_LEDGER = """
import argparse, json, pathlib
ap = argparse.ArgumentParser()
ap.add_argument("--workload", action="append")
ap.add_argument("--seconds")
ap.add_argument("--repeats")
ap.add_argument("--out")
args = ap.parse_args()
reps = [{"measure_s": 0.5, "measured_instructions": 300_000},
        {"measure_s": 9.0, "measured_instructions": 300_000}]
doc = {"workloads": [{"name": w, "reps": reps} for w in args.workload]}
pathlib.Path(args.out, "ledger.json").write_text(json.dumps(doc))
metrics = {w + ".instr_per_s": {"value": 1e5, "unit": "instr/s"}
           for w in args.workload}
metrics.update({w + ".peak_rss_mb": {"value": 90.0, "unit": "MB"}
                for w in args.workload})
metrics.update({w + ".setup_s": {"value": 0.7, "unit": "s"}
                for w in args.workload})
print("== human-readable report")
print(json.dumps({"correct": True, "failed": 0, "metrics": metrics}))
"""


def test_run_ledger_reads_the_out_directory(tmp_path):
    script = tmp_path / "benchmarks" / "ledger" / "run.py"
    script.parent.mkdir(parents=True)
    script.write_text(FAKE_LEDGER)
    got = ledger_ab.run_ledger(tmp_path)
    assert got["exit"] == 0
    assert ledger_ab.problems_of("tree", got) == []
    assert ledger_ab.metric(got, "point_msvc", "measure_ips") == \
        pytest.approx(600_000.0)


def test_main_alternates_and_writes_the_summary(tmp_path, monkeypatch,
                                                capsys):
    calls = []

    def fake_run(tree):
        calls.append(tree.name)
        return result()

    summary = tmp_path / "summary.md"
    monkeypatch.setattr(ledger_ab, "run_ledger", fake_run)
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
    assert ledger_ab.main([str(tmp_path / "base"),
                           str(tmp_path / "head")]) == 0
    assert calls[:4] == ["base", "head", "head", "base"]
    assert len(calls) == 2 * ledger_ab.PAIRS
    assert "point_msvc" in summary.read_text()
    assert "point_db" in capsys.readouterr().out


def test_main_stops_at_the_first_wrong_result(tmp_path, monkeypatch):
    calls = []

    def fake_run(tree):
        calls.append(tree.name)
        return result(correct=tree.name == "base")

    monkeypatch.setattr(ledger_ab, "run_ledger", fake_run)
    monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
    assert ledger_ab.main([str(tmp_path / "base"),
                           str(tmp_path / "head")]) == 1
    assert calls == ["base", "head"]
    assert ledger_ab.main(["only-one-tree"]) == 2
