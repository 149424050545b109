"""Declarative sweep manifests (docs/SWEEP_SERVICE.md).

The contracts under test: parsing collects *every* problem into one
precise ManifestError, expansion matches the flag-built ``grid()`` on
equivalent inputs, the seeded sampler is deterministic, and the
canonical dict form round-trips exactly (parse → expand → serialize →
parse → identical points).
"""

import json

import pytest

from repro.cli import main
from repro.experiments.manifest import (
    GridSample,
    ManifestError,
    SweepManifest,
    load_manifest,
    parse_manifest,
    tomllib,
)
from repro.experiments.events import read_events, summarize_events
from repro.experiments.sweep import DEFAULT_PREFETCHERS, grid

needs_toml = pytest.mark.skipif(
    tomllib is None, reason="tomllib needs Python 3.11+")


def _doc(**sweep):
    sweep.setdefault("workloads", ["mysql_sibench"])
    return {"sweep": sweep}


# ----------------------------------------------------------------------
# Parsing + validation
# ----------------------------------------------------------------------
class TestParse:
    def test_minimal_defaults(self):
        m = parse_manifest(_doc())
        assert m.workloads == ("mysql_sibench",)
        assert m.prefetchers == DEFAULT_PREFETCHERS
        assert m.include_baseline
        assert m.scales == ("bench",) and m.seeds == (1,)
        assert m.policies == () and m.sample is None

    def test_scalar_axis_aliases(self):
        m = parse_manifest(_doc(scale="tiny", seed=7))
        assert m.scales == ("tiny",) and m.seeds == (7,)

    def test_axis_alias_conflict(self):
        with pytest.raises(ManifestError) as exc:
            parse_manifest(_doc(scale="tiny", scales=["tiny", "bench"]))
        assert "either 'scale' or 'scales'" in str(exc.value)

    def test_all_errors_collected_with_paths(self):
        doc = {"sweep": {"workloads": ["nope"], "prefetchers": ["bogus"],
                         "scale": "huge", "bad_key": 1},
               "typo_section": {}}
        with pytest.raises(ManifestError) as exc:
            parse_manifest(doc, source="grid.toml")
        message = str(exc.value)
        assert message.startswith("grid.toml: invalid sweep manifest "
                                  "(5 problem(s))")
        for fragment in ("sweep.workloads[0]", "sweep.prefetchers[0]",
                         "sweep.scales[0]", "bad_key", "typo_section"):
            assert fragment in message, fragment
        assert exc.value.source == "grid.toml"
        assert len(exc.value.errors) == 5

    def test_missing_sweep_table(self):
        with pytest.raises(ManifestError) as exc:
            parse_manifest({})
        assert "required [sweep] table is missing" in str(exc.value)

    def test_missing_workloads(self):
        with pytest.raises(ManifestError) as exc:
            parse_manifest({"sweep": {}})
        assert "sweep.workloads: required key is missing" in str(exc.value)

    def test_unknown_override_rejected(self):
        with pytest.raises(ManifestError) as exc:
            parse_manifest(_doc(overrides={"hierarchy.nope": 1}))
        assert "sweep.overrides" in str(exc.value)

    def test_valid_override_reaches_points(self):
        m = parse_manifest(
            _doc(overrides={"hierarchy.l1i_bytes": 65536}))
        for p in m.expand():
            assert p.overrides == {"hierarchy.l1i_bytes": 65536}

    def test_warmup_range_checked(self):
        with pytest.raises(ManifestError) as exc:
            parse_manifest(_doc(warmup=1.5))
        assert "must be in [0, 1)" in str(exc.value)

    def test_bad_sample_table(self):
        with pytest.raises(ManifestError) as exc:
            parse_manifest({**_doc(), "sample": {"count": 0, "extra": 1}})
        message = str(exc.value)
        assert "sample.count" in message and "extra" in message

    def test_json_null_prefetcher_is_baseline(self):
        m = parse_manifest(_doc(prefetchers=[None, "eip"]))
        assert m.prefetchers == ("fdip", "eip")


# ----------------------------------------------------------------------
# Expansion
# ----------------------------------------------------------------------
class TestExpand:
    def test_matches_grid_on_equivalent_input(self):
        m = parse_manifest(_doc(workloads=["beego", "gin"],
                                prefetchers=["eip", "mana"],
                                scale="tiny", seed=3))
        assert m.expand() == grid(["beego", "gin"], ["eip", "mana"],
                                  scale="tiny", seed=3)

    def test_fdip_prefetcher_skipped_baseline_owns_it(self):
        m = parse_manifest(_doc(prefetchers=["fdip", "eip"]))
        labels = [p.label for p in m.expand()]
        assert labels == ["mysql_sibench/fdip", "mysql_sibench/eip"]

    def test_no_baseline(self):
        m = parse_manifest(_doc(prefetchers=["eip"],
                                include_baseline=False))
        assert [p.prefetcher for p in m.expand()] == ["eip"]

    def test_policy_axis_merges_policy_overrides(self):
        m = parse_manifest(_doc(prefetchers=["eip"],
                                policies=["lru", "pf_aware"],
                                overrides={"hierarchy.l1i_bytes": 65536}))
        points = m.expand()
        assert len(points) == 4  # 2 policies x (baseline + eip)
        assert [p.overrides["hierarchy.policy"] for p in points] == \
            ["lru", "lru", "pf_aware", "pf_aware"]
        # manifest-level overrides survive the policy merge
        assert all(p.overrides["hierarchy.l1i_bytes"] == 65536
                   for p in points)

    def test_full_count_matches_factorial(self):
        m = parse_manifest(_doc(workloads=["beego", "gin"],
                                prefetchers=["eip", "mana"],
                                policies=["lru", "bip"],
                                scales=["tiny", "bench"],
                                seeds=[1, 2, 3]))
        assert m.full_count == 2 * 3 * 2 * 2 * 3  # sc*sd*pol*wl*(base+2)
        assert len(m.expand()) == m.full_count


# ----------------------------------------------------------------------
# Seeded sampling
# ----------------------------------------------------------------------
class TestSampling:
    def test_indices_deterministic_and_subset(self):
        s = GridSample(count=10, seed=42)
        first, second = s.indices(100), s.indices(100)
        assert first == second == sorted(first)
        assert len(first) == 10
        assert all(0 <= i < 100 for i in first)

    def test_seed_changes_selection(self):
        assert GridSample(10, seed=1).indices(100) != \
            GridSample(10, seed=2).indices(100)

    def test_count_at_least_total_keeps_everything(self):
        assert GridSample(100, seed=1).indices(7) == list(range(7))

    def test_sampled_expansion_is_subset_of_full(self):
        base = _doc(workloads=["beego", "gin"], seeds=[1, 2])
        full = parse_manifest(base).expand()
        sampled = parse_manifest(
            {**base, "sample": {"count": 5, "seed": 9}}).expand()
        assert len(sampled) == 5
        full_keys = [p.key() for p in full]
        positions = [full_keys.index(p.key()) for p in sampled]
        assert positions == sorted(positions)  # input order preserved


# ----------------------------------------------------------------------
# Round-trip + file loading
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_parse_serialize_parse_identical(self):
        m = parse_manifest({
            "sweep": {"name": "rt", "workloads": ["beego"],
                      "prefetchers": ["eip"], "policies": ["bip"],
                      "scales": ["tiny"], "seeds": [1, 2],
                      "warmup": 0.25,
                      "overrides": {"hierarchy.l1i_bytes": 65536}},
            "sample": {"count": 3, "seed": 5},
        })
        again = parse_manifest(m.to_dict())
        assert again == m
        assert again.expand() == m.expand()
        # and through the JSON text form
        assert parse_manifest(json.loads(m.dumps_json())) == m

    def test_load_json_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(_doc(scale="tiny")))
        m = load_manifest(path)
        assert m.scales == ("tiny",)

    @needs_toml
    def test_load_toml_file(self, tmp_path):
        path = tmp_path / "m.toml"
        path.write_text('[sweep]\nworkloads = ["mysql_sibench"]\n'
                        'scale = "tiny"\n')
        assert load_manifest(path) == load_manifest(
            _write_json(tmp_path, _doc(scale="tiny")))

    def test_unsupported_suffix(self, tmp_path):
        path = tmp_path / "m.yaml"
        path.write_text("sweep: {}")
        with pytest.raises(ManifestError) as exc:
            load_manifest(path)
        assert "unsupported manifest suffix" in str(exc.value)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ManifestError) as exc:
            load_manifest(tmp_path / "missing.json")
        assert "unreadable" in str(exc.value)

    @needs_toml
    def test_committed_manifests_validate(self):
        # The repo's own CI grids must always parse (the lint/CI gate
        # runs the same check via `repro manifest validate`).
        from pathlib import Path

        repo = Path(__file__).resolve().parent.parent
        manifests = sorted((repo / "manifests").glob("*.toml"))
        assert manifests, "no committed manifests found"
        for path in manifests:
            m = load_manifest(path)
            assert m.expand(), path

    @needs_toml
    def test_scale_grid_is_acceptance_sized(self):
        from pathlib import Path

        repo = Path(__file__).resolve().parent.parent
        m = load_manifest(repo / "manifests" / "scale-grid.toml")
        assert m.full_count == 1200
        assert len(m.expand()) == 1200


def _write_json(tmp_path, doc):
    path = tmp_path / "equiv.json"
    path.write_text(json.dumps(doc))
    return path


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCli:
    def test_validate_ok_and_bad(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(_doc(scale="tiny")))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sweep": {"workloads": ["nope"]}}))
        assert main(["manifest", "validate", str(good)]) == 0
        assert "OK" in capsys.readouterr().out
        assert main(["manifest", "validate", str(good), str(bad)]) == 2
        captured = capsys.readouterr()
        assert "unknown workload" in captured.err

    def test_expand_json(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(_doc(prefetchers=["eip"],
                                        scale="tiny")))
        assert main(["manifest", "expand", str(path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["count"] == 2
        assert [p["prefetcher"] for p in data["points"]] == \
            ["fdip", "eip"]

    def test_sweep_rejects_manifest_plus_flags(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(_doc(scale="tiny")))
        assert main(["sweep", "beego", "--manifest", str(path)]) == 2
        assert "--manifest already defines" in capsys.readouterr().err

    def test_sweep_events_requires_service(self, tmp_path, capsys):
        """--events needs no --manifest: a flag-built grid streams the
        same complete event record as a manifest sweep."""
        events = tmp_path / "x.jsonl"
        assert main(["sweep", "mysql_sibench", "--prefetchers", "eip",
                     "--scale", "tiny", "--events", str(events)]) == 0
        assert "--events requires" not in capsys.readouterr().err
        summary = summarize_events(read_events(events))
        assert summary["status"] == "ok"
        assert summary["total"] == summary["completed"] == 2
        assert summary["missing"] == [] and summary["duplicates"] == []

    def test_sweep_rejects_invalid_manifest(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"sweep": {"workloads": ["nope"]}}))
        assert main(["sweep", "--manifest", str(path)]) == 2
        assert "unknown workload" in capsys.readouterr().err
