from __future__ import annotations

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from radar.cli import main
from radar.errors import ConfigError
from radar.runner import content_digest, load_reports, load_run_config, run_cases

DATA = Path(__file__).parent / "data"


def write_config(path: Path, **overrides) -> Path:
    """Golden config with absolute paths, tweakable per test."""
    cfg = {
        "topology": "radar",
        "provider": {
            "kind": "scripted",
            "script_path": str(DATA / "scripts" / "golden_radar.json"),
            "embedder_kind": "hashing",
            "dim": 384,
        },
        "kb": {
            "chunk_chars": 1000,
            "overlap_chars": 200,
            "source": {"kind": "fixture", "corpus_dir": str(DATA / "corpus")},
        },
        "agents": {"n_queries": 5},
        "eval": {"normalizer_kind": "dictionary", "synonym_table": str(DATA / "synonyms.json")},
        "seed": 7,
        "workers": 1,
    }
    for dotted, value in overrides.items():
        section = cfg
        parts = dotted.split(".")
        for key in parts[:-1]:
            section = section.setdefault(key, {})
        section[parts[-1]] = value
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestLoadRunConfig:
    def test_golden_config_loads(self):
        cfg = load_run_config(DATA / "configs" / "golden_radar.json")
        assert cfg.topology.value == "radar"
        assert cfg.kb.chunk_chars == 1000
        assert Path(cfg.kb.corpus_dir).is_dir()

    def test_overlap_must_be_less_than_chunk(self, tmp_path):
        path = write_config(tmp_path / "c.json", **{"kb.overlap_chars": 1000})
        with pytest.raises(ConfigError):
            load_run_config(path)

    def test_missing_corpus_dir(self, tmp_path):
        path = write_config(
            tmp_path / "c.json", **{"kb.source": {"kind": "fixture", "corpus_dir": "/nope"}}
        )
        with pytest.raises(ConfigError):
            load_run_config(path)

    def test_missing_script(self, tmp_path):
        path = write_config(tmp_path / "c.json", **{"provider.script_path": "/nope.json"})
        with pytest.raises(ConfigError):
            load_run_config(path)

    def test_unknown_topology(self, tmp_path):
        path = write_config(tmp_path / "c.json", topology="committee")
        with pytest.raises(ConfigError):
            load_run_config(path)


class TestRunCases:
    def test_three_reports_and_traces(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path / "c.json"))
        out = tmp_path / "out"
        summary = run_cases(cfg, DATA / "cases.jsonl", out)
        assert summary.all_ok
        assert summary.n_ok == 3
        reports = load_reports(out)
        assert [cid for cid, _ in reports] == ["c1", "c2", "c3"]
        for case_id in ("c1", "c2", "c3"):
            assert (out / "traces" / f"{case_id}.json").is_file()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["case_count"] == 3
        assert manifest["ended_at"] is not None

    def test_exhausted_script_fails_one_case(self, tmp_path):
        script = json.loads((DATA / "scripts" / "golden_radar.json").read_text())
        truncated = tmp_path / "short.json"
        truncated.write_text(json.dumps(script[:16]))  # drop case c3's entries
        cfg = load_run_config(
            write_config(tmp_path / "c.json", **{"provider.script_path": str(truncated)})
        )
        out = tmp_path / "out"
        summary = run_cases(cfg, DATA / "cases.jsonl", out)
        assert summary.n_ok == 2
        assert [cid for cid, _ in summary.failures] == ["c3"]
        assert len(load_reports(out)) == 2
        failures = (out / "failures.jsonl").read_text().splitlines()
        assert json.loads(failures[0])["case_id"] == "c3"


class TestConcurrentWorkers:
    def test_keyed_script_runs_in_parallel_and_keeps_input_order(self, tmp_path):
        from radar.agents import default_templates
        from radar.domain import load_cases
        from radar.providers import request_fingerprint, user_request

        registry = default_templates()
        reply = json.dumps(
            {
                "primary": "glioblastoma",
                "differentials": ["metastasis", "lymphoma", "abscess", "demyelination"],
                "confidences": [0.6, 0.2, 0.1, 0.06, 0.04],
            }
        )
        entries = []
        for case in load_cases(DATA / "cases.jsonl"):
            prompt = registry.render(
                "single_doctor", caption=case.caption, clinical_data=case.clinical_data
            )
            entries.append(
                {"fingerprint": request_fingerprint(user_request(prompt)), "content": reply}
            )
        script = tmp_path / "keyed.json"
        script.write_text(json.dumps(entries))
        cfg = load_run_config(
            write_config(
                tmp_path / "c.json",
                topology="single",
                workers=4,
                **{"provider.script_path": str(script)},
            )
        )
        out = tmp_path / "out"
        summary = run_cases(cfg, DATA / "cases.jsonl", out)
        assert summary.all_ok
        assert [cid for cid, _ in load_reports(out)] == ["c1", "c2", "c3"]


class TestOrderedScripts:
    """Unkeyed script entries answer calls in arrival order, so they replay
    only where calls arrive in a fixed order."""

    def _config(self, tmp_path, primaries, **overrides):
        script = tmp_path / "ordered.json"
        script.write_text(json.dumps([
            {"content": json.dumps({
                "primary": primary,
                "differentials": ["metastasis", "lymphoma", "abscess", "demyelination"],
                "confidences": [0.6, 0.2, 0.1, 0.06, 0.04],
            })}
            for primary in primaries
        ]))
        return write_config(tmp_path / "c.json", **{"provider.script_path": str(script)}, **overrides)

    @pytest.mark.parametrize("overrides", [{}, {"topology": "single", "workers": 2}])
    def test_rejected_where_calls_run_concurrently(self, tmp_path, overrides):
        config = self._config(tmp_path, ["a", "b", "c"], **overrides)
        out = tmp_path / "run"
        with pytest.raises(ConfigError):
            run_cases(load_run_config(config), DATA / "cases.jsonl", out)
        assert not out.exists()
        result = CliRunner().invoke(
            main,
            ["run", "--config", str(config), "--cases", str(DATA / "cases.jsonl"),
             "--out", str(out)],
        )
        assert result.exit_code == 2

    def test_single_topology_at_one_worker_replays_in_order(self, tmp_path):
        cfg = load_run_config(self._config(tmp_path, ["a", "b", "c"], topology="single"))
        out = tmp_path / "run"
        assert run_cases(cfg, DATA / "cases.jsonl", out).all_ok
        assert [(cid, raw["primary"]) for cid, raw in load_reports(out)] == [
            ("c1", "a"), ("c2", "b"), ("c3", "c")
        ]


class TestContentDigest:
    def test_stable_across_calls(self):
        first = content_digest(DATA / "corpus")
        second = content_digest(DATA / "corpus")
        assert first == second

    def test_changes_when_a_file_changes(self, tmp_path):
        src = tmp_path / "templates"
        src.mkdir()
        (src / "a.txt").write_text("one")
        before = content_digest(src)
        (src / "a.txt").write_text("two")
        assert content_digest(src) != before

    def test_changes_when_a_file_is_added(self, tmp_path):
        src = tmp_path / "templates"
        src.mkdir()
        (src / "a.txt").write_text("one")
        before = content_digest(src)
        (src / "b.txt").write_text("more")
        assert content_digest(src) != before


class TestCliRun:
    def test_exit_zero_and_reports(self, tmp_path):
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "run"
        result = CliRunner().invoke(
            main,
            ["run", "--config", str(config), "--cases", str(DATA / "cases.jsonl"),
             "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert len((out / "reports.jsonl").read_text().splitlines()) == 3

    def test_bad_config_exits_two(self, tmp_path):
        config = write_config(tmp_path / "c.json", **{"kb.overlap_chars": 2000})
        result = CliRunner().invoke(
            main,
            ["run", "--config", str(config), "--cases", str(DATA / "cases.jsonl"),
             "--out", str(tmp_path / "run")],
        )
        assert result.exit_code == 2

    def test_missing_cases_exits_two(self, tmp_path):
        config = write_config(tmp_path / "c.json")
        result = CliRunner().invoke(
            main,
            ["run", "--config", str(config), "--cases", str(tmp_path / "nope.jsonl"),
             "--out", str(tmp_path / "run")],
        )
        assert result.exit_code == 2

    def test_partial_failure_exits_one(self, tmp_path):
        script = json.loads((DATA / "scripts" / "golden_radar.json").read_text())
        truncated = tmp_path / "short.json"
        truncated.write_text(json.dumps(script[:16]))
        config = write_config(tmp_path / "c.json", **{"provider.script_path": str(truncated)})
        out = tmp_path / "run"
        result = CliRunner().invoke(
            main,
            ["run", "--config", str(config), "--cases", str(DATA / "cases.jsonl"),
             "--out", str(out)],
        )
        assert result.exit_code == 1
        assert len((out / "reports.jsonl").read_text().splitlines()) == 2
        assert (out / "failures.jsonl").is_file()


class TestCliEval:
    def _run_golden(self, tmp_path) -> Path:
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "run"
        result = CliRunner().invoke(
            main,
            ["run", "--config", str(config), "--cases", str(DATA / "cases.jsonl"),
             "--out", str(out)],
        )
        assert result.exit_code == 0
        return out

    def test_matches_golden_eval(self, tmp_path):
        run_dir = self._run_golden(tmp_path)
        out_path = tmp_path / "eval.json"
        result = CliRunner().invoke(
            main,
            ["eval", "--run", str(run_dir), "--truth", str(DATA / "truth.jsonl"),
             "--out", str(out_path), "--synonyms", str(DATA / "synonyms.json")],
        )
        assert result.exit_code == 0, result.output
        produced = json.loads(out_path.read_text())["runs"][0]
        golden = json.loads((DATA / "golden" / "eval.json").read_text())
        for key in ("n_cases", "top1", "top5", "per_case"):
            assert produced[key] == golden[key]

    def test_two_runs_aggregate(self, tmp_path):
        run_dir = self._run_golden(tmp_path)
        out_path = tmp_path / "eval.json"
        result = CliRunner().invoke(
            main,
            ["eval", "--run", str(run_dir), "--run", str(run_dir),
             "--truth", str(DATA / "truth.jsonl"), "--out", str(out_path),
             "--synonyms", str(DATA / "synonyms.json")],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(out_path.read_text())
        assert payload["aggregate"]["n_runs"] == 2
        assert payload["aggregate"]["std_top1"] == 0.0
        assert "±" in result.output

    def test_empty_run_dir_exits_one(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        result = CliRunner().invoke(
            main,
            ["eval", "--run", str(empty), "--truth", str(DATA / "truth.jsonl"),
             "--out", str(tmp_path / "eval.json")],
        )
        assert result.exit_code == 1

    def test_missing_truth_exits_one_and_lists_ids(self, tmp_path):
        run_dir = self._run_golden(tmp_path)
        partial_truth = tmp_path / "truth.jsonl"
        partial_truth.write_text('{"case_id": "c1", "truth_label": "glioblastoma"}\n')
        result = CliRunner().invoke(
            main,
            ["eval", "--run", str(run_dir), "--truth", str(partial_truth),
             "--out", str(tmp_path / "eval.json")],
        )
        assert result.exit_code == 1
        assert "c2" in result.output and "c3" in result.output


class TestCliKb:
    def _config(self, tmp_path) -> Path:
        return write_config(tmp_path / "c.json", **{"kb.store_dir": str(tmp_path / "store")})

    def test_fetch_then_stats(self, tmp_path):
        config = self._config(tmp_path)
        result = CliRunner().invoke(
            main, ["kb", "fetch", "--keyword", "glioblastoma", "--config", str(config)]
        )
        assert result.exit_code == 0, result.output
        assert "fetched, 10 new documents" in result.output
        assert "documents=10" in result.output
        stats = CliRunner().invoke(main, ["kb", "stats", "--config", str(config)])
        assert stats.exit_code == 0
        assert "keywords=1 documents=10" in stats.output
        assert "dim=384" in stats.output

    def test_refetch_is_internal(self, tmp_path):
        config = self._config(tmp_path)
        CliRunner().invoke(
            main, ["kb", "fetch", "--keyword", "glioblastoma", "--config", str(config)]
        )
        result = CliRunner().invoke(
            main, ["kb", "fetch", "--keyword", "Glioblastoma", "--config", str(config)]
        )
        assert result.exit_code == 0
        assert "internal, 0 new documents" in result.output

    def test_stats_on_empty_store(self, tmp_path):
        config = self._config(tmp_path)
        result = CliRunner().invoke(main, ["kb", "stats", "--config", str(config)])
        assert result.exit_code == 0
        assert "keywords=0 documents=0 chunks=0" in result.output

    def test_fetch_failure_exits_one(self, tmp_path):
        config = write_config(
            tmp_path / "c.json",
            **{
                "kb.store_dir": str(tmp_path / "store"),
                "kb.source": {
                    "kind": "fixture",
                    "corpus_dir": str(DATA / "corpus"),
                    "fail_keywords": ["broken term"],
                },
            },
        )
        result = CliRunner().invoke(
            main, ["kb", "fetch", "--keyword", "broken term", "--config", str(config)]
        )
        assert result.exit_code == 1
