from __future__ import annotations

import dataclasses
import hashlib
import json
import re
import shutil
from operator import attrgetter
from pathlib import Path

import pytest
from click.testing import CliRunner

from radar import knowledge, runner
from radar.agents import TEMPLATE_DIR
from radar.cli import main
from radar.errors import ConfigError, EvaluationError
from radar.providers import TEMP_LOW, request_fingerprint, user_request
from radar.runner import (
    AgentSettings,
    Endpoint,
    EvalSettings,
    KbSettings,
    ProviderSettings,
    RunConfig,
    SourceSettings,
    content_digest,
    load_reports,
    load_run_config,
    run_cases,
)
from radar.topologies import Topology

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
        assert Path(cfg.kb.source.corpus_dir).is_dir()

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


class TestConfigShape:
    """One config shape: ``RunConfig.to_dict`` writes the nested shape that
    ``load_run_config`` reads, and nothing else is read."""

    @pytest.mark.parametrize("name, cases", [
        ("golden_radar", "cases.jsonl"),
        ("degraded_radar", "cases_degraded.jsonl"),
    ])
    def test_manifest_config_reloads_equal(self, tmp_path, monkeypatch, name, cases):
        monkeypatch.chdir(DATA)  # relative paths, as a user would type them
        config = Path("configs") / f"{name}.json"
        out = tmp_path / "run"
        result = CliRunner().invoke(
            main, ["run", "--config", str(config), "--cases", cases, "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        snapshot = tmp_path / "elsewhere" / "config.json"
        snapshot.parent.mkdir()
        snapshot.write_text(json.dumps(json.loads((out / "manifest.json").read_text())["config"]))
        monkeypatch.chdir(tmp_path)
        assert load_run_config(snapshot) == load_run_config(DATA / config)

    def test_every_field_round_trips(self, tmp_path):
        (tmp_path / "templates").mkdir()
        cfg = RunConfig(
            topology=Topology.CHALLENGER,
            provider=ProviderSettings(
                kind="http",
                script_path=str(DATA / "scripts" / "golden_radar.json"),
                chat=Endpoint("https://backend.test/chat"),
                embed=Endpoint("https://backend.test/embed"),
                timeouts_ms=5_000,
                model="some-model",
                embedder_kind="http",
                dim=64,
            ),
            kb=KbSettings(
                chunk_chars=500,
                overlap_chars=50,
                source=SourceSettings(
                    kind="live",
                    corpus_dir=str(DATA / "corpus"),
                    fail_keywords=("broken term",),
                    base_url="https://reference.test",
                    delay_ms=1500,
                    cache_dir=str(tmp_path / "http-cache"),
                ),
                store_dir=str(tmp_path / "store"),
            ),
            agents=AgentSettings(n_queries=3, max_retries=0, template_dir=str(tmp_path / "templates")),
            eval=EvalSettings(normalizer_kind="provider", synonym_table=str(DATA / "synonyms.json")),
            seed=11,
            workers=2,
        )
        default = RunConfig()
        for section in ("provider", "provider.chat", "provider.embed", "kb", "kb.source",
                        "agents", "eval"):
            ours, theirs = attrgetter(section)(cfg), attrgetter(section)(default)
            unset = [f.name for f in dataclasses.fields(ours)
                     if getattr(ours, f.name) == getattr(theirs, f.name)]
            assert not unset, f"{section} fields left at their defaults: {unset}"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
        assert load_run_config(path) == cfg

    @pytest.mark.parametrize("alias, value, nested", [
        ("provider.chat_url", "https://backend.test/chat", "provider.chat.url"),
        ("provider.embed_url", "https://backend.test/embed", "provider.embed.url"),
        ("kb.source_kind", "fixture", "kb.source.kind"),
        ("kb.corpus_dir", str(DATA / "corpus"), "kb.source.corpus_dir"),
        ("kb.fail_keywords", ["broken term"], "kb.source.fail_keywords"),
        ("kb.base_url", "https://reference.test", "kb.source.base_url"),
        ("kb.delay_ms", 1500, "kb.source.delay_ms"),
        ("kb.cache_dir", "http-cache", "kb.source.cache_dir"),
        ("eval.normalizer", "dictionary", "eval.normalizer_kind"),
    ])
    def test_removed_flat_alias_names_the_nested_key(self, tmp_path, alias, value, nested):
        path = write_config(tmp_path / "c.json", **{alias: value})
        with pytest.raises(ConfigError, match=re.escape(repr(nested))):
            load_run_config(path)

    def test_section_must_be_an_object(self, tmp_path):
        path = write_config(tmp_path / "c.json", **{"kb.source": "fixture"})
        with pytest.raises(ConfigError, match="'kb.source' must be an object"):
            load_run_config(path)


class TestConfigValues:
    """Each value is checked against its field's JSON type, and a wrong one is
    a configuration error that names the key."""

    # (key, bad value, the key path the message names)
    BAD_VALUES = [
        ("provider.dim", "large", "provider.dim"),
        ("kb.source.delay_ms", None, "kb.source.delay_ms"),
        ("kb.source.fail_keywords", None, "kb.source.fail_keywords"),
        ("kb.source.fail_keywords", "abc", "kb.source.fail_keywords"),
        ("kb.source.fail_keywords", ["ok", 3], "kb.source.fail_keywords.1"),
        ("kb.chunk_chars", 1000.0, "kb.chunk_chars"),
        ("workers", "2", "workers"),
        ("seed", True, "seed"),
        ("provider.kind", None, "provider.kind"),
        ("eval.normalizer_kind", "thesaurus", "eval.normalizer_kind"),
        ("provider.chat.url", 7, "provider.chat.url"),
        ("kb.store_dir", 5, "kb.store_dir"),
    ]

    @pytest.mark.parametrize("key, value, named", BAD_VALUES)
    def test_wrong_type_names_the_key(self, tmp_path, key, value, named):
        path = write_config(tmp_path / "c.json", **{key: value})
        with pytest.raises(ConfigError, match=re.escape(repr(named))):
            load_run_config(path)

    @pytest.mark.parametrize("key, value, named", BAD_VALUES)
    def test_wrong_type_exits_two(self, tmp_path, key, value, named):
        config = write_config(tmp_path / "c.json", **{key: value})
        result = CliRunner().invoke(
            main,
            ["run", "--config", str(config), "--cases", str(DATA / "cases.jsonl"),
             "--out", str(tmp_path / "run")],
        )
        assert result.exit_code == 2, result.output
        assert repr(named) in result.output

    def test_null_is_the_default_where_allowed(self, tmp_path):
        path = write_config(
            tmp_path / "c.json",
            agents=None,
            **{"provider.model": None, "provider.chat": None, "kb.store_dir": None},
        )
        cfg = load_run_config(path)
        assert cfg.agents == AgentSettings()
        assert cfg.provider.model is None and cfg.provider.chat == Endpoint()
        assert cfg.kb.store_dir is None


class TestConfigFaultsExitTwo:
    """A value no run can use is refused when the config loads, not per case."""

    def _run(self, config, out):
        return CliRunner().invoke(
            main,
            ["run", "--config", str(config), "--cases", str(DATA / "cases.jsonl"),
             "--out", str(out)],
        )

    @pytest.mark.parametrize(
        "key, value", [("agents.max_retries", -1), ("provider.timeouts_ms", 0),
                       ("provider.timeouts_ms", -5)]
    )
    def test_out_of_range_value(self, tmp_path, key, value):
        result = self._run(write_config(tmp_path / "c.json", **{key: value}), tmp_path / "run")
        assert result.exit_code == 2, result.output
        assert key in result.output
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("kb.chunk_chars", 800, "chunk_chars 1000 does not match configured chunk_chars 800"),
        ("kb.overlap_chars", 100, "overlap_chars 200 does not match configured overlap_chars 100"),
    ])
    def test_store_window_must_match_the_config(self, tmp_path, key, value, message):
        store = {"kb.store_dir": str(tmp_path / "store")}
        fetch = CliRunner().invoke(
            main,
            ["kb", "fetch", "--keyword", "glioblastoma",
             "--config", str(write_config(tmp_path / "c.json", **store))],
        )
        assert fetch.exit_code == 0, fetch.output
        other = write_config(tmp_path / "other.json", **store, **{key: value})
        result = self._run(other, tmp_path / "run")
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not (tmp_path / "run" / "reports.jsonl").exists()


class TestReadmeConfig:
    """The README's config block documents exactly the keys the loader reads,
    with their defaults."""

    def _readme_block(self) -> dict:
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        block = re.search(r"```jsonc\n(.*?)```", readme, flags=re.DOTALL).group(1)
        # drop each // comment, but leave a "//" inside a string (https://...) alone
        return json.loads(re.sub(r'("(?:[^"\\]|\\.)*")|//[^\n]*', lambda m: m.group(1) or "", block))

    @staticmethod
    def _leaves(shape: dict, prefix: str = "") -> dict:
        """{dotted key path: value} for every key that is not a section."""
        out = {}
        for key, value in shape.items():
            if isinstance(value, dict):
                out |= TestReadmeConfig._leaves(value, f"{prefix}{key}.")
            else:
                out[prefix + key] = value
        return out

    def test_key_paths_match_the_settings(self):
        documented = self._leaves(self._readme_block())
        assert documented.keys() == self._leaves(RunConfig().to_dict()).keys()
        assert len(documented) == 25

    def test_documented_values_are_the_defaults(self):
        """Keys that default to null show an example; every other shows its default."""
        documented = self._leaves(self._readme_block())
        for key, default in self._leaves(RunConfig().to_dict()).items():
            if default is not None:
                assert documented[key] == default, key

    def test_comment_stripping_keeps_urls(self):
        assert self._readme_block()["provider"]["chat"]["url"] == "https://..."


class TestMaxRetries:
    def test_zero_retries_abort_each_case_after_one_call(self, tmp_path):
        script = tmp_path / "bad.json"
        script.write_text(json.dumps([{"content": "not json"}] * 3))
        cfg = load_run_config(write_config(
            tmp_path / "c.json",
            topology="single",
            **{"provider.script_path": str(script), "agents.max_retries": 0},
        ))
        out = tmp_path / "out"
        summary = run_cases(cfg, DATA / "cases.jsonl", out)
        # one reply per case: with the default of 2 retries, c1 would take all three
        assert [cid for cid, _ in summary.failures] == ["c1", "c2", "c3"]
        for case_id, message in summary.failures:
            assert "unusable after 1 attempts" in message
            trace = json.loads((out / "traces" / f"{case_id}.json").read_text())
            assert [s["step_kind"] for s in trace["steps"]] == ["diagnose", "diagnose"]
            assert "error" in trace["steps"][-1]["detail"]


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

    def test_golden_store_bytes_are_pinned(self, tmp_path, monkeypatch):
        # The store a golden run saves, with its fetch-log time fixed: any
        # change to the store files' format or content shows here.
        monkeypatch.setattr(knowledge.time, "time", lambda: 1_700_000_000.0)
        store = tmp_path / "store"
        cfg = load_run_config(write_config(tmp_path / "c.json", **{"kb.store_dir": str(store)}))
        assert run_cases(cfg, DATA / "cases.jsonl", tmp_path / "out").all_ok
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in store.iterdir()
        }
        assert digests == {
            "documents.json": "83c5497365743c05a3264c6180374414e31d3afe1bc710c2a8a84e955090fa9f",
            "index.rdrx": "57276e258dec36dbbd38642db225e7f5e14ad3358db3bc6c2ffcd4b86ea61a6d",
            "meta.json": "e5f60d3d3701312cba69fe4ef7ae818a7270ef0463ae5b62cccdb4b1a459040d",
        }

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


class DiskFullOnce:
    """Wraps a source; the first fetch of one keyword raises the OSError a
    live source's cache write raises on a full disk."""

    def __init__(self, source, keyword):
        self.source = source
        self.keyword = keyword
        self.failed = False

    def fetch(self, keyword):
        if keyword == self.keyword and not self.failed:
            self.failed = True
            raise OSError(28, "No space left on device")
        return self.source.fetch(keyword)


class TestCaseIsolation:
    """Any exception one case raises is that case's failure; the others run."""

    @pytest.fixture(autouse=True)
    def disk_full_once(self, monkeypatch):
        build_bundle = runner.build_bundle

        def failing_bundle(cfg):
            bundle = build_bundle(cfg)
            return dataclasses.replace(bundle, source=DiskFullOnce(bundle.source, "tuberous sclerosis"))

        monkeypatch.setattr(runner, "build_bundle", failing_bundle)

    def test_other_cases_reported(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path / "c.json"))
        out = tmp_path / "out"
        summary = run_cases(cfg, DATA / "cases.jsonl", out)
        # c1 fetches the keyword first and fails; c2 fetches it again, which
        # ingests in the golden order, so c2 and c3 report as in the golden run
        assert summary.failures == [("c1", "OSError: [Errno 28] No space left on device")]
        golden = (DATA / "golden" / "reports.jsonl").read_text().splitlines()
        assert (out / "reports.jsonl").read_text().splitlines() == golden[1:]
        failures = [json.loads(line) for line in (out / "failures.jsonl").read_text().splitlines()]
        assert failures == [{"case_id": "c1", "error": "OSError: [Errno 28] No space left on device"}]
        assert json.loads((out / "manifest.json").read_text())["ended_at"] is not None

    def test_cli_exits_one(self, tmp_path):
        out = tmp_path / "run"
        result = CliRunner().invoke(
            main,
            ["run", "--config", str(write_config(tmp_path / "c.json")),
             "--cases", str(DATA / "cases.jsonl"), "--out", str(out)],
        )
        assert result.exit_code == 1, result.output
        assert "failed c1: OSError" in result.output
        assert len((out / "reports.jsonl").read_text().splitlines()) == 2


class TestConcurrentWorkers:
    def test_keyed_script_runs_in_parallel_and_keeps_input_order(self, tmp_path):
        from radar.agents import PACKAGED_TEMPLATES
        from radar.domain import load_cases
        from radar.providers import request_fingerprint, user_request

        reply = json.dumps(
            {
                "primary": "glioblastoma",
                "differentials": ["metastasis", "lymphoma", "abscess", "demyelination"],
                "confidences": [0.6, 0.2, 0.1, 0.06, 0.04],
            }
        )
        entries = []
        for case in load_cases(DATA / "cases.jsonl"):
            prompt = PACKAGED_TEMPLATES.render(
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

    def test_invalid_corpus_document_exits_two(self, tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(DATA / "corpus", corpus)
        bad = sorted(corpus.glob("*.json"))[0]
        raw = json.loads(bad.read_text(encoding="utf-8"))
        raw["body"] = ""
        bad.write_text(json.dumps(raw), encoding="utf-8")
        config = write_config(
            tmp_path / "c.json", **{"kb.source": {"kind": "fixture", "corpus_dir": str(corpus)}}
        )
        result = CliRunner().invoke(
            main,
            ["run", "--config", str(config), "--cases", str(DATA / "cases.jsonl"),
             "--out", str(tmp_path / "run")],
        )
        assert result.exit_code == 2
        assert bad.name in result.output

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


class TestTemplateDirectory:
    """A run reads its template directory whole before the first case, and
    the provider normalizer renders from it too."""

    def test_partial_directory_exits_two_before_any_case(self, tmp_path):
        templates = tmp_path / "templates"
        shutil.copytree(TEMPLATE_DIR, templates)
        (templates / "final_doctor.txt").unlink()
        config = write_config(tmp_path / "c.json", **{"agents.template_dir": str(templates)})
        out = tmp_path / "run"
        result = CliRunner().invoke(
            main,
            ["run", "--config", str(config), "--cases", str(DATA / "cases.jsonl"),
             "--out", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert "lacks final_doctor" in result.output
        assert not (out / "reports.jsonl").exists()

    def test_provider_normalizer_renders_the_configured_template(self, tmp_path, monkeypatch):
        templates = tmp_path / "templates"
        shutil.copytree(TEMPLATE_DIR, templates)
        (templates / "normalize_label.txt").write_text("Name the term {label} canonically.")
        request = user_request("Name the term GBM canonically.", temperature=TEMP_LOW)
        script = tmp_path / "script.json"
        script.write_text(json.dumps([{
            "fingerprint": request_fingerprint(request),
            "content": json.dumps({"canonical": "Glioblastoma"}),
        }]))
        config = write_config(
            tmp_path / "c.json",
            **{"agents.template_dir": str(templates), "eval.normalizer_kind": "provider",
               "provider.script_path": str(script)},
        )

        def no_source(*args, **kwargs):
            raise AssertionError("the normalizer built a document source")

        monkeypatch.setattr(runner, "FixtureSource", no_source)
        prediction = runner.build_normalizer(load_run_config(config)).normalize("GBM")
        assert (prediction.canonical, prediction.degraded) == ("glioblastoma", False)


GOLDEN_REPORT = json.loads((DATA / "golden" / "reports.jsonl").read_text().splitlines()[0])


def report_line(**changes) -> bytes:
    """The first golden report line with keys replaced, or dropped where None."""
    raw = {**GOLDEN_REPORT, **changes}
    return json.dumps({k: v for k, v in raw.items() if v is not None}).encode() + b"\n"


class TestLoadReports:
    @pytest.mark.parametrize("line, problem", [
        (b'{"case_id": "c2",\n', "not valid JSON"),
        (b'["c2"]\n', "expected a JSON object, got list"),
        (report_line(primary=None), "bad report: key 'primary' is missing"),
        (report_line(primary=5), "bad report: key 'primary' must be a string, got 5"),
        (report_line(confidences="abc"), "bad report: key 'confidences' must be an array"),
        (report_line(differentials=7), "bad report: key 'differentials' must be an array"),
        (report_line(evidence=[1]), "bad report: key 'evidence.0' must be an object, got 1"),
        (report_line(case_id=None), "bad report: key 'case_id' is missing"),
        (report_line(case_id=3), "bad report: key 'case_id' must be a string, got 3"),
        (report_line(differentials="bcde"), "bad report: key 'differentials' must be an array"),
        (report_line(confidences=["0.62", 0.15, 0.1, 0.08, 0.05]),
         "bad report: key 'confidences.0' must be a number"),
        (report_line(confidences=[0.62, 0.15, 0.1, 0.08, False]),
         "bad report: key 'confidences.4' must be a number, got false"),
        (report_line(evidence=[{**GOLDEN_REPORT["evidence"][0], "supporting_chunk_ids": "ab"}]),
         "bad report: key 'evidence.0.supporting_chunk_ids' must be an array"),
        (report_line(evidence=[{**GOLDEN_REPORT["evidence"][0], "answer": 5, "question": ["x"]}]),
         "bad report: key 'evidence.0.question' must be a string"),
        (report_line(evidence=[{**GOLDEN_REPORT["evidence"][0], "keyword": None}]),
         "bad report: key 'evidence.0.keyword' must be a string, got null"),
        (report_line(trace_id=7), "bad report: key 'trace_id' must be a string, got 7"),
    ], ids=["not-json", "array", "no-primary", "int-primary", "string-confidences",
            "int-differentials", "int-evidence", "no-case-id", "int-case-id",
            "string-differentials", "string-confidence", "bool-confidence", "string-chunk-ids",
            "non-string-evidence-text", "null-keyword", "int-trace-id"])
    def test_names_the_faulty_line(self, tmp_path, line, problem):
        path = tmp_path / "reports.jsonl"
        path.write_bytes(report_line() + line)
        with pytest.raises(EvaluationError, match=re.escape(problem)) as exc_info:
            load_reports(tmp_path)
        assert f"{path}:2" in str(exc_info.value)

    def test_a_repeated_case_id_names_both_lines(self, tmp_path):
        path = tmp_path / "reports.jsonl"
        path.write_bytes(report_line() + report_line(case_id="c2") + report_line())
        with pytest.raises(EvaluationError, match=re.escape(
                f"{path}:3: case_id 'c1' already appears at {path}:1")):
            load_reports(tmp_path)

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "reports.jsonl"
        path.write_bytes(b"\xff\xfe not utf-8\n")
        with pytest.raises(EvaluationError, match=f"cannot read {re.escape(str(path))}"):
            load_reports(tmp_path)


class TestMalformedInputsExitOne:
    """A malformed JSON-lines input ends the command with exit 1 and a
    message naming the file, not a traceback."""

    @pytest.mark.parametrize("name, content", [
        ("truth.jsonl", None),
        ("truth.jsonl", b"\xff\xfe not utf-8\n"),
        ("reports.jsonl", report_line(primary=None)),
        ("reports.jsonl", b"not json\n"),
        ("reports.jsonl", b"[1]\n"),
        ("reports.jsonl", report_line(confidences="abc")),
        ("truth.jsonl", b'{"case_id": "c1", "truth_label": "glioma"}\n' * 2),
        ("reports.jsonl", report_line() * 2),
    ], ids=["truth-missing", "truth-not-utf8", "report-no-primary", "report-not-json",
            "report-array", "report-string-confidences", "truth-repeated-id",
            "report-repeated-id"])
    def test_eval(self, tmp_path, name, content):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        shutil.copy(DATA / "golden" / "reports.jsonl", run_dir / "reports.jsonl")
        shutil.copy(DATA / "truth.jsonl", tmp_path / "truth.jsonl")
        target = run_dir / name if name == "reports.jsonl" else tmp_path / name
        target.unlink()
        if content is not None:
            target.write_bytes(content)
        result = CliRunner().invoke(
            main,
            ["eval", "--run", str(run_dir), "--truth", str(tmp_path / "truth.jsonl"),
             "--out", str(tmp_path / "eval.json")],
        )
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 1, result.output
        assert str(target) in result.output

    @pytest.mark.parametrize("line", [
        report_line(differentials="bcde"),
        report_line(confidences=[0.62, 0.15, 0.1, 0.08, False]),
        report_line(evidence=[{**GOLDEN_REPORT["evidence"][0], "supporting_chunk_ids": "ab"}]),
        report_line(evidence=[{**GOLDEN_REPORT["evidence"][0], "answer": 5, "question": ["x"]}],
                    trace_id=7),
    ], ids=["string-differentials", "bool-confidence", "string-chunk-ids", "non-string-text"])
    def test_eval_names_the_line_of_a_converted_report(self, tmp_path, line):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "reports.jsonl").write_bytes(report_line() + line)
        result = CliRunner().invoke(
            main,
            ["eval", "--run", str(run_dir), "--truth", str(DATA / "truth.jsonl"),
             "--out", str(tmp_path / "eval.json")],
        )
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 1, result.output
        assert f"{run_dir / 'reports.jsonl'}:2" in result.output

    @pytest.mark.parametrize("content", [b"[1, 2]\n", b"\xff\xfe not utf-8\n"],
                             ids=["array-line", "not-utf8"])
    def test_run(self, tmp_path, content):
        cases = tmp_path / "cases.jsonl"
        cases.write_bytes(content)
        result = CliRunner().invoke(
            main,
            ["run", "--config", str(write_config(tmp_path / "c.json")),
             "--cases", str(cases), "--out", str(tmp_path / "run")],
        )
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 1, result.output
        assert str(cases) in result.output


class TestCaseIds:
    """A case id names its trace file, and no two cases share one: a case file
    that breaks either rule ends `radar run` with exit 1 before any output."""

    @pytest.mark.parametrize("second_id, problem", [
        ("sub/c1", "{cases}:2: invalid case: id not usable as a file name"),
        ("../../escaped", "{cases}:2: invalid case: id not usable as a file name"),
        ("c1", "{cases}:2: id 'c1' already appears at {cases}:1"),
    ], ids=["slash", "parent-path", "repeated"])
    def test_run_rejects_the_case_file_before_any_output(self, tmp_path, second_id, problem):
        lines = (DATA / "cases.jsonl").read_text(encoding="utf-8").splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), "id": second_id})
        cases = tmp_path / "cases.jsonl"
        cases.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        runs = tmp_path / "runs"
        result = CliRunner().invoke(
            main,
            ["run", "--config", str(write_config(tmp_path / "c.json")), "--cases", str(cases),
             "--out", str(runs / "a" / "run")],
        )
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 1, result.output
        assert problem.format(cases=cases) in result.output
        assert not runs.exists()


class TestUnreadableInputsExitCleanly:
    """A JSON input that cannot be read ends the command with its exit code
    and a message naming the file, not a traceback."""

    def _assert_clean_exit(self, result, code, path):
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == code, result.output
        assert str(path) in result.output
        assert "Traceback" not in result.output

    def test_run_config_not_utf8_exits_two(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_bytes(b"\xff\xfe")
        result = CliRunner().invoke(
            main,
            ["run", "--config", str(config), "--cases", str(DATA / "cases.jsonl"),
             "--out", str(tmp_path / "run")],
        )
        self._assert_clean_exit(result, 2, config)
        assert not (tmp_path / "run").exists()

    def test_eval_synonyms_not_utf8_exits_one(self, tmp_path):
        synonyms = tmp_path / "syn.json"
        synonyms.write_bytes(b"\xff\xfe")
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        shutil.copy(DATA / "golden" / "reports.jsonl", run_dir / "reports.jsonl")
        result = CliRunner().invoke(
            main,
            ["eval", "--run", str(run_dir), "--truth", str(DATA / "truth.jsonl"),
             "--out", str(tmp_path / "eval.json"), "--synonyms", str(synonyms)],
        )
        self._assert_clean_exit(result, 1, synonyms)

    @pytest.mark.parametrize("command", [
        ["run", "--cases", str(DATA / "cases.jsonl"), "--out", "{run}"],
        ["kb", "fetch", "--keyword", "glioma"],
        ["kb", "stats"],
    ], ids=["run", "kb-fetch", "kb-stats"])
    def test_store_without_index_file_exits_two(self, tmp_path, command):
        config = write_config(tmp_path / "c.json", **{"kb.store_dir": str(tmp_path / "store")})
        fetch = CliRunner().invoke(
            main, ["kb", "fetch", "--keyword", "glioblastoma", "--config", str(config)]
        )
        assert fetch.exit_code == 0, fetch.output
        (tmp_path / "store" / "index.rdrx").unlink()
        args = [arg.format(run=tmp_path / "run") for arg in command]
        result = CliRunner().invoke(main, args + ["--config", str(config)])
        self._assert_clean_exit(result, 2, tmp_path / "store" / "index.rdrx")
        assert not (tmp_path / "run").exists()
        assert not (tmp_path / "store" / "index.rdrx").exists()


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

    def test_stats_checks_the_store_dim(self, tmp_path):
        config = self._config(tmp_path)
        CliRunner().invoke(
            main, ["kb", "fetch", "--keyword", "glioblastoma", "--config", str(config)]
        )
        other_dim = write_config(
            tmp_path / "c64.json",
            **{"kb.store_dir": str(tmp_path / "store"), "provider.dim": 64},
        )
        result = CliRunner().invoke(main, ["kb", "stats", "--config", str(other_dim)])
        assert result.exit_code == 2
        assert "does not match configured dim 64" in result.output

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
