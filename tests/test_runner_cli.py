from __future__ import annotations

import builtins
import collections
import dataclasses
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler
from operator import attrgetter
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from radar import cli, knowledge, runner
from radar.agents import TEMPLATE_DIR
from radar.cli import main
from radar.domain import NO_EVIDENCE_ANSWER, DiagnosisReport, canonical_fold
from radar.errors import (
    ConfigError,
    CorruptionError,
    EvaluationError,
    ProviderError,
    ScriptKeyError,
)
from radar.knowledge import KnowledgeBase, LiveSource
from radar.providers import TEMP_LOW, ChatResponse, request_fingerprint, user_request
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

from conftest import make_edge_tree

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
                       ("provider.timeouts_ms", -5), ("provider.dim", 0)]
    )
    def test_out_of_range_value(self, tmp_path, key, value):
        result = self._run(write_config(tmp_path / "c.json", **{key: value}), tmp_path / "run")
        assert result.exit_code == 2, result.output
        assert key in result.output
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("overrides", [
        {"provider.kind": "http", "provider.chat": {"url": "backend.test/chat"}},
        {"provider.embedder_kind": "http", "provider.embed": {"url": "ftp://backend.test/e"}},
        {"kb.source": {"kind": "live", "base_url": "https:///articles"}},
    ], ids=["no-scheme", "ftp", "no-host"])
    def test_an_endpoint_url_must_be_http_with_a_host(self, tmp_path, overrides):
        result = self._run(write_config(tmp_path / "c.json", **overrides), tmp_path / "run")
        assert result.exit_code == 2, result.output
        assert "not an http(s) URL with a host" in result.output
        assert not (tmp_path / "run" / "reports.jsonl").exists()

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
        assert manifest["store_error"] is None

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

    def test_a_run_over_a_saved_store_holds_each_stored_document_once(self, tmp_path,
                                                                       monkeypatch):
        store = tmp_path / "store"
        cfg = load_run_config(write_config(tmp_path / "c.json", **{"kb.store_dir": str(store)}))
        assert run_cases(cfg, DATA / "cases.jsonl", tmp_path / "first").all_ok
        built = {}
        for name in ("build_knowledge_base", "build_bundle"):
            def wrapper(cfg, *args, name=name, build=getattr(runner, name)):
                built[name] = build(cfg, *args)
                return built[name]
            monkeypatch.setattr(runner, name, wrapper)
        assert run_cases(cfg, DATA / "cases.jsonl", tmp_path / "second").all_ok
        stored = built["build_knowledge_base"].doc_store
        source = built["build_bundle"].source
        served = [doc for keyword in ("glioblastoma", "tuberous sclerosis")
                  for doc in source.fetch(keyword)]
        assert len(served) == len(stored) == 20
        assert all(doc is stored[doc.doc_id] for doc in served)
        golden = (DATA / "golden" / "reports.jsonl").read_text()
        assert (tmp_path / "second" / "reports.jsonl").read_text() == golden

    def test_a_run_with_hits_only_leaves_the_store_as_it_was(self, tmp_path):
        store = tmp_path / "store"
        cfg = load_run_config(write_config(tmp_path / "c.json", **{"kb.store_dir": str(store)}))
        assert run_cases(cfg, DATA / "cases.jsonl", tmp_path / "first").all_ok
        for path in store.iterdir():
            os.utime(path, ns=(1_000_000_000, 1_000_000_000))  # so any rewrite shows
        before = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in store.iterdir()}
        assert run_cases(cfg, DATA / "cases.jsonl", tmp_path / "second").all_ok
        after = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in store.iterdir()}
        assert after == before  # the same three files, untouched, and no temporary one

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


class FailsOnce:
    """Wraps a source; the first fetch of one keyword raises ``error``."""

    def __init__(self, source, keyword, error):
        self.source = source
        self.keyword = keyword
        self.error = error
        self.failed = False

    def fetch(self, keyword):
        if keyword == self.keyword and not self.failed:
            self.failed = True
            raise self.error
        return self.source.fetch(keyword)


class TestCaseIsolation:
    """Any exception one case raises is that case's failure; the others run."""

    @pytest.fixture(autouse=True)
    def disk_full_once(self, monkeypatch):
        build_bundle = runner.build_bundle

        def failing_bundle(cfg, *args):
            bundle = build_bundle(cfg, *args)
            # the OSError a live source's cache write raises on a full disk
            disk_full = OSError(28, "No space left on device")
            return dataclasses.replace(
                bundle, source=FailsOnce(bundle.source, "tuberous sclerosis", disk_full)
            )

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


class TestRetrievalRule:
    def test_an_error_outside_the_program_aborts_only_its_case(self, tmp_path, monkeypatch):
        """A KeyError is no RadarError, so it is no question's failure."""
        build_bundle = runner.build_bundle

        def failing_bundle(cfg, *args):
            bundle = build_bundle(cfg, *args)
            error = KeyError("tuberous sclerosis")
            return dataclasses.replace(
                bundle, source=FailsOnce(bundle.source, "tuberous sclerosis", error)
            )

        monkeypatch.setattr(runner, "build_bundle", failing_bundle)
        cfg = load_run_config(write_config(tmp_path / "c.json"))
        out = tmp_path / "out"
        summary = run_cases(cfg, DATA / "cases.jsonl", out)
        assert summary.failures == [("c1", "KeyError: 'tuberous sclerosis'")]
        golden = (DATA / "golden" / "reports.jsonl").read_text().splitlines()
        assert (out / "reports.jsonl").read_text().splitlines() == golden[1:]


class ScriptWithFallback:
    """The golden script, and for any prompt it lacks one object that both the
    answer and the report parsers accept: a degraded question changes the
    prompts after it."""

    reply = json.dumps({
        "answer": NO_EVIDENCE_ANSWER, "supporting_chunk_ids": [],
        "primary": "glioblastoma",
        "differentials": ["metastasis", "lymphoma", "abscess", "demyelination"],
        "confidences": [0.6, 0.2, 0.1, 0.06, 0.04],
    })

    def __init__(self, script):
        self.script = script

    def complete(self, request):
        try:
            return self.script.complete(request)
        except ScriptKeyError:
            return ChatResponse(content=self.reply, provider_id="fallback")


class TestRefusedIngest:
    def test_an_ingest_the_index_refuses_degrades_only_its_questions(self, tmp_path, monkeypatch):
        # A 70,000-character doc_id makes chunk ids the index file cannot hold.
        corpus = shutil.copytree(DATA / "corpus", tmp_path / "corpus")
        article = corpus / "gbm-article-0.json"
        doc = json.loads(article.read_text(encoding="utf-8"))
        article.write_text(json.dumps({**doc, "doc_id": "x" * 70_000}), encoding="utf-8")
        build_bundle = runner.build_bundle

        def fallback_bundle(cfg, *args):
            bundle = build_bundle(cfg, *args)
            return dataclasses.replace(bundle, chat=ScriptWithFallback(bundle.chat))

        monkeypatch.setattr(runner, "build_bundle", fallback_bundle)
        cfg = load_run_config(write_config(tmp_path / "c.json",
                                           **{"kb.source.corpus_dir": str(corpus)}))
        summary = run_cases(cfg, DATA / "cases.jsonl", tmp_path / "out")
        assert summary.failures == []
        reports = load_reports(tmp_path / "out")
        assert [case_id for case_id, _ in reports] == ["c1", "c2", "c3"]
        trace = json.loads((tmp_path / "out" / "traces" / "c1.json").read_text())
        errors = [s["detail"] for s in trace["steps"] if s["step_kind"] == "retrieval_error"]
        assert errors and all(e["keyword"] == "glioblastoma" for e in errors)
        assert all(e["error"].startswith("ValidationError: chunk 'xxx") for e in errors)


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


class TestConcurrentRadar:
    """The retrieval topology at ``workers > 1``, each run on a fresh store.
    Reports are not compared: at ``workers > 1`` a case's search can see
    what another case ingested first, so they can differ from the serial run's."""

    @staticmethod
    def _saved_store(tmp_path, workers):
        store = tmp_path / f"store-{workers}"
        cfg = load_run_config(write_config(tmp_path / f"c-{workers}.json", workers=workers,
                                           **{"kb.store_dir": str(store)}))
        run_cases(cfg, DATA / "cases.jsonl", tmp_path / f"out-{workers}")
        return knowledge.KnowledgeBase.load(store)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_each_keyword_is_fetched_once_and_the_store_loads(self, tmp_path, workers):
        serial = self._saved_store(tmp_path, 1)
        kb = self._saved_store(tmp_path, workers)
        logged = sorted(canonical_fold(entry.keyword) for entry in kb.fetch_log)
        assert logged == sorted(kb.fetched_keywords)
        assert kb.fetched_keywords == serial.fetched_keywords
        assert kb.index.count == serial.index.count > 0


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


def reference_digest(*dirs) -> str:
    """``content_digest`` as it was written before a run's read of its inputs
    fed it: a second walk that sorts and reads every file again."""
    h = hashlib.sha256()
    for d in dirs:
        if not d:
            continue
        root = Path(d)
        for f in sorted(p for p in root.rglob("*") if p.is_file()):
            h.update(str(f.relative_to(root)).encode("utf-8"))
            h.update(b"\x00")
            h.update(f.read_bytes())
            h.update(b"\x01")
    return h.hexdigest()


class TestContentDigest:
    @pytest.mark.parametrize("dirs", [
        (TEMPLATE_DIR, DATA / "corpus"), (DATA,), (DATA / "corpus", None), (None,),
    ], ids=["templates-and-corpus", "test-data", "corpus-and-none", "none"])
    def test_equals_the_reference_on_the_test_data(self, dirs):
        assert content_digest(*dirs) == reference_digest(*dirs)

    def test_equals_the_reference_on_the_edge_tree(self, tmp_path):
        tree = make_edge_tree(tmp_path)
        assert content_digest(TEMPLATE_DIR, tree) == reference_digest(TEMPLATE_DIR, tree)

    def test_a_run_digests_what_it_reads_without_a_second_walk(self, tmp_path, monkeypatch):
        def second_walk(*dirs):
            raise AssertionError("the run walked its inputs again for the digest")

        monkeypatch.setattr(runner, "content_digest", second_walk)
        cfg = load_run_config(write_config(tmp_path / "c.json"))
        assert run_cases(cfg, DATA / "cases.jsonl", tmp_path / "out").all_ok
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["content_digest"] == reference_digest(TEMPLATE_DIR, DATA / "corpus")

    def test_a_run_on_the_edge_tree_digests_it_as_the_reference_does(self, tmp_path):
        corpus = make_edge_tree(tmp_path)
        for path in corpus.glob("*.json"):  # the direct children become golden documents
            path.unlink()
        shutil.copytree(DATA / "corpus", corpus, dirs_exist_ok=True)
        shutil.copy(DATA / "corpus" / "gbm-case-1.json", corpus / ".hidden.json")
        (corpus / "linked-file.json").symlink_to(DATA / "corpus" / "gbm-case-0.json")
        cfg = load_run_config(write_config(tmp_path / "c.json",
                                           **{"kb.source.corpus_dir": str(corpus)}))
        assert run_cases(cfg, DATA / "cases.jsonl", tmp_path / "out").all_ok
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["content_digest"] == reference_digest(TEMPLATE_DIR, corpus)

    def test_a_run_opens_each_corpus_file_once(self, tmp_path, monkeypatch):
        corpus = os.path.abspath(DATA / "corpus")
        opened = collections.Counter()

        def counting(real_open):
            def open_counted(file, *args, **kwargs):
                if not isinstance(file, int):
                    path = os.path.abspath(os.fsdecode(file))
                    if os.path.dirname(path) == corpus:
                        opened[os.path.basename(path)] += 1
                return real_open(file, *args, **kwargs)
            return open_counted

        for module, name in ((builtins, "open"), (io, "open"), (os, "open")):
            monkeypatch.setattr(module, name, counting(getattr(module, name)))
        cfg = load_run_config(write_config(tmp_path / "c.json"))
        assert run_cases(cfg, DATA / "cases.jsonl", tmp_path / "out").all_ok
        monkeypatch.undo()
        assert opened == {name: 1 for name in os.listdir(corpus)}

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

    @pytest.mark.parametrize("command", [
        ["run", "--cases", str(DATA / "cases.jsonl"), "--out", "run"],
        ["kb", "fetch", "--keyword", "glioblastoma"],
    ], ids=["run", "kb-fetch"])
    def test_a_lone_surrogate_in_the_corpus_exits_two_and_writes_nothing(self, tmp_path,
                                                                          monkeypatch, command):
        corpus = tmp_path / "corpus"
        shutil.copytree(DATA / "corpus", corpus)
        bad = sorted(corpus.glob("*.json"))[0]
        raw = json.loads(bad.read_text(encoding="utf-8"))
        raw["title"] = "\ud800"  # json.dumps writes the escape, valid JSON in valid UTF-8
        bad.write_text(json.dumps(raw), encoding="utf-8")
        config = write_config(tmp_path / "c.json", **{"kb.source.corpus_dir": str(corpus),
                                                      "kb.store_dir": str(tmp_path / "store")})
        monkeypatch.chdir(tmp_path)
        result = CliRunner().invoke(main, command + ["--config", str(config)])
        assert result.exit_code == 2, result.output
        assert bad.name in result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "corpus"]

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

    @pytest.mark.parametrize("command, blocked", [
        (["run", "--cases", str(DATA / "cases.jsonl"), "--out", "{blocked}", "--config",
          "{config}"], "file"),
        (["run", "--cases", str(DATA / "cases.jsonl"), "--out", "{out}", "--config",
          "{config}"], "store"),
        (["kb", "fetch", "--keyword", "glioblastoma", "--config", "{config}"], "store"),
        (["eval", "--run", str(DATA / "golden"), "--truth", str(DATA / "truth.jsonl"),
          "--out", "{blocked}"], "directory"),
    ], ids=["run-out", "run-store", "kb-fetch-store", "eval-out"])
    def test_an_output_that_cannot_be_written_exits_one_with_one_line(self, tmp_path, command,
                                                                     blocked):
        path = tmp_path / "blocked"
        if blocked == "directory":
            path.mkdir()
        else:  # a regular file where a directory must go
            path.write_text("not a directory")
        store = path if blocked == "store" else tmp_path / "store"
        config = write_config(tmp_path / "c.json", **{"kb.store_dir": str(store)})
        result = CliRunner().invoke(main, [arg.format(blocked=path, config=config,
                                                      out=tmp_path / "run") for arg in command])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 1, result.output
        assert "Traceback" not in result.output
        assert len(result.stderr.splitlines()) == 1 and str(path) in result.stderr

    def test_a_run_whose_store_save_fails_still_ends_its_manifest(self, tmp_path):
        store = tmp_path / "store"
        store.write_text("not a directory")
        config = write_config(tmp_path / "c.json", **{"kb.store_dir": str(store)})
        out = tmp_path / "run"
        result = CliRunner().invoke(main, ["run", "--config", str(config), "--cases",
                                           str(DATA / "cases.jsonl"), "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert len(result.stderr.splitlines()) == 1 and str(store) in result.stderr
        assert (out / "reports.jsonl").read_text() == (
            DATA / "golden" / "reports.jsonl").read_text()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["ended_at"] >= manifest["started_at"]
        assert manifest["store_error"] == f"FileExistsError: [Errno 17] File exists: '{store}'"


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

    def test_decodes_each_report_once_and_writes_the_golden_scores(self, tmp_path, monkeypatch):
        run_dir = tmp_path / "golden"
        run_dir.mkdir()
        shutil.copy(DATA / "golden" / "reports.jsonl", run_dir / "reports.jsonl")
        decoded = []
        check = DiagnosisReport.__post_init__

        def counted_check(report):
            decoded.append(report.trace_id)
            check(report)

        monkeypatch.setattr(DiagnosisReport, "__post_init__", counted_check)
        out_path = tmp_path / "eval.json"
        result = CliRunner().invoke(
            main,
            ["eval", "--run", str(run_dir), "--truth", str(DATA / "truth.jsonl"),
             "--out", str(out_path), "--synonyms", str(DATA / "synonyms.json")],
        )
        assert result.exit_code == 0, result.output
        assert decoded == ["radar-c1", "radar-c2", "radar-c3"]
        golden = json.loads((DATA / "golden" / "eval.json").read_text())
        assert out_path.read_text() == json.dumps({"runs": [golden]}, indent=2, sort_keys=True)

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


# Modules only an HTTP client or the live source uses; importing the program
# or running it on the fixture source loads none of them.
HTTP_MODULES = ["requests", "urllib3", "charset_normalizer", "idna", "certifi",
                "http.client", "ssl", "urllib.request", "urllib.error", "html.parser"]


def modules_added_by(code: str) -> list[str]:
    """The ``HTTP_MODULES`` that running ``code`` in a fresh process loads.
    Counts only what the code adds: a site hook may load some of these
    names before any program code runs."""
    script = ("import json, sys\n"
              "before = set(sys.modules)\n"
              f"{code}\n"
              f"print(json.dumps(sorted(set({HTTP_MODULES!r}) & (set(sys.modules) - before))))\n")
    src = Path(runner.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "-c", script],
                            env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


class TestImports:
    def test_importing_the_program_loads_no_http_module(self):
        assert modules_added_by("import radar, radar.runner, radar.cli") == []

    def test_a_fixture_run_loads_no_http_module(self, tmp_path):
        config = write_config(tmp_path / "c.json")
        code = ("from radar.runner import load_run_config, run_cases\n"
                f"run_cases(load_run_config({str(config)!r}), {str(DATA / 'cases.jsonl')!r}, "
                f"{str(tmp_path / 'run')!r})")
        assert modules_added_by(code) == []
        assert (tmp_path / "run" / "reports.jsonl").read_bytes() == (
            DATA / "golden" / "reports.jsonl").read_bytes()


# One row per way a command ends a failure: the command as `radar --help`
# names it, its arguments, the callable a failure is raised from, and the
# prefix of the exit-1 line.
EXIT_TABLE = [
    pytest.param("run", ["run", "--cases", str(DATA / "cases.jsonl"), "--out", "{tmp}/run"],
                 (cli, "run_cases"), "run failed", id="run"),
    pytest.param("eval", ["eval", "--run", str(DATA / "golden"), "--truth",
                          str(DATA / "truth.jsonl"), "--out", "{tmp}/eval.json"],
                 (cli, "load_truths"), "evaluation failed", id="eval"),
    pytest.param("kb fetch", ["kb", "fetch", "--keyword", "glioblastoma"],
                 (cli, "build_bundle"), "fetch failed", id="kb-fetch"),
    pytest.param("kb fetch", ["kb", "fetch", "--keyword", "glioblastoma"],
                 (KnowledgeBase, "save"), "save failed", id="kb-fetch-save"),
    pytest.param("kb stats", ["kb", "stats"],
                 (cli, "build_knowledge_base"), "stats failed", id="kb-stats"),
]


def command_names(group: click.Group, prefix: str = "") -> set[str]:
    names = set()
    for name, command in group.commands.items():
        if isinstance(command, click.Group):
            names |= command_names(command, prefix + name + " ")
        else:
            names.add(prefix + name)
    return names


class TestFailureRule:
    """Every command ends a failure by its class: a store or config error
    exits 2, any other RadarError or an OSError exits 1, each with one line
    on stderr and no traceback."""

    @pytest.mark.parametrize("command, args, seam, prefix", EXIT_TABLE)
    @pytest.mark.parametrize("error, code", [
        (ConfigError("bad value"), 2),
        (CorruptionError("bad store"), 2),
        (ProviderError("bad reply"), 1),
        (OSError(5, "Input/output error"), 1),
    ], ids=["config", "corruption", "other-radar-error", "os-error"])
    def test_exit_code_and_one_line(self, tmp_path, monkeypatch, command, args, seam, prefix,
                                    error, code):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(*seam, fail)
        config = write_config(tmp_path / "c.json", **{"kb.store_dir": str(tmp_path / "store")})
        result = CliRunner().invoke(
            main, [arg.format(tmp=tmp_path) for arg in args] + ["--config", str(config)]
        )
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == code, result.output
        expected = "config error" if code == 2 else prefix
        assert result.stderr.splitlines() == [f"{expected}: {error}"]
        assert "Traceback" not in result.output

    def test_every_command_is_in_the_exit_table(self):
        assert command_names(main) == {row.values[0] for row in EXIT_TABLE}

    def test_a_keyword_whose_cache_page_cannot_be_read_costs_no_other(self, tmp_path):
        base = "http://127.0.0.1:9"  # never asked: every page the run reads is cached
        cache = tmp_path / "cache"
        page = LiveSource(base, cache_dir=cache)._cache_path

        def search(keyword, scope):
            return page(f"{base}/search?q={keyword}&scope={scope}")

        search("glioma", "articles").mkdir()  # reading it raises IsADirectoryError
        search("other", "articles").write_text('<a href="/articles/other-1">x</a>')
        search("other", "cases").write_text("")
        page(f"{base}/articles/other-1").write_text("<title>Other</title><p>other text</p>")
        config = write_config(tmp_path / "c.json", **{
            "kb.source": {"kind": "live", "base_url": base, "cache_dir": str(cache)},
            "kb.store_dir": str(tmp_path / "store"),
        })
        result = CliRunner().invoke(main, ["kb", "fetch", "--keyword", "glioma", "--keyword",
                                           "other", "--config", str(config)])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 1, result.output
        assert "Traceback" not in result.output
        line, = result.stderr.splitlines()
        assert line.startswith("fetch failed for 'glioma': [Errno 21] Is a directory")
        assert "other: fetched, 1 new documents" in result.stdout
        stats = CliRunner().invoke(main, ["kb", "stats", "--config", str(config)])
        assert stats.exit_code == 0, stats.output
        assert "keywords=1 documents=1" in stats.output


class TestUnstatablePaths:
    """A path the system cannot even stat is a missing path: exit 2 and one
    line, not a traceback."""

    @pytest.mark.parametrize("key", ["--cases", "provider.script_path", "kb.source.corpus_dir",
                                     "agents.template_dir", "eval.synonym_table"])
    def test_a_name_too_long_exits_two(self, tmp_path, key):
        too_long = str(tmp_path / ("x" * 5000))
        config = write_config(tmp_path / "c.json", **({} if key == "--cases" else {key: too_long}))
        cases = too_long if key == "--cases" else str(DATA / "cases.jsonl")
        result = CliRunner().invoke(main, ["run", "--config", str(config), "--cases", cases,
                                           "--out", str(tmp_path / "run")])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 2, result.output
        line, = result.stderr.splitlines()
        assert line.startswith("config error: ") and line.endswith("does not exist")
        assert "Traceback" not in result.output
        assert not (tmp_path / "run").exists()


def closing_handler(closed: threading.Semaphore, dim: int):
    """A handler answering a chat POST with ``{"content": "hi"}`` and an
    embedding POST with a unit vector of ``dim``; ``closed`` is released
    each time a client closes its connection."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True  # headers and body go out in two writes

        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            reply = {"embedding": [1.0] + [0.0] * (dim - 1)} if "text" in body else {"content": "hi"}
            data = json.dumps(reply).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def handle(self):
            super().handle()  # serves requests until the client closes the connection
            closed.release()

        def log_message(self, format, *args):
            pass

    return Handler


class TestClientsClosed:
    """A command closes the connections of the HTTP clients it built once it
    is done with them; the test keeps each client alive, so no garbage
    collection closes them instead."""

    def _keep(self, monkeypatch, module, builder="build_bundle"):
        """What ``module.<builder>`` builds, kept in a list."""
        built = []
        build = getattr(module, builder)

        def kept(*args):
            built.append(build(*args))
            return built[-1]

        monkeypatch.setattr(module, builder, kept)
        return built

    def _assert_all_closed(self, server, closed, built):
        assert built and server.accepted
        for _ in server.accepted:
            assert closed.acquire(timeout=10)

    @pytest.mark.parametrize("overrides", [
        {"topology": "single", "provider.kind": "http", "provider.chat": {"url": "{url}/chat"},
         "workers": 2},
        {"provider.embedder_kind": "http", "provider.embed": {"url": "{url}/embed"}},
    ], ids=["chat", "embed"])
    def test_run_cases(self, tmp_path, monkeypatch, loopback, overrides):
        closed = threading.Semaphore(0)
        server = loopback(closing_handler(closed, 384))
        bundles = self._keep(monkeypatch, runner)
        values = {key: json.loads(json.dumps(value).replace("{url}", server.url))
                  for key, value in overrides.items()}
        cfg = load_run_config(write_config(tmp_path / "c.json", **values))
        run_cases(cfg, DATA / "cases.jsonl", tmp_path / "run")
        self._assert_all_closed(server, closed, bundles)

    def test_kb_fetch(self, tmp_path, monkeypatch, loopback):
        closed = threading.Semaphore(0)
        server = loopback(closing_handler(closed, 384))
        bundles = self._keep(monkeypatch, cli)
        config = write_config(tmp_path / "c.json", **{
            "provider.embedder_kind": "http", "provider.embed": {"url": server.url + "/embed"},
            "kb.store_dir": str(tmp_path / "store"),
        })
        result = CliRunner().invoke(
            main, ["kb", "fetch", "--keyword", "glioblastoma", "--config", str(config)]
        )
        assert result.exit_code == 0, result.output
        self._assert_all_closed(server, closed, bundles)

    def test_eval(self, tmp_path, monkeypatch, loopback):
        closed = threading.Semaphore(0)
        server = loopback(closing_handler(closed, 384))
        normalizers = self._keep(monkeypatch, cli, "build_normalizer")
        config = write_config(tmp_path / "c.json", **{
            "provider.kind": "http", "provider.chat": {"url": server.url + "/chat"},
            "eval.normalizer_kind": "provider",
        })
        result = CliRunner().invoke(main, [
            "eval", "--run", str(DATA / "golden"), "--truth", str(DATA / "truth.jsonl"),
            "--out", str(tmp_path / "eval.json"), "--config", str(config)])
        assert result.exit_code == 0, result.output
        self._assert_all_closed(server, closed, normalizers)
