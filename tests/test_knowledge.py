from __future__ import annotations

import functools
import json
import pathlib
import re
import sys
import threading

import pytest
import requests

from radar import knowledge
from radar.chunking import Section, segment
from radar.errors import (
    ConfigError,
    CorruptionError,
    DuplicateChunkError,
    FetchError,
    IngestionError,
    TransportError,
    ValidationError,
)
from radar.knowledge import (
    FixtureSource,
    KnowledgeBase,
    LiveSource,
    RetrievalHit,
    RetrievalOutcome,
    fetch_documents,
    html_to_text,
)
from radar.index import FlatIndex
from radar.providers import HashingEmbedder

from conftest import CountingSource, StaticSource, make_document, unit_chunk


EMBEDDER = HashingEmbedder(dim=64)


def fresh_kb(chunk_chars=1000, overlap_chars=200):
    return KnowledgeBase(dim=64, chunk_chars=chunk_chars, overlap_chars=overlap_chars)


class TestFetchDocuments:
    def test_caps_at_five_per_section(self):
        docs = [make_document(f"a{i}", section=Section.ARTICLE) for i in range(7)]
        docs += [make_document(f"c{i}", section=Section.CASE) for i in range(9)]
        fetched = fetch_documents(StaticSource(docs), "glioma")
        articles = [d for d in fetched if d.section is Section.ARTICLE]
        cases = [d for d in fetched if d.section is Section.CASE]
        assert len(articles) == 5 and len(cases) == 5
        # the source's own order stands in for relevance
        assert [d.doc_id for d in articles] == ["a0", "a1", "a2", "a3", "a4"]

    def test_shortfall_passes_through(self):
        docs = [make_document(f"a{i}", section=Section.ARTICLE) for i in range(2)]
        docs += [make_document("c0", section=Section.CASE)]
        assert len(fetch_documents(StaticSource(docs), "rare")) == 3

    def test_unknown_keyword_empty(self, corpus_dir):
        assert fetch_documents(FixtureSource(corpus_dir), "nonexistent entity") == []

    def test_dedupes_by_url(self):
        doc = make_document("a0", url="https://example.test/dup")
        twin = make_document("a1", url="https://example.test/dup")
        assert len(fetch_documents(StaticSource([doc, twin]), "glioma")) == 1

    def test_empty_keyword_rejected(self):
        with pytest.raises(ValidationError):
            fetch_documents(StaticSource([]), "  ")

    def test_transport_retried_then_fetch_error(self):
        class FlakySource:
            def __init__(self):
                self.calls = 0

            def fetch(self, keyword):
                self.calls += 1
                raise TransportError("down")

        source = FlakySource()
        with pytest.raises(FetchError):
            fetch_documents(source, "glioma", sleep=lambda _: None)
        assert source.calls == 3

    def test_transport_recovery(self):
        class OnceDown:
            def __init__(self):
                self.calls = 0

            def fetch(self, keyword):
                self.calls += 1
                if self.calls == 1:
                    raise TransportError("blip")
                return [make_document("a0")]

        docs = fetch_documents(OnceDown(), "glioma", sleep=lambda _: None)
        assert [d.doc_id for d in docs] == ["a0"]


class TestFixtureSource:
    def test_ten_documents_per_keyword(self, corpus_dir):
        docs = FixtureSource(corpus_dir).fetch("glioblastoma")
        assert len(docs) == 10
        assert sum(d.section is Section.ARTICLE for d in docs) == 5
        assert sum(d.section is Section.CASE for d in docs) == 5

    def test_keyword_matching_is_folded(self, corpus_dir):
        assert len(FixtureSource(corpus_dir).fetch("  GLIOBLASTOMA ")) == 10

    def test_fail_keywords_raise(self, corpus_dir):
        source = FixtureSource(corpus_dir, fail_keywords=("glioblastoma",))
        with pytest.raises(FetchError):
            source.fetch("Glioblastoma")
        assert len(source.fetch("tuberous sclerosis")) == 10

    def test_missing_directory(self, tmp_path):
        with pytest.raises(ConfigError):
            FixtureSource(tmp_path / "absent")

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(body=""),
        lambda doc: doc.update(doc_id=""),
        lambda doc: doc.update(keyword=None),
        lambda doc: doc.pop("source_url"),
        lambda doc: doc.update(doc_id=5),
        lambda doc: doc.update(title=3),
        lambda doc: doc.update(body=["text"]),
        lambda doc: doc.update(source_url=1),
    ], ids=["empty-body", "empty-doc_id", "null-keyword", "no-source_url", "int-doc_id",
            "int-title", "array-body", "int-source_url"])
    def test_invalid_document_is_a_config_error_naming_the_file(self, corpus_dir, edit):
        path = corpus_dir / "gbm-case-2.json"
        raw = json.loads(path.read_text(encoding="utf-8"))
        edit(raw)
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ConfigError, match="gbm-case-2.json"):
            FixtureSource(corpus_dir)


class TestLookupOrFetch:
    def test_fetch_then_internal(self, corpus_dir):
        kb = fresh_kb()
        source = CountingSource(FixtureSource(corpus_dir))
        outcome = kb.lookup_or_fetch("glioblastoma", source, EMBEDDER)
        assert outcome.hit is RetrievalHit.FETCHED
        assert outcome.new_docs == 10
        assert source.calls == 1
        again = kb.lookup_or_fetch("glioblastoma", source, EMBEDDER)
        assert again.hit is RetrievalHit.INTERNAL
        assert again.new_docs == 0
        assert source.calls == 1

    def test_fold_equivalent_keyword_is_internal(self, corpus_dir):
        kb = fresh_kb()
        source = CountingSource(FixtureSource(corpus_dir))
        kb.lookup_or_fetch("glioblastoma", source, EMBEDDER)
        outcome = kb.lookup_or_fetch("  Glioblastoma, ", source, EMBEDDER)
        assert outcome.hit is RetrievalHit.INTERNAL
        assert source.calls == 1

    def test_failed_fetch_leaves_keyword_unrecorded(self, corpus_dir):
        kb = fresh_kb()
        failing = FixtureSource(corpus_dir, fail_keywords=("glioblastoma",))
        with pytest.raises(FetchError):
            kb.lookup_or_fetch("glioblastoma", failing, EMBEDDER)
        assert not kb.has_keyword("glioblastoma")
        # a later attempt against a healthy source succeeds
        outcome = kb.lookup_or_fetch("glioblastoma", FixtureSource(corpus_dir), EMBEDDER)
        assert outcome.hit is RetrievalHit.FETCHED

    def test_zero_result_keyword_registered(self, corpus_dir):
        kb = fresh_kb()
        source = CountingSource(FixtureSource(corpus_dir))
        outcome = kb.lookup_or_fetch("unheard of", source, EMBEDDER)
        assert outcome.hit is RetrievalHit.FETCHED
        assert outcome.new_docs == 0
        assert kb.lookup_or_fetch("unheard of", source, EMBEDDER).hit is RetrievalHit.INTERNAL
        assert source.calls == 1

    def test_concurrent_same_keyword_fetches_once(self, corpus_dir):
        kb = fresh_kb()

        class SlowSource:
            def __init__(self, inner):
                self.inner = inner
                self.calls = 0

            def fetch(self, keyword):
                self.calls += 1
                threading.Event().wait(0.05)
                return self.inner.fetch(keyword)

        source = SlowSource(FixtureSource(corpus_dir))
        barrier = threading.Barrier(4)
        outcomes = []

        def worker():
            barrier.wait()
            outcomes.append(kb.lookup_or_fetch("glioblastoma", source, EMBEDDER))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert source.calls == 1
        assert sum(o.hit is RetrievalHit.FETCHED for o in outcomes) == 1

    def test_distinct_keywords_both_fetch(self, corpus_dir):
        kb = fresh_kb()
        source = CountingSource(FixtureSource(corpus_dir))
        kb.lookup_or_fetch("glioblastoma", source, EMBEDDER)
        kb.lookup_or_fetch("tuberous sclerosis", source, EMBEDDER)
        assert source.calls == 2
        assert kb.stats()["documents"] == 20


class TestIngest:
    def test_single_chunk_for_chunk_sized_body(self):
        kb = fresh_kb()
        added = kb.ingest("glioma", [make_document("d1", body="x" * 1000)], EMBEDDER)
        assert added == 1

    def test_chunk_count_formula_for_long_body(self):
        # 2600 chars, chunk 1000, overlap 200: spans (0,1000), (800,1800), (1600,2600)
        kb = fresh_kb()
        added = kb.ingest("glioma", [make_document("d1", body="x" * 2600)], EMBEDDER)
        assert added == 3

    def test_zero_docs_registers_keyword(self):
        kb = fresh_kb()
        assert kb.ingest("glioma", [], EMBEDDER) == 0
        assert kb.has_keyword("glioma")
        assert kb.index.count == 0

    def test_failure_atomicity(self):
        class FailingEmbedder:
            dim = 64

            def __init__(self):
                self.calls = 0

            def embed(self, text):
                self.calls += 1
                if self.calls > 2:
                    raise RuntimeError("backend died")
                return HashingEmbedder(dim=64).embed(text)

        kb = fresh_kb()
        docs = [make_document("d1", body="x" * 2600)]
        with pytest.raises(IngestionError):
            kb.ingest("glioma", docs, FailingEmbedder())
        assert kb.index.count == 0
        assert not kb.has_keyword("glioma")
        assert kb.doc_store == {}
        # retry succeeds cleanly
        assert kb.ingest("glioma", docs, EMBEDDER) == 3

    def test_shared_documents_not_reindexed(self):
        kb = fresh_kb()
        doc = make_document("shared", body="y" * 1000)
        assert kb.ingest("glioma", [doc], EMBEDDER) == 1
        assert kb.ingest("astrocytoma", [doc], EMBEDDER) == 0
        assert kb.has_keyword("astrocytoma")
        assert kb.index.count == 1

    def test_concurrent_keywords_sharing_a_document_index_it_once(self):
        # Both ingests must pass their freshness filter before either commits:
        # each blocks in its only embed call until the other one arrives.
        barrier = threading.Barrier(2)

        class RendezvousEmbedder:
            dim = 64

            def embed(self, text):
                barrier.wait(timeout=10)
                return EMBEDDER.embed(text)

        kb = fresh_kb()
        doc = make_document("shared", body="y" * 1000)
        added, errors = {}, []

        def worker(keyword):
            try:
                added[keyword] = kb.ingest(keyword, [doc], RendezvousEmbedder())
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(kw,)) for kw in ("glioma", "astrocytoma")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert sorted(added.values()) == [0, 1]
        assert kb.index.count == 1
        assert kb.has_keyword("glioma") and kb.has_keyword("astrocytoma")
        assert kb.chunk_text("shared:0") == doc.body

    def test_repeated_doc_id_within_a_batch_indexed_once(self):
        kb = fresh_kb()
        first = make_document("dup", body="a" * 1000, url="https://example.test/a")
        second = make_document("dup", body="b" * 1000, url="https://example.test/b")
        assert kb.ingest("glioma", [first, second], EMBEDDER) == 1
        assert kb.index.count == 1
        assert kb.doc_store["dup"] is first
        assert kb.chunk_text("dup:0") == first.body

    def test_no_orphans(self, corpus_dir):
        kb = fresh_kb()
        kb.lookup_or_fetch("glioblastoma", FixtureSource(corpus_dir), EMBEDDER)
        for chunk_id, _, _ in kb.index.entries():
            doc_id = chunk_id.rsplit(":", 1)[0]
            assert doc_id in kb.doc_store
            assert kb.chunk_text(chunk_id) in kb.doc_store[doc_id].body

    def test_rows_serve_their_text_as_soon_as_they_land(self, monkeypatch):
        """A search on another thread may return a row the moment insert
        appends it, before ingest returns; its text must already be there."""
        kb = fresh_kb()
        real_insert = kb.index.insert
        texts = []

        def insert_then_read(embedded, keyword):
            real_insert(embedded, keyword)
            texts.extend(kb.chunk_text(e.chunk.chunk_id) for e in embedded)

        monkeypatch.setattr(kb.index, "insert", insert_then_read)
        doc = make_document("d1", body="abcdefghij" * 260)
        assert kb.ingest("glioma", [doc], EMBEDDER) == 3
        assert texts == [c.text for c in segment(doc, 1000, 200)]

    def test_failed_insert_leaves_the_document_store_unchanged(self, monkeypatch):
        kb = fresh_kb()
        kb.ingest("glioma", [make_document("d1")], EMBEDDER)
        before = dict(kb.doc_store)

        def refuse(embedded, keyword):
            raise DuplicateChunkError("refused")

        monkeypatch.setattr(kb.index, "insert", refuse)
        with pytest.raises(DuplicateChunkError):
            kb.ingest("astrocytoma", [make_document("d2")], EMBEDDER)
        assert kb.doc_store == before
        assert not kb.has_keyword("astrocytoma")

    def test_chunk_text_needs_an_indexed_id(self):
        kb = fresh_kb()
        kb.ingest("glioma", [make_document("d1", body="x" * 2600)], EMBEDDER)
        assert kb.chunk_text("d1:2") == "x" * 1000
        for unknown in ("d1:3", "d1:01", "d1", "d2:0"):
            with pytest.raises(KeyError):
                kb.chunk_text(unknown)


class TestOutcomeInvariant:
    def test_internal_outcome_cannot_report_new_docs(self):
        with pytest.raises(ValidationError):
            RetrievalOutcome("k", RetrievalHit.INTERNAL, 3)


class TestPersistence:
    def test_roundtrip(self, tmp_path, corpus_dir):
        kb = fresh_kb()
        kb.lookup_or_fetch("glioblastoma", FixtureSource(corpus_dir), EMBEDDER)
        store = tmp_path / "store"
        kb.save(store)
        loaded = KnowledgeBase.load(store)
        assert loaded.stats() == kb.stats()
        assert loaded.fetched_keywords == kb.fetched_keywords
        sample_id = kb.index.entries()[0][0]
        assert loaded.chunk_text(sample_id) == kb.chunk_text(sample_id)

    def test_load_checks_chunk_ids_without_copying_vectors(self, tmp_path, corpus_dir, monkeypatch):
        kb = fresh_kb()
        kb.lookup_or_fetch("glioblastoma", FixtureSource(corpus_dir), EMBEDDER)
        kb.save(tmp_path / "store")
        monkeypatch.setattr(FlatIndex, "entries", lambda self: pytest.fail("entries() copies vectors"))
        loaded = KnowledgeBase.load(tmp_path / "store")
        assert loaded.index.chunk_ids() == kb.index.chunk_ids()

    def test_load_rejects_index_chunk_without_text(self, tmp_path, corpus_dir):
        kb = fresh_kb()
        kb.lookup_or_fetch("glioblastoma", FixtureSource(corpus_dir), EMBEDDER)
        kb.save(tmp_path / "store")
        docs_path = tmp_path / "store" / "documents.json"
        docs = json.loads(docs_path.read_text(encoding="utf-8"))
        docs.pop(sorted(docs)[0])
        docs_path.write_text(json.dumps(docs), encoding="utf-8")
        with pytest.raises(CorruptionError):
            KnowledgeBase.load(tmp_path / "store")

    def test_load_never_segments(self, tmp_path, corpus_dir, monkeypatch):
        kb = fresh_kb()
        kb.lookup_or_fetch("glioblastoma", FixtureSource(corpus_dir), EMBEDDER)
        kb.save(tmp_path / "store")
        monkeypatch.setattr(knowledge, "segment", lambda *a: pytest.fail("load re-segments"))
        loaded = KnowledgeBase.load(tmp_path / "store")
        for cid in kb.index.chunk_ids():
            assert loaded.chunk_text(cid) == kb.chunk_text(cid)

    def test_doc_ids_with_colons_round_trip(self, tmp_path):
        kb = fresh_kb()
        docs = [
            make_document("articles:glioma", body="abcdefghij" * 260),
            make_document("cases:glioma:7", body="0123456789" * 130),
        ]
        kb.ingest("glioma", docs, EMBEDDER)
        kb.save(tmp_path / "store")
        loaded = KnowledgeBase.load(tmp_path / "store")
        expected = {c.chunk_id: c.text for d in docs for c in segment(d, 1000, 200)}
        assert loaded.index.chunk_ids() == list(expected)
        assert {cid: loaded.chunk_text(cid) for cid in expected} == expected

    @pytest.mark.parametrize("chunk_id", [
        "d1:3", "d1:01", "d1:+1", "d1:-1", "d1:\u0661", "d1:", "d1", "d2:0",
    ], ids=["past-last-window", "leading-zero", "plus-sign", "negative", "non-ascii-digit",
            "empty-ordinal", "no-colon", "no-document"])
    def test_load_rejects_an_index_id_that_names_no_window(self, tmp_path, chunk_id):
        kb = fresh_kb()
        kb.ingest("glioma", [make_document("d1", body="x" * 2600)], EMBEDDER)
        store = tmp_path / "store"
        kb.save(store)
        index = FlatIndex.load(store / "index.rdrx")
        index.insert([unit_chunk(chunk_id, [1.0] + [0.0] * 63)], "glioma")
        index.save(store / "index.rdrx")
        with pytest.raises(CorruptionError, match=re.escape(repr(chunk_id))):
            KnowledgeBase.load(store)

    @staticmethod
    def _edit_store(store, filename, edit):
        path = store / filename
        raw = json.loads(path.read_text(encoding="utf-8"))
        edit(raw)
        path.write_text(json.dumps(raw), encoding="utf-8")

    @pytest.mark.parametrize("edit", [
        lambda docs: docs["gbm-case-2"].pop("body"),
        lambda docs: docs["gbm-case-2"].pop("source_url"),
        lambda docs: docs["gbm-case-2"].update(body=""),
        lambda docs: docs["gbm-case-2"].update(doc_id=""),
        lambda docs: docs["gbm-case-2"].update(section="letter"),
        lambda docs: docs.update({"gbm-case-2": ["not", "an", "object"]}),
        lambda docs: docs["gbm-case-2"].update(doc_id=5),
        lambda docs: docs["gbm-case-2"].update(keyword=None),
        lambda docs: docs["gbm-case-2"].update(title=3),
        lambda docs: docs["gbm-case-2"].update(body=["text"]),
        lambda docs: docs["gbm-case-2"].update(source_url=1),
    ], ids=["no-body", "no-source_url", "empty-body", "empty-doc_id", "bad-section", "array",
            "int-doc_id", "null-keyword", "int-title", "array-body", "int-source_url"])
    def test_load_rejects_an_invalid_stored_document(self, tmp_path, corpus_dir, edit):
        kb = fresh_kb()
        kb.lookup_or_fetch("glioblastoma", FixtureSource(corpus_dir), EMBEDDER)
        store = tmp_path / "store"
        kb.save(store)
        self._edit_store(store, "documents.json", edit)
        with pytest.raises(CorruptionError, match="gbm-case-2"):
            KnowledgeBase.load(store)

    @pytest.mark.parametrize("edit, named", [
        (lambda meta: meta.pop("chunk_chars"), "chunk_chars"),
        (lambda meta: meta.pop("overlap_chars"), "overlap_chars"),
        (lambda meta: meta.update(overlap_chars=5000), "overlap_chars"),
        (lambda meta: meta.update(fetch_log=[{"keyword": "glioma"}]), "timestamp"),
        (lambda meta: meta.update(fetched_keywords="glioma"), "fetched_keywords"),
        (lambda meta: meta.update(fetched_keywords=["glioma", 3]), "fetched_keywords"),
        (lambda meta: meta.update(chunk_chars=True), "chunk_chars"),
        (lambda meta: meta.update(overlap_chars=200.0), "overlap_chars"),
        (lambda meta: meta.update(fetch_log="glioma"), "fetch_log"),
        (lambda meta: meta.update(fetch_log=[{"keyword": "glioma", "timestamp": "x",
                                              "doc_count": None}]), "'fetch_log.0.timestamp'"),
        (lambda meta: meta.update(fetch_log=[{"keyword": 3, "timestamp": 1.5,
                                              "doc_count": 10}]), "'fetch_log.0.keyword'"),
        (lambda meta: meta.update(fetch_log=[{"keyword": "glioma", "timestamp": True,
                                              "doc_count": 10}]), "'fetch_log.0.timestamp'"),
        (lambda meta: meta.update(fetch_log=[{"keyword": "glioma", "timestamp": 1.5,
                                              "doc_count": 1.0}]), "'fetch_log.0.doc_count'"),
        (lambda meta: meta.update(fetch_log=["glioma"]), "fetch_log"),
    ], ids=["no-chunk_chars", "no-overlap_chars", "overlap-too-large", "fetch_log-entry",
            "fetched_keywords-string", "fetched_keywords-non-string", "bool-chunk_chars",
            "float-overlap_chars", "fetch_log-string", "fetch_log-string-timestamp",
            "fetch_log-int-keyword", "fetch_log-bool-timestamp", "fetch_log-float-doc_count",
            "fetch_log-string-entry"])
    def test_load_rejects_a_bad_meta_file(self, tmp_path, edit, named):
        store = tmp_path / "store"
        fresh_kb().save(store)
        self._edit_store(store, "meta.json", edit)
        with pytest.raises(CorruptionError, match=named):
            KnowledgeBase.load(store)

    @pytest.mark.parametrize("dies", ["documents.json", "index.rdrx", "meta.json"])
    def test_a_save_that_dies_leaves_a_store_that_loads(self, tmp_path, corpus_dir, monkeypatch,
                                                        dies):
        """The second save writes half of one file and dies; the store then
        holds the first save, the second, or a mix that still loads."""
        kb = fresh_kb()
        kb.lookup_or_fetch("glioblastoma", FixtureSource(corpus_dir), EMBEDDER)
        store = tmp_path / "store"
        kb.save(store)
        first_rows = kb.index.count
        kb.lookup_or_fetch("tuberous sclerosis", FixtureSource(corpus_dir), EMBEDDER)
        if dies == "index.rdrx":
            real_save = FlatIndex.save

            def save_half(index, path):
                real_save(index, path)
                data = pathlib.Path(path).read_bytes()
                pathlib.Path(path).write_bytes(data[: len(data) // 2])
                raise OSError("died mid-write")

            monkeypatch.setattr(FlatIndex, "save", save_half)
        else:
            _die_writing(monkeypatch, lambda path: path.name.startswith(dies))
        with pytest.raises(OSError, match="died"):
            kb.save(store)
        monkeypatch.undo()
        loaded = KnowledgeBase.load(store)
        assert loaded.index.count in (first_rows, kb.index.count)
        for cid in loaded.index.chunk_ids():
            assert loaded.chunk_text(cid) == kb.chunk_text(cid)

    def test_empty_roundtrip(self, tmp_path):
        kb = fresh_kb()
        store = tmp_path / "store"
        kb.save(store)
        loaded = KnowledgeBase.load(store)
        assert loaded.stats() == kb.stats()
        assert loaded.index.count == 0

    def test_load_missing_store(self, tmp_path):
        with pytest.raises(CorruptionError):
            KnowledgeBase.load(tmp_path / "absent")

    def test_bad_chunk_params_rejected(self):
        with pytest.raises(ConfigError):
            KnowledgeBase(dim=64, chunk_chars=100, overlap_chars=100)


class TestHtmlToText:
    def test_strips_scripts_styles_and_tags(self):
        html = (
            "<html><head><title>Glioblastoma</title>"
            "<style>body { color: red }</style></head>"
            "<body><script>alert('x')</script>"
            "<h1>Glioblastoma</h1>"
            "<p>A malignant   tumour.</p><p>Often enhances.</p>"
            "<ul><li>necrosis</li><li>oedema</li></ul>"
            "</body></html>"
        )
        text = html_to_text(html)
        assert "alert" not in text
        assert "color" not in text
        lines = text.splitlines()
        assert "Glioblastoma" in lines
        assert "A malignant tumour." in lines
        assert "necrosis" in lines

    def test_entities_unescaped(self):
        assert html_to_text("<p>T1 &amp; T2</p>") == "T1 & T2"

    def test_blank_lines_collapse(self):
        text = html_to_text("<p>a</p><div></div><div></div><p>b</p>")
        assert "\n\n\n" not in text


class _PageSession:
    """Serves canned HTML per URL and records request order."""

    def __init__(self, pages, missing_status=404):
        self.pages = pages
        self.missing_status = missing_status
        self.urls = []

    def get(self, url, timeout=None):
        self.urls.append(url)

        class Resp:
            def __init__(self, status_code, text):
                self.status_code = status_code
                self.text = text

        if url not in self.pages:
            return Resp(self.missing_status, "")
        return Resp(200, self.pages[url])


class TestLiveSource:
    BASE = "https://radio.test"

    def _pages(self):
        search_articles = '<a href="/articles/glioblastoma-1">one</a>'
        search_cases = '<a href="/cases/glioblastoma-case-1">one</a>'
        return {
            f"{self.BASE}/search?q=glioblastoma&scope=articles": search_articles,
            f"{self.BASE}/search?q=glioblastoma&scope=cases": search_cases,
            f"{self.BASE}/articles/glioblastoma-1": (
                "<title>GBM article</title><p>Article body text.</p>"
            ),
            f"{self.BASE}/cases/glioblastoma-case-1": (
                "<title>GBM case</title><p>Case body text.</p>"
            ),
        }

    def _source(self, tmp_path, sleeps):
        session = _PageSession(self._pages())
        source = LiveSource(
            self.BASE,
            delay_ms=1000,
            cache_dir=tmp_path / "cache",
            session=session,
            sleep=sleeps.append,
            clock=lambda: 0.0,
        )
        return source, session

    def test_fetch_reduces_pages_to_documents(self, tmp_path):
        sleeps = []
        source, _ = self._source(tmp_path, sleeps)
        docs = source.fetch("glioblastoma")
        assert len(docs) == 2
        by_section = {d.section: d for d in docs}
        assert by_section[Section.ARTICLE].body == "Article body text."
        assert by_section[Section.ARTICLE].title == "GBM article"
        assert by_section[Section.CASE].source_url.endswith("/cases/glioblastoma-case-1")

    def test_politeness_delay_between_requests(self, tmp_path):
        sleeps = []
        source, session = self._source(tmp_path, sleeps)
        source.fetch("glioblastoma")
        # first request free, each subsequent one waits the full delay
        assert len(sleeps) == len(session.urls) - 1
        assert all(s == pytest.approx(1.0) for s in sleeps)

    def test_disk_cache_skips_network(self, tmp_path):
        sleeps = []
        source, session = self._source(tmp_path, sleeps)
        source.fetch("glioblastoma")
        first_requests = len(session.urls)
        source.fetch("glioblastoma")
        assert len(session.urls) == first_requests

    def test_a_cache_write_that_dies_leaves_no_cache_file(self, tmp_path, monkeypatch):
        sleeps = []
        source, session = self._source(tmp_path, sleeps)
        url = f"{self.BASE}/articles/glioblastoma-1"
        _die_writing(monkeypatch, lambda path: path.parent == source.cache_dir)
        with pytest.raises(OSError, match="died"):
            source._get(url)
        monkeypatch.undo()
        assert list(source.cache_dir.iterdir()) == []
        assert "Article body text." in source._get(url)
        assert session.urls == [url, url]
        assert source._get(url) == source._cache_path(url).read_text(encoding="utf-8")
        assert session.urls == [url, url]

    def test_delay_clamped_to_floor(self, tmp_path):
        source = LiveSource(self.BASE, delay_ms=10, cache_dir=tmp_path)
        assert source.delay_s == pytest.approx(1.0)

    def test_not_found_is_a_fetch_error_after_one_get(self):
        session = _PageSession({})
        gate, backoff = [], []
        source = LiveSource(self.BASE, session=session, sleep=gate.append, clock=lambda: 0.0)
        with pytest.raises(FetchError, match="answered 404"):
            fetch_documents(source, "glioblastoma", sleep=backoff.append)
        assert len(session.urls) == 1
        assert (gate, backoff) == ([], [])

    def test_server_error_is_transport_and_retried(self):
        session = _PageSession({}, missing_status=503)
        gate, backoff = [], []
        source = LiveSource(self.BASE, session=session, sleep=gate.append, clock=lambda: 0.0)
        with pytest.raises(TransportError, match="answered 503"):
            source.fetch("glioblastoma")
        with pytest.raises(FetchError, match="answered 503"):
            fetch_documents(source, "glioblastoma", sleep=backoff.append)
        assert len(session.urls) == 1 + 3
        assert backoff == [1.0, 2.0]

    def test_network_exception_is_transport(self):
        class ExplodingSession:
            def get(self, url, timeout=None):
                raise requests.ConnectionError("no route")

        source = LiveSource(
            self.BASE, session=ExplodingSession(), sleep=lambda _: None, clock=lambda: 0.0
        )
        with pytest.raises(TransportError):
            source.fetch("glioblastoma")

    def test_concurrent_requests_keep_the_delay(self):
        """Two fetches that reach the network together still send their
        requests a full delay apart. Both threads meet at a barrier: at the
        first request if nothing serializes them, else the one that finds
        the source's request gate taken meets the other there."""
        now = [0.0]
        barrier = threading.Barrier(2)
        arrivals = iter(range(1_000))

        def meet():
            if next(arrivals) < 2:  # only the first two arrivals rendezvous
                barrier.wait(timeout=10)

        class Gate:
            def __init__(self):
                self._lock = threading.Lock()

            def __enter__(self):
                if not self._lock.acquire(blocking=False):
                    meet()
                    self._lock.acquire()

            def __exit__(self, *exc):
                self._lock.release()

        sent = []

        class RacingSession(_PageSession):
            def get(self, url, timeout=None):
                sent.append(now[0])
                meet()
                return super().get(url, timeout)

        pages = {f"{self.BASE}/a": "<p>a</p>", f"{self.BASE}/b": "<p>b</p>"}
        source = LiveSource(
            self.BASE,
            session=RacingSession(pages),
            sleep=lambda s: now.__setitem__(0, now[0] + s),
            clock=lambda: now[0],
        )
        source._gate = Gate()
        _run_threads([functools.partial(source._get, url) for url in pages])
        assert len(sent) == 2
        assert sent[1] - sent[0] >= source.delay_s

    def test_many_concurrent_fetches_keep_the_delay(self):
        now = [0.0]
        sent = []

        class ClockedSession(_PageSession):
            def get(self, url, timeout=None):
                sent.append(now[0])
                return super().get(url, timeout)

        pages = {f"{self.BASE}/p{i}": f"<p>{i}</p>" for i in range(48)}
        source = LiveSource(
            self.BASE,
            session=ClockedSession(pages),
            sleep=lambda s: now.__setitem__(0, now[0] + s),
            clock=lambda: now[0],
        )
        urls = list(pages)

        def get_all(part):
            for url in part:
                source._get(url)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _run_threads([functools.partial(get_all, urls[i::8]) for i in range(8)])
        finally:
            sys.setswitchinterval(switch)
        assert len(sent) == len(urls)
        assert all(b - a >= source.delay_s for a, b in zip(sent, sent[1:]))


def _die_writing(monkeypatch, matches):
    """Make text writes to matching paths write half their text, then raise."""
    real_write_text = pathlib.Path.write_text

    def write_half(path, data, *args, **kwargs):
        if not matches(path):
            return real_write_text(path, data, *args, **kwargs)
        real_write_text(path, data[: len(data) // 2], *args, **kwargs)
        raise OSError(f"died mid-write of {path.name}")

    monkeypatch.setattr(pathlib.Path, "write_text", write_half)


def _run_threads(targets, timeout_s=30):
    threads = [threading.Thread(target=t) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout_s)
    assert not any(t.is_alive() for t in threads)
