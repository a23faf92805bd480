from __future__ import annotations

import functools
import gc
import hashlib
import io
import json
import os
import pathlib
import re
import stat
import subprocess
import sys
import threading
import tracemalloc
import urllib.error
from email.message import Message
from http.server import BaseHTTPRequestHandler
from urllib.response import addinfourl

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radar import domain, knowledge
from radar import index as index_module
from radar.chunking import Chunk, Document, EmbeddedChunk, Section, segment
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
from radar.domain import canonical_fold, walk_files
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

    def test_serves_only_the_json_files_directly_in_the_directory(self, corpus_dir):
        (corpus_dir / "notes.txt").write_text("not a document", encoding="utf-8")
        (corpus_dir / "nested").mkdir()
        (corpus_dir / "gbm-case-0.json").rename(corpus_dir / "nested" / "gbm-case-0.json")
        docs = FixtureSource(corpus_dir).fetch("glioblastoma")
        assert [d.doc_id for d in docs] == [f"gbm-article-{i}" for i in range(5)] + [
            f"gbm-case-{i}" for i in range(1, 5)]

    def test_a_dangling_json_link_cannot_be_read(self, corpus_dir):
        (corpus_dir / "gone.json").symlink_to(corpus_dir / "absent.json")
        with pytest.raises(ConfigError, match=re.escape(f"cannot read {corpus_dir / 'gone.json'}")):
            FixtureSource(corpus_dir)

    def test_folds_each_distinct_keyword_once(self, corpus_dir, monkeypatch):
        folded = []
        fold = knowledge.canonical_fold

        def counted_fold(label):
            folded.append(label)
            return fold(label)

        monkeypatch.setattr(knowledge, "canonical_fold", counted_fold)
        FixtureSource(corpus_dir)
        assert sorted(folded) == ["glioblastoma", "tuberous sclerosis"]

    def test_adds_every_file_it_reads_to_the_digest(self, corpus_dir):
        (corpus_dir / "nested").mkdir()
        (corpus_dir / "nested" / "notes.txt").write_text("read, digested, not served")
        digest = hashlib.sha256(b"templates first")
        FixtureSource(corpus_dir, digest=digest)
        expected = hashlib.sha256(b"templates first")
        for _ in walk_files(corpus_dir, expected):
            pass
        assert digest.hexdigest() == expected.hexdigest()

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(body=""),
        lambda doc: doc.update(doc_id=""),
        lambda doc: doc.update(keyword=None),
        lambda doc: doc.pop("source_url"),
        lambda doc: doc.update(doc_id=5),
        lambda doc: doc.update(title=3),
        lambda doc: doc.update(body=["text"]),
        lambda doc: doc.update(source_url=1),
        lambda doc: doc.update(title="\ud800"),
        lambda doc: doc.update(body="lone \udfff low surrogate"),
    ], ids=["empty-body", "empty-doc_id", "null-keyword", "no-source_url", "int-doc_id",
            "int-title", "array-body", "int-source_url", "surrogate-title", "surrogate-body"])
    def test_invalid_document_is_a_config_error_naming_the_file(self, corpus_dir, edit):
        path = corpus_dir / "gbm-case-2.json"
        raw = json.loads(path.read_text(encoding="utf-8"))
        edit(raw)
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ConfigError, match="gbm-case-2.json"):
            FixtureSource(corpus_dir)


def saved_store(directory, corpus_dir, *keywords):
    """A store saved after looking up ``keywords`` in the corpus."""
    kb = fresh_kb()
    source = FixtureSource(corpus_dir)
    for keyword in keywords:
        kb.lookup_or_fetch(keyword, source, EMBEDDER)
    kb.save(directory)
    return directory


def edit_corpus_file(corpus_dir, edit):
    """Change the corpus after a store was saved from it; the doc_id whose
    served document changes."""
    def rewrite(name, change, to=None):
        raw = json.loads((corpus_dir / name).read_text(encoding="utf-8"))
        (corpus_dir / (to or name)).write_text(json.dumps({**raw, **change}), encoding="utf-8")

    if edit == "body":
        rewrite("gbm-article-1.json", {"body": "an edited body. " * 70})
        return "gbm-article-1"
    if edit == "keyword":
        rewrite("gbm-case-2.json", {"keyword": "tuberous sclerosis"})
        return "gbm-case-2"
    # the doc_id of a stored document listed a second time, under another keyword
    rewrite("gbm-article-0.json", {"keyword": "tuberous sclerosis"}, to="tsc-article-00.json")
    return "gbm-article-0"


EDITS = ["body", "keyword", "doc_id-under-a-second-keyword"]
KEYWORDS = ("glioblastoma", "tuberous sclerosis")


def kept_bytes(build):
    """The bytes still allocated after ``build()``, as tracemalloc counts them."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = build()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del built
    return kept


class TestFixtureSourceBesideAStore:
    """A corpus document equal to a stored one is served as the stored object."""

    def test_serves_the_stored_object_for_a_document_in_both(self, tmp_path, corpus_dir):
        loaded = KnowledgeBase.load(saved_store(tmp_path / "store", corpus_dir, "glioblastoma"))
        source = FixtureSource(corpus_dir, stored=loaded.doc_store)
        alone = FixtureSource(corpus_dir)
        assert all(doc is loaded.doc_store[doc.doc_id] for doc in source.fetch("glioblastoma"))
        assert not any(doc.doc_id in loaded.doc_store for doc in source.fetch("tuberous sclerosis"))
        for keyword in KEYWORDS:
            assert source.fetch(keyword) == alone.fetch(keyword)

    @pytest.mark.parametrize("edit", EDITS)
    def test_a_file_changed_since_the_save_is_served_as_read(self, tmp_path, corpus_dir, edit):
        loaded = KnowledgeBase.load(saved_store(tmp_path / "store", corpus_dir, *KEYWORDS))
        doc_id = edit_corpus_file(corpus_dir, edit)
        source = FixtureSource(corpus_dir, stored=loaded.doc_store)
        alone = FixtureSource(corpus_dir)
        changed = 0
        for keyword in KEYWORDS:
            served = source.fetch(keyword)
            assert served == alone.fetch(keyword)
            for doc in served:
                stored = loaded.doc_store[doc.doc_id]
                assert (doc is stored) == (doc == stored)
                changed += doc.doc_id == doc_id and doc != stored
        assert changed == 1

    @pytest.mark.parametrize("edit", EDITS)
    def test_lookups_and_ingests_after_an_edit_are_as_without_the_store(self, tmp_path,
                                                                        corpus_dir, edit):
        store = saved_store(tmp_path / "store", corpus_dir, "glioblastoma")
        edit_corpus_file(corpus_dir, edit)
        results = []
        for beside in (True, False):
            kb = KnowledgeBase.load(store)
            source = FixtureSource(corpus_dir, stored=kb.doc_store if beside else None)
            fresh = fresh_kb()
            outcomes = []
            for keyword in KEYWORDS:
                outcomes.append(kb.lookup_or_fetch(keyword, source, EMBEDDER))
                fresh.ingest(keyword, fetch_documents(source, keyword), EMBEDDER)
            results.append([outcomes] + [
                (list(k.doc_store.items()), [(cid, vec.tolist(), kw) for cid, vec, kw
                                             in k.index.entries()]) for k in (kb, fresh)])
        assert results[0] == results[1]
        assert [o.hit for o in results[0][0]] == [RetrievalHit.INTERNAL, RetrievalHit.FETCHED]

    def test_keeps_a_small_part_of_what_it_keeps_alone(self, tmp_path, corpus_dir):
        loaded = KnowledgeBase.load(saved_store(tmp_path / "store", corpus_dir, *KEYWORDS))
        assert len(loaded.doc_store) == len(list(corpus_dir.glob("*.json")))
        FixtureSource(corpus_dir, stored=loaded.doc_store)  # warm every cache a build fills
        beside = kept_bytes(lambda: FixtureSource(corpus_dir, stored=loaded.doc_store))
        alone = kept_bytes(lambda: FixtureSource(corpus_dir))
        assert beside < alone / 4


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
        assert canonical_fold("glioblastoma") not in kb.fetched_keywords
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
        assert canonical_fold("glioma") in kb.fetched_keywords
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
        assert canonical_fold("glioma") not in kb.fetched_keywords
        assert kb.doc_store == {}
        # retry succeeds cleanly
        assert kb.ingest("glioma", docs, EMBEDDER) == 3

    def test_shared_documents_not_reindexed(self):
        kb = fresh_kb()
        doc = make_document("shared", body="y" * 1000)
        assert kb.ingest("glioma", [doc], EMBEDDER) == 1
        assert kb.ingest("astrocytoma", [doc], EMBEDDER) == 0
        assert canonical_fold("astrocytoma") in kb.fetched_keywords
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
        assert {canonical_fold("glioma"), canonical_fold("astrocytoma")} <= kb.fetched_keywords
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
        assert canonical_fold("astrocytoma") not in kb.fetched_keywords

    def test_a_doc_id_too_long_to_store_is_refused_and_the_store_still_saves(self, tmp_path):
        kb = fresh_kb()
        kb.ingest("glioma", [make_document("d1")], EMBEDDER)
        with pytest.raises(ValidationError, match="id is not UTF-8 of at most 65535 bytes"):
            kb.ingest("long", [make_document("d" * 70_000)], EMBEDDER)
        kb.save(tmp_path / "store")
        loaded = KnowledgeBase.load(tmp_path / "store")
        assert (loaded.stats(), list(loaded.doc_store)) == (kb.stats(), ["d1"])
        assert canonical_fold("long") not in loaded.fetched_keywords

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

    def test_a_surrogate_pair_escape_round_trips(self, tmp_path, corpus_dir):
        path = corpus_dir / "gbm-case-2.json"
        path.write_text(path.read_text(encoding="utf-8").replace(
            '"title": "', '"title": "\\ud83d\\ude00 '), encoding="utf-8")
        kb = fresh_kb()
        kb.lookup_or_fetch("glioblastoma", FixtureSource(corpus_dir), EMBEDDER)
        assert kb.doc_store["gbm-case-2"].title.startswith("\U0001f600 ")
        kb.save(tmp_path / "store")
        assert "\U0001f600".encode() in (tmp_path / "store" / "documents.json").read_bytes()
        assert KnowledgeBase.load(tmp_path / "store").doc_store == kb.doc_store

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

    def test_load_names_the_first_five_bad_ids_in_index_order(self, tmp_path):
        kb = fresh_kb()
        kb.ingest("glioma", [make_document("d1", body="x" * 2600)], EMBEDDER)
        store = tmp_path / "store"
        kb.save(store)
        index = FlatIndex.load(store / "index.rdrx")
        bad = ["z:0", "d1:9", "d1:01", "a:0", "d1:", "d1:1.0", "b:1"]
        index.insert([unit_chunk(cid, [1.0] + [0.0] * 63) for cid in bad], "glioma")
        index.save(store / "index.rdrx")
        with pytest.raises(CorruptionError, match=re.escape(repr(bad[:5]))):
            KnowledgeBase.load(store)

    @settings(max_examples=150, deadline=None)
    @given(stored=st.dictionaries(st.text(":ab", min_size=1, max_size=4), st.integers(1, 120),
                                  max_size=4),
           chunk=st.integers(1, 30), data=st.data())
    def test_the_id_check_admits_exactly_the_ids_window_finds(self, stored, chunk, data):
        kb = fresh_kb(chunk, data.draw(st.integers(0, chunk - 1)))
        kb.doc_store = {doc_id: make_document(doc_id, body="x" * length)
                        for doc_id, length in stored.items()}
        names = kb._chunk_ids()
        assert all(kb._window(cid) is not None for cid in names)
        doc_part = st.one_of(st.sampled_from(sorted(stored)) if stored else st.nothing(),
                             st.text(":ab", max_size=5))  # missing, extra colons, empty
        ordinal = st.one_of(st.integers(0, 200).map(str), st.sampled_from(
            ["01", "+1", " 1", "1 ", "1.0", "-1", "00", "", "\u0661", "1_0"]))
        ids = st.one_of(st.builds("{}:{}".format, doc_part, ordinal),
                        st.text(":ab01 +.", max_size=8))
        for cid in data.draw(st.lists(ids, min_size=20, max_size=20)):
            assert (cid in names) == (kb._window(cid) is not None), cid

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
        _die_writing(monkeypatch, lambda path: path.name == dies)
        with pytest.raises(OSError, match="died"):
            kb.save(store)
        monkeypatch.undo()
        loaded = KnowledgeBase.load(store)
        assert loaded.index.count in (first_rows, kb.index.count)
        for cid in loaded.index.chunk_ids():
            assert loaded.chunk_text(cid) == kb.chunk_text(cid)

    @staticmethod
    def _files(store):
        return {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in store.iterdir()}

    @staticmethod
    def _age(store):
        for path in store.iterdir():  # an old mtime, so a rewrite shows whatever the clock
            os.utime(path, ns=(1_000_000_000, 1_000_000_000))

    def _fetched_store(self, tmp_path, corpus_dir):
        kb = fresh_kb()
        kb.lookup_or_fetch("glioblastoma", FixtureSource(corpus_dir), EMBEDDER)
        store = tmp_path / "store"
        kb.save(store)
        self._age(store)
        return kb, store

    def test_a_clean_store_is_not_rewritten(self, tmp_path, corpus_dir, monkeypatch):
        kb, store = self._fetched_store(tmp_path, corpus_dir)
        before = self._files(store)
        kb.save(store)
        loaded = KnowledgeBase.load(store)
        kb.lookup_or_fetch("Glioblastoma", FixtureSource(corpus_dir), EMBEDDER)  # a hit
        loaded.lookup_or_fetch("glioblastoma", FixtureSource(corpus_dir), EMBEDDER)
        kb.save(store)
        monkeypatch.chdir(tmp_path)
        loaded.save("store")  # the same directory, named relative to the working one
        assert self._files(store) == before

    def test_a_zero_document_keyword_rewrites_meta(self, tmp_path, corpus_dir):
        _, store = self._fetched_store(tmp_path, corpus_dir)
        before = self._files(store)
        kb = KnowledgeBase.load(store)
        outcome = kb.lookup_or_fetch("nonexistent entity", FixtureSource(corpus_dir), EMBEDDER)
        assert outcome.new_docs == 0
        kb.save(store)
        after = self._files(store)
        assert after["meta.json"] != before["meta.json"]
        assert canonical_fold("nonexistent entity") in KnowledgeBase.load(store).fetched_keywords

    def test_a_clean_store_saved_to_another_directory_is_written(self, tmp_path, corpus_dir):
        _, store = self._fetched_store(tmp_path, corpus_dir)
        KnowledgeBase.load(store).save(tmp_path / "copy")
        assert {name: data for name, (data, _) in self._files(tmp_path / "copy").items()} == {
            name: data for name, (data, _) in self._files(store).items()}

    def test_a_save_that_died_is_written_again(self, tmp_path, corpus_dir, monkeypatch):
        kb, store = self._fetched_store(tmp_path, corpus_dir)
        kb.lookup_or_fetch("tuberous sclerosis", FixtureSource(corpus_dir), EMBEDDER)
        _die_writing(monkeypatch, lambda path: path.name == "meta.json")
        with pytest.raises(OSError, match="died"):
            kb.save(store)
        monkeypatch.undo()
        kb.save(store)
        assert canonical_fold("tuberous sclerosis") in KnowledgeBase.load(store).fetched_keywords

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


def _store_bytes(store):
    return {p.name: p.read_bytes() for p in sorted(store.iterdir())}


def _documents_json(docs):
    """documents.json of ``docs``, a mapping of doc_id to document, in its
    order, as one ``json.dumps``: the order the documents were added."""
    return json.dumps({doc_id: dict(sorted(doc.to_dict().items()))
                       for doc_id, doc in docs.items()}, ensure_ascii=False).encode("utf-8")


def _full_save(kb, store):
    """The files a save of ``kb``'s state writes with no old file to copy
    from; its documents.json is also checked against `_documents_json`."""
    fresh = KnowledgeBase(dim=kb.index.dim, chunk_chars=kb.chunk_chars,
                          overlap_chars=kb.overlap_chars)
    fresh.doc_store = dict(kb.doc_store)
    for cid, vector, keyword in kb.index.entries():
        fresh.index.insert([EmbeddedChunk(Chunk(cid, "doc", 0, "x", (0, 1)), vector)], keyword)
    fresh.fetched_keywords, fresh.fetch_log = set(kb.fetched_keywords), list(kb.fetch_log)
    fresh.save(store)
    assert (store / "documents.json").read_bytes() == _documents_json(kb.doc_store)
    return _store_bytes(store)


def _assert_reloads(store, kb):
    """The store at ``store`` loads to ``kb``'s documents, in ``kb``'s order."""
    assert list(KnowledgeBase.load(store).doc_store.items()) == list(kb.doc_store.items())


class _SaveSpy:
    """Records the doc_ids a save encodes and the byte ranges it copies."""

    def __init__(self, monkeypatch):
        self.encoded, self.copied = [], []
        to_dict, copy_range = Document.to_dict, domain.copy_range

        def spy_to_dict(doc):
            self.encoded.append(doc.doc_id)
            return to_dict(doc)

        def spy_copy_range(src, start, end, dst):
            self.copied.append((pathlib.Path(src.name).name, start, end))
            return copy_range(src, start, end, dst)

        monkeypatch.setattr(Document, "to_dict", spy_to_dict)
        for module in (knowledge, index_module):  # each saver's copy_range
            monkeypatch.setattr(module, "copy_range", spy_copy_range)

    def clear(self):
        self.encoded.clear()
        self.copied.clear()

    def copied_from(self, name):
        return [(start, end) for file, start, end in self.copied if file == name]


ODD_BODY = 'a "quoted" back\\slash, a new\nline, a tab\t, \u2028, \x01 and \U0001f600 ' * 40


def _batch(ids, body="body text " * 150):
    return [make_document(doc_id, body=f"{doc_id}: {body}") for doc_id in ids]


class TestProportionalSave:
    """Documents are stored in the order they were added, so a save copies
    the old documents file but its closing "}" and the old index records,
    each as one range, encodes only what was added, and writes exactly what
    a save of everything writes."""

    @pytest.mark.parametrize("batches, body", [
        ([["c", "e", "g", "i"], ["0", "d", "f", "z"], ["a", "b", "h", "zz"]], "body text " * 150),
        ([["\u00e9-2", "\u65e5\u672c-1", "b"], ["a", "\u00e9-1", "\u65e5\u672c-0"],
          ["\u00e9-3", "\U0001f600", "\u2028"]], ODD_BODY),
    ], ids=["ascii", "non-ascii"])
    def test_saves_after_a_load_equal_a_full_save(self, tmp_path, monkeypatch, batches, body):
        store = tmp_path / "store"
        kb = fresh_kb()
        kb.ingest("first", _batch(batches[0], body), EMBEDDER)
        kb.save(store)
        kb = KnowledgeBase.load(store)
        assert _store_bytes(store) == _full_save(kb, tmp_path / "full-0")
        spy = _SaveSpy(monkeypatch)
        for n, ids in enumerate(batches[1:], start=1):  # the second save is in the same process
            sizes = {name: (store / name).stat().st_size for name in ("documents.json",
                                                                      "index.rdrx")}
            kb.ingest(f"batch {n}", _batch(ids, body), EMBEDDER)
            spy.clear()
            kb.save(store)
            assert spy.encoded == ids
            assert spy.copied_from("documents.json") == [(0, sizes["documents.json"] - 1)]
            assert spy.copied_from("index.rdrx") == [(20, sizes["index.rdrx"])]
            assert _store_bytes(store) == _full_save(kb, tmp_path / f"full-{n}")
            _assert_reloads(store, kb)

    def test_a_store_in_the_sorted_layout_is_copied_and_appended(self, tmp_path, monkeypatch):
        # The layout of stores written before documents were kept in the
        # order they were added: items in sorted doc_id order.
        store = tmp_path / "store"
        kb = fresh_kb()
        kb.ingest("first", _batch(["\u65e5\u672c", "b", "\u00e9", "a"], ODD_BODY), EMBEDDER)
        kb.save(store)
        path = store / "documents.json"
        sorted_layout = json.dumps({doc_id: doc.to_dict() for doc_id, doc in kb.doc_store.items()},
                                   sort_keys=True, ensure_ascii=False).encode("utf-8")
        path.write_bytes(sorted_layout)
        loaded = KnowledgeBase.load(store)
        assert list(loaded.doc_store) == ["a", "b", "\u00e9", "\u65e5\u672c"]
        loaded.ingest("second", _batch(["\U0001f600", "0"], ODD_BODY), EMBEDDER)
        spy = _SaveSpy(monkeypatch)
        loaded.save(store)
        assert spy.encoded == ["\U0001f600", "0"]
        assert spy.copied_from("documents.json") == [(0, len(sorted_layout) - 1)]
        assert _store_bytes(store) == _full_save(loaded, tmp_path / "full")
        _assert_reloads(store, loaded)

    @pytest.mark.parametrize("key", ["c", "a"], ids=["between", "first"])
    def test_an_item_under_another_documents_key_is_not_copied_for_that_key(self, tmp_path,
                                                                             monkeypatch, key):
        store = tmp_path / "store"
        kb = fresh_kb()
        kb.ingest("first", _batch(["b", "d"]), EMBEDDER)
        kb.save(store)
        path = store / "documents.json"
        docs = json.loads(path.read_text("utf-8"))
        path.write_text(json.dumps({**docs, key: {**docs["b"], "doc_id": "zz"}}, sort_keys=True,
                                   ensure_ascii=False), "utf-8")
        loaded = KnowledgeBase.load(store)
        loaded.ingest("second", _batch([key]), EMBEDDER)  # appended, it would hide "zz"
        spy = _SaveSpy(monkeypatch)
        loaded.save(store)
        assert spy.copied_from("documents.json") == []
        assert _store_bytes(store) == _full_save(loaded, tmp_path / "full")
        _assert_reloads(store, loaded)

    @pytest.mark.parametrize("name, change", [
        ("documents.json", lambda p: os.utime(p, ns=(1_000_000_000, 1_000_000_000))),
        ("documents.json", lambda p: p.write_text(json.dumps(json.loads(p.read_text("utf-8")),
                                                             indent=1), "utf-8")),
        ("index.rdrx", lambda p: os.utime(p, ns=(1_000_000_000, 1_000_000_000))),
        ("index.rdrx", lambda p: domain.replace_file(p, lambda fh, _: fh.write(p.read_bytes()))),
    ], ids=["documents-touched", "documents-redumped", "index-touched", "index-replaced"])
    @pytest.mark.parametrize("marked_by", ["load", "save"])
    def test_a_file_changed_since_the_load_is_not_copied(self, tmp_path, monkeypatch, name,
                                                          change, marked_by):
        store = tmp_path / "store"
        kb = fresh_kb()
        kb.ingest("first", _batch(["b", "d"]), EMBEDDER)
        kb.save(store)
        if marked_by == "load":
            kb = KnowledgeBase.load(store)
        change(store / name)
        kb.ingest("second", _batch(["a", "c"]), EMBEDDER)
        spy = _SaveSpy(monkeypatch)
        kb.save(store)
        other = "documents.json" if name == "index.rdrx" else "index.rdrx"
        assert spy.copied_from(name) == [] and spy.copied_from(other) != []
        assert _store_bytes(store) == _full_save(kb, tmp_path / "full")

    @pytest.mark.parametrize("redump, copied", [
        (lambda docs: json.dumps(docs, indent=1), True),
        (lambda docs: json.dumps(docs, separators=(",", ":")), True),
        (lambda docs: " " + json.dumps(docs), True),
        (lambda docs: json.dumps(dict(reversed(docs.items()))), True),
        (lambda docs: json.dumps(docs)[:-1] + ', "b": ' + json.dumps(  # the later "b" wins
            {**docs["b"], "title": "later"}) + "}", True),
        (lambda docs: json.dumps(docs) + "\n", False),  # a save would append after the "\n"
        (lambda docs: json.dumps({**docs, "c": {**docs["b"], "title": "later"}},
                                 sort_keys=True, ensure_ascii=False), False),
        (lambda docs: json.dumps({**docs, "c": {**docs["b"], "doc_id": "zz"}},
                                 sort_keys=True, ensure_ascii=False), False),  # stored as "zz"
    ], ids=["indented", "compact", "leading-space", "keys-descending", "duplicate-key",
            "trailing-newline", "key-not-its-doc_id", "key-of-a-document-stored-elsewhere"])
    def test_a_store_in_another_layout_loads_as_before(self, tmp_path, monkeypatch, redump,
                                                       copied):
        store = tmp_path / "store"
        kb = fresh_kb()
        kb.ingest("first", _batch(["b", "d"]), EMBEDDER)
        kb.save(store)
        path = store / "documents.json"
        text = redump(json.loads(path.read_text("utf-8"))).encode("utf-8")
        path.write_bytes(text)
        loaded = KnowledgeBase.load(store)
        assert list(loaded.doc_store.items()) == list(
            {raw["doc_id"]: Document(**raw) for raw in json.loads(text).values()}.items())
        new = _batch(["a", "e"])
        loaded.ingest("second", new, EMBEDDER)
        spy = _SaveSpy(monkeypatch)
        loaded.save(store)
        assert spy.encoded == (["a", "e"] if copied else list(loaded.doc_store))
        if copied:  # the file keeps its own spelling, and the new items follow it
            assert spy.copied_from("documents.json") == [(0, len(text) - 1)]
            assert path.read_bytes() == text[:-1] + b", " + _documents_json(
                {doc.doc_id: doc for doc in new})[1:]
        else:
            assert spy.copied_from("documents.json") == []
            assert _store_bytes(store) == _full_save(loaded, tmp_path / "full")
        _assert_reloads(store, loaded)

    @pytest.mark.parametrize("marked_by", ["load", "save"])
    def test_an_empty_store_saves_its_first_documents_whole(self, tmp_path, monkeypatch,
                                                            marked_by):
        store = tmp_path / "store"
        kb = fresh_kb()
        kb.save(store)
        assert (store / "documents.json").read_bytes() == b"{}"
        if marked_by == "load":
            kb = KnowledgeBase.load(store)
        kb.ingest("first", _batch(["d", "b"]), EMBEDDER)
        spy = _SaveSpy(monkeypatch)
        kb.save(store)
        assert spy.copied_from("documents.json") == []
        assert spy.encoded == ["d", "b"]
        assert _store_bytes(store) == _full_save(kb, tmp_path / "full")
        _assert_reloads(store, kb)

    @pytest.mark.parametrize("edit", [
        lambda text: text[: len(text) // 2],
        lambda text: text + "x",
        lambda text: text.replace(": {", ": {,", 1),
        lambda text: "\ufeff" + text,
        lambda text: "[" + text + "]",
    ], ids=["truncated", "trailing-text", "bad-value", "bom", "array"])
    def test_a_documents_file_that_is_not_a_json_object_is_corrupt(self, tmp_path, edit):
        store = tmp_path / "store"
        kb = fresh_kb()
        kb.ingest("first", _batch(["b", "d"]), EMBEDDER)
        kb.save(store)
        path = store / "documents.json"
        path.write_text(edit(path.read_text("utf-8")), "utf-8")
        with pytest.raises(CorruptionError, match="documents.json"):
            KnowledgeBase.load(store)


class TestFileModes:
    """Every file the program writes gets the mode a plain ``open`` gives
    under the umask in force when it is written."""

    def test_importing_radar_leaves_the_umask_alone(self):
        script = ("import os\n"
                  "calls, umask = [], os.umask\n"
                  "os.umask = lambda mask: calls.append(mask) or umask(mask)\n"
                  "import radar\n"
                  "print(calls)\n")
        src = pathlib.Path(knowledge.__file__).resolve().parents[1]
        result = subprocess.run([sys.executable, "-c", script],
                                env={**os.environ, "PYTHONPATH": str(src)},
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"

    def test_store_files_and_cache_pages_take_the_umask_in_force(self, tmp_path, corpus_dir):
        url = "https://radio.test/articles/glioblastoma-1"
        source = LiveSource("https://radio.test", cache_dir=tmp_path / "cache",
                            opener=_PageOpener({url: "<p>body</p>"}), sleep=lambda _: None)
        kb = fresh_kb()
        kb.lookup_or_fetch("glioblastoma", FixtureSource(corpus_dir), EMBEDDER)
        umask = os.umask(0o027)
        try:
            kb.save(tmp_path / "store")
            source._get(url)
            with open(tmp_path / "plain", "wb"):
                pass
        finally:
            os.umask(umask)
        written = [*(tmp_path / "store").iterdir(), source._cache_path(url), tmp_path / "plain"]
        assert len(written) == 5
        assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in written} == {
            p.name: 0o640 for p in written}


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


class _PageOpener:
    """Serves canned HTML per URL, as `urllib.request`'s opener does, and
    records request order; an unknown URL answers ``missing_status``."""

    def __init__(self, pages, missing_status=404):
        self.pages = pages
        self.missing_status = missing_status
        self.urls = []

    def open(self, url, timeout=None):
        self.urls.append(url)
        if url not in self.pages:
            raise urllib.error.HTTPError(url, self.missing_status, "error", Message(), None)
        headers = Message()
        headers["Content-Type"] = "text/html; charset=utf-8"
        return addinfourl(io.BytesIO(self.pages[url].encode("utf-8")), headers, url, 200)


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
        opener = _PageOpener(self._pages())
        source = LiveSource(
            self.BASE,
            delay_ms=1000,
            cache_dir=tmp_path / "cache",
            opener=opener,
            sleep=sleeps.append,
            clock=lambda: 0.0,
        )
        return source, opener

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
        source, opener = self._source(tmp_path, sleeps)
        source.fetch("glioblastoma")
        # first request free, each subsequent one waits the full delay
        assert len(sleeps) == len(opener.urls) - 1
        assert all(s == pytest.approx(1.0) for s in sleeps)

    def test_disk_cache_skips_network(self, tmp_path):
        sleeps = []
        source, opener = self._source(tmp_path, sleeps)
        source.fetch("glioblastoma")
        first_requests = len(opener.urls)
        source.fetch("glioblastoma")
        assert len(opener.urls) == first_requests

    def test_a_cache_write_that_dies_leaves_no_cache_file(self, tmp_path, monkeypatch):
        sleeps = []
        source, opener = self._source(tmp_path, sleeps)
        url = f"{self.BASE}/articles/glioblastoma-1"
        _die_writing(monkeypatch, lambda path: path.parent == source.cache_dir)
        with pytest.raises(OSError, match="died"):
            source._get(url)
        monkeypatch.undo()
        assert list(source.cache_dir.iterdir()) == []
        assert "Article body text." in source._get(url)
        assert opener.urls == [url, url]
        assert source._get(url) == source._cache_path(url).read_text(encoding="utf-8")
        assert opener.urls == [url, url]

    def test_delay_clamped_to_floor(self, tmp_path):
        source = LiveSource(self.BASE, delay_ms=10, cache_dir=tmp_path)
        assert source.delay_s == pytest.approx(1.0)

    def test_not_found_is_a_fetch_error_after_one_get(self):
        opener = _PageOpener({})
        gate, backoff = [], []
        source = LiveSource(self.BASE, opener=opener, sleep=gate.append, clock=lambda: 0.0)
        with pytest.raises(FetchError, match="answered 404"):
            fetch_documents(source, "glioblastoma", sleep=backoff.append)
        assert len(opener.urls) == 1
        assert (gate, backoff) == ([], [])

    def test_server_error_is_transport_and_retried(self):
        opener = _PageOpener({}, missing_status=503)
        gate, backoff = [], []
        source = LiveSource(self.BASE, opener=opener, sleep=gate.append, clock=lambda: 0.0)
        with pytest.raises(TransportError, match="answered 503"):
            source.fetch("glioblastoma")
        with pytest.raises(FetchError, match="answered 503"):
            fetch_documents(source, "glioblastoma", sleep=backoff.append)
        assert len(opener.urls) == 1 + 3
        assert backoff == [1.0, 2.0]

    def test_network_exception_is_transport(self):
        class ExplodingOpener:
            def open(self, url, timeout=None):
                raise urllib.error.URLError(ConnectionRefusedError("no route"))

        source = LiveSource(
            self.BASE, opener=ExplodingOpener(), sleep=lambda _: None, clock=lambda: 0.0
        )
        with pytest.raises(TransportError):
            source.fetch("glioblastoma")

    def test_concurrent_requests_keep_the_delay(self):
        """Two fetches that reach the network together still send their
        requests a full delay apart."""
        now = [0.0]
        gate, meet = _racing_gate()
        sent = []

        class RacingOpener(_PageOpener):
            def open(self, url, timeout=None):
                sent.append(now[0])
                meet()
                return super().open(url, timeout)

        pages = {f"{self.BASE}/a": "<p>a</p>", f"{self.BASE}/b": "<p>b</p>"}
        source = LiveSource(
            self.BASE,
            opener=RacingOpener(pages),
            sleep=lambda s: now.__setitem__(0, now[0] + s),
            clock=lambda: now[0],
        )
        source._gate = gate
        _run_threads([functools.partial(source._get, url) for url in pages])
        assert len(sent) == 2
        assert sent[1] - sent[0] >= source.delay_s

    def test_threads_wanting_one_uncached_page_send_one_request(self, tmp_path):
        """Two threads ask for a page neither finds cached: the one that
        waits at the gate reads the page the other cached before it let go."""
        now = [0.0]
        gate, meet = _racing_gate()
        sent = []

        class RacingOpener(_PageOpener):
            def open(self, url, timeout=None):
                sent.append((url, now[0]))
                meet()
                return super().open(url, timeout)

        url, other = f"{self.BASE}/a", f"{self.BASE}/b"
        source = LiveSource(
            self.BASE,
            cache_dir=tmp_path,
            opener=RacingOpener({url: "<p>a</p>", other: "<p>b</p>"}),
            sleep=lambda s: now.__setitem__(0, now[0] + s),
            clock=lambda: now[0],
        )
        source._gate = gate
        texts = []
        _run_threads([lambda: texts.append(source._get(url))] * 2)
        assert texts == ["<p>a</p>"] * 2
        assert [u for u, _ in sent] == [url]
        assert source._get(other) == "<p>b</p>"
        assert [u for u, _ in sent] == [url, other]
        assert sent[1][1] - sent[0][1] >= source.delay_s

    def test_many_concurrent_fetches_keep_the_delay(self):
        now = [0.0]
        sent = []

        class ClockedOpener(_PageOpener):
            def open(self, url, timeout=None):
                sent.append(now[0])
                return super().open(url, timeout)

        pages = {f"{self.BASE}/p{i}": f"<p>{i}</p>" for i in range(48)}
        source = LiveSource(
            self.BASE,
            opener=ClockedOpener(pages),
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


class TestLiveSourceOverHttp:
    """LiveSource with its own opener against an HTTP server on 127.0.0.1."""

    @pytest.fixture(autouse=True)
    def _no_proxy(self, monkeypatch):
        for name in list(os.environ):
            if name.lower().endswith("_proxy"):
                monkeypatch.delenv(name)

    def _serve(self, loopback, routes, missing_status=404):
        """Serves ``routes``: request path -> (status, headers, body); any
        other path answers ``missing_status``. Returns the server and the
        list of paths it was asked for."""
        asked = []

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                asked.append(self.path)
                status, headers, body = routes.get(self.path, (missing_status, {}, b""))
                self.send_response(status)
                for name, value in headers.items():
                    self.send_header(name, value)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format, *args):
                pass

        return loopback(Handler), asked

    def _source(self, url, gate):
        return LiveSource(url, sleep=gate.append, clock=lambda: 0.0)

    def test_a_redirect_is_followed_to_the_page(self, loopback):
        server, asked = self._serve(loopback, {
            "/old": (302, {"Location": "/page"}, b""),
            "/page": (200, {"Content-Type": "text/html; charset=utf-8"}, b"<p>moved</p>"),
        })
        gate = []
        assert self._source(server.url, gate)._get(server.url + "/old") == "<p>moved</p>"
        assert asked == ["/old", "/page"]
        assert gate == []  # one turn at the gate

    def test_a_server_error_is_retried_with_backoff_then_a_fetch_error(self, loopback):
        server, asked = self._serve(loopback, {}, missing_status=503)
        gate, backoff = [], []
        source = self._source(server.url, gate)
        with pytest.raises(FetchError, match="answered 503"):
            fetch_documents(source, "glioblastoma", sleep=backoff.append)
        assert backoff == [1.0, 2.0]
        assert asked == ["/search?q=glioblastoma&scope=articles"] * 3
        assert gate == [1.0, 1.0]

    @pytest.mark.parametrize("content_type, body, text", [
        ("text/html", "<p>naïve 胶质瘤</p>".encode("utf-8"), "<p>naïve 胶质瘤</p>"),
        ("text/html; charset=ISO-8859-1", "<p>naïve</p>".encode("latin-1"), "<p>naïve</p>"),
        ("text/html", b"<p>\xff</p>", "<p>\ufffd</p>"),
        ("text/html; charset=x-unknown", "<p>naïve</p>".encode("utf-8"), "<p>naïve</p>"),
    ], ids=["no-charset", "latin-1", "undecodable", "unknown-charset"])
    def test_a_page_decodes_in_its_charset_else_utf8(self, loopback, content_type, body, text):
        server, _ = self._serve(loopback, {"/page": (200, {"Content-Type": content_type}, body)})
        assert self._source(server.url, [])._get(server.url + "/page") == text

    def test_the_proxy_variables_are_honored(self, loopback, monkeypatch):
        page = "http://radio.test/articles/glioblastoma"
        server, asked = self._serve(loopback, {page: (200, {}, b"<p>proxied</p>")})
        monkeypatch.setenv("http_proxy", server.url)
        assert self._source("http://radio.test", [])._get(page) == "<p>proxied</p>"
        assert asked == [page]


def _racing_gate():
    """A stand-in for a source's request gate, and a ``meet`` call for its
    opener, that make two threads meet at a barrier: at their first request
    if nothing serializes them, else when one finds the gate taken by the
    other, which is then in its request."""
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

    return Gate(), meet


def _die_writing(monkeypatch, matches):
    """Make each ``replace_file`` of a matching path leave half the bytes
    written to its temporary file, then raise, however the file was written."""
    real_replace_file = domain.replace_file

    def replace_file(path, write, old=None):
        def write_half(fh, src):
            write(fh, src)
            if matches(pathlib.Path(path)):
                fh.truncate(fh.tell() // 2)
                raise OSError(f"died mid-write of {path}")

        return real_replace_file(path, write_half, old)

    monkeypatch.setattr(knowledge, "replace_file", replace_file)
    monkeypatch.setattr(index_module, "replace_file", replace_file)


def _run_threads(targets, timeout_s=30):
    threads = [threading.Thread(target=t) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout_s)
    assert not any(t.is_alive() for t in threads)
