from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radar.chunking import (
    Document,
    Section,
    chunk_span,
    embed_chunks,
    l2_normalize,
    segment,
)
from radar.domain import decode
from radar.errors import ConfigError, DegenerateVectorError, EmbeddingError, ValidationError
from radar.providers import HashingEmbedder

from conftest import make_document


def spans_by_stride(length: int, chunk: int, overlap: int) -> list[tuple[int, int]]:
    """Independent enumeration: start += chunk - overlap until end >= length."""
    spans = []
    start = 0
    while True:
        end = min(start + chunk, length)
        spans.append((start, end))
        if end >= length:
            return spans
        start += chunk - overlap


class TestDocumentJson:
    def test_corpus_files_round_trip(self):
        corpus = sorted((Path(__file__).parent / "data" / "corpus").glob("*.json"))
        assert corpus
        for path in corpus:
            raw = json.loads(path.read_text(encoding="utf-8"))
            assert decode(Document, raw, str(path), ConfigError).to_dict() == raw

    def test_title_may_be_absent(self):
        raw = make_document("d").to_dict()
        del raw["title"]
        assert decode(Document, raw, "doc", ConfigError).title == ""

    def test_section_is_written_as_its_value(self):
        raw = make_document("d", section=Section.CASE).to_dict()
        assert raw["section"] == "case" and type(raw["section"]) is str


class TestSegment:
    def test_single_chunk_when_body_fits(self):
        doc = make_document("d", body="x" * 10)
        chunks = segment(doc, 10, 0)
        assert [c.char_span for c in chunks] == [(0, 10)]

    def test_overlapping_spans(self):
        doc = make_document("d", body="abcdefghij")
        assert [c.char_span for c in segment(doc, 4, 2)] == [(0, 4), (2, 6), (4, 8), (6, 10)]

    def test_truncated_final_chunk(self):
        doc = make_document("d", body="abcde")
        assert [c.char_span for c in segment(doc, 4, 2)] == [(0, 4), (2, 5)]

    def test_overlap_must_be_smaller_than_chunk(self):
        doc = make_document("d", body="abcdef")
        with pytest.raises(ConfigError):
            segment(doc, 4, 4)
        with pytest.raises(ConfigError):
            segment(doc, 4, 5)
        with pytest.raises(ConfigError):
            segment(doc, 4, -1)

    def test_texts_match_spans_and_ordinals_are_sequential(self):
        doc = make_document("d", body="the quick brown fox jumps over the lazy dog")
        chunks = segment(doc, 12, 3)
        for i, chunk in enumerate(chunks):
            start, end = chunk.char_span
            assert chunk.ordinal == i
            assert chunk.text == doc.body[start:end]
            assert chunk.chunk_id == f"d:{i}"
        for prev, cur in zip(chunks, chunks[1:-1]):
            assert len(cur.text) == 12

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_reconstruction_property(self, data):
        length = data.draw(st.integers(min_value=1, max_value=400))
        chunk = data.draw(st.integers(min_value=1, max_value=120))
        overlap = data.draw(st.integers(min_value=0, max_value=max(0, chunk - 1)))
        body = "".join(
            data.draw(
                st.lists(
                    st.sampled_from("abcdefg \n"), min_size=length, max_size=length
                )
            )
        )
        doc = make_document("d", body=body)
        chunks = segment(doc, chunk, overlap)
        rebuilt = chunks[0].text + "".join(c.text[overlap:] for c in chunks[1:])
        assert rebuilt == body
        expected_count = max(1, math.ceil((length - overlap) / (chunk - overlap)))
        assert len(chunks) == expected_count
        assert [c.char_span for c in chunks] == spans_by_stride(length, chunk, overlap)


class TestChunkSpan:
    @settings(max_examples=200, deadline=None)
    @given(length=st.integers(1, 400), chunk=st.integers(1, 120), data=st.data())
    def test_is_segments_span_and_none_past_the_last(self, length, chunk, data):
        overlap = data.draw(st.integers(0, chunk - 1))
        chunks = segment(make_document("d", body="x" * length), chunk, overlap)
        spans = [chunk_span(length, i, chunk, overlap) for i in range(len(chunks) + 1)]
        assert spans == [c.char_span for c in chunks] + [None]


class TestL2Normalize:
    def test_three_four_five(self):
        assert np.allclose(l2_normalize([3.0, 4.0]), [0.6, 0.8])

    def test_idempotent_on_unit_vectors(self):
        unit = l2_normalize([1.0, 2.0, 2.0])
        assert np.allclose(l2_normalize(unit), unit, atol=1e-9)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateVectorError):
            l2_normalize([0.0, 0.0])


class _BoomEmbedder:
    dim = 8

    def __init__(self, fail_on_call: int):
        self.fail_on_call = fail_on_call
        self.calls = 0

    def embed(self, text: str):
        self.calls += 1
        if self.calls == self.fail_on_call:
            raise RuntimeError("backend down")
        return np.ones(8)


class TestEmbedChunks:
    def test_order_preserved_and_unit_norm(self):
        doc = make_document("d", body="abcdefghijklmno")
        chunks = segment(doc, 5, 0)
        embedded = embed_chunks(HashingEmbedder(dim=32), chunks)
        assert [e.chunk.chunk_id for e in embedded] == [c.chunk_id for c in chunks]
        for e in embedded:
            assert abs(float(np.linalg.norm(e.vector)) - 1.0) <= 1e-6

    def test_identical_texts_identical_vectors(self):
        doc = make_document("d", body="ababab")
        chunks = segment(doc, 2, 0)  # "ab" three times
        embedded = embed_chunks(HashingEmbedder(dim=32), chunks)
        assert np.array_equal(embedded[0].vector, embedded[1].vector)
        assert np.array_equal(embedded[1].vector, embedded[2].vector)

    def test_empty_chunk_list_rejected(self):
        with pytest.raises(ValidationError):
            embed_chunks(HashingEmbedder(), [])

    def test_failure_carries_chunk_id(self):
        doc = make_document("d", body="x" * 30)
        chunks = segment(doc, 10, 0)
        with pytest.raises(EmbeddingError) as exc_info:
            embed_chunks(_BoomEmbedder(fail_on_call=2), chunks)
        assert exc_info.value.chunk_id == "d:1"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vector_is_an_embedding_error(self, bad):
        class NonFinite:
            dim = 4

            def embed(self, text):
                return np.array([bad, 1.0, 0.0, 0.0])

        chunks = segment(make_document("d", body="x" * 30), 10, 0)
        with pytest.raises(EmbeddingError) as exc_info:
            embed_chunks(NonFinite(), chunks)
        assert exc_info.value.chunk_id == "d:0"

    def test_deterministic_composition(self):
        doc = make_document("d", body="the quick brown fox " * 10)
        first = embed_chunks(HashingEmbedder(dim=64), segment(doc, 40, 10))
        second = embed_chunks(HashingEmbedder(dim=64), segment(doc, 40, 10))
        for a, b in zip(first, second):
            assert a.chunk == b.chunk
            assert np.array_equal(a.vector, b.vector)


class TestDocumentInvariants:
    def test_empty_body_rejected(self):
        with pytest.raises(ValidationError):
            Document("d", "k", Section.ARTICLE, "t", "", "u")

    def test_section_coerced_from_string(self):
        doc = Document("d", "k", "case", "t", "body", "u")
        assert doc.section is Section.CASE

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError):
            Document("d", "k", "blog", "t", "body", "u")

