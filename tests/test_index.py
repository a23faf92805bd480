from __future__ import annotations

import itertools
import re
import struct
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radar import index as index_module
from radar.chunking import Chunk, EmbeddedChunk
from radar.errors import (
    CorruptionError,
    DegenerateVectorError,
    DuplicateChunkError,
    FormatError,
    ShapeError,
    ValidationError,
)
from radar.domain import COPY_BUFFER_BYTES
from radar.index import FlatIndex, first_non_unit_row

from conftest import unit_chunk


def brute_force_ids(entries, query, k):
    """Independent oracle: per-row dot products, python sort, index tiebreak."""
    q = np.asarray(query, dtype=np.float64)
    q = q / np.linalg.norm(q)
    scored = [(float(np.dot(row.astype(np.float64), q)), i) for i, (_, row, _) in enumerate(entries)]
    order = sorted(range(len(scored)), key=lambda i: (-scored[i][0], i))
    return [(entries[i][0], scored[i][0]) for i in order[:k]]


class TestInsert:
    def test_count_grows(self):
        index = FlatIndex(3)
        index.insert([unit_chunk("a", [1, 0, 0]), unit_chunk("b", [0, 1, 0]),
                      unit_chunk("c", [0, 0, 1])], "kw")
        assert index.count == 3

    def test_duplicate_id_rejected(self):
        index = FlatIndex(3)
        index.insert([unit_chunk("a", [1, 0, 0])], "kw")
        with pytest.raises(DuplicateChunkError):
            index.insert([unit_chunk("a", [0, 1, 0])], "kw")

    def test_duplicate_within_batch_rejected_atomically(self):
        index = FlatIndex(3)
        with pytest.raises(DuplicateChunkError):
            index.insert([unit_chunk("a", [1, 0, 0]), unit_chunk("a", [0, 1, 0])], "kw")
        assert index.count == 0

    def test_dimension_mismatch(self):
        index = FlatIndex(384)
        with pytest.raises(ShapeError):
            index.insert([unit_chunk("a", [1, 0, 0, 0])], "kw")

    def test_non_finite_vector_rejected_atomically(self):
        index = FlatIndex(2)
        for vector in ([np.nan, 1.0], [np.inf, 0.0]):
            with pytest.raises(ValidationError):
                index.insert([unit_chunk("ok", [1, 0]), exact_chunk("bad", np.array(vector))], "kw")
        assert index.count == 0

    def test_non_unit_vector_rejected(self):
        index = FlatIndex(2)
        with pytest.raises(ValidationError, match="chunk long vector norm 1.414"):
            index.insert([unit_chunk("ok", [1, 0]), exact_chunk("long", np.ones(2))], "kw")
        assert index.count == 0

    def test_insertion_order_preserved(self):
        index = FlatIndex(2)
        index.insert([unit_chunk("first", [1, 0])], "k1")
        index.insert([unit_chunk("second", [0, 1])], "k2")
        assert [cid for cid, _, _ in index.entries()] == ["first", "second"]


class TestSearchTopK:
    def _two_entry_index(self):
        index = FlatIndex(2)
        index.insert([unit_chunk("a", [1, 0]), unit_chunk("b", [0, 1])], "kw")
        return index

    def test_exact_hit(self):
        hits = self._two_entry_index().search_top_k(np.array([1.0, 0.0]), 1)
        assert [(h.chunk_id, round(h.score, 9)) for h in hits] == [("a", 1.0)]

    def test_k_capped_at_count(self):
        hits = self._two_entry_index().search_top_k(np.array([1.0, 0.1]), 5)
        assert [h.chunk_id for h in hits] == ["a", "b"]

    def test_empty_index_returns_empty(self):
        assert FlatIndex(2).search_top_k(np.array([1.0, 0.0]), 3) == []

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            self._two_entry_index().search_top_k(np.array([1.0, 0.0, 0.0]), 1)

    def test_nonpositive_k_rejected(self):
        with pytest.raises(ValidationError):
            self._two_entry_index().search_top_k(np.array([1.0, 0.0]), 0)

    def test_zero_query_rejected(self):
        with pytest.raises(DegenerateVectorError):
            self._two_entry_index().search_top_k(np.array([0.0, 0.0]), 1)

    def test_non_finite_query_rejected(self):
        # The norm of such a query is NaN or infinite, never 0.
        index = self._two_entry_index()
        for query in ([np.nan, 1.0], [np.inf, 1.0], [-np.inf, 0.0], [np.inf, np.nan]):
            with pytest.raises(DegenerateVectorError):
                index.search_top_k(np.array(query), 1)

    def test_ties_break_by_insertion_order(self):
        index = FlatIndex(2)
        index.insert([unit_chunk("later-wins-nothing", [1, 0])], "kw")
        index.insert([unit_chunk("duplicate", [1, 0])], "kw")
        hits = index.search_top_k(np.array([1.0, 0.0]), 2)
        assert [h.chunk_id for h in hits] == ["later-wins-nothing", "duplicate"]

    @pytest.mark.parametrize("dim, count", [(8, 100), (3, 2000), (64, 700), (384, 3000)])
    def test_matches_brute_force_oracle(self, dim, count):
        # Ids, order and scores equal the canonical full scan bit for bit.
        rng = np.random.default_rng(42)
        index = FlatIndex(dim)
        index.insert([unit_chunk(f"c{i}", rng.normal(size=dim)) for i in range(count)], "kw")
        for query in rng.normal(size=(5, dim)):
            for k in (1, 7, 40):
                hits = index.search_top_k(query, k)
                assert [(h.chunk_id, h.score) for h in hits] == brute_force_ids(
                    index.entries(), query, k
                )

    def test_scores_non_increasing(self):
        rng = np.random.default_rng(3)
        index = FlatIndex(4)
        index.insert([unit_chunk(f"c{i}", rng.normal(size=4)) for i in range(30)], "kw")
        hits = index.search_top_k(rng.normal(size=4), 10)
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)


def unit_rows(rng, count, dim):
    rows = rng.normal(size=(count, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def hits(index, query, k):
    return [(h.chunk_id, h.score, h.keyword) for h in index.search_top_k(query, k)]


class TestGrowth:
    def test_interleaved_inserts_match_bulk_build(self):
        # Batches of 1..7 rows from an empty index cross several capacity
        # doublings; every search in between must equal a bulk-built index.
        rng = np.random.default_rng(11)
        rows = unit_rows(rng, 120, 16)
        grown = FlatIndex(16)
        start = 0
        while start < len(rows):
            stop = min(len(rows), start + int(rng.integers(1, 8)))
            grown.insert([unit_chunk(f"c{i}", rows[i]) for i in range(start, stop)], "kw")
            bulk = FlatIndex(16)
            bulk.insert([unit_chunk(f"c{i}", rows[i]) for i in range(stop)], "kw")
            for query in rng.normal(size=(3, 16)):
                assert hits(grown, query, 9) == hits(bulk, query, 9)
            start = stop
        assert grown.chunk_ids() == [f"c{i}" for i in range(len(rows))]

    def test_rows_tied_at_kth_score_keep_insertion_order(self):
        # Two "top" rows beat six identical "tie" rows, which beat the rest;
        # every k from 1 to 8 cuts through or ends at the tied group.
        rng = np.random.default_rng(5)
        index = FlatIndex(4)
        chunks = []
        for i in range(48):
            if i in (17, 31):
                chunks.append(unit_chunk(f"top{i}", [1.0, 1.0, 0.0, 0.0]))
            elif i % 8 == 3:
                chunks.append(unit_chunk(f"tie{i}", [1.0, 1.0, 0.5, 0.0]))
            else:
                chunks.append(unit_chunk(f"r{i}", rng.normal(size=4) * [0.1, 0.1, 1.0, 1.0]))
        index.insert(chunks[:20], "a")
        index.insert(chunks[20:], "b")
        query = np.array([1.0, 1.0, 0.0, 0.0])
        ranked = ["top17", "top31"] + [f"tie{i}" for i in range(3, 48, 8)]
        for k in range(1, len(ranked) + 1):
            found = index.search_top_k(query, k)
            assert [h.chunk_id for h in found] == ranked[:k]
            expected = brute_force_ids(index.entries(), query, k)
            assert [h.chunk_id for h in found] == [cid for cid, _ in expected]
            assert [h.score for h in found] == pytest.approx([sc for _, sc in expected], abs=1e-12)

    def test_entries_are_float32_copies(self):
        index = FlatIndex(3)
        index.insert([unit_chunk("a", [1, 2, 2]), unit_chunk("b", [0, 1, 0])], "kw")
        query = np.array([1.0, 0.0, 0.0])
        before = (hits(index, query, 2), [vec.tobytes() for _, vec, _ in index.entries()])
        snapshot = index.entries()
        assert all(vec.dtype == np.float32 for _, vec, _ in snapshot)
        for _, vec, _ in snapshot:
            vec[:] = 0.0
        assert (hits(index, query, 2), [vec.tobytes() for _, vec, _ in index.entries()]) == before

    @pytest.mark.parametrize(
        "bad_id, bad_dim, keyword, error",
        [("c0", 6, "bad", DuplicateChunkError), ("n0", 6, "bad", DuplicateChunkError),
         ("x", 2, "bad", ShapeError), ("x" * 70_000, 6, "bad", ValidationError),
         ("x\ud800", 6, "bad", ValidationError), ("x", 6, "bad\ud800", ValidationError)],
        ids=["existing-id", "repeated-in-batch", "wrong-dim", "long-id", "surrogate-id",
             "surrogate-keyword"],
    )
    def test_rejected_batch_changes_nothing(self, tmp_path, bad_id, bad_dim, keyword, error):
        rng = np.random.default_rng(8)
        index = FlatIndex(6)
        index.insert([unit_chunk(f"c{i}", r) for i, r in enumerate(unit_rows(rng, 5, 6))], "kw")
        query = rng.normal(size=6)
        before = (index.count, hits(index, query, 4), index.chunk_ids())
        index.save(tmp_path / "before.rdrx")
        # 40 good rows would grow the 5-row matrix if the batch were accepted
        batch = [unit_chunk(f"n{i}", r) for i, r in enumerate(unit_rows(rng, 40, 6))]
        with pytest.raises(error):
            index.insert(batch + [unit_chunk(bad_id, np.ones(bad_dim))], keyword)
        assert (index.count, hits(index, query, 4), index.chunk_ids()) == before
        assert "n0" not in index
        index.save(tmp_path / "after.rdrx")
        assert (tmp_path / "after.rdrx").read_bytes() == (tmp_path / "before.rdrx").read_bytes()


def exact_chunk(chunk_id: str, vector: np.ndarray) -> EmbeddedChunk:
    """An embedded chunk holding exactly these float32 components."""
    return EmbeddedChunk(Chunk(chunk_id, "doc", 0, "xx", (0, 2)), vector.astype(np.float32))


def tagged_index(rows: np.ndarray, keywords: list[str]) -> FlatIndex:
    """An index of ``rows`` as chunks ``c0, c1, …``, inserted one batch per run
    of equal keywords."""
    index = FlatIndex(rows.shape[1])
    for keyword, run in itertools.groupby(range(len(rows)), keywords.__getitem__):
        index.insert([exact_chunk(f"c{i}", rows[i]) for i in run], keyword)
    return index


def index_file(dim: int, records) -> bytes:
    """The bytes of an index file of (id bytes, keyword bytes, components) records."""
    return struct.pack("<4sIIQ", b"RDRX", 1, dim, len(records)) + b"".join(
        struct.pack("<H", len(cid)) + cid + struct.pack("<H", len(keyword)) + keyword
        + np.asarray(vector, dtype="<f4").tobytes() for cid, keyword, vector in records
    )


def insert_verdict(dim: int, chunks) -> str | None:
    """None if a fresh index admits the batch, else the rejection's message."""
    try:
        FlatIndex(dim).insert(chunks, "kw")
    except ValidationError as exc:
        return str(exc)
    return None


def load_verdict(path: Path) -> str | None:
    """None if the file loads, else the rejection's message."""
    try:
        FlatIndex.load(path)
    except CorruptionError as exc:
        return str(exc)
    return None


def norm_in(message: str | None) -> str | None:
    return message and re.search(r"norm (\S+)", message).group(1)


class TestRowRule:
    """Insert admits exactly the rows load reads back, and a row's verdict
    depends on nothing but the row."""

    def test_insert_admits_exactly_what_load_reads_back(self, tmp_path):
        # np.linalg.norm puts this row at 1.000001 and a buffered float64
        # einsum one ulp higher, 1.0000010000000001, just past the tolerance.
        edge = ["0x1.7ad62ap-16", "0x1.c61eb2p-4", "-0x1.f175bep-1", "0x1.ac20e8p-3"]
        vector = np.array([float.fromhex(h) for h in edge], dtype=np.float32)
        path = tmp_path / "edge.rdrx"
        path.write_bytes(index_file(4, [(b"edge", b"kw", vector)]))
        inserted = insert_verdict(4, [exact_chunk("edge", vector)])
        loaded = load_verdict(path)
        assert (inserted is None, norm_in(inserted)) == (loaded is None, norm_in(loaded))
        if inserted is None:
            index = FlatIndex(4)
            index.insert([exact_chunk("edge", vector)], "kw")
            index.save(tmp_path / "saved.rdrx")
            assert (tmp_path / "saved.rdrx").read_bytes() == path.read_bytes()

    def test_the_check_makes_no_float64_copy_of_the_rows(self):
        rows = unit_rows(np.random.default_rng(0), 20_000, 64).astype(np.float32)
        tracemalloc.start()
        try:
            assert first_non_unit_row(rows) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows.nbytes / 4  # a float64 copy would be twice rows.nbytes

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([3, 4, 17, 64, 384]),
           stretch=st.floats(-2e-6, 2e-6), before=st.integers(0, 400), after=st.integers(0, 400))
    def test_a_rows_verdict_depends_only_on_the_row(self, seed, dim, stretch, before, after):
        rng = np.random.default_rng(seed)
        row = rng.normal(size=dim)
        target = exact_chunk("target", row / np.linalg.norm(row) * (1.0 + stretch))
        alone = insert_verdict(dim, [target])
        others = [unit_chunk(f"r{i}", r) for i, r in enumerate(unit_rows(rng, before + after, dim))]
        batch = others[:before] + [target] + others[before:]
        assert insert_verdict(dim, batch) == alone
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "batch.rdrx"
            path.write_bytes(index_file(dim, [(c.chunk.chunk_id.encode(), b"kw", c.vector)
                                              for c in batch]))
            loaded = load_verdict(path)
        assert (loaded is None, norm_in(loaded)) == (alone is None, norm_in(alone))


class TestCanonicalScores:
    """A score is the float64 dot of the stored float32 row with the unit
    query, whatever the row's position, the row count or the other rows."""

    def test_identical_rows_keep_insertion_order_wherever_they_sit(self):
        # A BLAS product over the whole matrix scores a row by its lane in the
        # kernel, so identical rows at these positions came back reordered.
        rng = np.random.default_rng(7)
        dim = 384
        pool = unit_rows(rng, 5000, dim)
        for trial in range(12):
            n = int(rng.integers(9, 5001))
            tie = unit_rows(rng, 1, dim)[0]
            positions = sorted(rng.choice(n - 1, size=7, replace=False).tolist()) + [n - 1]
            rows = pool[:n].copy()
            rows[positions] = tie
            index = FlatIndex(dim)
            index.insert([unit_chunk(f"c{i}", rows[i]) for i in range(n)], "kw")
            query = tie + 0.01 * rng.normal(size=dim)
            found = index.search_top_k(query, 8)
            assert [h.chunk_id for h in found] == [f"c{p}" for p in positions], (trial, n)
            assert len({h.score for h in found}) == 1

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([3, 17, 64, 384]),
           before=st.integers(0, 400), after=st.integers(0, 400))
    def test_a_rows_score_depends_only_on_the_row_and_query(self, seed, dim, before, after):
        rng = np.random.default_rng(seed)
        target = unit_chunk("target", rng.normal(size=dim))
        query = rng.normal(size=dim)
        alone = FlatIndex(dim)
        alone.insert([target], "kw")
        (expected,) = alone.search_top_k(query, 1)
        others = [unit_chunk(f"r{i}", row) for i, row in enumerate(unit_rows(rng, before + after, dim))]
        index = FlatIndex(dim)
        index.insert(others[:before] + [target] + others[before:], "kw")
        found = {h.chunk_id: h.score for h in index.search_top_k(query, before + after + 1)}
        assert found["target"] == expected.score

    def test_near_ties_a_few_ulps_apart_match_the_canonical_scan(self):
        # Rows a few float32 ulps from one vector score within float32
        # rounding of each other, so the float32 scan alone orders them wrong.
        rng = np.random.default_rng(13)
        dim = 384
        base = unit_chunk("base", rng.normal(size=dim)).vector
        toward = (np.float32(np.inf), np.float32(-np.inf))
        rows = []
        for _ in range(300):
            row = base.copy()
            for j in rng.choice(dim, size=6, replace=False):
                for _ in range(int(rng.integers(1, 4))):
                    row[j] = np.nextafter(row[j], toward[int(rng.integers(2))])
            rows.append(row)
        rows += list(unit_rows(rng, 700, dim).astype(np.float32))
        order = rng.permutation(len(rows))
        index = FlatIndex(dim)
        index.insert([exact_chunk(f"c{i}", rows[i]) for i in order], "kw")
        query = base + 1e-3 * rng.normal(size=dim)

        matrix = np.array([row for _, row, _ in index.entries()])
        q = query / np.linalg.norm(query)
        scan = matrix @ q.astype(np.float32)
        scan_top = np.argsort(-scan, kind="stable")[:50].tolist()
        canonical = brute_force_ids(index.entries(), query, 50)
        ids = index.chunk_ids()
        assert [ids[i] for i in scan_top] != [cid for cid, _ in canonical]

        for k in (1, 5, 10, 50, 299, 301):
            hits = index.search_top_k(query, k)
            assert [(h.chunk_id, h.score) for h in hits] == brute_force_ids(
                index.entries(), query, k
            )


class TestSearchBatch:
    """A case's queries are scanned a block of rows at a time; each sees only
    its own row prefix."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([3, 17, 64, 384]),
           n=st.integers(1, 300), n_queries=st.integers(1, 6), k=st.integers(1, 8),
           block=st.integers(1, 40))
    def test_each_query_equals_a_search_of_its_prefix(self, seed, dim, n, n_queries, k, block):
        rng = np.random.default_rng(seed)
        # Half the counts anywhere, half one row before, at or after a block edge.
        edges = block * rng.integers(0, n // block + 1, n_queries)
        near_edge = edges + rng.integers(-1, 2, n_queries)
        anywhere = rng.integers(0, n + 1, n_queries)
        counts = np.clip(np.where(np.arange(n_queries) % 2, near_edge, anywhere), 0, n).tolist()
        tie = unit_rows(rng, 1, dim)[0].astype(np.float32)
        rows = unit_rows(rng, n, dim).astype(np.float32)
        for c in [*counts, *range(block, n, block)]:  # identical rows across every boundary
            rows[max(c - 1, 0) : c + 1] = tie
        width = int(rng.integers(1, 8))
        keywords = [f"k{i // width}" for i in range(n)]
        queries = tie + 0.05 * rng.normal(size=(n_queries, dim))
        index = tagged_index(rows, keywords)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(index_module, "SCAN_BLOCK_BYTES", block * 4 * dim)
            found = index.search_batch([index.unit_query(q) for q in queries], k, counts)
        for query, c, batch in zip(queries, counts, found):
            prefix = tagged_index(rows[:c], keywords[:c])
            assert [(h.chunk_id, h.score, h.keyword) for h in batch] == hits(prefix, query, k)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1), block=st.sampled_from([1, 3, None]),
           edges=st.integers(1, 3), k=st.integers(1, 6))
    def test_each_query_equals_a_canonical_scan_of_its_prefix(self, data, seed, block, edges, k):
        """Under blocks of 1 row, 3 rows and the default size, with counts of 0,
        on a block edge and one row past it, and tied rows across each edge."""
        dim = 384 if block is None else data.draw(st.sampled_from([3, 17, 64]), label="dim")
        step = block or index_module.SCAN_BLOCK_BYTES // (4 * dim)
        n = edges * step + 1
        ends = sorted({0, *range(step, n, step), *range(step + 1, n + 1, step)})
        counts = [0] + data.draw(st.lists(st.sampled_from(ends), min_size=1, max_size=5),
                                 label="counts")
        rng = np.random.default_rng(seed)
        rows = unit_rows(rng, n, dim).astype(np.float32)
        tie = rows[0].copy()
        for edge in range(step, n, step):
            rows[edge - 1 : edge + 1] = tie
        keywords = [f"k{i % 3}" for i in range(n)]
        index = tagged_index(rows, keywords)
        units = [index.unit_query(tie + 0.05 * rng.normal(size=dim)) for _ in counts]

        with pytest.MonkeyPatch.context() as patch:
            if block is not None:
                patch.setattr(index_module, "SCAN_BLOCK_BYTES", block * 4 * dim)
            found = index.search_batch(units, k, counts)
        for unit, c, batch in zip(units, counts, found):
            scores = [float(np.dot(row.astype(np.float64), unit)) for row in rows[:c]]
            best = sorted(range(c), key=lambda i: (-scores[i], i))[:k]
            assert [(h.chunk_id, h.score, h.keyword) for h in batch] == [
                (f"c{i}", scores[i], keywords[i]) for i in best]

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_every_row_of_every_block_is_scanned(self, monkeypatch, block):
        monkeypatch.setattr(index_module, "SCAN_BLOCK_BYTES", block * 4 * 8)
        rng = np.random.default_rng(block)
        for n in range(1, 3 * block + 2):
            rows = unit_rows(rng, n, 8)
            index = FlatIndex(8)
            index.insert([exact_chunk(f"c{i}", row) for i, row in enumerate(rows)], "kw")
            found = index.search_batch([index.unit_query(row) for row in rows], 1, [n] * n)
            assert [batch[0].chunk_id for batch in found] == [f"c{i}" for i in range(n)]

    def test_a_batch_scan_holds_one_float32_score_per_row_and_query(self):
        rng = np.random.default_rng(8)
        rows = rng.standard_normal((20_000, 384), dtype=np.float32)
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        index = FlatIndex(384)
        index.insert([exact_chunk(f"c{i}", row) for i, row in enumerate(rows)], "kw")
        del rows
        units = [index.unit_query(q) for q in rng.normal(size=(5, 384))]
        expected = index.search_batch(units, 5, [index.count] * 5)
        tracemalloc.start()
        try:
            found = index.search_batch(units, 5, [index.count] * 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found == expected
        assert peak < 20_000 * 5 * 4 + 2**20  # a float64 or whole-matrix copy: 30 MB or more

    def test_rescoring_rows_that_all_tie_holds_one_block_of_candidates(self):
        """20k tied rows, then one row an ulp from them that scores higher:
        every row is a candidate, and the last block of them holds the best."""
        tie = unit_rows(np.random.default_rng(9), 1, 384)[0].astype(np.float32)
        unit = FlatIndex(384).unit_query(np.random.default_rng(10).normal(size=384))
        j = int(np.argmax(np.abs(unit)))
        best = tie.copy()
        best[j] = np.nextafter(tie[j], np.float32(np.sign(unit[j])))
        assert np.dot(best.astype(np.float64), unit) > np.dot(tie.astype(np.float64), unit)
        index = FlatIndex(384)
        index.insert([exact_chunk(f"c{i}", tie) for i in range(20_000)], "kw")
        index.insert([exact_chunk("best", best)], "kw")
        tracemalloc.start()
        try:
            found = index.search_batch([unit], 5, [index.count])[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [h.chunk_id for h in found] == ["best", "c0", "c1", "c2", "c3"]
        # A block of rows gathered as float32 and cast to float64 is 3 block
        # sizes; all 20k candidates at once would be 92 MB.
        assert peak < 3 * index_module.SCAN_BLOCK_BYTES + 2**20

    def test_empty_batch_returns_nothing(self):
        assert FlatIndex(4).search_batch([], 5, []) == []

    @pytest.mark.parametrize("counts", [[3], [-1], [0, 1]])
    def test_counts_must_be_prefixes_one_per_query(self, counts):
        index = FlatIndex(4)
        index.insert([unit_chunk("a", [1, 0, 0, 0]), unit_chunk("b", [0, 1, 0, 0])], "kw")
        with pytest.raises(ValidationError):
            index.search_batch([index.unit_query([1, 0, 0, 0])], 1, counts)

    def test_query_of_another_dim_rejected(self):
        index = FlatIndex(4)
        index.insert([unit_chunk("a", [1, 0, 0, 0])], "kw")
        with pytest.raises(ShapeError):
            index.search_batch([np.ones(3) / np.sqrt(3)], 1, [1])


class TestConcurrency:
    def test_searches_during_growing_inserts_see_only_committed_rows(self, monkeypatch):
        monkeypatch.setattr(index_module, "SCAN_BLOCK_BYTES", 3 * 4 * 8)  # 3-row blocks
        rng = np.random.default_rng(21)
        chunks = [unit_chunk(f"c{i}", row) for i, row in enumerate(unit_rows(rng, 600, 8))]
        vectors = {c.chunk.chunk_id: c.vector.astype(np.float64) for c in chunks}
        owner = {c.chunk.chunk_id: f"w{i // 150}" for i, c in enumerate(chunks)}
        queries = rng.normal(size=(4, 8))
        index = FlatIndex(8)
        errors: list[str] = []
        writers_done = threading.Event()

        def writer(w):
            for start in range(150 * w, 150 * (w + 1), 5):
                index.insert(chunks[start : start + 5], f"w{w}")

        def check(found, unit, seen):
            scores = [h.score for h in found]
            if scores != sorted(scores, reverse=True):
                errors.append(f"unsorted scores {scores}")
            for h in found:
                if abs(h.score - float(vectors[h.chunk_id] @ unit)) > 1e-9:
                    errors.append(f"{h.chunk_id} scored {h.score}")
                if h.keyword != owner[h.chunk_id]:
                    errors.append(f"{h.chunk_id} tagged {h.keyword}")
                if h.chunk_id not in seen:
                    errors.append(f"{h.chunk_id} is past its query's prefix")

        def reader():
            units = [index.unit_query(q) for q in queries]
            while not writers_done.is_set():
                for query, unit in zip(queries, units):
                    check(index.search_top_k(query, 7), unit, set(index.chunk_ids()))
                n = index.count
                counts = [n, n * 3 // 4, n // 2, max(n - 4, 0)]
                found = index.search_batch(units, 7, counts)
                order = index.chunk_ids()
                for unit, c, batch in zip(units, counts, found):
                    check(batch, unit, set(order[:c]))

        writers = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
        readers = [threading.Thread(target=reader) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in readers + writers:
                t.start()
            for t in writers:
                t.join(timeout=30)
            writers_done.set()
            for t in readers:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in writers + readers)
        assert errors == []
        assert index.count == 600
        assert sorted(index.chunk_ids()) == sorted(vectors)


class TestPersistence:
    def _sample_index(self):
        index = FlatIndex(4)
        index.insert(
            [
                unit_chunk("alpha", [1, 2, 3, 4]),
                unit_chunk("beta", [4, 3, 2, 1]),
                unit_chunk("gamma", [-1, 1, -1, 1]),
            ],
            "glioblastoma",
        )
        return index

    def test_roundtrip_is_lossless(self, tmp_path):
        index = self._sample_index()
        path = tmp_path / "index.rdrx"
        index.save(path)
        loaded = FlatIndex.load(path)
        assert loaded.dim == index.dim
        assert loaded.count == index.count
        for (id_a, vec_a, kw_a), (id_b, vec_b, kw_b) in zip(index.entries(), loaded.entries()):
            assert id_a == id_b
            assert kw_a == kw_b
            assert vec_a.tobytes() == vec_b.tobytes()

    def test_roundtrip_preserves_search_results(self, tmp_path):
        index = self._sample_index()
        path = tmp_path / "index.rdrx"
        index.save(path)
        loaded = FlatIndex.load(path)
        query = np.array([0.3, -0.2, 0.9, 0.1])
        before = [(h.chunk_id, h.score) for h in index.search_top_k(query, 3)]
        after = [(h.chunk_id, h.score) for h in loaded.search_top_k(query, 3)]
        assert before == after

    def test_second_save_is_byte_identical(self, tmp_path):
        index = self._sample_index()
        first, second = tmp_path / "a.rdrx", tmp_path / "b.rdrx"
        index.save(first)
        FlatIndex.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_empty_index_roundtrip(self, tmp_path):
        path = tmp_path / "empty.rdrx"
        FlatIndex(4).save(path)
        loaded = FlatIndex.load(path)
        assert (loaded.dim, loaded.count) == (4, 0)
        assert loaded.search_top_k(np.ones(4), 3) == []
        second = tmp_path / "again.rdrx"
        loaded.save(second)
        assert second.read_bytes() == path.read_bytes()

    def test_a_save_onto_the_loaded_file_copies_its_records(self, tmp_path, monkeypatch):
        path = tmp_path / "index.rdrx"
        self._sample_index().save(path)
        old_size = path.stat().st_size
        loaded = FlatIndex.load(path)
        loaded.insert([unit_chunk("delta", [1, -1, 1, -1])], "astrocytoma")
        copied, real_copy_range = [], index_module.copy_range

        def spy_copy_range(src, start, end, dst):
            copied.append((start, end))
            return real_copy_range(src, start, end, dst)

        monkeypatch.setattr(index_module, "copy_range", spy_copy_range)
        loaded.save(path)
        full = self._sample_index()
        full.insert([unit_chunk("delta", [1, -1, 1, -1])], "astrocytoma")
        full.save(tmp_path / "full.rdrx")
        assert copied == [(20, old_size)]
        assert path.read_bytes() == (tmp_path / "full.rdrx").read_bytes()

    @pytest.mark.parametrize("dies", ["copy_range", "after_copy_range"])
    def test_a_save_that_dies_leaves_the_file_at_its_path(self, tmp_path, monkeypatch, dies):
        path = tmp_path / "index.rdrx"
        index = self._sample_index()
        index.save(path)
        before = path.read_bytes()
        index.insert([unit_chunk("delta", [1, -1, 1, -1])], "astrocytoma")
        real_copy_range = index_module.copy_range

        def copy_then_die(src, start, end, dst):
            real_copy_range(src, start, start + 1 if dies == "copy_range" else end, dst)
            raise OSError(f"died {dies}")

        monkeypatch.setattr(index_module, "copy_range", copy_then_die)
        with pytest.raises(OSError, match="died"):
            index.save(path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.rdrx"
        good = tmp_path / "good.rdrx"
        self._sample_index().save(good)
        path.write_bytes(b"NOPE" + good.read_bytes()[4:])
        with pytest.raises(FormatError):
            FlatIndex.load(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "bad.rdrx"
        good = tmp_path / "good.rdrx"
        self._sample_index().save(good)
        data = bytearray(good.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            FlatIndex.load(path)

    def test_truncated_mid_vector(self, tmp_path):
        path = tmp_path / "trunc.rdrx"
        good = tmp_path / "good.rdrx"
        self._sample_index().save(good)
        data = good.read_bytes()
        path.write_bytes(data[: len(data) - 7])
        with pytest.raises(CorruptionError):
            FlatIndex.load(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "extra.rdrx"
        good = tmp_path / "good.rdrx"
        self._sample_index().save(good)
        path.write_bytes(good.read_bytes() + b"\x00\x01")
        with pytest.raises(CorruptionError):
            FlatIndex.load(path)

    def test_count_beyond_file_size_is_corruption(self, tmp_path):
        path = tmp_path / "huge.rdrx"
        good = tmp_path / "good.rdrx"
        self._sample_index().save(good)
        data = bytearray(good.read_bytes())
        data[12:20] = (1 << 40).to_bytes(8, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptionError):
            FlatIndex.load(path)

    def test_duplicate_id_in_file_is_corruption(self, tmp_path):
        path = tmp_path / "dup.rdrx"
        index = FlatIndex(2)
        index.insert([unit_chunk("same", [1, 0]), unit_chunk("sane", [0, 1])], "kw")
        index.save(path)
        path.write_bytes(path.read_bytes().replace(b"sane", b"same"))
        with pytest.raises(CorruptionError):
            FlatIndex.load(path)

    @pytest.mark.parametrize("bad, problem", [
        (float("nan"), "non-finite vector"), (float("inf"), "non-finite vector"),
        (float("-inf"), "non-finite vector"), (0.5, "vector norm 0.5"),
    ])
    def test_non_unit_vector_in_file_is_corruption(self, tmp_path, bad, problem):
        # Written by hand: save() can never produce such a file, because
        # insert() rejects every row load() does, by the same check.
        path = tmp_path / "nan.rdrx"
        path.write_bytes(index_file(2, [(b"good", b"kw", (1.0, 0.0)), (b"bad", b"kw", (bad, 0.0))]))
        with pytest.raises(CorruptionError, match=f"{problem} for chunk bad"):
            FlatIndex.load(path)

    @pytest.mark.parametrize("make", [lambda p: None, lambda p: p.mkdir()],
                             ids=["missing", "directory"])
    def test_unreadable_file_is_corruption(self, tmp_path, make):
        path = tmp_path / "index.rdrx"
        make(path)
        with pytest.raises(CorruptionError, match=f"cannot read {re.escape(str(path))}"):
            FlatIndex.load(path)

    @pytest.mark.parametrize("cid, keyword", [(b"\xff\xfe", b"kw"), (b"ok", b"\xff\xfe")],
                             ids=["id", "keyword"])
    def test_non_utf8_id_or_keyword_is_corruption(self, tmp_path, cid, keyword):
        path = tmp_path / "bytes.rdrx"
        path.write_bytes(index_file(2, [(cid, keyword, (1.0, 0.0))]))
        with pytest.raises(CorruptionError, match="not UTF-8"):
            FlatIndex.load(path)


WIDE = "\u65e5"  # three bytes of UTF-8


def contents(index: FlatIndex) -> list[tuple[str, bytes, str]]:
    return [(cid, vector.tobytes(), keyword) for cid, vector, keyword in index.entries()]


class TestBufferedLoad:
    """A load reads the file a buffer at a time into a matrix with room for
    the inserts that follow, and finds every fault a load of the whole file
    finds."""

    def _mixed_index(self) -> FlatIndex:
        rng = np.random.default_rng(4)
        index = FlatIndex(5)
        for n, (keyword, width) in enumerate([("glioma", 1), ("", 9), ("\u00e9t\u00e9", 3)]):
            rows = unit_rows(rng, 4, 5)
            index.insert([exact_chunk(f"{WIDE * width}-{n}:{i}", row)
                          for i, row in enumerate(rows)], keyword)
        return index

    def test_any_buffer_size_loads_what_one_whole_buffer_loads(self, tmp_path, monkeypatch):
        path = tmp_path / "index.rdrx"
        self._mixed_index().save(path)
        monkeypatch.setattr(index_module, "COPY_BUFFER_BYTES", path.stat().st_size)
        whole = FlatIndex.load(path)
        record = 2 + len(f"{WIDE}-0:0".encode()) + 2 + len(b"glioma") + 4 * 5
        for size in (1, 7, record - 1, record + 1):
            monkeypatch.setattr(index_module, "COPY_BUFFER_BYTES", size)
            loaded = FlatIndex.load(path)
            assert contents(loaded) == contents(whole)
            keywords = loaded._keywords
            assert all(a is b for a, b in zip(keywords, keywords[1:]) if a == b)
        loaded.save(tmp_path / "again.rdrx")
        assert (tmp_path / "again.rdrx").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("buffer", [7, COPY_BUFFER_BYTES])
    def test_a_file_cut_at_any_byte_is_corruption(self, tmp_path, monkeypatch, buffer):
        monkeypatch.setattr(index_module, "COPY_BUFFER_BYTES", buffer)
        records = [(b"a", b"kw", (1.0, 0.0, 0.0)), (b"\xc3\xa9t\xc3\xa9", b"", (0.0, 1.0, 0.0)),
                   (b"ccc", b"kw", (0.0, 0.0, 1.0))]
        data = index_file(3, records)
        starts = [20]
        for cid, keyword, _ in records:
            starts.append(starts[-1] + 4 + len(cid) + len(keyword) + 12)
        assert starts[-1] == len(data)
        path = tmp_path / "cut.rdrx"
        for cut in range(len(data)):
            if cut < 20:
                problem = "file shorter than the header"
            elif 3 * (4 + 12) > cut - 20:
                problem = "truncated, 3 records cannot fit"
            else:
                problem = f"truncated at byte {max(s for s in starts if s <= cut)}"
            path.write_bytes(data[:cut])
            with pytest.raises(CorruptionError) as caught:
                FlatIndex.load(path)
            assert str(caught.value) == f"{path}: {problem}"

    @pytest.mark.parametrize("buffer", [7, COPY_BUFFER_BYTES])
    @pytest.mark.parametrize("into", [0, 1, 2 + 300 + 1], ids=["at-record", "id-len", "kw-len"])
    def test_a_file_cut_in_a_length_prefix_is_truncated_at_its_record(self, tmp_path,
                                                                     monkeypatch, buffer, into):
        """Records long enough that the count fits however the last is cut."""
        monkeypatch.setattr(index_module, "COPY_BUFFER_BYTES", buffer)
        records = [(b"a" * 300, b"kw", (1.0, 0.0, 0.0)), (b"b" * 300, b"kw", (0.0, 1.0, 0.0))]
        last = 20 + 4 + 300 + 2 + 12
        path = tmp_path / "cut.rdrx"
        path.write_bytes(index_file(3, records)[: last + into])
        with pytest.raises(CorruptionError) as caught:
            FlatIndex.load(path)
        assert str(caught.value) == f"{path}: truncated at byte {last}"

    def test_a_load_holds_at_most_a_buffer_of_the_file(self, tmp_path):
        rows = unit_rows(np.random.default_rng(5), 4000, 384)
        index = FlatIndex(384)
        index.insert([exact_chunk(f"doc-{i}:0", row) for i, row in enumerate(rows)], "kw")
        path = tmp_path / "index.rdrx"
        index.save(path)
        assert path.stat().st_size > 6_000_000
        del index
        tracemalloc.start()
        try:
            loaded = FlatIndex.load(path)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.count == 4000
        assert peak - current < 2 * COPY_BUFFER_BYTES + 256 * 1024  # a whole-file read: 6 MB

    def test_inserts_after_a_load_append_in_place(self, tmp_path):
        rng = np.random.default_rng(6)
        chunks = [exact_chunk(f"c{i}", row) for i, row in enumerate(unit_rows(rng, 2010, 64))]
        built = FlatIndex(64)
        built.insert(chunks[:2000], "old")
        built.save(tmp_path / "index.rdrx")
        loaded = FlatIndex.load(tmp_path / "index.rdrx")
        built.insert(chunks[2000:], "new")
        tracemalloc.start()
        try:
            loaded.insert(chunks[2000:], "new")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2000 * 64 * 4 / 10  # growing would copy all 2000 rows
        queries = [c.vector for c in chunks[1995:]] + list(unit_rows(rng, 5, 64))
        for query in queries:
            assert hits(loaded, query, 10) == hits(built, query, 10)
