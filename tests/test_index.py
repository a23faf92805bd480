from __future__ import annotations

import re
import struct
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from radar.chunking import Chunk
from radar.errors import (
    CorruptionError,
    DegenerateVectorError,
    DuplicateChunkError,
    FormatError,
    ShapeError,
    ValidationError,
)
from radar.index import FlatIndex

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
        # Bypasses EmbeddedChunk's own check to reach the index's.
        index = FlatIndex(2)
        for vector in ([np.nan, 1.0], [np.inf, 0.0]):
            bad = SimpleNamespace(chunk=Chunk("bad", "doc", 0, "xx", (0, 2)), vector=np.array(vector))
            with pytest.raises(ValidationError):
                index.insert([unit_chunk("ok", [1, 0]), bad], "kw")
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

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        index = FlatIndex(8)
        chunks = []
        for i in range(100):
            vec = rng.normal(size=8)
            chunks.append(unit_chunk(f"c{i}", vec))
        index.insert(chunks, "kw")
        query = rng.normal(size=8)
        hits = index.search_top_k(query, 7)
        expected = brute_force_ids(index.entries(), query, 7)
        assert [h.chunk_id for h in hits] == [cid for cid, _ in expected]
        for hit, (_, score) in zip(hits, expected):
            assert hit.score == pytest.approx(score, abs=1e-9)

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
        "bad_id, bad_dim, error",
        [("c0", 6, DuplicateChunkError), ("n0", 6, DuplicateChunkError), ("x", 2, ShapeError)],
        ids=["existing-id", "repeated-in-batch", "wrong-dim"],
    )
    def test_rejected_batch_changes_nothing(self, tmp_path, bad_id, bad_dim, error):
        rng = np.random.default_rng(8)
        index = FlatIndex(6)
        index.insert([unit_chunk(f"c{i}", r) for i, r in enumerate(unit_rows(rng, 5, 6))], "kw")
        query = rng.normal(size=6)
        before = (index.count, hits(index, query, 4), index.chunk_ids())
        index.save(tmp_path / "before.rdrx")
        # 40 good rows would grow the 5-row matrix if the batch were accepted
        batch = [unit_chunk(f"n{i}", r) for i, r in enumerate(unit_rows(rng, 40, 6))]
        with pytest.raises(error):
            index.insert(batch + [unit_chunk(bad_id, np.ones(bad_dim))], "bad")
        assert (index.count, hits(index, query, 4), index.chunk_ids()) == before
        assert "n0" not in index
        index.save(tmp_path / "after.rdrx")
        assert (tmp_path / "after.rdrx").read_bytes() == (tmp_path / "before.rdrx").read_bytes()


class TestConcurrency:
    def test_searches_during_growing_inserts_see_only_committed_rows(self):
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

        def reader():
            while not writers_done.is_set():
                for query in queries:
                    unit = query / np.linalg.norm(query)
                    found = index.search_top_k(query, 7)
                    scores = [h.score for h in found]
                    if scores != sorted(scores, reverse=True):
                        errors.append(f"unsorted scores {scores}")
                    for h in found:
                        if abs(h.score - float(vectors[h.chunk_id] @ unit)) > 1e-9:
                            errors.append(f"{h.chunk_id} scored {h.score}")
                        if h.keyword != owner[h.chunk_id]:
                            errors.append(f"{h.chunk_id} tagged {h.keyword}")

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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_vector_in_file_is_corruption(self, tmp_path, bad):
        # Written by hand: save() can never produce such a file, because
        # insert() rejects non-finite vectors.
        def record(cid, vector):
            return (struct.pack("<H", len(cid)) + cid + struct.pack("<H", 2) + b"kw"
                    + struct.pack("<2f", *vector))

        path = tmp_path / "nan.rdrx"
        path.write_bytes(
            struct.pack("<4sIIQ", b"RDRX", 1, 2, 2)
            + record(b"good", (1.0, 0.0))
            + record(b"bad", (bad, 0.0))
        )
        with pytest.raises(CorruptionError, match="non-finite vector for chunk bad"):
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
        path.write_bytes(
            struct.pack("<4sIIQ", b"RDRX", 1, 2, 1)
            + struct.pack("<H", len(cid)) + cid + struct.pack("<H", len(keyword)) + keyword
            + struct.pack("<2f", 1.0, 0.0)
        )
        with pytest.raises(CorruptionError, match="not UTF-8"):
            FlatIndex.load(path)
