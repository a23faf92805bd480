"""Layer benchmarks for `FlatIndex`: insert, search, save and load.

Run from the repository root (Tier-1's `testpaths` does not collect this
directory):

    PYTHONPATH=src python -m pytest benches -q --benchmark-json=bench.json

Each operation runs at 1k, 20k and 100k rows of dim 384, the hashing
embedder's dim. `test_search_identical_rows` is the search's worst case:
every row ties, so every row is a candidate for rescoring.
"""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from radar.chunking import Chunk, EmbeddedChunk
from radar.index import FlatIndex

DIM = 384
SIZES = [1_000, 20_000, 100_000]
K = 5


def unit_rows(rng: np.random.Generator, count: int) -> np.ndarray:
    rows = rng.normal(size=(count, DIM))
    return (rows / np.linalg.norm(rows, axis=1, keepdims=True)).astype(np.float32)


def embedded(rows: np.ndarray) -> list[EmbeddedChunk]:
    return [
        EmbeddedChunk(Chunk(f"d{i}:0", f"d{i}", 0, "x", (0, 1)), row) for i, row in enumerate(rows)
    ]


@pytest.fixture(scope="module", params=SIZES, ids=lambda n: f"{n // 1000}k")
def chunks(request) -> list[EmbeddedChunk]:
    return embedded(unit_rows(np.random.default_rng(request.param), request.param))


@pytest.fixture(scope="module")
def index(chunks) -> FlatIndex:
    built = FlatIndex(DIM)
    built.insert(chunks, "kw")
    return built


@pytest.fixture(scope="module")
def queries() -> np.ndarray:
    return np.random.default_rng(0).normal(size=(64, DIM))


def test_insert(benchmark, chunks):
    benchmark.pedantic(lambda: FlatIndex(DIM).insert(chunks, "kw"), rounds=5, warmup_rounds=1)


def test_search(benchmark, index, queries):
    query = itertools.cycle(queries)
    benchmark(lambda: index.search_top_k(next(query), K))


def test_save(benchmark, index, tmp_path):
    benchmark.pedantic(index.save, args=(tmp_path / "index.rdrx",), rounds=5, warmup_rounds=1)


def test_load(benchmark, index, tmp_path):
    path = tmp_path / "index.rdrx"
    index.save(path)
    loaded = benchmark.pedantic(FlatIndex.load, args=(path,), rounds=5, warmup_rounds=1)
    assert loaded.count == index.count


def test_search_identical_rows(benchmark, queries):
    tie = unit_rows(np.random.default_rng(1), 1)[0]
    index = FlatIndex(DIM)
    index.insert(embedded(np.repeat(tie[None, :], 20_000, axis=0)), "kw")
    hits = benchmark(index.search_top_k, queries[0], K)
    assert [h.chunk_id for h in hits] == [f"d{i}:0" for i in range(K)]
