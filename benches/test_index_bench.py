"""Layer benchmarks for `FlatIndex`: insert, search, save and load.

Run from the repository root (Tier-1's `testpaths` does not collect this
directory):

    PYTHONPATH=src python -m pytest benches -q --benchmark-json=bench.json

Each operation runs at 1k, 20k and 100k rows of dim 384, the hashing
embedder's dim. `test_search_batch` scores a case's five queries in one
blocked scan of the rows, against `test_five_searches`, five `search_top_k`
calls on the same queries; `test_search_batch_two_threads` runs two such
batches at once, as two pipeline workers do. `test_search_identical_rows` is
the search's worst case: every row ties, so every row is a candidate for
rescoring. `test_save` removes the file before each round, so every round
encodes every row: a save onto the file it last wrote would copy its
records instead. `test_load` records in ``extra_info`` the load's transient peak
under `tracemalloc`: the most it held at once beyond what the loaded index
keeps.
"""
from __future__ import annotations

import itertools
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from radar.chunking import Chunk, EmbeddedChunk
from radar.index import FlatIndex

DIM = 384
SIZES = [1_000, 20_000, 100_000]
K = 5
N_QUERIES = 5  # questions per case


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


def test_five_searches(benchmark, index, queries):
    benchmark(lambda: [index.search_top_k(q, K) for q in queries[:N_QUERIES]])


def test_search_batch(benchmark, index, queries):
    units = [index.unit_query(q) for q in queries[:N_QUERIES]]
    found = benchmark(index.search_batch, units, K, [index.count] * N_QUERIES)
    assert found == [index.search_top_k(q, K) for q in queries[:N_QUERIES]]


def test_search_batch_two_threads(benchmark, index, queries):
    units = [index.unit_query(q) for q in queries[:N_QUERIES]]
    with ThreadPoolExecutor(2) as pool:
        def both():
            batches = [pool.submit(index.search_batch, units, K, [index.count] * N_QUERIES)
                       for _ in range(2)]
            return [batch.result() for batch in batches]

        found = benchmark(both)
    assert found == [index.search_batch(units, K, [index.count] * N_QUERIES)] * 2


def test_save(benchmark, index, tmp_path):
    path = tmp_path / "index.rdrx"

    def no_file():
        path.unlink(missing_ok=True)
        return (path,), {}

    benchmark.pedantic(index.save, setup=no_file, rounds=5, warmup_rounds=1)


def test_load(benchmark, index, tmp_path):
    path = tmp_path / "index.rdrx"
    index.save(path)
    loaded = benchmark.pedantic(FlatIndex.load, args=(path,), rounds=5, warmup_rounds=1)
    assert loaded.count == index.count
    del loaded
    tracemalloc.start()
    try:
        loaded = FlatIndex.load(path)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    benchmark.extra_info["transient_peak_mb"] = round((peak - current) / 1e6, 3)


def test_search_identical_rows(benchmark, queries):
    tie = unit_rows(np.random.default_rng(1), 1)[0]
    index = FlatIndex(DIM)
    index.insert(embedded(np.repeat(tie[None, :], 20_000, axis=0)), "kw")
    hits = benchmark(index.search_top_k, queries[0], K)
    assert [h.chunk_id for h in hits] == [f"d{i}:0" for i in range(K)]
