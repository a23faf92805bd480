"""Exact flat dense-vector index with cosine top-k search and persistence.

Entries are unit-normalized float32 vectors, so cosine similarity reduces to
a dot product. A row's score is its canonical float64 score,
``np.dot(row.astype(np.float64), q)`` with ``q`` the float64 query divided
by its norm: it depends on nothing but the row and the query, so identical
rows score identically wherever they sit. Ties break by insertion order,
which keeps result sequences reproducible.

Storage is one contiguous float32 matrix, the same numbers the file holds.
An insert that finds it full doubles its capacity, and a load gives it
twice the rows it read, so an insert appends rows in place and never
invalidates the matrix a search reads. Searchers read a snapshot of the
first ``count`` rows, which later appends never touch.

Search scans in float32 and rescores in float64. ``search_batch`` takes the
unit queries ``Q`` of a whole case, each with its own row prefix: query ``j``
sees exactly the first ``counts[j]`` rows, which is what the index held when
that query's turn came, since inserts only append. The float32 scan
``S = float32(Q) @ matrix[:max(counts)].T`` scores every query against every
row it might see. It is computed one block of ``SCAN_BLOCK_BYTES`` of rows at
a time, one matrix-vector product per query into its row of one
``(queries, rows)`` buffer, so a block is read from memory once and then
from cache by every later query. One matrix-matrix product per block, with a
case's five queries, measured 1.3 times as slow at 16k-100k rows, and
OpenBLAS packs its operands for it in a buffer of about 2 MB. A batch of one
query takes the whole matrix in one matrix-vector product, which beats
blocks of it. Row ``j`` of ``S``, cut to the query's own prefix of
``c = counts[j]`` entries, is that query's scan ``s32``, and no row past the
prefix is ever a candidate. With ``m = min(k, c)`` and ``kth`` the m-th
largest of ``s32``, every row with ``s32 >= kth - 2 * eps`` is a candidate,
and only the candidates get their canonical score. A stable sort of the
candidates by canonical score then gives the same ids, order and scores as
a canonical full scan of an index holding only those ``c`` rows.
``search_top_k`` is the batch of one query over every row.

The bound ``eps``. Let ``u = 2**-24`` (float32 unit roundoff), ``d`` the
dim, ``tau = UNIT_NORM_TOLERANCE``, ``x`` a row with ``|x| <= 1 + tau``
(``first_non_unit_row`` rejects any other at insert and at load) and
``c = dot64(x, q)`` its canonical score. Then ``|s32 - c| <= E`` with

    E = (1 + tau) * (u + gamma_d) * (1 + u) + d * 2**-53 * (1 + tau) + d * 2**-148

where ``u`` covers rounding ``q`` to float32, ``gamma_d = d*u / (1 - d*u)``
covers the float32 product: d products and sums in any order, with or
without FMA, including the rounding of the result. Each entry of ``S`` is
such a length-d dot, whatever row block it was computed in and whatever
lane split or position the BLAS kernel gives it, so the bound
holds entry by entry, and the results do not depend on the block size.
``d * 2**-53`` covers the float64 canonical score and ``d * 2**-148``
underflow. For ``d <= 2**20``, ``gamma_d <= 1.07 * d * u``, so
``E < (1.1 * d + 2) * u``. With ``eps = (d + 2) * 2**-23 = 2 * (d + 2) * u``,
``2 * eps`` exceeds ``2 * E`` by more than the one rounding of
``kth - 2 * eps`` to float32 (at most ``1.3 * u``), so the computed
threshold is at most ``kth - 2 * E``.

Completeness. Among a query's ``c`` rows, let ``j`` be a row of the
canonical top m and ``T`` the m rows with the largest ``s32``. If ``j`` is
not in ``T``, some ``i`` in ``T`` is not in the canonical top m, so
``c_i <= c_j``, and

    s32_j >= c_j - E >= c_i - E >= s32_i - 2 * E >= kth - 2 * E,

so ``j`` is a candidate. The candidates hold the canonical top m, so their
first m in (score, position) order are exactly it. The candidate set is
usually m rows or one more; identical rows all become candidates.

File format (all integers little-endian):
    magic  "RDRX" (4 bytes)
    version u32 = 1
    dim     u32
    count   u64
    count records of:
        id_len u16, id bytes (UTF-8),
        keyword_len u16, keyword bytes (UTF-8),
        dim x f32 components
"""
from __future__ import annotations

import io
import struct
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Sequence

import numpy as np

from .chunking import EmbeddedChunk
from .domain import COPY_BUFFER_BYTES, FileMark, copy_range, replace_file
from .errors import (
    CorruptionError,
    DegenerateVectorError,
    DuplicateChunkError,
    FormatError,
    ShapeError,
    ValidationError,
)

MAGIC = b"RDRX"
VERSION = 1
_HEADER = struct.Struct("<4sIIQ")
_U16 = struct.Struct("<H")

UNIT_NORM_TOLERANCE = 1e-6
# Rows per block of a batch scan: 3 MiB of the matrix, 2048 rows at dim 384.
# With five queries at dim 384 on a 2-vCPU Xeon (2 MiB L2 per core), blocks of
# 2048 rows scanned 16k / 20.4k / 100k rows in 1.4 / 1.8 / 11.9 ms, against
# 2.8 / 3.3 / 21.8 ms in 1024-row and 2.2 / 2.9 / 18.9 ms in 4096-row blocks.
SCAN_BLOCK_BYTES = 3 * 1024 * 1024


def first_non_unit_row(rows: np.ndarray) -> tuple[int, float] | None:
    """Position and float64 norm of the first row not within ``UNIT_NORM_TOLERANCE``
    of unit length, or None; a NaN norm never passes. Insert and load both decide
    by it, and the buffered cast makes no matrix-sized float64 copy."""
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows, dtype=np.float64))
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_NORM_TOLERANCE))
    return (int(bad[0]), float(norms[bad[0]])) if bad.size else None


def _check_storable(chunk_id: str, what: str, text: str) -> None:
    """Reject ``text`` unless it encodes as UTF-8 in at most 0xFFFF bytes, as the file needs."""
    try:
        if len(text.encode("utf-8")) <= 0xFFFF:  # a u16 length prefix
            return
    except UnicodeEncodeError:  # a lone surrogate
        pass
    raise ValidationError(f"chunk {chunk_id!r:.80} {what} is not UTF-8 of at most 65535 bytes")


@dataclass(frozen=True)
class ScoredChunk:
    """One search hit: chunk id, cosine score, and the entry's keyword tag."""

    chunk_id: str
    score: float
    keyword: str


class FlatIndex:
    """Append-only exact index over (chunk_id, unit vector, keyword) entries.

    Single writer, many readers: insertions take the internal lock and are
    all-or-nothing, so searches never observe a partially inserted batch.
    """

    def __init__(self, dim: int):
        if dim <= 0:
            raise ValidationError(f"index dim must be positive, got {dim}")
        self.dim = dim
        self._ids: list[str] = []
        self._keywords: list[str] = []
        self._id_set: set[str] = set()
        self._matrix = np.empty((0, dim), dtype="<f4")  # rows [0, count) are live
        self._slack = (dim + 2) * 2.0**-22  # 2 * eps, see the module docstring
        self._lock = threading.Lock()
        self._on_disk: tuple[FileMark, int] | None = None  # last file loaded or written, its rows

    @property
    def count(self) -> int:
        return len(self._ids)

    def chunk_ids(self) -> list[str]:
        """Chunk ids in insertion order, without copying any vector."""
        with self._lock:
            return list(self._ids)

    def entries(self) -> list[tuple[str, np.ndarray, str]]:
        """Snapshot of (chunk_id, float32 vector, keyword) in insertion order."""
        with self._lock:
            rows = self._matrix[: len(self._ids)].copy()
            return list(zip(self._ids, rows, self._keywords))

    def __contains__(self, chunk_id: str) -> bool:
        return chunk_id in self._id_set

    def insert(self, embedded: Sequence[EmbeddedChunk], keyword: str) -> None:
        """Append a batch of embedded chunks tagged with a keyword.

        The whole batch is validated before anything is appended; a rejected
        batch leaves the index untouched. Rows, ids and keyword must be what
        ``load`` reads back: unit length, and UTF-8 of at most 65,535 bytes.
        """
        ids = [item.chunk.chunk_id for item in embedded]
        rows = np.empty((len(ids), self.dim), dtype="<f4")
        for i, item in enumerate(embedded):
            vec = np.asarray(item.vector, dtype=np.float32).reshape(-1)
            if vec.shape[0] != self.dim:
                raise ShapeError(f"chunk {ids[i]} has dim {vec.shape[0]}, index dim {self.dim}")
            _check_storable(ids[i], "id", ids[i])
            rows[i] = vec
        bad = first_non_unit_row(rows)
        if bad is not None:
            raise ValidationError(f"chunk {ids[bad[0]]} vector norm {bad[1]} is not unit length")
        if ids:
            _check_storable(ids[0], "keyword", keyword)
        with self._lock:
            batch: set[str] = set()
            for cid in ids:
                if cid in self._id_set or cid in batch:
                    raise DuplicateChunkError(f"chunk id {cid} already indexed")
                batch.add(cid)
            n, end = len(self._ids), len(self._ids) + len(ids)
            if end > self._matrix.shape[0]:
                grown = np.empty((max(end, 2 * self._matrix.shape[0]), self.dim), "<f4")
                grown[:n] = self._matrix[:n]
                self._matrix = grown
            self._matrix[n:end] = rows
            self._ids.extend(ids)
            self._keywords.extend(keyword for _ in ids)
            self._id_set |= batch

    def unit_query(self, query: Sequence[float] | np.ndarray) -> np.ndarray:
        """``query`` as the float64 unit vector a search scores with. A query
        of the wrong dim, zero, or with a non-finite component is rejected."""
        q = np.asarray(query, dtype=np.float64).reshape(-1)
        if q.shape[0] != self.dim:
            raise ShapeError(f"query dim {q.shape[0]} does not match index dim {self.dim}")
        qnorm = float(np.linalg.norm(q))
        if qnorm == 0.0:
            raise DegenerateVectorError("cannot search with a zero query vector")
        if not np.isfinite(qnorm):
            raise DegenerateVectorError("cannot search with a non-finite query vector")
        return q / qnorm

    def search_top_k(self, query: Sequence[float] | np.ndarray, k: int) -> list[ScoredChunk]:
        """Exact top-k by canonical score over every row; ties keep insertion order."""
        return self.search_batch([self.unit_query(query)], k, [self.count])[0]

    def search_batch(
        self, queries: Sequence[np.ndarray], k: int, counts: Sequence[int]
    ) -> list[list[ScoredChunk]]:
        """Exact top-k of each unit query (as ``unit_query`` returns it) over
        the first ``counts[j]`` rows. Every query is scored against a block of
        ``SCAN_BLOCK_BYTES`` of rows, one matrix-vector product each, before
        the next block is read; one query is scored against every row in one
        product."""
        if k <= 0:
            raise ValidationError(f"k must be positive, got {k}")
        if len(queries) != len(counts):
            raise ValidationError(f"{len(queries)} queries but {len(counts)} row counts")
        if not counts:
            return []
        with self._lock:
            n = len(self._ids)
            if not all(0 <= c <= n for c in counts):
                raise ValidationError(f"row counts {list(counts)} exceed the {n} rows held")
            matrix = self._matrix[: max(counts)]
            ids, keywords = self._ids, self._keywords  # append-only: [0, n) is stable
        q64 = np.asarray(queries, dtype=np.float64)
        if q64.shape != (len(counts), self.dim):
            raise ShapeError(f"queries of shape {q64.shape}, expected ({len(counts)}, {self.dim})")
        q32 = q64.astype(np.float32)
        scans = np.empty((len(counts), len(matrix)), np.float32)
        step = max(1, len(matrix) if len(counts) == 1 else SCAN_BLOCK_BYTES // (4 * self.dim))
        for start in range(0, len(matrix), step):
            block = matrix[start : start + step]
            for q, scan in zip(q32, scans[:, start : start + step]):
                np.matmul(block, q, out=scan)
        results = []
        for q, scan, c in zip(q64, scans, counts):
            scan = scan[:c]  # the rows this query may see
            m = min(k, c)
            if not m:
                results.append([])
                continue
            kth = np.partition(scan, c - m)[c - m]
            candidates = np.flatnonzero(scan >= kth - self._slack).tolist()
            memo: dict[float, tuple[bytes, float]] = {}  # s32 -> one row's bytes, its score
            scores = []
            for i, s in zip(candidates, scan[candidates].tolist()):
                row, known = matrix[i].tobytes(), memo.get(s)
                if known is None or known[0] != row:
                    known = memo[s] = (row, np.dot(matrix[i].astype(np.float64), q))
                scores.append(known[1])
            # The candidates are in insertion order, so a stable sort keeps ties so.
            best = np.argsort(np.negative(scores), kind="stable")[:m].tolist()
            results.append([
                ScoredChunk(ids[candidates[j]], float(scores[j]), keywords[candidates[j]])
                for j in best
            ])
        return results

    # -- persistence --------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Replace the file at ``path`` whole with the index, in proportion to
        the rows added since the file this index last loaded or wrote.

        Inserts only append, so when that file is still on disk unchanged
        (its ``FileMark``), even at ``path`` itself, its record region is
        copied whole, a buffer at a time, and only the later rows are
        encoded. Any other case, such as a first save or a file replaced
        since, encodes every row. The bytes are the same either way.
        """
        with self._lock:  # rows [0, n) never change; later ones are not written
            n = len(self._ids)
            ids, keywords = self._ids, self._keywords
            vectors = memoryview(self._matrix[:n].reshape(-1)).cast("B")
        mark, rows = self._on_disk or (None, 0)
        vec_bytes = 4 * self.dim

        def write(fh: BinaryIO, src: BinaryIO | None) -> None:
            fh.write(_HEADER.pack(MAGIC, VERSION, self.dim, n))
            if src is not None:
                copy_range(src, _HEADER.size, mark.size, fh)
            # Records are joined a quarter buffer at a time: a write per record
            # costs more, and a whole-file join would hold the file twice in
            # memory.
            per_piece = COPY_BUFFER_BYTES // (4 * vec_bytes) + 1
            for start in range(0 if src is None else rows, n, per_piece):
                parts = []
                for i in range(start, min(n, start + per_piece)):
                    cid_b, kw_b = ids[i].encode("utf-8"), keywords[i].encode("utf-8")
                    parts += (_U16.pack(len(cid_b)), cid_b, _U16.pack(len(kw_b)), kw_b,
                              vectors[i * vec_bytes : (i + 1) * vec_bytes])
                fh.write(b"".join(parts))

        self._on_disk = (replace_file(path, write, mark), n)

    @classmethod
    def load(cls, path: str | Path) -> "FlatIndex":
        """Read the index file at ``path``; a fault in it raises `CorruptionError`
        or `FormatError` naming the file.

        The file is read a ``COPY_BUFFER_BYTES`` buffer at a time, and each
        vector goes straight into its matrix row, so no more than one buffer
        of the file is in memory beside the matrix. The matrix has room for
        twice the rows read, as ``insert`` would grow it to, so the inserts
        after a load append in place; rows not yet written cost no memory.
        """
        try:
            with io.BufferedReader(io.FileIO(path), COPY_BUFFER_BYTES) as fh:
                mark = FileMark.of(path, fh)  # before the first read, so a change during it shows
                header = fh.read(_HEADER.size)
                if len(header) < _HEADER.size:
                    raise CorruptionError(f"{path}: file shorter than the header")
                magic, version, dim, count = _HEADER.unpack(header)
                if magic != MAGIC:
                    raise FormatError(f"{path}: bad magic {magic!r}")
                if version != VERSION:
                    raise FormatError(f"{path}: unsupported version {version}")
                if dim <= 0:
                    raise CorruptionError(f"{path}: non-positive dim {dim}")
                vec_bytes = 4 * dim
                # Every record holds two u16 lengths and a vector, so a count the
                # file cannot hold is truncation, caught before allocating rows.
                if count * (4 + vec_bytes) > mark.size - _HEADER.size:
                    raise CorruptionError(f"{path}: truncated, {count} records cannot fit")
                index = cls(dim)
                index._matrix = np.empty((2 * count, dim), dtype="<f4")
                rows = memoryview(index._matrix.reshape(-1)).cast("B")
                ids, keywords, id_set = index._ids, index._keywords, index._id_set
                decoded: dict[bytes, str] = {}  # keyword bytes -> their one decoded str
                read, readinto, unpack = fh.read, fh.readinto, _U16.unpack
                offset = _HEADER.size
                for i in range(count):
                    try:  # a read falls short only at the end of the file
                        cid_b = read(unpack(read(2))[0])
                        kw_b = read(unpack(read(2))[0])
                        whole = readinto(rows[i * vec_bytes : (i + 1) * vec_bytes]) == vec_bytes
                    except struct.error:  # a length cut short
                        whole = False
                    if not whole:
                        raise CorruptionError(f"{path}: truncated at byte {offset}")
                    try:
                        cid = cid_b.decode("utf-8")
                        keyword = decoded.get(kw_b)
                        if keyword is None:
                            keyword = decoded[kw_b] = kw_b.decode("utf-8")
                    except UnicodeDecodeError:
                        raise CorruptionError(
                            f"{path}: id or keyword not UTF-8 at byte {offset}") from None
                    if cid in id_set:
                        raise CorruptionError(f"{path}: duplicate chunk id {cid}")
                    id_set.add(cid)
                    ids.append(cid)
                    keywords.append(keyword)
                    offset += 4 + len(cid_b) + len(kw_b) + vec_bytes
        except OSError as exc:
            raise CorruptionError(f"cannot read {path}: {exc}") from exc
        if offset != mark.size:
            raise CorruptionError(f"{path}: {mark.size - offset} trailing bytes")
        bad = first_non_unit_row(index._matrix[:count])  # search's error bound needs unit rows
        if bad is not None:
            what = "non-finite vector" if not np.isfinite(bad[1]) else f"vector norm {bad[1]}"
            raise CorruptionError(f"{path}: {what} for chunk {ids[bad[0]]}")
        index._on_disk = (mark, count)
        return index
