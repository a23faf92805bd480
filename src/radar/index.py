"""Exact flat dense-vector index with cosine top-k search and persistence.

Entries are unit-normalized float32 vectors, so cosine similarity reduces to
a dot product. A row's score is its canonical float64 score,
``np.dot(row.astype(np.float64), q)`` with ``q`` the float64 query divided
by its norm: it depends on nothing but the row and the query, so identical
rows score identically wherever they sit. Ties break by insertion order,
which keeps result sequences reproducible.

Storage is one contiguous float32 matrix, the same numbers the file holds.
Its capacity grows by amortized doubling, so an insert appends rows in place
and never invalidates the matrix a search reads. Searchers read a snapshot
of the first ``count`` rows, which later appends never touch.

Search scans in float32 and rescores in float64. One float32 product
``s32 = matrix @ float32(q)`` scores every row; with ``m = min(k, count)``
and ``kth`` the m-th largest of ``s32``, every row with
``s32 >= kth - 2 * eps`` is a candidate, and only the candidates get their
canonical score. A stable sort of the candidates by canonical score then
gives the same ids, order and scores as a canonical full scan.

The bound ``eps``. Let ``u = 2**-24`` (float32 unit roundoff), ``d`` the
dim, ``tau = UNIT_NORM_TOLERANCE``, ``x`` a row with ``|x| <= 1 + tau``
(insert and load both reject any other) and ``c = dot64(x, q)`` its
canonical score. Then ``|s32 - c| <= E`` with

    E = (1 + tau) * (u + gamma_d) * (1 + u) + d * 2**-53 * (1 + tau) + d * 2**-148

where ``u`` covers rounding ``q`` to float32, ``gamma_d = d*u / (1 - d*u)``
covers the float32 product: d products and sums in any order, with or
without FMA, including the rounding of the result; ``d * 2**-53`` covers the
float64 canonical score and ``d * 2**-148`` underflow. For ``d <= 2**20``,
``gamma_d <= 1.07 * d * u``, so ``E < (1.1 * d + 2) * u``. With
``eps = (d + 2) * 2**-23 = 2 * (d + 2) * u``, ``2 * eps`` exceeds ``2 * E``
by more than the one rounding of ``kth - 2 * eps`` to float32 (at most
``1.3 * u``), so the computed threshold is at most ``kth - 2 * E``.

Completeness. Let ``j`` be a row of the canonical top m and ``T`` the m rows
with the largest ``s32``. If ``j`` is not in ``T``, some ``i`` in ``T`` is
not in the canonical top m, so ``c_i <= c_j``, and

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

import struct
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .chunking import EmbeddedChunk, is_unit_norm
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
_PARTS_PER_WRITE = 4096


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
        batch leaves the index untouched.
        """
        rows: list[np.ndarray] = []
        ids: list[str] = []
        for item in embedded:
            vec = np.asarray(item.vector, dtype=np.float32).reshape(-1)
            if vec.shape[0] != self.dim:
                raise ShapeError(
                    f"chunk {item.chunk.chunk_id} has dim {vec.shape[0]}, index dim {self.dim}"
                )
            norm = float(np.linalg.norm(vec.astype(np.float64)))
            if not is_unit_norm(norm):
                raise ValidationError(
                    f"chunk {item.chunk.chunk_id} vector norm {norm} is not unit length"
                )
            ids.append(item.chunk.chunk_id)
            rows.append(vec)
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
            if rows:
                self._matrix[n:end] = rows
            self._ids.extend(ids)
            self._keywords.extend(keyword for _ in ids)
            self._id_set |= batch

    def search_top_k(self, query: Sequence[float] | np.ndarray, k: int) -> list[ScoredChunk]:
        """Exact top-k by canonical score; ties keep insertion order."""
        if k <= 0:
            raise ValidationError(f"k must be positive, got {k}")
        q = np.asarray(query, dtype=np.float64).reshape(-1)
        if q.shape[0] != self.dim:
            raise ShapeError(f"query dim {q.shape[0]} does not match index dim {self.dim}")
        qnorm = float(np.linalg.norm(q))
        if qnorm == 0.0:
            raise DegenerateVectorError("cannot search with a zero query vector")
        if not np.isfinite(qnorm):
            raise DegenerateVectorError("cannot search with a non-finite query vector")
        with self._lock:
            n = len(self._ids)
            if not n:
                return []
            matrix = self._matrix[:n]
            ids, keywords = self._ids, self._keywords  # append-only: [0, n) is stable
        q = q / qnorm
        scan = matrix @ q.astype(np.float32)
        m = min(k, n)
        kth = np.partition(scan, n - m)[n - m]
        candidates = np.flatnonzero(scan >= kth - self._slack).tolist()
        scores = [np.dot(matrix[i].astype(np.float64), q) for i in candidates]
        # The candidates are in insertion order, so a stable sort keeps ties so.
        best = np.argsort(np.negative(scores), kind="stable")[:m].tolist()
        return [
            ScoredChunk(ids[candidates[j]], float(scores[j]), keywords[candidates[j]]) for j in best
        ]

    # -- persistence --------------------------------------------------------

    def save(self, path: str | Path) -> None:
        path = Path(path)
        vec_bytes = 4 * self.dim
        with self._lock:
            n = len(self._ids)
            parts = [_HEADER.pack(MAGIC, VERSION, self.dim, n)]
            vectors = memoryview(self._matrix[:n].reshape(-1)).cast("B")
            for i, (cid, kw) in enumerate(zip(self._ids, self._keywords)):
                cid_b = cid.encode("utf-8")
                kw_b = kw.encode("utf-8")
                if len(cid_b) > 0xFFFF or len(kw_b) > 0xFFFF:
                    raise ValidationError(f"id/keyword too long to persist: {cid!r}")
                parts.append(_U16.pack(len(cid_b)))
                parts.append(cid_b)
                parts.append(_U16.pack(len(kw_b)))
                parts.append(kw_b)
                parts.append(vectors[i * vec_bytes : (i + 1) * vec_bytes])
        # Joined a slice at a time: one whole-file join would hold the file
        # twice in memory, and single small writes cost more than the joins.
        with path.open("wb") as fh:
            for start in range(0, len(parts), _PARTS_PER_WRITE):
                fh.write(b"".join(parts[start : start + _PARTS_PER_WRITE]))

    @classmethod
    def load(cls, path: str | Path) -> "FlatIndex":
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise CorruptionError(f"cannot read {path}: {exc}") from exc
        if len(data) < _HEADER.size:
            raise CorruptionError(f"{path}: file shorter than the header")
        magic, version, dim, count = _HEADER.unpack_from(data, 0)
        if magic != MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if dim <= 0:
            raise CorruptionError(f"{path}: non-positive dim {dim}")
        vec_bytes = 4 * dim
        # Every record holds two u16 lengths and a vector, so a count the
        # file cannot hold is truncation, caught before allocating rows.
        if count * (4 + vec_bytes) > len(data) - _HEADER.size:
            raise CorruptionError(f"{path}: truncated, {count} records cannot fit")
        index = cls(dim)
        index._matrix = matrix = np.empty((count, dim), dtype="<f4")
        ids, keywords, id_set = index._ids, index._keywords, index._id_set
        offset = _HEADER.size
        for i in range(count):
            try:  # reads past the end raise struct.error or ValueError
                (id_len,) = _U16.unpack_from(data, offset)
                kw_at = offset + 2 + id_len
                (kw_len,) = _U16.unpack_from(data, kw_at)
                vec_at = kw_at + 2 + kw_len
                matrix[i] = np.frombuffer(data, "<f4", dim, vec_at)
                cid = data[offset + 2 : kw_at].decode("utf-8")
                keyword = data[kw_at + 2 : vec_at].decode("utf-8")
            except UnicodeDecodeError:
                raise CorruptionError(f"{path}: id or keyword not UTF-8 at byte {offset}") from None
            except (struct.error, ValueError):
                raise CorruptionError(f"{path}: truncated at byte {offset}") from None
            if cid in id_set:
                raise CorruptionError(f"{path}: duplicate chunk id {cid}")
            id_set.add(cid)
            ids.append(cid)
            keywords.append(keyword)
            offset = vec_at + vec_bytes
        if offset != len(data):
            raise CorruptionError(f"{path}: {len(data) - offset} trailing bytes")
        # Search's error bound needs unit rows, as insert checks; a unit norm
        # is also finite. The buffered float64 cast makes no matrix-sized copy.
        norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix, dtype=np.float64))
        bad = np.flatnonzero(~is_unit_norm(norms))
        if bad.size:
            i = int(bad[0])
            what = "non-finite vector" if not np.isfinite(norms[i]) else f"vector norm {norms[i]}"
            raise CorruptionError(f"{path}: {what} for chunk {ids[i]}")
        return index
