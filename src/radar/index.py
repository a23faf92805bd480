"""Exact flat dense-vector index with cosine top-k search and persistence.

Entries are unit-normalized float32 vectors, so cosine similarity reduces to
a dot product. Search is a full scan scored in float64; ties break by
insertion order, which keeps result sequences reproducible.

Storage is one contiguous float64 matrix whose rows are the exact float64
widenings of the float32 vectors; it is both the store and the scan matrix.
Its capacity grows by amortized doubling, so an insert appends rows in place
and never invalidates the matrix a search reads. Searchers read a snapshot
of the first ``count`` rows, which later appends never touch. The file
format below is unchanged: vectors are persisted as float32.

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
        self._matrix = np.empty((0, dim), dtype=np.float64)  # rows [0, count) are live
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
            rows = self._matrix[: len(self._ids)].astype(np.float32)
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
                grown = np.empty((max(end, 2 * self._matrix.shape[0]), self.dim), np.float64)
                grown[:n] = self._matrix[:n]
                self._matrix = grown
            if rows:
                self._matrix[n:end] = rows
            self._ids.extend(ids)
            self._keywords.extend(keyword for _ in ids)
            self._id_set |= batch

    def search_top_k(self, query: Sequence[float] | np.ndarray, k: int) -> list[ScoredChunk]:
        """Exact top-k by cosine similarity; ties keep insertion order."""
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
        neg = -(matrix @ (q / qnorm))
        # Every row scoring at least the k-th best enters a stable sort, so
        # ties keep insertion order exactly as a full stable argsort would.
        # `~(neg > kth)` rather than `neg <= kth` also keeps NaN scores.
        m = min(k, n)
        kth = np.partition(neg, m - 1)[m - 1]
        tied_or_better = np.flatnonzero(~(neg > kth))
        order = tied_or_better[np.argsort(neg[tied_or_better], kind="stable")[:m]]
        return [ScoredChunk(ids[i], float(-neg[i]), keywords[i]) for i in order.tolist()]

    # -- persistence --------------------------------------------------------

    def save(self, path: str | Path) -> None:
        path = Path(path)
        vec_bytes = 4 * self.dim
        with self._lock:
            n = len(self._ids)
            parts = [_HEADER.pack(MAGIC, VERSION, self.dim, n)]
            vectors = memoryview(self._matrix[:n].astype("<f4").reshape(-1)).cast("B")
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
        path.write_bytes(b"".join(parts))

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
        index._matrix = matrix = np.empty((count, dim), dtype=np.float64)
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
        # A row sum of float32 values cannot overflow float64, so it is
        # finite exactly when every component is; no matrix-sized temporary.
        finite = np.isfinite(matrix.sum(axis=1))
        if not finite.all():
            raise CorruptionError(f"{path}: non-finite vector for chunk {ids[int(np.argmin(finite))]}")
        return index
