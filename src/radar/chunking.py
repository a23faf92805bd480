"""Document segmentation into overlapping character windows, plus embedding.

Chunks are pure character slices: no sentence snapping, no whitespace
mangling, so concatenating chunks (dropping each successor's overlap prefix)
reconstructs the body exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ConfigError, DegenerateVectorError, EmbeddingError, ValidationError
from .providers import Embedder

DEFAULT_CHUNK_CHARS = 1000
DEFAULT_OVERLAP_CHARS = 200

UNIT_NORM_TOLERANCE = 1e-6


def is_unit_norm(norm: float) -> bool:
    """Whether an L2 norm is within tolerance of 1; a NaN norm never is."""
    return abs(norm - 1.0) <= UNIT_NORM_TOLERANCE


class Section(str, Enum):
    ARTICLE = "article"
    CASE = "case"


@dataclass(frozen=True)
class Document:
    """A fetched reference document, reduced to plain text."""

    doc_id: str
    keyword: str
    section: Section
    title: str
    body: str
    source_url: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "section", Section(self.section))
        if not self.doc_id:
            raise ValidationError("document id is empty")
        if not self.body:
            raise ValidationError(f"document {self.doc_id} has an empty body")


@dataclass(frozen=True)
class Chunk:
    """One character window of a document body."""

    chunk_id: str
    doc_id: str
    ordinal: int
    text: str
    char_span: tuple[int, int]

    def __post_init__(self) -> None:
        start, end = self.char_span
        if end <= start:
            raise ValidationError(f"chunk {self.chunk_id} has an empty span {self.char_span}")
        if len(self.text) != end - start:
            raise ValidationError(f"chunk {self.chunk_id} text does not match its span")


@dataclass(frozen=True)
class EmbeddedChunk:
    """A chunk together with its unit-normalized embedding."""

    chunk: Chunk
    vector: np.ndarray

    def __post_init__(self) -> None:
        norm = float(np.linalg.norm(np.asarray(self.vector, dtype=np.float64)))
        if not is_unit_norm(norm):
            raise ValidationError(
                f"chunk {self.chunk.chunk_id} vector norm {norm} is not unit length"
            )


def segment(doc: Document, chunk_chars: int, overlap_chars: int) -> list[Chunk]:
    """Slice a document body into overlapping windows.

    Every chunk except possibly the last has length ``chunk_chars``;
    consecutive chunks share exactly ``overlap_chars`` characters. Chunk ids
    are ``{doc_id}:{ordinal}`` so a corpus re-segmented with the same
    parameters reproduces the same ids.
    """
    if chunk_chars <= 0:
        raise ConfigError(f"chunk_chars must be positive, got {chunk_chars}")
    if overlap_chars < 0 or overlap_chars >= chunk_chars:
        raise ConfigError(
            f"overlap_chars must satisfy 0 <= overlap < chunk, got "
            f"overlap={overlap_chars}, chunk={chunk_chars}"
        )
    body = doc.body
    stride = chunk_chars - overlap_chars
    chunks: list[Chunk] = []
    start = 0
    while True:
        end = min(start + chunk_chars, len(body))
        chunks.append(
            Chunk(
                chunk_id=f"{doc.doc_id}:{len(chunks)}",
                doc_id=doc.doc_id,
                ordinal=len(chunks),
                text=body[start:end],
                char_span=(start, end),
            )
        )
        if end >= len(body):
            return chunks
        start += stride


def l2_normalize(vector: Sequence[float] | np.ndarray) -> np.ndarray:
    """Scale a vector to unit L2 norm; zero vectors have no direction."""
    arr = np.asarray(vector, dtype=np.float64).reshape(-1)
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise DegenerateVectorError("cannot normalize a zero vector")
    return (arr / norm).astype(np.float32)


def embed_chunks(embedder: Embedder, chunks: Sequence[Chunk]) -> list[EmbeddedChunk]:
    """Embed chunks in order, normalizing every vector to unit length."""
    if not chunks:
        raise ValidationError("embed_chunks needs at least one chunk")
    out = []
    for chunk in chunks:
        try:
            vec = l2_normalize(embedder.embed(chunk.text))
        except Exception as exc:
            raise EmbeddingError(
                f"embedding chunk {chunk.chunk_id} failed: {exc}", chunk_id=chunk.chunk_id
            ) from exc
        out.append(EmbeddedChunk(chunk=chunk, vector=vec))
    return out
