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

from .domain import json_default
from .errors import ConfigError, DegenerateVectorError, EmbeddingError, ValidationError
from .providers import Embedder, embed_text

DEFAULT_CHUNK_CHARS = 1000
DEFAULT_OVERLAP_CHARS = 200


class Section(str, Enum):
    ARTICLE = "article"
    CASE = "case"


@dataclass(frozen=True)
class Document:
    """A fetched reference document, reduced to plain text that UTF-8 encodes."""

    doc_id: str
    keyword: str
    section: Section
    title: str = json_default("")
    body: str
    source_url: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "section", Section(self.section))
        if not (self.doc_id.isascii() and self.keyword.isascii() and self.title.isascii()
                and self.body.isascii() and self.source_url.isascii()):
            try:
                "".join(vars(self).values()).encode("utf-8")  # a lone surrogate stays lone when joined
            except UnicodeEncodeError:
                raise ValidationError("document text holds a lone surrogate") from None
        if not self.doc_id:
            raise ValidationError("document id is empty")
        if not self.keyword:
            raise ValidationError(f"document {self.doc_id} has an empty keyword")
        if not self.body:
            raise ValidationError(f"document {self.doc_id} has an empty body")

    def to_dict(self) -> dict[str, str]:
        """The JSON form of a corpus file and of a stored document."""
        return {**vars(self), "section": self.section.value}


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
    """A chunk together with its embedding; the index checks its unit norm."""

    chunk: Chunk
    vector: np.ndarray


def check_window(chunk_chars: int, overlap_chars: int) -> None:
    """Reject window parameters outside ``0 <= overlap_chars < chunk_chars``."""
    if not 0 <= overlap_chars < chunk_chars:
        raise ConfigError(
            f"overlap_chars must satisfy 0 <= overlap < chunk, got "
            f"overlap={overlap_chars}, chunk={chunk_chars}"
        )


def window_count(length: int, chunk_chars: int, overlap_chars: int) -> int:
    """How many windows a body ``length`` long has: always one, and a window
    after the first only while its predecessor stops short of the end."""
    return max(1, -(-(length - overlap_chars) // (chunk_chars - overlap_chars)))


def chunk_span(
    length: int, ordinal: int, chunk_chars: int, overlap_chars: int
) -> tuple[int, int] | None:
    """The span of chunk ``ordinal >= 0`` of a body ``length`` long; None past the last.

    Windows start every ``chunk_chars - overlap_chars`` characters and are
    ``chunk_chars`` long, the last one cut at the body's end; `window_count`
    says how many there are.
    """
    if ordinal >= window_count(length, chunk_chars, overlap_chars):
        return None
    start = ordinal * (chunk_chars - overlap_chars)
    return start, min(start + chunk_chars, length)


def segment(doc: Document, chunk_chars: int, overlap_chars: int) -> list[Chunk]:
    """Slice a document body into the overlapping windows of `chunk_span`.

    Every chunk except possibly the last has length ``chunk_chars``;
    consecutive chunks share exactly ``overlap_chars`` characters. Chunk ids
    are ``{doc_id}:{ordinal}``, so an id and the window parameters name the
    chunk's text within its document.
    """
    check_window(chunk_chars, overlap_chars)
    chunks: list[Chunk] = []
    while span := chunk_span(len(doc.body), len(chunks), chunk_chars, overlap_chars):
        start, end = span
        ordinal = len(chunks)
        chunk_id = f"{doc.doc_id}:{ordinal}"
        chunks.append(Chunk(chunk_id, doc.doc_id, ordinal, doc.body[start:end], span))
    return chunks


def l2_normalize(vector: Sequence[float] | np.ndarray) -> np.ndarray:
    """Scale a vector to unit L2 norm; zero vectors have no direction."""
    arr = np.asarray(vector, dtype=np.float64).reshape(-1)
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise DegenerateVectorError("cannot normalize a zero vector")
    return (arr / norm).astype(np.float32)


def embed_chunks(embedder: Embedder, chunks: Sequence[Chunk]) -> list[EmbeddedChunk]:
    """Embed chunks in order, normalizing every vector to unit length.

    Each vector passes `embed_text`'s dimension and finiteness checks first,
    so any bad vector fails as an `EmbeddingError` naming its chunk.
    """
    if not chunks:
        raise ValidationError("embed_chunks needs at least one chunk")
    out = []
    for chunk in chunks:
        try:
            vec = l2_normalize(embed_text(embedder, chunk.text))
        except Exception as exc:
            raise EmbeddingError(
                f"embedding chunk {chunk.chunk_id} failed: {exc}", chunk_id=chunk.chunk_id
            ) from exc
        out.append(EmbeddedChunk(chunk=chunk, vector=vec))
    return out
