"""Exception hierarchy shared across the engine.

Transport failures are the only retryable class; everything else reports a
contract violation and should surface to the caller unchanged.
"""
from __future__ import annotations


class RadarError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(RadarError):
    """A domain value violates its invariants.

    ``fields`` names every violated field when a whole record was checked,
    so callers can report all problems in one pass.
    """

    def __init__(self, message: str, fields: list[str] | None = None):
        super().__init__(message)
        self.fields = list(fields or [])


class ConfigError(RadarError):
    """Bad or inconsistent configuration (files, parameters, paths)."""


class TransportError(RadarError):
    """Network-level failure talking to a backend. Retryable."""


class ProviderError(RadarError):
    """A backend answered, but with something unusable."""


class ScriptExhaustedError(ProviderError):
    """An ordered response script has no entries left."""


class ScriptKeyError(ProviderError):
    """A keyed response script has no entry for the request fingerprint."""


class ShapeError(RadarError):
    """Vector dimensionality does not match what the consumer expects."""


class DegenerateVectorError(RadarError):
    """A zero or non-finite vector where a direction is required."""


class DuplicateChunkError(RadarError):
    """Attempt to insert a chunk id the index already holds."""


class EmbeddingError(RadarError):
    """Embedding a chunk failed; carries the offending chunk id."""

    def __init__(self, message: str, chunk_id: str = ""):
        super().__init__(message)
        self.chunk_id = chunk_id


class FormatError(RadarError):
    """A persisted file does not carry the expected magic or version."""


class CorruptionError(RadarError):
    """A persisted file is structurally damaged (truncated, inconsistent)."""


class FetchError(RadarError):
    """Fetching documents from an external source failed: at once for a
    reply that is not a transport failure, else after retries."""


class IngestionError(RadarError):
    """Ingesting fetched documents failed; no partial state was kept."""


class ParseError(RadarError):
    """Structured output could not be extracted or did not match its schema."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class AgentOutputError(RadarError):
    """An agent kept producing unusable output after all retries."""

    def __init__(self, message: str, raw: str = ""):
        super().__init__(message)
        self.raw = raw


class EvaluationError(RadarError):
    """Run outputs cannot be scored (empty input, missing truths)."""

    def __init__(self, message: str, missing_ids: list[str] | None = None):
        super().__init__(message)
        self.missing_ids = list(missing_ids or [])
