"""Chat-completion and text-embedding backends behind one small interface.

Ships three implementations: a scripted provider that replays canned
responses (tests, golden runs), a deterministic hashing embedder, and a
plain HTTP JSON client pair for live model backends.
"""
from __future__ import annotations

import functools
import hashlib
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Protocol, Sequence, TypeVar

import numpy as np
import requests

from .domain import decode, read_json
from .errors import (
    ConfigError,
    ProviderError,
    ScriptExhaustedError,
    ScriptKeyError,
    ShapeError,
    TransportError,
    ValidationError,
)

ROLES = ("system", "user", "assistant")

# Sampling presets: high favors hypothesis diversity, low keeps answers pinned
# to retrieved text, mid balances the final synthesis. All overridable.
TEMP_HIGH = 1.0
TOP_P_HIGH = 0.95
TEMP_LOW = 0.1
TEMP_MID = 0.5

DEFAULT_EMBED_DIM = 384
DEFAULT_MAX_TOKENS = 1024

RETRY_ATTEMPTS = 3
RETRY_BACKOFF_S = 1.0

# Model calls one process keeps in flight at most: the thread cap of the pool
# that runs a case's independent agent calls, and the connections an HTTP
# backend's session keeps per host. The default 4 workers put up to 4 x 5
# answer calls in flight at once.
MAX_CONCURRENT_CALLS = 32

T = TypeVar("T")


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValidationError(f"unknown message role {self.role!r}")


@dataclass(frozen=True)
class ChatRequest:
    messages: tuple[ChatMessage, ...]
    temperature: float = TEMP_MID
    top_p: float = 1.0
    max_tokens: int = DEFAULT_MAX_TOKENS

    def __post_init__(self) -> None:
        object.__setattr__(self, "messages", tuple(self.messages))
        if not self.messages:
            raise ValidationError("chat request needs at least one message")
        if self.temperature < 0:
            raise ValidationError(f"temperature must be >= 0, got {self.temperature}")
        if not 0 < self.top_p <= 1:
            raise ValidationError(f"top_p must be in (0, 1], got {self.top_p}")
        if self.max_tokens <= 0:
            raise ValidationError(f"max_tokens must be positive, got {self.max_tokens}")


@dataclass(frozen=True)
class ChatResponse:
    content: str
    provider_id: str
    prompt_tokens: int = 0
    completion_tokens: int = 0


def user_request(
    text: str,
    *,
    temperature: float = TEMP_MID,
    top_p: float = 1.0,
    max_tokens: int = DEFAULT_MAX_TOKENS,
) -> ChatRequest:
    """Single user-message request; the common shape for templated prompts."""
    return ChatRequest(
        messages=(ChatMessage("user", text),),
        temperature=temperature,
        top_p=top_p,
        max_tokens=max_tokens,
    )


def request_fingerprint(request: ChatRequest) -> str:
    """Stable digest of a request's messages, used to key scripted responses."""
    h = hashlib.sha256()
    for msg in request.messages:
        h.update(msg.role.encode("utf-8"))
        h.update(b"\x00")
        h.update(msg.content.encode("utf-8"))
        h.update(b"\x01")
    return h.hexdigest()[:16]


class ChatProvider(Protocol):
    provider_id: str

    def complete(self, request: ChatRequest) -> ChatResponse: ...


class Embedder(Protocol):
    dim: int

    def embed(self, text: str) -> np.ndarray: ...


def embed_text(embedder: Embedder, text: str) -> np.ndarray:
    """Embed non-empty text into the embedder's fixed-dimension vector."""
    if not text:
        raise ValidationError("cannot embed empty text")
    vec = np.asarray(embedder.embed(text), dtype=np.float32).reshape(-1)
    if vec.shape[0] != embedder.dim:
        raise ShapeError(f"embedder returned dim {vec.shape[0]}, expected {embedder.dim}")
    if not np.isfinite(vec).all():
        raise ProviderError("embedder returned non-finite components")
    return vec


# ---------------------------------------------------------------------------
# Scripted provider (tests, golden runs, offline replay)
# ---------------------------------------------------------------------------


class ScriptedChatProvider:
    """Replays canned responses.

    Keyed entries are matched on the request fingerprint and may be replayed
    any number of times; unkeyed entries are consumed once each, in order.
    Replay order is preserved under concurrent callers via an internal lock.
    """

    def __init__(
        self,
        script: Sequence[str] = (),
        keyed: Mapping[str, str] | None = None,
        provider_id: str = "scripted",
    ):
        self.provider_id = provider_id
        self._ordered = list(script)
        self._keyed = dict(keyed or {})
        self._cursor = 0
        self._lock = threading.Lock()
        self.calls = 0

    @property
    def remaining(self) -> int:
        return len(self._ordered) - self._cursor

    def complete(self, request: ChatRequest) -> ChatResponse:
        fp = request_fingerprint(request)
        with self._lock:
            self.calls += 1
            if fp in self._keyed:
                content = self._keyed[fp]
            elif self._cursor < len(self._ordered):
                content = self._ordered[self._cursor]
                self._cursor += 1
            elif self._keyed:
                raise ScriptKeyError(f"no scripted response for fingerprint {fp}")
            else:
                raise ScriptExhaustedError(
                    f"script exhausted after {len(self._ordered)} responses"
                )
        prompt_chars = sum(len(m.content) for m in request.messages)
        return ChatResponse(
            content=content,
            provider_id=self.provider_id,
            prompt_tokens=prompt_chars // 4,
            completion_tokens=len(content) // 4,
        )


@dataclass(frozen=True)
class ScriptEntry:
    """One script-file entry; without a fingerprint it answers in arrival order."""

    content: str
    fingerprint: str = ""


def scripted_provider_from_file(path: str | Path) -> ScriptedChatProvider:
    """Load a script file: a JSON array of {fingerprint?: str, content: str}."""
    path = Path(path)
    ordered: list[str] = []
    keyed: dict[str, str] = {}
    for i, raw in enumerate(read_json(path, ConfigError, expect=list)):
        entry = decode(ScriptEntry, raw, f"script file {path} entry {i}", ConfigError,
                       unknown="ignore")
        if entry.fingerprint:
            keyed[entry.fingerprint] = entry.content
        else:
            ordered.append(entry.content)
    return ScriptedChatProvider(script=ordered, keyed=keyed, provider_id=f"scripted:{path.name}")


# ---------------------------------------------------------------------------
# Deterministic embedder
# ---------------------------------------------------------------------------


# Distinct 3-grams whose digest bits are memoized; a full memo takes 10 MiB.
# The memo pays off only because 3-grams repeat across texts. Measured from an
# empty memo: a cold_ingest benchmark child embeds 1830 texts holding 896k
# per-text distinct 3-grams, only 3200 of them distinct overall (hit ratio
# 0.996), and runs 38 cases/s with the memo against 17 without it; English
# prose (Python's pydoc topics, 569 kchars) has 12.1k distinct 3-grams (hit
# ratio 0.956). Text whose 3-grams never repeat (random CJK) embeds about 1.7x
# slower than hashing every 3-gram directly.
GRAM_MEMO_SIZE = 1 << 16


@functools.lru_cache(maxsize=GRAM_MEMO_SIZE)
def _gram_digest_bits(gram: int) -> int:
    """First five blake2b digest bytes (little endian) of one packed 3-gram.

    ``gram`` holds the three code points as 21-bit fields, first one highest.
    Bits 0-31 pick the bucket and bit 32 the sign; the value does not depend
    on the embedding dimension, so one memo serves every embedder.
    """
    text = chr(gram >> 42) + chr((gram >> 21) & 0x1FFFFF) + chr(gram & 0x1FFFFF)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest[:5], "little")


class HashingEmbedder:
    """Deterministic text embedder: signed feature hashing of character 3-grams.

    The lowercased text is padded with '##' on both ends, every 3-gram is
    hashed with blake2b, and the digest picks a bucket (first 4 bytes, little
    endian, mod dim) and a sign (low bit of byte 4). The accumulator is then
    L2-normalized. If the signs cancel to an all-zero accumulator, unsigned
    counts of the same buckets are normalized instead. Identical text always
    maps to an identical unit vector, which keeps index code paths the same
    in tests and live runs.

    Each distinct 3-gram of a text is hashed once, through a process-wide
    memo of the digest bits bounded at ``GRAM_MEMO_SIZE`` least recently used
    3-grams (``functools.lru_cache``, safe to share between threads). Every
    accumulated term is an integer, so the float64 sums are exact and the
    vector does not depend on summation order.
    """

    def __init__(self, dim: int = DEFAULT_EMBED_DIM):
        if dim <= 0:
            raise ConfigError(f"embedder dim must be positive, got {dim}")
        self.dim = dim

    def embed(self, text: str) -> np.ndarray:
        if not text:
            raise ValidationError("cannot embed empty text")
        padded = f"##{text.lower()}##"
        codes = np.frombuffer(padded.encode("utf-32-le"), dtype="<u4").astype(np.uint64)
        grams, counts = np.unique(
            (codes[:-2] << 42) | (codes[1:-1] << 21) | codes[2:], return_counts=True
        )
        bits = np.fromiter(
            map(_gram_digest_bits, grams.tolist()), dtype=np.int64, count=grams.size
        )
        buckets = (bits & 0xFFFFFFFF) % self.dim
        counts = counts.astype(np.float64)
        signed = np.where(bits & (1 << 32), counts, -counts)
        acc = np.bincount(buckets, weights=signed, minlength=self.dim)
        norm = float(np.linalg.norm(acc))
        if norm == 0.0:  # total sign cancellation; fall back to unsigned counts
            acc = np.bincount(buckets, weights=counts, minlength=self.dim)
            norm = float(np.linalg.norm(acc))
        return (acc / norm).astype(np.float32)


# ---------------------------------------------------------------------------
# Outside calls: one retry policy, and one JSON endpoint per live backend
# ---------------------------------------------------------------------------


def with_retries(call: Callable[[], T], *, sleep: Callable[[float], None] = time.sleep) -> T:
    """Return ``call()``, trying it up to RETRY_ATTEMPTS times while it raises
    `TransportError`, with a backoff of RETRY_BACKOFF_S doubling between
    tries. Any other error, or the last transport failure, is raised."""
    for attempt in range(RETRY_ATTEMPTS - 1):
        try:
            return call()
        except TransportError:
            sleep(RETRY_BACKOFF_S * 2**attempt)
    return call()


class _JsonEndpoint:
    """One JSON-over-HTTP backend: a POST of a JSON object that answers one.

    Sends the bearer token when given, forwards ``model`` when set, and
    keeps a connection per concurrent call instead of reconnecting every
    call beyond requests' default pool of 10.
    """

    def __init__(
        self,
        url: str,
        *,
        api_key: str | None = None,
        model: str | None = None,
        timeout_s: float = 30.0,
        session: requests.Session | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if session is None:
            session = requests.Session()
            adapter = requests.adapters.HTTPAdapter(pool_maxsize=MAX_CONCURRENT_CALLS)
            session.mount("http://", adapter)
            session.mount("https://", adapter)
        self.url = url
        self._model = model
        self._timeout_s = timeout_s
        self._session = session
        self._sleep = sleep
        self._headers = {"Content-Type": "application/json"}
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"

    def _post(self, payload: dict) -> dict:
        """POST ``payload``, retrying transport failures (`with_retries`).

        A connection failure or 5xx is a `TransportError`; a 4xx, or a
        reply that is not a JSON object, is a `ProviderError`.
        """
        if self._model:
            payload["model"] = self._model

        def attempt() -> dict:
            try:
                resp = self._session.post(
                    self.url, json=payload, headers=self._headers, timeout=self._timeout_s
                )
            except requests.RequestException as exc:
                raise TransportError(f"POST {self.url} failed: {exc}") from exc
            if resp.status_code >= 500:
                raise TransportError(f"{self.url} answered {resp.status_code}")
            if resp.status_code >= 400:
                raise ProviderError(f"{self.url} answered {resp.status_code}: {resp.text[:200]}")
            try:
                body = resp.json()
            except ValueError as exc:
                raise ProviderError(f"{self.url} returned a non-JSON payload") from exc
            if not isinstance(body, dict):
                raise ProviderError(f"{self.url} returned a non-object payload")
            return body

        return with_retries(attempt, sleep=self._sleep)


class HttpChatProvider(_JsonEndpoint):
    """Chat completions against one JSON endpoint.

    Wire shape: POST {messages, temperature, top_p, max_tokens, model?} and
    expect {content: str, usage?: {prompt_tokens?: int, completion_tokens?: int}}
    back. Per-model adapters are expected to live behind the endpoint.
    """

    def __init__(self, url: str, *, provider_id: str | None = None, **endpoint):
        super().__init__(url, **endpoint)
        self.provider_id = provider_id or f"http:{self._model or url}"

    def complete(self, request: ChatRequest) -> ChatResponse:
        body = self._post({
            "messages": [{"role": m.role, "content": m.content} for m in request.messages],
            "temperature": request.temperature,
            "top_p": request.top_p,
            "max_tokens": request.max_tokens,
        })
        content = body.get("content")
        if not isinstance(content, str):
            raise ProviderError(f"{self.url} reply carries no 'content' string")
        usage = body.get("usage") or {}
        if not isinstance(usage, dict):
            raise ProviderError(f"{self.url} reply carries a non-object 'usage'")
        tokens = [usage.get(key, 0) for key in ("prompt_tokens", "completion_tokens")]
        if not all(type(n) is int and n >= 0 for n in tokens):
            raise ProviderError(f"{self.url} reply carries token counts {tokens!r:.200}")
        return ChatResponse(content, self.provider_id, *tokens)


class HttpEmbedder(_JsonEndpoint):
    """Text embeddings against one JSON endpoint.

    Wire shape: POST {text, model?} and expect {embedding: [number, ...]}.
    """

    def __init__(self, url: str, *, dim: int = DEFAULT_EMBED_DIM, **endpoint):
        if dim <= 0:
            raise ConfigError(f"embedder dim must be positive, got {dim}")
        super().__init__(url, **endpoint)
        self.dim = dim

    def embed(self, text: str) -> np.ndarray:
        if not text:
            raise ValidationError("cannot embed empty text")
        embedding = self._post({"text": text}).get("embedding")
        if not isinstance(embedding, list) or not all(type(x) in (int, float) for x in embedding):
            raise ProviderError(f"{self.url} reply carries no 'embedding' list of numbers")
        vec = np.asarray(embedding, dtype=np.float32)
        if vec.shape != (self.dim,):
            raise ShapeError(f"{self.url} returned dim {vec.shape}, expected ({self.dim},)")
        return vec
