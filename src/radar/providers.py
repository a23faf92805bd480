"""Chat-completion and text-embedding backends behind one small interface.

Ships three implementations: a scripted provider that replays canned
responses (tests, golden runs), a deterministic hashing embedder, and a
plain HTTP JSON client pair for live model backends.
"""
from __future__ import annotations

import functools
import hashlib
import json
import math
import queue
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, Protocol, Sequence, TypeVar
from urllib.parse import SplitResult, urlsplit, urlunsplit

import numpy as np

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

if TYPE_CHECKING:
    import http.client

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
# that runs a case's independent agent calls, and the idle connections each
# HTTP endpoint keeps. The default 4 workers put up to 4 x 5 answer calls in
# flight at once.
MAX_CONCURRENT_CALLS = 32

T = TypeVar("T")

_FLOAT32_MAX = float(np.finfo(np.float32).max)


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
        if not 0 <= self.temperature < math.inf:  # also NaN, which JSON cannot carry
            raise ValidationError(f"temperature must be finite and >= 0, got {self.temperature}")
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
    """Stable digest of a request's messages, used to key scripted responses.

    A lone surrogate, which a model reply may escape into a prompt, is
    digested as UTF-8 would encode its code point, so that prompt has a
    fingerprint too; other text digests as its UTF-8.
    """
    h = hashlib.sha256()
    for msg in request.messages:
        h.update(msg.role.encode("utf-8"))
        h.update(b"\x00")
        h.update(msg.content.encode("utf-8", "surrogatepass"))
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


# Entries, sentinel included, of each embedder's 3-gram memo: 16 bytes each, so
# a full memo takes 1 MiB. It pays off because 3-grams repeat across texts: a
# cold_ingest benchmark child embeds 1830 texts holding 896k per-text distinct
# 3-grams, only 3200 of them distinct overall; English prose (Python's pydoc
# topics, 569 kchars) has 12.1k. A new embedder takes 1.3x as long with the
# memo as with none on 200 random-CJK 1000-character texts, whose 3-grams
# almost never repeat (0.51 against 0.39 s on a 2-vCPU VM).
GRAM_MEMO_SIZE = 1 << 16
# An empty memo: one key above every packed 3-gram, so searchsorted stays in it.
_MEMO_START = (np.array([2**64 - 1], dtype=np.uint64), np.zeros(1, dtype=np.int64))


def _gram_digest_bits(grams: np.ndarray) -> np.ndarray:
    """First five blake2b digest bytes (little endian) of each packed 3-gram,
    which holds three code points as 21-bit fields, first one highest."""
    fields = (grams[:, None] >> np.array([42, 21, 0], dtype=np.uint64)) & np.uint64(0x1FFFFF)
    chars = fields.astype("<u4").tobytes().decode("utf-32-le")
    digests = b"".join(hashlib.blake2b(chars[i : i + 3].encode("utf-8"), digest_size=8).digest()
                       for i in range(0, len(chars), 3))
    return (np.frombuffer(digests, dtype="<u8") & np.uint64(0xFF_FFFF_FFFF)).astype(np.int64)


class HashingEmbedder:
    """Deterministic text embedder: signed feature hashing of character 3-grams.

    The lowercased text is padded with '##' on both ends, every 3-gram is
    hashed with blake2b, and the digest picks a bucket (first 4 bytes, little
    endian, mod dim) and a sign (low bit of byte 4). The accumulator is then
    L2-normalized. If the signs cancel to an all-zero accumulator, unsigned
    counts of the same buckets are normalized instead. Identical text always
    maps to an identical unit vector, which keeps index code paths the same
    in tests and live runs.

    Each embedder keeps a memo of digest bits: ``(keys, bits)`` arrays sorted
    by packed 3-gram, replaced whole under a lock and read without one. A text
    looks up its distinct 3-grams with one ``searchsorted`` and hashes only the
    misses; a memo they would take past ``GRAM_MEMO_SIZE`` starts over. A hit
    is a key found equal, so the memo never changes a vector. Every term is an
    integer, so the float64 sums are exact and do not depend on their order.
    """

    def __init__(self, dim: int = DEFAULT_EMBED_DIM):
        if dim <= 0:
            raise ConfigError(f"embedder dim must be positive, got {dim}")
        self.dim = dim
        self._memo = _MEMO_START
        self._memo_lock = threading.Lock()

    def embed(self, text: str) -> np.ndarray:
        if not text:
            raise ValidationError("cannot embed empty text")
        try:
            padded = f"##{text.lower()}##".encode("utf-32-le")
        except UnicodeEncodeError:  # a lone surrogate, which no code point packs
            raise ValidationError("cannot embed text holding a lone surrogate") from None
        codes = np.frombuffer(padded, dtype="<u4").astype(np.uint64)
        grams, counts = np.unique(
            (codes[:-2] << 42) | (codes[1:-1] << 21) | codes[2:], return_counts=True
        )
        keys, memo_bits = self._memo
        at = np.searchsorted(keys, grams)
        bits, missed = memo_bits[at], keys[at] != grams
        if missed.any():
            bits[missed] = self._remember(grams[missed])
        buckets = (bits & 0xFFFFFFFF) % self.dim
        counts = counts.astype(np.float64)
        signed = np.where(bits & (1 << 32), counts, -counts)
        acc = np.bincount(buckets, weights=signed, minlength=self.dim)
        norm = float(np.linalg.norm(acc))
        if norm == 0.0:  # total sign cancellation; fall back to unsigned counts
            acc = np.bincount(buckets, weights=counts, minlength=self.dim)
            norm = float(np.linalg.norm(acc))
        return (acc / norm).astype(np.float32)

    def _remember(self, grams: np.ndarray) -> np.ndarray:
        """Digest bits of sorted 3-grams the memo lacked; publishes a memo holding them."""
        bits = _gram_digest_bits(grams)
        with self._memo_lock:
            keys, memo_bits = self._memo
            if keys.size + grams.size > GRAM_MEMO_SIZE:  # full: start over
                (keys, memo_bits), grams = _MEMO_START, grams[: GRAM_MEMO_SIZE - 1]
            at = np.searchsorted(keys, grams)
            new = np.flatnonzero(keys[at] != grams)  # another thread may have added some
            placed = at[new] + np.arange(new.size)  # where each new 3-gram lands
            kept = np.ones(keys.size + new.size, dtype=bool)
            kept[placed] = False
            memo = []
            for held, fresh in ((keys, grams[new]), (memo_bits, bits[new])):
                merged = np.empty(kept.size, dtype=held.dtype)
                merged[placed], merged[kept] = fresh, held
                memo.append(merged)
            self._memo = tuple(memo)
        return bits


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


def http_url(url: str) -> SplitResult:
    """The parts of an http or https URL that names a host; any other URL
    is a `ConfigError`, rather than a request to nowhere or to localhost."""
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ConfigError(f"not an http(s) URL with a host: {url!r}")
    return parts


class _JsonEndpoint:
    """One JSON-over-HTTP backend: a POST of a JSON object that answers one.

    Sends the bearer token when given and forwards ``model`` when set. It
    connects directly, without a proxy, and verifies HTTPS against the
    system trust store. Idle kept-alive connections wait on a stack of at
    most MAX_CONCURRENT_CALLS; a call opens one only when none is idle.
    ``connect`` makes a new `http.client.HTTPConnection`-like object. The
    HTTP modules are imported here, not with this module, so a run that
    builds no endpoint loads none of them.
    """

    def __init__(
        self,
        url: str,
        *,
        api_key: str | None = None,
        model: str | None = None,
        timeout_s: float = 30.0,
        connect: Callable[[], http.client.HTTPConnection] | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        parts = http_url(url)
        if connect is None:
            import http.client
            import ssl

            tls = {"context": ssl.create_default_context()} if parts.scheme == "https" else {}
            connection = http.client.HTTPSConnection if tls else http.client.HTTPConnection
            connect = functools.partial(connection, parts.netloc, timeout=timeout_s, **tls)
        self.url = url
        self._path = urlunsplit(("", "", parts.path or "/", parts.query, ""))
        self._model = model
        self._connect = connect
        self._idle = queue.LifoQueue(MAX_CONCURRENT_CALLS)
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
        body = json.dumps(payload, allow_nan=False).encode("utf-8")

        def attempt() -> dict:
            status, data = self._exchange(body)
            if status >= 500:
                raise TransportError(f"{self.url} answered {status}")
            if status >= 400:
                text = data.decode("utf-8", "replace")
                raise ProviderError(f"{self.url} answered {status}: {text[:200]}")
            try:
                reply = json.loads(data)
            except (ValueError, RecursionError) as exc:  # also too-deep nesting
                raise ProviderError(f"{self.url} returned a non-JSON payload") from exc
            if not isinstance(reply, dict):
                raise ProviderError(f"{self.url} returned a non-object payload")
            return reply

        return with_retries(attempt, sleep=self._sleep)

    def _exchange(self, body: bytes) -> tuple[int, bytes]:
        """The status and body of one POST of ``body``, sent on an idle
        connection if there is one. A connection the server closed while
        idle reconnects before it sends; one that fails is closed and
        dropped, and the others go back on the stack."""
        import http.client
        import select

        try:
            conn = self._idle.get_nowait()
        except queue.Empty:
            conn = self._connect()
        else:
            # An idle socket that reads as ready holds the server's close (urllib3
            # checks the same); closed here, the request below opens a fresh one.
            if conn.sock is not None and select.select([conn.sock], [], [], 0)[0]:
                conn.close()
        try:
            conn.request("POST", self._path, body, self._headers)
            resp = conn.getresponse()
            status, data = resp.status, resp.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise TransportError(f"POST {self.url} failed: {exc}") from exc
        try:
            self._idle.put_nowait(conn)
        except queue.Full:
            conn.close()
        return status, data

    def close(self) -> None:
        """Close every idle connection; a later call opens a new one."""
        while True:
            try:
                self._idle.get_nowait().close()
            except queue.Empty:
                return


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
        usage = {} if body.get("usage") is None else body["usage"]
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
        if not isinstance(embedding, list) or not all(
            type(x) in (int, float) and abs(x) <= _FLOAT32_MAX for x in embedding  # also NaN
        ):
            raise ProviderError(f"{self.url} reply carries no 'embedding' list of float32 numbers")
        vec = np.asarray(embedding, dtype=np.float32)
        if vec.shape != (self.dim,):
            raise ShapeError(f"{self.url} returned dim {vec.shape}, expected ({self.dim},)")
        return vec
