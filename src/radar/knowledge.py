"""Keyword-cached knowledge base over an external document source.

The internal check consults a set of folded keywords; a miss fetches up to
five article-section and five case-section documents, segments and embeds
them, and appends the vectors to the shared flat index. A keyword is only
recorded as fetched once its whole ingestion batch committed, so failures
leave no partial state behind.

Each chunk's text lives once, in its stored document: the chunk id
``doc_id:ordinal`` and the window parameters name a slice of the body.
"""
from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import tempfile
import threading
import time
from dataclasses import dataclass
from enum import Enum
from html.parser import HTMLParser
from pathlib import Path
from typing import Callable, Protocol
from urllib.parse import quote, urljoin

import requests

from .chunking import (
    DEFAULT_CHUNK_CHARS,
    DEFAULT_OVERLAP_CHARS,
    Document,
    Section,
    check_window,
    chunk_span,
    embed_chunks,
    segment,
)
from .domain import canonical_fold, decode, encode, read_json
from .errors import (
    ConfigError,
    CorruptionError,
    EmbeddingError,
    FetchError,
    IngestionError,
    TransportError,
    ValidationError,
)
from .index import FlatIndex
from .providers import Embedder, with_retries

log = logging.getLogger(__name__)

ARTICLES_PER_KEYWORD = 5
CASES_PER_KEYWORD = 5

MIN_POLITENESS_DELAY_MS = 1000

INDEX_FILENAME = "index.rdrx"
DOCS_FILENAME = "documents.json"
META_FILENAME = "meta.json"

_ORDINAL = re.compile(r"0|[1-9][0-9]*")  # canonical decimal, ASCII digits only

_UMASK = os.umask(0o022)  # os reads the umask only by setting it, so restore it at once
os.umask(_UMASK)


def _write_replacing(path: Path, write: Callable[[Path], None]) -> None:
    """Run ``write`` on a fresh temporary file beside ``path``, then move it there.

    Readers of ``path`` see the old file or the whole new one, never part of
    it; a write that fails leaves no temporary file behind.
    """
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        os.chmod(tmp, 0o666 & ~_UMASK)  # mkstemp's 0600 becomes what a plain open gives
        write(Path(tmp))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


class DocumentSource(Protocol):
    def fetch(self, keyword: str) -> list[Document]: ...


class RetrievalHit(str, Enum):
    INTERNAL = "internal"
    FETCHED = "fetched"


@dataclass(frozen=True)
class RetrievalOutcome:
    keyword: str
    hit: RetrievalHit
    new_docs: int

    def __post_init__(self) -> None:
        if self.hit is RetrievalHit.INTERNAL and self.new_docs != 0:
            raise ValidationError("an internal hit cannot report new documents")


@dataclass(frozen=True)
class FetchLogEntry:
    keyword: str
    timestamp: float
    doc_count: int


@dataclass(frozen=True)
class StoreMeta:
    """The JSON form of a store's ``meta.json``."""

    chunk_chars: int
    overlap_chars: int
    fetched_keywords: tuple[str, ...] = ()
    fetch_log: tuple[FetchLogEntry, ...] = ()

    def __post_init__(self) -> None:
        check_window(self.chunk_chars, self.overlap_chars)


def fetch_documents(
    source: DocumentSource,
    keyword: str,
    *,
    sleep: Callable[[float], None] = time.sleep,
) -> list[Document]:
    """Fetch documents for a keyword, capped at 5 per section.

    Results are deduplicated by source_url and kept in the source's own
    order (the source's ranking is taken as relevance). Transport failures
    are retried (`with_retries`); the last one becomes a `FetchError`.
    """
    if not keyword or not keyword.strip():
        raise ValidationError("cannot fetch documents for an empty keyword")
    try:
        docs = with_retries(lambda: source.fetch(keyword), sleep=sleep)
    except TransportError as exc:
        raise FetchError(f"source failed for keyword {keyword!r}: {exc}") from exc
    seen: set[str] = set()
    taken = {Section.ARTICLE: 0, Section.CASE: 0}
    limits = {Section.ARTICLE: ARTICLES_PER_KEYWORD, Section.CASE: CASES_PER_KEYWORD}
    out: list[Document] = []
    for doc in docs:
        if doc.source_url in seen:
            continue
        seen.add(doc.source_url)
        if taken[doc.section] >= limits[doc.section]:
            continue
        taken[doc.section] += 1
        out.append(doc)
    if not out:
        log.info("keyword %r returned no documents", keyword)
    return out


class KnowledgeBase:
    """Keyword-keyed document cache feeding chunker, embedder, and index.

    The index holds one row per chunk, keyed ``doc_id:ordinal``; the text of
    an indexed chunk is cut from its document in ``doc_store`` on demand, so
    no per-chunk copy is kept, and ``load`` checks ids without segmenting.

    Concurrency: lookups for the same folded keyword serialize on a
    per-keyword lock, so concurrent requests cause a single fetch; distinct
    keywords may fetch in parallel. The index enforces its own single-writer
    contract for the final insert. Searches take no knowledge-base lock, so
    an ingest stores its documents before their rows reach the index.
    """

    def __init__(
        self,
        dim: int | None = None,
        *,
        chunk_chars: int = DEFAULT_CHUNK_CHARS,
        overlap_chars: int = DEFAULT_OVERLAP_CHARS,
        index: FlatIndex | None = None,
    ):
        check_window(chunk_chars, overlap_chars)
        if index is None:
            index = FlatIndex(dim if dim is not None else 384)
        elif dim is not None and index.dim != dim:
            raise ConfigError(f"index dim {index.dim} does not match requested dim {dim}")
        self.index = index
        self.chunk_chars = chunk_chars
        self.overlap_chars = overlap_chars
        self.doc_store: dict[str, Document] = {}
        self.fetched_keywords: set[str] = set()
        self.fetch_log: list[FetchLogEntry] = []
        self._state_lock = threading.Lock()
        self._keyword_locks: dict[str, threading.Lock] = {}

    # -- queries -------------------------------------------------------------

    def has_keyword(self, keyword: str) -> bool:
        return canonical_fold(keyword) in self.fetched_keywords

    def _window(self, chunk_id: str) -> tuple[str, int, int] | None:
        """The stored body and span that ``doc_id:ordinal`` names, or None."""
        doc_id, _, ordinal = chunk_id.rpartition(":")
        doc = self.doc_store.get(doc_id)
        if doc is None or not _ORDINAL.fullmatch(ordinal):
            return None
        span = chunk_span(len(doc.body), int(ordinal), self.chunk_chars, self.overlap_chars)
        return None if span is None else (doc.body, *span)

    def chunk_text(self, chunk_id: str) -> str:
        """The text of an indexed chunk, sliced from its stored document."""
        window = self._window(chunk_id) if chunk_id in self.index else None
        if window is None:
            raise KeyError(f"unknown chunk id {chunk_id}")
        body, start, end = window
        return body[start:end]

    def stats(self) -> dict[str, int]:
        return {
            "keywords": len(self.fetched_keywords),
            "documents": len(self.doc_store),
            "chunks": self.index.count,
            "dim": self.index.dim,
        }

    # -- mutation ------------------------------------------------------------

    def lookup_or_fetch(
        self, keyword: str, source: DocumentSource, embedder: Embedder
    ) -> RetrievalOutcome:
        """Serve a keyword from the cache, fetching and ingesting on a miss.

        A failed fetch or ingest leaves the keyword unrecorded so a later
        attempt retries from scratch.
        """
        if not keyword or not keyword.strip():
            raise ValidationError("cannot look up an empty keyword")
        folded = canonical_fold(keyword)
        with self._state_lock:
            if folded in self.fetched_keywords:
                return RetrievalOutcome(keyword, RetrievalHit.INTERNAL, 0)
            kw_lock = self._keyword_locks.setdefault(folded, threading.Lock())
        with kw_lock:
            with self._state_lock:
                if folded in self.fetched_keywords:
                    return RetrievalOutcome(keyword, RetrievalHit.INTERNAL, 0)
            docs = fetch_documents(source, keyword)
            self.ingest(keyword, docs, embedder)
            return RetrievalOutcome(keyword, RetrievalHit.FETCHED, len(docs))

    def ingest(self, keyword: str, docs: list[Document], embedder: Embedder) -> int:
        """Segment, embed, and index fetched documents; returns chunks added.

        All fallible work but the index insert happens before any state
        mutation, and a failed insert takes its documents back out, so a
        failure registers nothing. Documents already in the store (same doc_id,
        fetched under another keyword) are skipped rather than re-indexed,
        and so is a doc_id repeated within the batch. Freshness is decided
        again under the state lock, because a concurrent ingest of another
        keyword may store the same document while this one embeds it.
        A keyword with zero documents is still recorded as fetched so an
        unproductive term is not fetched again within the run.
        """
        folded = canonical_fold(keyword)
        unseen: dict[str, Document] = {}
        for doc in docs:
            if doc.doc_id not in self.doc_store:
                unseen.setdefault(doc.doc_id, doc)
        embedded = []
        try:
            for doc in unseen.values():
                chunks = segment(doc, self.chunk_chars, self.overlap_chars)
                embedded.extend(embed_chunks(embedder, chunks))
        except EmbeddingError as exc:
            raise IngestionError(f"ingesting keyword {keyword!r} failed: {exc}") from exc
        with self._state_lock:
            fresh = {i: d for i, d in unseen.items() if i not in self.doc_store}
            embedded = [e for e in embedded if e.chunk.doc_id in fresh]
            self.doc_store.update(fresh)  # before the rows, which searches see at once
            try:
                if embedded:
                    self.index.insert(embedded, folded)
            except BaseException:
                for doc_id in fresh:
                    del self.doc_store[doc_id]
                raise
            self.fetched_keywords.add(folded)
            self.fetch_log.append(FetchLogEntry(keyword, time.time(), len(docs)))
        return len(embedded)

    # -- persistence ---------------------------------------------------------

    def save(self, store_dir: str | Path) -> None:
        """Write documents, then index, then meta, each replacing its file whole.

        Documents are only ever added, so a save that dies part way leaves a
        store that loads: every index id still names a stored document.
        """
        store_dir = Path(store_dir)
        store_dir.mkdir(parents=True, exist_ok=True)
        docs = {doc_id: d.to_dict() for doc_id, d in self.doc_store.items()}
        # The JSON text lives only inside its write, so the documents' text
        # and the index's bytes never both add to peak memory.
        _write_replacing(
            store_dir / DOCS_FILENAME,
            lambda p: p.write_text(json.dumps(docs, sort_keys=True, ensure_ascii=False), "utf-8"),
        )
        _write_replacing(store_dir / INDEX_FILENAME, self.index.save)
        meta = encode(StoreMeta(self.chunk_chars, self.overlap_chars,
                                tuple(sorted(self.fetched_keywords)), tuple(self.fetch_log)))
        _write_replacing(store_dir / META_FILENAME,
                         lambda p: p.write_text(json.dumps(meta, sort_keys=True), "utf-8"))

    @classmethod
    def load(cls, store_dir: str | Path) -> "KnowledgeBase":
        """Read a saved store; any inconsistency is a `CorruptionError` here.

        Every index id must be ``doc_id:ordinal`` with a stored document, a
        canonical decimal ordinal and a window inside that document's body.
        """
        store_dir = Path(store_dir)
        meta = decode(StoreMeta, read_json(store_dir / META_FILENAME, CorruptionError),
                      f"{store_dir}: bad {META_FILENAME}", CorruptionError, unknown="ignore")
        raw_docs = read_json(store_dir / DOCS_FILENAME, CorruptionError)
        kb = cls(chunk_chars=meta.chunk_chars, overlap_chars=meta.overlap_chars,
                 index=FlatIndex.load(store_dir / INDEX_FILENAME))
        kb.fetched_keywords = set(meta.fetched_keywords)
        kb.fetch_log = list(meta.fetch_log)
        for doc_id, raw in raw_docs.items():
            doc = decode(Document, raw, f"{store_dir}: stored document {doc_id!r}",
                         CorruptionError, unknown="ignore")
            kb.doc_store[doc.doc_id] = doc
        unnamed = [cid for cid in kb.index.chunk_ids() if kb._window(cid) is None]
        if unnamed:
            raise CorruptionError(
                f"{store_dir}: index ids name no chunk of a stored document: {unnamed[:5]}"
            )
        return kb


# ---------------------------------------------------------------------------
# Fixture source: a local corpus directory
# ---------------------------------------------------------------------------


class FixtureSource:
    """Reads a corpus directory of one-JSON-file-per-document fixtures.

    Each file holds {doc_id, keyword, section, title, body, source_url}.
    Documents are served for keywords that fold-match theirs, in filename
    order. Keywords listed in ``fail_keywords`` raise FetchError instead,
    which makes degradation paths exercisable from configuration alone.
    """

    def __init__(self, corpus_dir: str | Path, fail_keywords: tuple[str, ...] = ()):
        self.corpus_dir = Path(corpus_dir)
        if not self.corpus_dir.is_dir():
            raise ConfigError(f"corpus directory {self.corpus_dir} does not exist")
        self._fail = {canonical_fold(k) for k in fail_keywords}
        self._by_keyword: dict[str, list[Document]] = {}
        for path in sorted(self.corpus_dir.glob("*.json")):
            doc = decode(Document, read_json(path, ConfigError), f"bad corpus document {path}",
                         ConfigError, unknown="ignore")
            self._by_keyword.setdefault(canonical_fold(doc.keyword), []).append(doc)

    def fetch(self, keyword: str) -> list[Document]:
        folded = canonical_fold(keyword)
        if folded in self._fail:
            raise FetchError(f"fixture source configured to fail for keyword {keyword!r}")
        return list(self._by_keyword.get(folded, []))


# ---------------------------------------------------------------------------
# Live source: keyword search against a public reference site
# ---------------------------------------------------------------------------


_BLOCK_TAGS = {
    "p", "div", "br", "li", "ul", "ol", "tr", "table", "section", "article",
    "h1", "h2", "h3", "h4", "h5", "h6", "blockquote",
}
_SKIP_TAGS = {"script", "style", "noscript", "template", "title"}


class _TextExtractor(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.parts: list[str] = []
        self._skip_depth = 0

    def handle_starttag(self, tag, attrs):
        if tag in _SKIP_TAGS:
            self._skip_depth += 1
        elif tag in _BLOCK_TAGS:
            self.parts.append("\n")

    def handle_endtag(self, tag):
        if tag in _SKIP_TAGS and self._skip_depth:
            self._skip_depth -= 1
        elif tag in _BLOCK_TAGS:
            self.parts.append("\n")

    def handle_data(self, data):
        if not self._skip_depth:
            self.parts.append(data)


def html_to_text(html: str) -> str:
    """Reduce HTML to plain text.

    Script/style/noscript content is dropped, block-level tags and headings
    become line breaks, entities are unescaped, and whitespace collapses
    within each line. Blank lines collapse to at most one.
    """
    extractor = _TextExtractor()
    extractor.feed(html)
    lines = [" ".join(line.split()) for line in "".join(extractor.parts).split("\n")]
    out: list[str] = []
    for line in lines:
        if line:
            out.append(line)
        elif out and out[-1]:
            out.append("")
    return "\n".join(out).strip()


class LiveSource:
    """Keyword search over a public radiology reference site.

    For each keyword the article and case search pages are requested, the
    first five result links per section are fetched, and each page is
    reduced to plain text. Every network request honors a politeness delay
    of at least one second, also across concurrent fetches, which take turns
    at one request gate; responses are cached on disk so repeated runs do
    not hammer the site.
    """

    def __init__(
        self,
        base_url: str,
        *,
        delay_ms: int = MIN_POLITENESS_DELAY_MS,
        cache_dir: str | Path | None = None,
        timeout_s: float = 30.0,
        session: requests.Session | None = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.base_url = base_url.rstrip("/")
        if delay_ms < MIN_POLITENESS_DELAY_MS:
            log.warning(
                "politeness delay %dms below the %dms floor; clamping",
                delay_ms,
                MIN_POLITENESS_DELAY_MS,
            )
            delay_ms = MIN_POLITENESS_DELAY_MS
        self.delay_s = delay_ms / 1000.0
        self.cache_dir = Path(cache_dir) if cache_dir else None
        if self.cache_dir:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._timeout_s = timeout_s
        self._session = session or requests.Session()
        self._sleep = sleep
        self._clock = clock
        self._last_request = float("-inf")
        self._gate = threading.Lock()

    def _cache_path(self, url: str) -> Path | None:
        if not self.cache_dir:
            return None
        return self.cache_dir / (hashlib.sha256(url.encode("utf-8")).hexdigest() + ".html")

    def _get(self, url: str) -> str:
        cached = self._cache_path(url)
        if cached and cached.exists():
            return cached.read_text(encoding="utf-8")
        with self._gate:  # one request at a time, each at least delay_s after the last
            wait = self.delay_s - (self._clock() - self._last_request)
            if wait > 0:
                self._sleep(wait)
            try:
                resp = self._session.get(url, timeout=self._timeout_s)
            except requests.RequestException as exc:
                raise TransportError(f"GET {url} failed: {exc}") from exc
            finally:
                self._last_request = self._clock()
        if resp.status_code >= 500:
            raise TransportError(f"GET {url} answered {resp.status_code}")
        if resp.status_code != 200:
            raise FetchError(f"GET {url} answered {resp.status_code}")
        if cached:
            _write_replacing(cached, lambda p: p.write_text(resp.text, "utf-8"))
        return resp.text

    def _result_links(self, html: str, path_prefix: str) -> list[str]:
        links: list[str] = []
        for match in re.finditer(r'href="(%s/[^"#?]+)"' % re.escape(path_prefix), html):
            href = match.group(1)
            if href not in links:
                links.append(href)
            if len(links) >= 5:
                break
        return links

    def fetch(self, keyword: str) -> list[Document]:
        docs: list[Document] = []
        scopes = ((Section.ARTICLE, "articles", "/articles"), (Section.CASE, "cases", "/cases"))
        for section, scope, prefix in scopes:
            search_url = f"{self.base_url}/search?q={quote(keyword)}&scope={scope}"
            html = self._get(search_url)
            for href in self._result_links(html, prefix):
                page_url = urljoin(self.base_url + "/", href.lstrip("/"))
                page = self._get(page_url)
                title_match = re.search(
                    r"<title[^>]*>(.*?)</title>", page, flags=re.IGNORECASE | re.DOTALL
                )
                body = html_to_text(page)
                if not body:
                    continue
                docs.append(
                    Document(
                        doc_id=href.strip("/").replace("/", ":"),
                        keyword=keyword,
                        section=section,
                        title=html_to_text(title_match.group(1)) if title_match else "",
                        body=body,
                        source_url=page_url,
                    )
                )
        return docs
