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

import functools
import hashlib
import itertools
import json
import logging
import os
import re
import threading
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Any, BinaryIO, Callable, Mapping, Protocol
from urllib.parse import quote, urljoin

from .chunking import (
    DEFAULT_CHUNK_CHARS,
    DEFAULT_OVERLAP_CHARS,
    Document,
    Section,
    check_window,
    chunk_span,
    embed_chunks,
    segment,
    window_count,
)
from .domain import (
    FileMark,
    canonical_fold,
    copy_range,
    decode,
    encode,
    parse_json,
    read_json,
    read_marked,
    replace_file,
    walk_files,
)
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
from .providers import DEFAULT_EMBED_DIM, Embedder, http_url, with_retries

if TYPE_CHECKING:
    import urllib.request

log = logging.getLogger(__name__)

ARTICLES_PER_KEYWORD = 5
CASES_PER_KEYWORD = 5

MIN_POLITENESS_DELAY_MS = 1000

INDEX_FILENAME = "index.rdrx"
DOCS_FILENAME = "documents.json"
META_FILENAME = "meta.json"

_ORDINAL = re.compile(r"0|[1-9][0-9]*")  # canonical decimal, ASCII digits only


# documents.json is one JSON object: "{", then the ``"doc_id": document``
# items joined by ", " in the order the documents entered the store, then
# "}". An item is written by this encoder as a one-item object without its
# braces, so the file is what ``json.dumps`` with ``ensure_ascii=False``
# writes of the documents with their fields sorted.
_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False)


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
    per-keyword lock, so concurrent lookups cause a single fetch; distinct
    keywords may fetch in parallel. The index enforces its own single-writer
    contract for the final insert. Searches take no knowledge-base lock, so
    an ingest stores its documents before their rows reach the index.
    """

    def __init__(
        self,
        dim: int = DEFAULT_EMBED_DIM,
        *,
        chunk_chars: int = DEFAULT_CHUNK_CHARS,
        overlap_chars: int = DEFAULT_OVERLAP_CHARS,
    ):
        check_window(chunk_chars, overlap_chars)
        self.index = FlatIndex(dim)
        self.chunk_chars = chunk_chars
        self.overlap_chars = overlap_chars
        self.doc_store: dict[str, Document] = {}
        self.fetched_keywords: set[str] = set()
        self.fetch_log: list[FetchLogEntry] = []
        self._saved_in: Path | None = None  # the store directory that holds all of this store
        # The documents.json a save may extend, and how many documents it holds.
        self._docs_on_disk: tuple[FileMark, int] | None = None
        self._state_lock = threading.Lock()
        self._keyword_locks: dict[str, threading.Lock] = {}

    # -- queries -------------------------------------------------------------

    def _window(self, chunk_id: str) -> tuple[str, int, int] | None:
        """The stored body and span that ``doc_id:ordinal`` names, or None."""
        doc_id, _, ordinal = chunk_id.rpartition(":")
        doc = self.doc_store.get(doc_id)
        if doc is None or not _ORDINAL.fullmatch(ordinal):
            return None
        span = chunk_span(len(doc.body), int(ordinal), self.chunk_chars, self.overlap_chars)
        return None if span is None else (doc.body, *span)

    def _chunk_ids(self) -> set[str]:
        """Every id that `_window` finds: ``doc_id:ordinal`` for each window of
        each stored document."""
        return {f"{doc_id}:{ordinal}" for doc_id, doc in self.doc_store.items()
                for ordinal in range(window_count(len(doc.body), self.chunk_chars,
                                                  self.overlap_chars))}

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
            self._saved_in = None
        return len(embedded)

    # -- persistence ---------------------------------------------------------

    def save(self, store_dir: str | Path) -> None:
        """Write documents, then index, then meta, each replacing its file whole.

        Documents are only ever added, so a save that dies part way leaves a
        store that loads: every index id still names a stored document.
        Nothing is written when no ingest has committed since this store was
        loaded from or last saved to ``store_dir``.

        A save costs in proportion to what was added since the documents
        and index files this store last loaded or wrote, wherever they are.
        Documents are kept in the order they were added and index rows are
        only appended, so while such a file is still on disk unchanged, it
        is copied as one range, a buffer at a time (the documents file but
        its closing "}"), and only the added documents and rows are encoded.
        Everything is encoded on a first save, after a file was replaced or
        touched, and from a documents file that holds no document or that
        `load` found it cannot extend. Copied or encoded, the files hold the
        same bytes, except that a documents file written in another layout
        keeps its own spelling of the items it holds.
        """
        store_dir = Path(store_dir).absolute()
        if store_dir == self._saved_in:
            return
        store_dir.mkdir(parents=True, exist_ok=True)
        old, held = self._docs_on_disk or (None, 0)
        count = len(self.doc_store)

        def write_documents(fh: BinaryIO, src: BinaryIO | None) -> None:
            if src is None:
                fh.write(b"{")
                sep, first = "", 0
            else:  # the file holds the first `held` documents, then its closing "}"
                copy_range(src, 0, old.size - 1, fh)
                sep, first = ", ", held
            for doc_id, doc in itertools.islice(self.doc_store.items(), first, count):
                fh.write((sep + _ENCODER.encode({doc_id: doc.to_dict()})[1:-1]).encode("utf-8"))
                sep = ", "
            fh.write(b"}")

        mark = replace_file(store_dir / DOCS_FILENAME, write_documents, old if held else None)
        self._docs_on_disk = (mark, count)
        self.index.save(store_dir / INDEX_FILENAME)
        meta = encode(StoreMeta(self.chunk_chars, self.overlap_chars,
                                tuple(sorted(self.fetched_keywords)), tuple(self.fetch_log)))
        replace_file(store_dir / META_FILENAME,
                     lambda fh, _: fh.write(json.dumps(meta, sort_keys=True).encode("utf-8")))
        self._saved_in = store_dir

    @classmethod
    def load(cls, store_dir: str | Path) -> "KnowledgeBase":
        """Read a saved store; any inconsistency is a `CorruptionError` here.

        Every index id must be ``doc_id:ordinal`` with a stored document, a
        canonical decimal ordinal and a window inside that document's body.
        """
        store_dir = Path(store_dir)
        meta = decode(StoreMeta, read_json(store_dir / META_FILENAME, CorruptionError),
                      f"{store_dir}: bad {META_FILENAME}", CorruptionError, unknown="ignore")
        data, mark = read_marked(store_dir / DOCS_FILENAME, CorruptionError)
        raw_docs = parse_json(data, store_dir / DOCS_FILENAME, CorruptionError)
        # A save extends the file before its last byte, so that byte must be
        # the closing "}"; and a key that is not its document's doc_id could
        # hide that document behind a later item under the same key.
        extendable = data.endswith(b"}")
        del data
        kb = cls(chunk_chars=meta.chunk_chars, overlap_chars=meta.overlap_chars)
        kb.fetched_keywords = set(meta.fetched_keywords)
        kb.fetch_log = list(meta.fetch_log)
        for key, raw in raw_docs.items():
            doc = decode(Document, raw, f"{store_dir}: stored document {key!r}",
                         CorruptionError, unknown="ignore")
            kb.doc_store[doc.doc_id] = doc
            extendable = extendable and key == doc.doc_id
        if extendable:
            kb._docs_on_disk = (mark, len(raw_docs))
        del raw_docs  # before the index is read, so the two never both add to peak memory
        kb.index = FlatIndex.load(store_dir / INDEX_FILENAME)
        names = kb._chunk_ids()
        unnamed = [cid for cid in kb.index.chunk_ids() if cid not in names]
        if unnamed:
            raise CorruptionError(
                f"{store_dir}: index ids name no chunk of a stored document: {unnamed[:5]}"
            )
        kb._saved_in = store_dir.absolute()
        return kb


# ---------------------------------------------------------------------------
# Fixture source: a local corpus directory
# ---------------------------------------------------------------------------


class FixtureSource:
    """Reads a corpus directory of one-JSON-file-per-document fixtures.

    Each ``*.json`` file directly in the directory holds {doc_id, keyword,
    section, title, body, source_url}. Documents are served for keywords
    that fold-match theirs, in filename order. Keywords listed in
    ``fail_keywords`` raise FetchError instead, which makes degradation
    paths exercisable from configuration alone.

    Every file under the directory is read once, by ``walk_files``; with a
    ``digest``, each file's record is added to it as it is read, so the
    run's content digest costs no second read.

    ``stored`` maps doc_id to the documents a knowledge base already holds.
    A file whose document equals the stored one under its doc_id is served
    as that stored object, so a document in both is held once.
    """

    def __init__(self, corpus_dir: str | Path, fail_keywords: tuple[str, ...] = (),
                 digest: Any = None, stored: Mapping[str, Document] | None = None):
        self.corpus_dir = Path(corpus_dir)
        if not self.corpus_dir.is_dir():
            raise ConfigError(f"corpus directory {self.corpus_dir} does not exist")
        self._fail = {canonical_fold(k) for k in fail_keywords}
        self._by_keyword: dict[str, list[Document]] = {}
        folded: dict[str, str] = {}  # each distinct keyword is folded once
        try:
            with os.scandir(self.corpus_dir) as entries:
                unread = sorted(e.name for e in entries if e.name.endswith(".json")
                                and not e.is_file())
            if unread:
                raise ConfigError(f"cannot read {self.corpus_dir / unread[0]}: not a regular file")
            for name, data in walk_files(self.corpus_dir, digest):
                if "/" in name or not name.endswith(".json"):
                    continue
                path = os.path.join(self.corpus_dir, name)
                doc = decode(Document, parse_json(data, path, ConfigError),
                             f"bad corpus document {path}", ConfigError, unknown="ignore")
                kept = stored.get(doc.doc_id) if stored else None
                if kept == doc:
                    doc = kept
                if doc.keyword not in folded:
                    folded[doc.keyword] = canonical_fold(doc.keyword)
                self._by_keyword.setdefault(folded[doc.keyword], []).append(doc)
        except OSError as exc:
            raise ConfigError(f"cannot read {exc.filename}: {exc}") from exc

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


@functools.cache
def _text_extractor() -> type:
    """The `HTMLParser` subclass that ``html_to_text`` feeds, made on first
    use so that a run that reads no HTML loads no `html.parser`."""
    from html.parser import HTMLParser

    class TextExtractor(HTMLParser):
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

    return TextExtractor


def html_to_text(html: str) -> str:
    """Reduce HTML to plain text.

    Script/style/noscript content is dropped, block-level tags and headings
    become line breaks, entities are unescaped, and whitespace collapses
    within each line. Blank lines collapse to at most one.
    """
    extractor = _text_extractor()()
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
    not hammer the site. Each GET follows redirects and honors the
    ``*_proxy`` environment variables; ``opener`` stands in for the default
    `urllib.request` opener. The HTTP modules are imported here, not with
    this module, so a run that builds no live source loads none of them.
    """

    def __init__(
        self,
        base_url: str,
        *,
        delay_ms: int = MIN_POLITENESS_DELAY_MS,
        cache_dir: str | Path | None = None,
        timeout_s: float = 30.0,
        opener: urllib.request.OpenerDirector | None = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ):
        import urllib.request

        http_url(base_url)
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
        self._opener = opener or urllib.request.build_opener()
        self._sleep = sleep
        self._clock = clock
        self._last_request = float("-inf")
        self._gate = threading.Lock()

    def _cache_path(self, url: str) -> Path | None:
        if not self.cache_dir:
            return None
        return self.cache_dir / (hashlib.sha256(url.encode("utf-8")).hexdigest() + ".html")

    def _get(self, url: str) -> str:
        """The page at ``url``: from the disk cache, else one GET, cached
        before the gate opens so a thread waiting for the same page reads it
        from the cache instead of sending a second request."""
        import http.client
        import urllib.error

        cached = self._cache_path(url)
        if cached and cached.exists():
            return cached.read_text(encoding="utf-8")
        with self._gate:  # one request at a time, each at least delay_s after the last
            if cached and cached.exists():  # fetched while this thread waited
                return cached.read_text(encoding="utf-8")
            wait = self.delay_s - (self._clock() - self._last_request)
            if wait > 0:
                self._sleep(wait)
            try:
                with self._opener.open(url, timeout=self._timeout_s) as resp:
                    status, data = resp.status, resp.read()
                    charset = resp.headers.get_content_charset()
            except urllib.error.HTTPError as exc:
                exc.close()
                error = TransportError if exc.code >= 500 else FetchError
                raise error(f"GET {url} answered {exc.code}") from None
            except (OSError, http.client.HTTPException) as exc:
                raise TransportError(f"GET {url} failed: {exc}") from exc
            finally:
                self._last_request = self._clock()
            if status != 200:
                raise FetchError(f"GET {url} answered {status}")
            try:  # in the charset the Content-Type names, else UTF-8
                text = data.decode(charset or "utf-8", "replace")
            except LookupError:  # a charset Python does not know
                text = data.decode("utf-8", "replace")
            if cached:
                replace_file(cached, lambda fh, _: fh.write(text.encode("utf-8")))
        return text

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
