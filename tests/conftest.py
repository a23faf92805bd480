from __future__ import annotations

import json
import socket
import threading
from http.server import ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from radar.chunking import Chunk, Document, EmbeddedChunk, Section
from radar.domain import Case, DiagnosisReport

DATA_DIR = Path(__file__).parent / "data"


def unit_chunk(chunk_id: str, vector, doc_id: str = "doc") -> EmbeddedChunk:
    """Hand-built embedded chunk with the vector scaled to unit norm."""
    v = np.asarray(vector, dtype=np.float64)
    v = v / np.linalg.norm(v)
    return EmbeddedChunk(
        chunk=Chunk(chunk_id, doc_id, 0, "xx", (0, 2)),
        vector=v.astype(np.float32),
    )


def make_document(
    doc_id: str,
    keyword: str = "glioma",
    section: Section = Section.ARTICLE,
    body: str = "body text " * 20,
    url: str | None = None,
) -> Document:
    return Document(
        doc_id=doc_id,
        keyword=keyword,
        section=section,
        title=f"{keyword} {doc_id}",
        body=body,
        source_url=url or f"https://example.test/{section.value}/{doc_id}",
    )


def make_report(
    primary: str = "glioblastoma",
    differentials: tuple[str, ...] = ("metastasis", "lymphoma", "abscess", "demyelination"),
    confidences: tuple[float, ...] = (0.6, 0.2, 0.1, 0.06, 0.04),
    trace_id: str = "t",
) -> DiagnosisReport:
    return DiagnosisReport(
        primary=primary,
        differentials=differentials,
        confidences=confidences,
        evidence=(),
        trace_id=trace_id,
    )


def make_case(case_id: str = "c1", truth: str = "glioblastoma") -> Case:
    return Case(
        id=case_id,
        caption="T2 hyperintense infiltrative lesion with central necrosis",
        clinical_data="58-year-old with progressive headache",
        truth_label=truth,
        paraphrase_id=0,
    )


class CountingSource:
    """Wraps a document source and counts external fetch calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def fetch(self, keyword: str):
        self.calls += 1
        return self.inner.fetch(keyword)


class StaticSource:
    """Serves a fixed document list regardless of keyword."""

    def __init__(self, docs):
        self.docs = list(docs)
        self.calls = 0

    def fetch(self, keyword: str):
        self.calls += 1
        return list(self.docs)


class FakeReply:
    """A canned HTTP reply: a status and the raw body ``read`` returns, by
    default ``body`` as JSON (``None``: an empty body)."""

    def __init__(self, body=None, status=200, raw=None):
        self.status = status
        self._raw = raw if raw is not None else b"" if body is None else json.dumps(body).encode()

    def read(self):
        return self._raw


class FakeEndpoint:
    """Stands in for the ``connect`` seam of the HTTP JSON clients: each
    request on a connection it makes records its parsed body and headers in
    ``requests`` and answers the next outcome, a `FakeReply` or an exception
    to raise. Once the outcomes run out, the last one answers again. Each
    connection it made is kept in ``connections``."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.requests = []
        self.connections = []

    @property
    def connects(self):
        return len(self.connections)

    def __call__(self):
        self.connections.append(_FakeConnection(self))
        return self.connections[-1]


class _FakeConnection:
    sock = None  # never readable while idle

    def __init__(self, endpoint):
        self._endpoint = endpoint
        self.closed = False

    def request(self, method, path, body=None, headers=None):
        self._endpoint.requests.append({"path": path, "json": json.loads(body), "headers": headers})

    def getresponse(self):
        outcomes = self._endpoint.outcomes
        outcome = outcomes.pop(0) if len(outcomes) > 1 else outcomes[0]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def close(self):
        self.closed = True


class LoopbackServer(ThreadingHTTPServer):
    """A threading HTTP server on 127.0.0.1 that keeps every connection it
    accepts in ``accepted``; ``url`` is its base URL."""

    daemon_threads = True

    def __init__(self, handler):
        super().__init__(("127.0.0.1", 0), handler)
        self.url = f"http://127.0.0.1:{self.server_address[1]}"
        self.accepted = []

    def get_request(self):
        conn, address = super().get_request()
        self.accepted.append(conn)
        return conn, address


@pytest.fixture
def loopback():
    """Starts a `LoopbackServer` for a request handler class; each one is
    stopped, and its connections shut, when the test ends."""
    servers = []

    def start(handler):
        server = LoopbackServer(handler)
        threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True).start()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.shutdown()
        for conn in server.accepted:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:  # already closed
                pass
        server.server_close()


@pytest.fixture
def corpus_dir(tmp_path: Path) -> Path:
    """A tiny two-keyword corpus honoring the 5-article/5-case split."""
    directory = tmp_path / "corpus"
    directory.mkdir()
    for keyword, stem in (("glioblastoma", "gbm"), ("tuberous sclerosis", "tsc")):
        for section in (Section.ARTICLE, Section.CASE):
            for i in range(5):
                doc_id = f"{stem}-{section.value}-{i}"
                payload = {
                    "doc_id": doc_id,
                    "keyword": keyword,
                    "section": section.value,
                    "title": f"{keyword} {section.value} {i}",
                    "body": f"{keyword} reference text {i}. " * 30,
                    "source_url": f"https://example.test/{section.value}s/{doc_id}",
                }
                (directory / f"{doc_id}.json").write_text(json.dumps(payload), encoding="utf-8")
    return directory


@pytest.fixture
def fixture_data_dir() -> Path:
    return DATA_DIR


def make_edge_tree(root: Path) -> Path:
    """A corpus-like tree whose files test a tree walk: ``root/tree`` holds a
    nested directory whose string order and path-part order disagree
    (``a/b.json`` beside ``a-b.json``), a non-JSON file, hidden files, a
    symlink to a file, a symlinked directory and a dangling symlink."""
    outside = root / "outside"
    (outside / "sub").mkdir(parents=True)
    (outside / "target.json").write_text('{"linked": "file"}', encoding="utf-8")
    (outside / "sub" / "inside.json").write_text('{"linked": "directory"}', encoding="utf-8")
    tree = root / "tree"
    (tree / "a" / "c").mkdir(parents=True)
    (tree / ".hidden-dir").mkdir()
    files = {
        "a/b.json": b'{"nested": 1}',
        "a/c/deep.txt": b"deep",
        "a-b.json": b'{"dashed": 1}',
        "a.json": b'{"plain": 1}',
        "B.json": b'{"upper": 1}',
        "notes.txt": b"not json \xff",
        ".hidden.json": b'{"hidden": 1}',
        ".hidden-dir/x.json": b"{}",
    }
    for name, data in files.items():
        (tree / name).write_bytes(data)
    (tree / "linked-file.json").symlink_to(outside / "target.json")
    (tree / "linked-dir").symlink_to(outside / "sub", target_is_directory=True)
    (tree / "dangling.json").symlink_to(root / "absent.json")
    return tree
