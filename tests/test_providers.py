from __future__ import annotations

import hashlib
import json
import random
import socket
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from http.server import BaseHTTPRequestHandler

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radar import providers
from radar.errors import (
    ConfigError,
    ProviderError,
    ScriptExhaustedError,
    ScriptKeyError,
    ShapeError,
    TransportError,
    ValidationError,
)
from radar.providers import (
    MAX_CONCURRENT_CALLS,
    ChatMessage,
    ChatRequest,
    HashingEmbedder,
    HttpChatProvider,
    HttpEmbedder,
    ScriptedChatProvider,
    embed_text,
    request_fingerprint,
    scripted_provider_from_file,
    user_request,
    with_retries,
)

from conftest import FakeEndpoint, FakeReply


def req(text: str = "hello") -> ChatRequest:
    return user_request(text)


class TestChatRequest:
    def test_needs_a_message(self):
        with pytest.raises(ValidationError):
            ChatRequest(messages=())

    def test_role_whitelist(self):
        with pytest.raises(ValidationError):
            ChatMessage("narrator", "x")

    @pytest.mark.parametrize("kwargs", [
        {"temperature": -0.1},
        {"temperature": float("nan")},
        {"temperature": float("inf")},
        {"top_p": 0.0},
        {"top_p": 1.5},
        {"max_tokens": 0},
    ])
    def test_sampling_bounds(self, kwargs):
        with pytest.raises(ValidationError):
            ChatRequest(messages=(ChatMessage("user", "x"),), **kwargs)


class TestScriptedProvider:
    def test_single_entry_replay(self):
        provider = ScriptedChatProvider(["A"])
        assert provider.complete(req()).content == "A"

    def test_ordered_replay(self):
        provider = ScriptedChatProvider(["A", "B"])
        assert provider.complete(req("one")).content == "A"
        assert provider.complete(req("two")).content == "B"

    def test_exhaustion(self):
        provider = ScriptedChatProvider(["A", "B"])
        provider.complete(req())
        provider.complete(req())
        with pytest.raises(ScriptExhaustedError):
            provider.complete(req())

    @pytest.mark.parametrize("prompt", ["the question", "the question \ud800?"],
                             ids=["plain", "lone-surrogate"])
    def test_keyed_match(self, prompt):
        fingerprint = request_fingerprint(req(prompt))
        provider = ScriptedChatProvider(keyed={fingerprint: "X"})
        assert provider.complete(req(prompt)).content == "X"
        # keyed entries replay indefinitely: same request, same response
        assert provider.complete(req(prompt)).content == "X"

    def test_keyed_miss(self):
        provider = ScriptedChatProvider(keyed={"deadbeef00000000": "X"})
        with pytest.raises(ScriptKeyError):
            provider.complete(req("unknown"))

    def test_from_file_ordered(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps([{"content": "A"}, {"content": "B"}, {"content": "C"}]))
        provider = scripted_provider_from_file(path)
        for expected in ("A", "B", "C"):
            assert provider.complete(req()).content == expected
        with pytest.raises(ScriptExhaustedError):
            provider.complete(req())

    def test_from_file_keyed(self, tmp_path):
        fingerprint = request_fingerprint(req("q"))
        path = tmp_path / "script.json"
        path.write_text(json.dumps([{"fingerprint": fingerprint, "content": "X"}]))
        provider = scripted_provider_from_file(path)
        assert provider.complete(req("q")).content == "X"
        with pytest.raises(ScriptKeyError):
            provider.complete(req("other"))

    def test_from_file_parse_failure(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text("not json")
        with pytest.raises(ConfigError):
            scripted_provider_from_file(path)

    def test_from_file_bad_entry(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps([{"reply": "A"}]))
        with pytest.raises(ConfigError):
            scripted_provider_from_file(path)

    @pytest.mark.parametrize("fingerprint", [5, None, ["f"]])
    def test_from_file_fingerprint_must_be_a_string(self, tmp_path, fingerprint):
        path = tmp_path / "script.json"
        path.write_text(json.dumps([{"fingerprint": fingerprint, "content": "X"}]))
        with pytest.raises(ConfigError, match="entry 0: key 'fingerprint' must be a string"):
            scripted_provider_from_file(path)


def independent_buckets(text: str, dim: int = 384) -> list[tuple[int, float]]:
    """The published hashing scheme, recomputed without the embedder."""
    padded = f"##{text.lower()}##"
    out = []
    for i in range(len(padded) - 2):
        digest = hashlib.blake2b(padded[i : i + 3].encode("utf-8"), digest_size=8).digest()
        out.append(
            (int.from_bytes(digest[:4], "little") % dim, 1.0 if digest[4] & 1 else -1.0)
        )
    return out


def spec_vector(text: str, dim: int) -> np.ndarray:
    """The published embedding, accumulated from the independent bucket oracle."""
    buckets = independent_buckets(text, dim)
    acc = np.zeros(dim)
    for bucket, sign in buckets:
        acc[bucket] += sign
    if not acc.any():  # total sign cancellation: unsigned counts instead
        for bucket, _ in buckets:
            acc[bucket] += 1.0
    return (acc / np.linalg.norm(acc)).astype(np.float32)


# At dim 2 the signed 3-gram terms of "aaaa" cancel in both buckets, so the
# unsigned fallback decides its vector; "aaa" occurs twice, so the fallback
# must count occurrences, not distinct 3-grams.
FALLBACK_TEXT, FALLBACK_DIM = "aaaa", 2


_race_rng = random.Random(4)
RACE_TEXTS = ["".join(_race_rng.choice("abcdefgh .İ\U0001F600") for _ in range(120))
              for _ in range(40)]


def embed_from_six_threads(embedder: HashingEmbedder, texts: list[str]) -> list[str]:
    """Six threads embed every text, each from its own offset, with a short
    switch interval; returns the texts whose vector differed from the spec."""
    expected = [spec_vector(t, embedder.dim) for t in texts]
    mismatches: list[str] = []

    def worker(offset):
        for i in range(len(texts)):
            j = (i + offset) % len(texts)
            if not np.array_equal(embedder.embed(texts[j]), expected[j]):
                mismatches.append(texts[j])

    threads = [threading.Thread(target=worker, args=(w,)) for w in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return mismatches


# One embedder per dim for the whole test run, so later examples meet a memo
# that earlier ones filled: their 3-grams mix hits and misses.
SHARED_EMBEDDERS = {dim: HashingEmbedder(dim=dim) for dim in (1, 2, 384)}


class TestHashingEmbedder:
    def test_fallback_text_cancels_to_zero(self):
        signed = np.zeros(FALLBACK_DIM)
        for bucket, sign in independent_buckets(FALLBACK_TEXT, dim=FALLBACK_DIM):
            signed[bucket] += sign
        assert not signed.any()
        assert np.array_equal(
            HashingEmbedder(dim=FALLBACK_DIM).embed(FALLBACK_TEXT),
            spec_vector(FALLBACK_TEXT, FALLBACK_DIM),
        )

    @settings(max_examples=200, deadline=None)
    @given(text=st.text(min_size=1, max_size=80), dim=st.sampled_from([1, 384]))
    @example(text="İ", dim=384)  # lowercases to two code points
    @example(text="İstanbul İZMİR", dim=1)
    @example(text="x\U0001F600y\U00010348", dim=384)  # outside the BMP
    @example(text="\U0010FFFF\U0010FFFF\U0010FFFF", dim=384)  # highest code point
    @example(text=FALLBACK_TEXT, dim=FALLBACK_DIM)
    def test_bit_identical_to_spec(self, text, dim):
        assert np.array_equal(HashingEmbedder(dim=dim).embed(text), spec_vector(text, dim))

    def test_deterministic(self):
        embedder = HashingEmbedder()
        assert np.array_equal(embed_text(embedder, "abc"), embed_text(embedder, "abc"))

    def test_close_strings_differ(self):
        # the 3-gram buckets of "abc" and "abd" disagree, so the vectors must
        buckets_abc = {b for b, _ in independent_buckets("abc")}
        buckets_abd = {b for b, _ in independent_buckets("abd")}
        assert buckets_abc != buckets_abd
        embedder = HashingEmbedder()
        va, vb = embed_text(embedder, "abc"), embed_text(embedder, "abd")
        assert np.any(va != vb)

    def test_matches_independent_bucket_oracle(self):
        embedder = HashingEmbedder(dim=64)
        acc = np.zeros(64)
        for bucket, sign in independent_buckets("ring enhancement", dim=64):
            acc[bucket] += sign
        expected = acc / np.linalg.norm(acc)
        assert np.allclose(embed_text(embedder, "ring enhancement"), expected, atol=1e-6)

    def test_empty_text_rejected(self):
        with pytest.raises(ValidationError):
            embed_text(HashingEmbedder(), "")

    def test_unit_norm_and_dim(self):
        vec = embed_text(HashingEmbedder(), "some text")
        assert vec.shape == (384,)
        assert abs(float(np.linalg.norm(vec)) - 1.0) < 1e-6

    def test_threads_sharing_the_memo_match_the_spec(self, monkeypatch):
        embedder = HashingEmbedder(dim=64)
        assert embed_from_six_threads(embedder, RACE_TEXTS) == []

        def hash_again(grams):
            raise AssertionError(f"{grams.size} 3-grams were lost from the memo")

        monkeypatch.setattr(providers, "_gram_digest_bits", hash_again)
        for text in RACE_TEXTS:
            embedder.embed(text)

    def test_threads_racing_memo_restarts_match_the_spec(self, monkeypatch):
        # Every miss now starts the memo over while other threads read it.
        monkeypatch.setattr(providers, "GRAM_MEMO_SIZE", 8)
        assert embed_from_six_threads(HashingEmbedder(dim=64), RACE_TEXTS) == []

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(alphabet="ab İ\U0001F600", min_size=1, max_size=80)
           | st.text(min_size=1, max_size=80),
           dim=st.sampled_from(sorted(SHARED_EMBEDDERS)))
    @example(text=FALLBACK_TEXT, dim=FALLBACK_DIM)
    def test_a_shared_memo_matches_the_spec(self, text, dim):
        assert np.array_equal(SHARED_EMBEDDERS[dim].embed(text), spec_vector(text, dim))

    def test_the_memo_starts_over_instead_of_passing_its_size(self, monkeypatch):
        monkeypatch.setattr(providers, "GRAM_MEMO_SIZE", 40)
        rng = random.Random(5)
        embedder, sizes = HashingEmbedder(dim=16), []
        for _ in range(30):
            text = "".join(rng.choice("abcdef ") for _ in range(rng.randint(1, 60)))
            assert np.array_equal(embedder.embed(text), spec_vector(text, 16))
            keys, bits = embedder._memo
            assert keys.size == bits.size <= 40
            sizes.append(keys.size)
        assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))

    def test_a_text_partly_in_the_memo_matches_the_spec(self):
        embedder = HashingEmbedder(dim=64)
        first, second = "ring enhancing lesion", "ring enhancement with necrosis"
        assert np.array_equal(embedder.embed(first), spec_vector(first, 64))
        held = embedder._memo[0].size
        assert np.array_equal(embedder.embed(second), spec_vector(second, 64))
        padded = f"##{second}##"
        grams = {padded[i : i + 3] for i in range(len(padded) - 2)}
        assert 0 < embedder._memo[0].size - held < len(grams)  # some hits, some misses
        assert np.array_equal(embedder.embed(first), spec_vector(first, 64))

    def test_the_merged_memo_equals_one_built_by_insertion(self, monkeypatch):
        """After each text the memo holds exactly the keys and bits that
        inserting each text's misses at their sorted places gives."""
        misses = []
        real_bits = providers._gram_digest_bits
        monkeypatch.setattr(providers, "_gram_digest_bits",
                            lambda grams: misses.append(grams) or real_bits(grams))
        keys, bits = providers._MEMO_START
        embedder = HashingEmbedder(dim=64)
        for text in RACE_TEXTS + ["ring enhancement", "ring enhancing lesion", "\U0010FFFF"]:
            embedder.embed(text)
            for grams in misses:
                at = np.searchsorted(keys, grams)
                keys = np.insert(keys, at, grams)
                bits = np.insert(bits, at, real_bits(grams))
            misses.clear()
            assert [(a.dtype, a.tolist()) for a in embedder._memo] == [
                (a.dtype, a.tolist()) for a in (keys, bits)]

    def test_a_lone_surrogate_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="lone surrogate"):
            HashingEmbedder(dim=64).embed("question \ud800 about the lesion?")

    @settings(max_examples=50, deadline=None)
    @given(st.text(min_size=1, max_size=60))
    def test_pure_function(self, text):
        embedder = HashingEmbedder(dim=32)
        first = embedder.embed(text)
        second = embedder.embed(text)
        assert first.shape == (32,)
        assert np.array_equal(first, second)
        assert abs(float(np.linalg.norm(first)) - 1.0) < 1e-6


class TestWithRetries:
    """The one transport retry policy every outside call goes through."""

    def _flaky(self, outcomes):
        calls = []

        def call():
            calls.append(None)
            outcome = outcomes[len(calls) - 1]
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        return call, calls

    def test_transport_failures_back_off_then_succeed(self):
        call, calls = self._flaky([TransportError("a"), TransportError("b"), "ok"])
        waits = []
        assert with_retries(call, sleep=waits.append) == "ok"
        assert len(calls) == 3
        assert waits == [1.0, 2.0]

    def test_exhaustion_raises_the_last_failure(self):
        last = TransportError("third")
        call, calls = self._flaky([TransportError("first"), TransportError("second"), last])
        with pytest.raises(TransportError) as raised:
            with_retries(call, sleep=lambda _: None)
        assert raised.value is last
        assert len(calls) == 3

    def test_other_errors_are_not_retried(self):
        call, calls = self._flaky([ProviderError("bad reply"), "unreached"])
        waits = []
        with pytest.raises(ProviderError):
            with_retries(call, sleep=waits.append)
        assert len(calls) == 1
        assert waits == []


class TestHttpChatProvider:
    def _provider(self, outcomes):
        endpoint = FakeEndpoint(outcomes)
        provider = HttpChatProvider(
            "https://backend.test/chat",
            api_key="token",
            connect=endpoint,
            sleep=lambda _: None,
        )
        return provider, endpoint

    def test_success_passes_auth_and_payload(self):
        provider, endpoint = self._provider(
            [FakeReply(body={"content": "hi", "usage": {"prompt_tokens": 3, "completion_tokens": 1}})]
        )
        response = provider.complete(req("ping"))
        assert response.content == "hi"
        assert response.prompt_tokens == 3
        sent = endpoint.requests[0]
        assert sent["headers"]["Authorization"] == "Bearer token"
        assert sent["json"]["messages"] == [{"role": "user", "content": "ping"}]

    def test_retries_transport_then_succeeds(self):
        provider, endpoint = self._provider(
            [
                ConnectionRefusedError("down"),
                FakeReply(status=503),
                FakeReply(body={"content": "ok"}),
            ]
        )
        assert provider.complete(req()).content == "ok"
        assert len(endpoint.requests) == 3

    def test_transport_exhaustion_is_typed_not_fabricated(self):
        provider, _ = self._provider([ConnectionRefusedError("down")] * 3)
        with pytest.raises(TransportError):
            provider.complete(req())

    def test_client_error_not_retried(self):
        provider, endpoint = self._provider([FakeReply(status=400, raw=b"bad")])
        with pytest.raises(ProviderError):
            provider.complete(req())
        assert len(endpoint.requests) == 1

    def test_unparseable_payload(self):
        provider, _ = self._provider([FakeReply(body=None)])
        with pytest.raises(ProviderError):
            provider.complete(req())

    def test_a_payload_nested_too_deep_is_a_provider_error(self):
        provider, endpoint = self._provider([FakeReply(raw=b"[" * 100_000)])
        with pytest.raises(ProviderError, match="non-JSON"):
            provider.complete(req())
        assert len(endpoint.requests) == 1

    def test_missing_content_field(self):
        provider, _ = self._provider([FakeReply(body={"message": "hi"})])
        with pytest.raises(ProviderError):
            provider.complete(req())

    @pytest.mark.parametrize("body", [[1, 2], "ok", 7], ids=["array", "string", "number"])
    def test_non_object_payload(self, body):
        provider, endpoint = self._provider([FakeReply(body=body)])
        with pytest.raises(ProviderError):
            provider.complete(req())
        assert len(endpoint.requests) == 1

    @pytest.mark.parametrize(
        "usage",
        [[1], {"prompt_tokens": "abc"}, {"prompt_tokens": None}, {"completion_tokens": 1.5},
         {"prompt_tokens": -1}, {"completion_tokens": True}, "many", [], 0, False, ""],
        ids=["array", "string-count", "null-count", "float-count", "negative", "bool", "string",
             "empty-array", "zero", "false", "empty-string"],
    )
    def test_malformed_usage_is_a_provider_error(self, usage):
        provider, _ = self._provider([FakeReply(body={"content": "hi", "usage": usage})])
        with pytest.raises(ProviderError):
            provider.complete(req())

    @pytest.mark.parametrize(
        "usage, tokens", [(None, (0, 0)), ({}, (0, 0)), ({"prompt_tokens": 5}, (5, 0))]
    )
    def test_absent_token_counts_are_zero(self, usage, tokens):
        provider, _ = self._provider([FakeReply(body={"content": "hi", "usage": usage})])
        response = provider.complete(req())
        assert (response.prompt_tokens, response.completion_tokens) == tokens

    def test_wire_payload(self):
        endpoint = FakeEndpoint([FakeReply(body={"content": "hi"})])
        provider = HttpChatProvider("https://backend.test/chat", model="m1", connect=endpoint)
        assert provider.provider_id == "http:m1"
        provider.complete(req("ping"))
        sent = endpoint.requests[0]
        assert json.dumps(sent["json"]) == json.dumps({
            "messages": [{"role": "user", "content": "ping"}],
            "temperature": 0.5,
            "top_p": 1.0,
            "max_tokens": 1024,
            "model": "m1",
        })
        assert sent["headers"] == {"Content-Type": "application/json"}


class TestHttpEmbedder:
    def _embedder(self, outcomes, dim=4):
        endpoint = FakeEndpoint(outcomes)
        embedder = HttpEmbedder(
            "https://backend.test/embed",
            dim=dim,
            api_key="token",
            connect=endpoint,
            sleep=lambda _: None,
        )
        return embedder, endpoint

    def test_success(self):
        embedder, endpoint = self._embedder([FakeReply(body={"embedding": [1.0, 0.0, 0.0, 0.0]})])
        vec = embed_text(embedder, "lesion")
        assert vec.shape == (4,)
        assert endpoint.requests[0]["json"] == {"text": "lesion"}

    def test_wrong_dimension(self):
        embedder, _ = self._embedder([FakeReply(body={"embedding": [1.0, 0.0]})])
        with pytest.raises(ShapeError):
            embed_text(embedder, "lesion")

    def test_missing_embedding_field(self):
        embedder, _ = self._embedder([FakeReply(body={"vector": [1.0]})])
        with pytest.raises(ProviderError):
            embed_text(embedder, "lesion")

    @pytest.mark.parametrize(
        "embedding",
        [["a", "b", "c", "d"], ["1.0", 0.0, 0.0, 0.0], [None, 0.0, 0.0, 0.0],
         [True, 0.0, 0.0, 0.0], [[1.0], 0.0, 0.0, 0.0], {"0": 1.0}],
        ids=["letters", "numeric-string", "null", "bool", "nested", "object"],
    )
    def test_non_numeric_embedding_is_a_provider_error(self, embedding):
        embedder, _ = self._embedder([FakeReply(body={"embedding": embedding})])
        with pytest.raises(ProviderError):
            embed_text(embedder, "lesion")

    @pytest.mark.parametrize("component", [10**400, 1e39, -1e39, float("nan"), float("inf")],
                             ids=["huge-int", "big", "-big", "nan", "inf"])
    def test_a_component_outside_float32_is_a_provider_error(self, component):
        embedder, _ = self._embedder([FakeReply(body={"embedding": [component, 0, 0, 0]})])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ProviderError, match="float32"):
                embedder.embed("lesion")

    def test_integer_components_accepted(self):
        embedder, _ = self._embedder([FakeReply(body={"embedding": [0, 1, 0, 0]})])
        assert embed_text(embedder, "lesion").tolist() == [0.0, 1.0, 0.0, 0.0]

    def test_wire_payload_forwards_model_last(self):
        endpoint = FakeEndpoint([FakeReply(body={"embedding": [1.0, 0.0, 0.0, 0.0]})])
        HttpEmbedder("https://backend.test/embed", dim=4, model="e1", connect=endpoint).embed("x")
        assert json.dumps(endpoint.requests[0]["json"]) == '{"text": "x", "model": "e1"}'

    def test_retries_transport(self):
        embedder, endpoint = self._embedder(
            [ConnectionRefusedError("down"), FakeReply(body={"embedding": [0.0, 1.0, 0.0, 0.0]})]
        )
        vec = embed_text(embedder, "lesion")
        assert vec[1] == 1.0
        assert len(endpoint.requests) == 2

    def test_empty_text_rejected(self):
        embedder, _ = self._embedder([])
        with pytest.raises(ValidationError):
            embed_text(embedder, "")


class TestHttpConnectionPool:
    """Concurrent agent calls share one endpoint; its stack must keep a
    connection for each of them."""

    @pytest.mark.parametrize("backend", [HttpChatProvider, HttpEmbedder])
    @pytest.mark.parametrize("scheme", ["http", "https"])
    def test_own_stack_keeps_a_connection_per_concurrent_call(self, backend, scheme):
        client = backend(f"{scheme}://backend.test/v1")
        assert client._idle.maxsize == MAX_CONCURRENT_CALLS

    @pytest.mark.parametrize("backend", [HttpChatProvider, HttpEmbedder])
    def test_given_connect_used_as_is(self, backend):
        endpoint = FakeEndpoint([])
        assert backend("http://backend.test/v1", connect=endpoint)._connect is endpoint

    def test_close_closes_every_idle_connection(self):
        endpoint = FakeEndpoint([FakeReply(body={"content": "hi"})])
        provider = HttpChatProvider("http://backend.test/v1", connect=endpoint)
        provider.complete(req())
        provider.complete(req())
        assert endpoint.connects == 1
        provider.close()
        assert [conn.closed for conn in endpoint.connections] == [True]
        provider.complete(req())  # a call after close opens a new connection
        assert endpoint.connects == 2


def _chat_handler(posts, *, before_reply=lambda: None, after_reply=None):
    """A handler answering every POST with ``{"content": "hi"}``; it records
    each ``(path, body, headers)`` in ``posts``, calls ``before_reply`` first and,
    if given, ``after_reply(connection)`` once the reply is sent."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_POST(self):
            body = self.rfile.read(int(self.headers["Content-Length"]))
            posts.append((self.path, body, self.headers))
            before_reply()
            data = b'{"content": "hi"}'
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
            if after_reply:
                after_reply(self.connection)
                self.close_connection = True

        def log_message(self, format, *args):
            pass

    return Handler


class TestLoopbackTransport:
    """The JSON clients against a real HTTP server on 127.0.0.1."""

    @pytest.mark.parametrize("calls", [8, MAX_CONCURRENT_CALLS])
    def test_a_second_round_of_concurrent_calls_opens_no_connection(self, loopback, calls):
        posts, barrier = [], threading.Barrier(calls)
        server = loopback(_chat_handler(posts, before_reply=lambda: barrier.wait(timeout=10)))
        with closing(HttpChatProvider(server.url + "/chat", sleep=lambda _: None)) as provider:
            for _ in range(2):  # the barrier holds every reply until all calls are in
                with ThreadPoolExecutor(calls) as pool:
                    replies = list(pool.map(lambda _: provider.complete(req()).content,
                                            range(calls)))
                assert replies == ["hi"] * calls
                assert len(server.accepted) == calls
        assert len(posts) == 2 * calls

    def test_a_connection_the_server_closed_while_idle_costs_no_retry(self, loopback):
        posts, closed = [], threading.Event()

        def close(connection):
            connection.shutdown(socket.SHUT_RDWR)
            closed.set()

        server = loopback(_chat_handler(posts, after_reply=close))
        waits = []
        with closing(HttpChatProvider(server.url + "/chat", sleep=waits.append)) as provider:
            assert provider.complete(req()).content == "hi"
            assert closed.wait(timeout=10)
            assert provider.complete(req()).content == "hi"
        assert len(posts) == 2  # one POST per call
        assert waits == []
        assert len(server.accepted) == 2

    def test_wire_bytes_and_headers(self, loopback):
        posts = []
        server = loopback(_chat_handler(posts))
        with closing(HttpChatProvider(server.url + "/v1/chat?tier=a", api_key="token",
                                      model="m1")) as provider:
            provider.complete(req("naïve café – 胶质瘤"))
        payload = {
            "messages": [{"role": "user", "content": "naïve café – 胶质瘤"}],
            "temperature": 0.5,
            "top_p": 1.0,
            "max_tokens": 1024,
            "model": "m1",
        }
        (path, body, headers), = posts
        assert path == "/v1/chat?tier=a"
        assert body == json.dumps(payload, allow_nan=False).encode("utf-8")
        assert headers["Content-Type"] == "application/json"
        assert headers["Authorization"] == "Bearer token"

    def test_a_refused_connection_is_a_transport_error_after_retries(self):
        waits = []
        with socket.socket() as unheard:  # bound, never listening: connections are refused
            unheard.bind(("127.0.0.1", 0))
            provider = HttpChatProvider(f"http://127.0.0.1:{unheard.getsockname()[1]}/chat",
                                        sleep=waits.append)
            with pytest.raises(TransportError, match="failed"):
                provider.complete(req())
        assert waits == [1.0, 2.0]
