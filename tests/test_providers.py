from __future__ import annotations

import hashlib
import json
import random
import sys
import threading

import numpy as np
import pytest
import requests
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

    def test_keyed_match(self):
        fingerprint = request_fingerprint(req("the question"))
        provider = ScriptedChatProvider(keyed={fingerprint: "X"})
        assert provider.complete(req("the question")).content == "X"
        # keyed entries replay indefinitely: same request, same response
        assert provider.complete(req("the question")).content == "X"

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

    def test_threads_sharing_the_memo_match_the_spec(self):
        rng = random.Random(4)
        texts = ["".join(rng.choice("abcdefgh .İ\U0001F600") for _ in range(120)) for _ in range(40)]
        expected = [spec_vector(t, 64) for t in texts]
        embedder = HashingEmbedder(dim=64)
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
        assert mismatches == []

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


class _FakeResponse:
    def __init__(self, status_code=200, body=None, text=""):
        self.status_code = status_code
        self._body = body
        self.text = text

    def json(self):
        if self._body is None:
            raise ValueError("no json")
        return self._body


class _FakeSession:
    """Plays back a queue of responses/exceptions for post()."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


class TestHttpChatProvider:
    def _provider(self, outcomes):
        session = _FakeSession(outcomes)
        provider = HttpChatProvider(
            "https://backend.test/chat",
            api_key="token",
            session=session,
            sleep=lambda _: None,
        )
        return provider, session

    def test_success_passes_auth_and_payload(self):
        provider, session = self._provider(
            [_FakeResponse(body={"content": "hi", "usage": {"prompt_tokens": 3, "completion_tokens": 1}})]
        )
        response = provider.complete(req("ping"))
        assert response.content == "hi"
        assert response.prompt_tokens == 3
        sent = session.requests[0]
        assert sent["headers"]["Authorization"] == "Bearer token"
        assert sent["json"]["messages"] == [{"role": "user", "content": "ping"}]

    def test_retries_transport_then_succeeds(self):
        provider, session = self._provider(
            [
                requests.ConnectionError("down"),
                _FakeResponse(status_code=503),
                _FakeResponse(body={"content": "ok"}),
            ]
        )
        assert provider.complete(req()).content == "ok"
        assert len(session.requests) == 3

    def test_transport_exhaustion_is_typed_not_fabricated(self):
        provider, _ = self._provider([requests.ConnectionError("down")] * 3)
        with pytest.raises(TransportError):
            provider.complete(req())

    def test_client_error_not_retried(self):
        provider, session = self._provider([_FakeResponse(status_code=400, text="bad")])
        with pytest.raises(ProviderError):
            provider.complete(req())
        assert len(session.requests) == 1

    def test_unparseable_payload(self):
        provider, _ = self._provider([_FakeResponse(body=None)])
        with pytest.raises(ProviderError):
            provider.complete(req())

    def test_missing_content_field(self):
        provider, _ = self._provider([_FakeResponse(body={"message": "hi"})])
        with pytest.raises(ProviderError):
            provider.complete(req())

    @pytest.mark.parametrize("body", [[1, 2], "ok", 7], ids=["array", "string", "number"])
    def test_non_object_payload(self, body):
        provider, session = self._provider([_FakeResponse(body=body)])
        with pytest.raises(ProviderError):
            provider.complete(req())
        assert len(session.requests) == 1

    @pytest.mark.parametrize(
        "usage",
        [[1], {"prompt_tokens": "abc"}, {"prompt_tokens": None}, {"completion_tokens": 1.5},
         {"prompt_tokens": -1}, {"completion_tokens": True}, "many"],
        ids=["array", "string-count", "null-count", "float-count", "negative", "bool", "string"],
    )
    def test_malformed_usage_is_a_provider_error(self, usage):
        provider, _ = self._provider([_FakeResponse(body={"content": "hi", "usage": usage})])
        with pytest.raises(ProviderError):
            provider.complete(req())

    @pytest.mark.parametrize(
        "usage, tokens", [(None, (0, 0)), ({}, (0, 0)), ({"prompt_tokens": 5}, (5, 0))]
    )
    def test_absent_token_counts_are_zero(self, usage, tokens):
        provider, _ = self._provider([_FakeResponse(body={"content": "hi", "usage": usage})])
        response = provider.complete(req())
        assert (response.prompt_tokens, response.completion_tokens) == tokens

    def test_wire_payload(self):
        session = _FakeSession([_FakeResponse(body={"content": "hi"})])
        provider = HttpChatProvider("https://backend.test/chat", model="m1", session=session)
        assert provider.provider_id == "http:m1"
        provider.complete(req("ping"))
        sent = session.requests[0]
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
        from radar.providers import HttpEmbedder

        session = _FakeSession(outcomes)
        embedder = HttpEmbedder(
            "https://backend.test/embed",
            dim=dim,
            api_key="token",
            session=session,
            sleep=lambda _: None,
        )
        return embedder, session

    def test_success(self):
        embedder, session = self._embedder([_FakeResponse(body={"embedding": [1.0, 0.0, 0.0, 0.0]})])
        vec = embed_text(embedder, "lesion")
        assert vec.shape == (4,)
        assert session.requests[0]["json"] == {"text": "lesion"}

    def test_wrong_dimension(self):
        embedder, _ = self._embedder([_FakeResponse(body={"embedding": [1.0, 0.0]})])
        with pytest.raises(ShapeError):
            embed_text(embedder, "lesion")

    def test_missing_embedding_field(self):
        embedder, _ = self._embedder([_FakeResponse(body={"vector": [1.0]})])
        with pytest.raises(ProviderError):
            embed_text(embedder, "lesion")

    @pytest.mark.parametrize(
        "embedding",
        [["a", "b", "c", "d"], ["1.0", 0.0, 0.0, 0.0], [None, 0.0, 0.0, 0.0],
         [True, 0.0, 0.0, 0.0], [[1.0], 0.0, 0.0, 0.0], {"0": 1.0}],
        ids=["letters", "numeric-string", "null", "bool", "nested", "object"],
    )
    def test_non_numeric_embedding_is_a_provider_error(self, embedding):
        embedder, _ = self._embedder([_FakeResponse(body={"embedding": embedding})])
        with pytest.raises(ProviderError):
            embed_text(embedder, "lesion")

    def test_integer_components_accepted(self):
        embedder, _ = self._embedder([_FakeResponse(body={"embedding": [0, 1, 0, 0]})])
        assert embed_text(embedder, "lesion").tolist() == [0.0, 1.0, 0.0, 0.0]

    def test_wire_payload_forwards_model_last(self):
        session = _FakeSession([_FakeResponse(body={"embedding": [1.0, 0.0, 0.0, 0.0]})])
        HttpEmbedder("https://backend.test/embed", dim=4, model="e1", session=session).embed("x")
        assert json.dumps(session.requests[0]["json"]) == '{"text": "x", "model": "e1"}'

    def test_retries_transport(self):
        embedder, session = self._embedder(
            [requests.ConnectionError("down"), _FakeResponse(body={"embedding": [0.0, 1.0, 0.0, 0.0]})]
        )
        vec = embed_text(embedder, "lesion")
        assert vec[1] == 1.0
        assert len(session.requests) == 2

    def test_empty_text_rejected(self):
        embedder, _ = self._embedder([])
        with pytest.raises(ValidationError):
            embed_text(embedder, "")


class TestHttpConnectionPool:
    """Concurrent agent calls share one session; its pool must hold them all."""

    @pytest.mark.parametrize("backend", [HttpChatProvider, HttpEmbedder])
    def test_own_session_pools_a_connection_per_concurrent_call(self, backend):
        client = backend("http://backend.test/v1")
        for url in ("http://backend.test/v1", "https://backend.test/v1"):
            adapter = client._session.get_adapter(url)
            assert adapter.poolmanager.connection_pool_kw["maxsize"] == MAX_CONCURRENT_CALLS
        assert MAX_CONCURRENT_CALLS > requests.adapters.DEFAULT_POOLSIZE

    @pytest.mark.parametrize("backend", [HttpChatProvider, HttpEmbedder])
    def test_given_session_used_as_is(self, backend):
        session = _FakeSession([])
        assert backend("http://backend.test/v1", session=session)._session is session
