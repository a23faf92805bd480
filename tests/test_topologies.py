from __future__ import annotations

import json
import re
import sys
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from radar import topologies
from radar.agents import PACKAGED_TEMPLATES
from radar.domain import NO_EVIDENCE_ANSWER
from radar.errors import ConfigError, ProviderError
from radar.index import FlatIndex
from radar.knowledge import FixtureSource, KnowledgeBase
from radar.providers import ChatResponse, HashingEmbedder, HttpEmbedder, ScriptedChatProvider
from radar.topologies import (
    ProviderBundle,
    Topology,
    TopologyRunError,
    borda_aggregate,
    run_challenger,
    run_collaborative,
    run_radar,
    run_single,
)

from conftest import FakeEndpoint, FakeReply, make_case, make_document, make_report, unit_chunk

TEN = [f"diagnosis {i}" for i in range(10)]


def report_json(primary="glioblastoma", differentials=None, confidences=None):
    return json.dumps(
        {
            "primary": primary,
            "differentials": differentials or ["metastasis", "lymphoma", "abscess", "demyelination"],
            "confidences": confidences or [0.6, 0.2, 0.1, 0.06, 0.04],
        }
    )


def ranked_json(labels, confidences=(0.5, 0.2, 0.15, 0.1, 0.05)):
    return report_json(labels[0], list(labels[1:]), list(confidences))


def bundle_for(script, **kwargs):
    return ProviderBundle(chat=ScriptedChatProvider(script), **kwargs)


class TestRunSingle:
    def test_scripted_report(self):
        report, trace = run_single(bundle_for([report_json()]), make_case())
        assert report.primary == "glioblastoma"
        assert report.evidence == ()
        assert trace.kinds() == ["diagnose"]
        assert trace.trace_id == "single-c1"
        assert report.trace_id == trace.trace_id

    def test_provider_failure_recorded_in_trace(self):
        bundle = bundle_for([])  # immediately exhausted
        with pytest.raises(TopologyRunError) as exc_info:
            run_single(bundle, make_case())
        trace = exc_info.value.trace
        assert trace.steps[-1].step_kind == "diagnose"
        assert "error" in (trace.steps[-1].detail or {})

    def test_determinism(self):
        first, _ = run_single(bundle_for([report_json()]), make_case())
        second, _ = run_single(bundle_for([report_json()]), make_case())
        assert first == second


class TestRunCollaborative:
    def test_consensus_at_round_zero_short_circuits(self):
        script = [report_json(), report_json(), report_json()]
        report, trace = run_collaborative(bundle_for(script), make_case())
        assert report.primary == "glioblastoma"
        assert trace.kinds() == ["diagnose", "diagnose", "diagnose"]
        assert "discuss" not in trace.kinds()

    def test_consensus_after_one_revision_round(self):
        script = [
            report_json("A dx"), report_json("A dx"), report_json("B dx"),  # round 0
            report_json("A dx"), report_json("A dx"), report_json("A dx"),  # revision
        ]
        report, trace = run_collaborative(bundle_for(script), make_case(), max_rounds=2)
        assert report.primary == "A dx"
        assert trace.kinds().count("discuss") == 3

    def test_borda_resolution_without_convergence(self):
        # two agents rank [A,B,C,D,E], one ranks [B,A,C,D,E]:
        # A = 5+5+4 = 14, B = 4+4+5 = 13, so A wins the primary slot
        abcde = ranked_json(["A", "B", "C", "D", "E"])
        bacde = ranked_json(["B", "A", "C", "D", "E"])
        report, trace = run_collaborative(
            bundle_for([abcde, abcde, bacde]), make_case(), max_rounds=0
        )
        assert report.primary == "A"
        assert report.differentials == ("B", "C", "D", "E")
        assert trace.kinds()[-1] == "aggregate"
        scores = trace.steps[-1].detail["borda_scores"]
        assert scores["A"] == 14 and scores["B"] == 13

    def test_needs_two_agents(self):
        with pytest.raises(Exception):
            run_collaborative(bundle_for([report_json()]), make_case(), n_agents=1)

    def test_determinism(self):
        script = [report_json(), report_json(), report_json()]
        first, _ = run_collaborative(bundle_for(list(script)), make_case())
        second, _ = run_collaborative(bundle_for(list(script)), make_case())
        assert first == second


class TestBordaAggregate:
    def test_hand_computed_scores(self):
        reports = [
            make_report("A", ("B", "C", "D", "E")),
            make_report("A", ("B", "C", "D", "E")),
            make_report("B", ("A", "C", "D", "E")),
        ]
        merged, scores = borda_aggregate(reports)
        assert merged.primary == "A"
        assert scores == {"A": 14.0, "B": 13.0, "C": 9.0, "D": 6.0, "E": 3.0}
        # confidences rescaled by the maximum attainable score, non-increasing
        assert merged.confidences == (14 / 15, 13 / 15, 9 / 15, 6 / 15, 3 / 15)

    def test_tie_breaks_by_earliest_agent(self):
        reports = [
            make_report("X", ("Y", "C", "D", "E")),
            make_report("Y", ("X", "C", "D", "E")),
        ]
        merged, _ = borda_aggregate(reports)
        assert merged.primary == "X"  # equal scores; X seen first (agent 0, slot 0)

    def test_folding_groups_variant_spellings(self):
        reports = [
            make_report("Glioma", ("B", "C", "D", "E")),
            make_report("glioma", ("B", "C", "D", "E")),
        ]
        merged, scores = borda_aggregate(reports)
        assert merged.primary == "Glioma"  # first-seen spelling displayed
        assert scores["Glioma"] == 10.0

    def test_repeated_label_scores_once_per_ballot(self):
        # each ballot names "A" twice after folding; it scores 5, not 5 + 4
        reports = [make_report("A", ("a", "B", "C", "D"))] * 3
        merged, scores = borda_aggregate(reports)
        assert scores == {"A": 15.0, "B": 9.0, "C": 6.0, "D": 3.0}
        assert merged.primary == "A"
        assert merged.confidences[0] == 1.0


class TestRunChallenger:
    def test_draft_critique_revise(self):
        script = [
            report_json("draft dx"),
            json.dumps({"objections": ["ignores the enhancement pattern"]}),
            report_json("revised dx"),
        ]
        report, trace = run_challenger(bundle_for(script), make_case())
        assert report.primary == "revised dx"
        assert trace.kinds() == ["draft", "critique", "revise"]

    def test_empty_critique_keeps_draft(self):
        script = [report_json("draft dx"), json.dumps({"objections": []})]
        report, trace = run_challenger(bundle_for(script), make_case())
        assert report.primary == "draft dx"
        assert trace.kinds() == ["draft", "critique"]

    def test_exactly_three_provider_steps(self):
        script = [
            report_json(),
            json.dumps({"objections": ["x"]}),
            report_json(),
        ]
        provider = ScriptedChatProvider(script)
        run_challenger(ProviderBundle(chat=provider), make_case())
        assert provider.calls == 3


RADAR_TEMPLATES = ("initial_doctor", "query_generator", "answer_generator", "final_doctor")


def template_of(prompt: str) -> str:
    """The pipeline template a prompt was rendered from, by its fixed opening."""
    matches = [
        t for t in RADAR_TEMPLATES
        if prompt.startswith(PACKAGED_TEMPLATES.get(t).split("{", 1)[0])
    ]
    assert len(matches) == 1, prompt[:80]
    return matches[0]


class RadarResponder:
    """Replies to each pipeline prompt by its template, as a model would, so
    no reply depends on call order. Answers cite the first excerpt offered.

    ``hooks`` maps a template id to a callable run on the prompt before the
    reply; it may block, and a string it returns replaces the reply.
    """

    provider_id = "radar-responder"

    def __init__(self, keywords, hooks=None):
        self.pairs = [
            {"question": f"question {i} about the lesion?", "keyword": keywords[i % len(keywords)]}
            for i in range(5)
        ]
        self.hooks = hooks or {}
        self._lock = threading.Lock()
        self.calls = 0
        self.in_flight = 0

    def complete(self, request):
        prompt = request.messages[0].content
        template = template_of(prompt)
        with self._lock:
            self.calls += 1
            self.in_flight += 1
        try:
            hook = self.hooks.get(template)
            content = (hook(prompt) if hook else None) or self._reply(template, prompt)
        finally:
            with self._lock:
                self.in_flight -= 1
        return ChatResponse(content=content, provider_id=self.provider_id)

    def _reply(self, template, prompt):
        if template == "initial_doctor":
            return json.dumps({"candidates": TEN})
        if template == "query_generator":
            return json.dumps(self.pairs)
        if template == "answer_generator":
            question = prompt.split("Question:\n", 1)[1].split("\n", 1)[0]
            first_id = prompt.split("[", 1)[1].split("]", 1)[0]
            return json.dumps({"answer": f"finding for {question}", "supporting_chunk_ids": [first_id]})
        return report_json()


class InlineExecutor:
    """Runs each submitted call at once on the caller's thread, which is the
    order of a serial pipeline."""

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


def step_records(trace):
    """Trace steps without their timestamps."""
    return [
        (s.step_kind, s.agent_role, s.request_digest, s.response_digest, s.detail)
        for s in trace.steps
    ]


RETRIEVED = {"fetch": ["kb_fetch", "search", "answer"], "hit": ["kb_hit", "search", "answer"]}


class RaisingSource:
    """Wraps a source; every fetch of ``keyword`` raises ``error``."""

    def __init__(self, source, keyword, error):
        self.source = source
        self.keyword = keyword
        self.error = error

    def fetch(self, keyword):
        if keyword == self.keyword:
            raise self.error
        return self.source.fetch(keyword)


class TestRunRadar:
    def _bundle(self, corpus_dir, keywords=("glioblastoma", "tuberous sclerosis"), hooks=None,
                **src_kwargs):
        return ProviderBundle(
            chat=RadarResponder(list(keywords), hooks),
            embedder=HashingEmbedder(dim=64),
            source=FixtureSource(corpus_dir, **src_kwargs),
        )

    def _kb(self):
        return KnowledgeBase(dim=64, chunk_chars=300, overlap_chars=60)

    def test_full_pipeline_contract(self, corpus_dir):
        kb = self._kb()
        report, trace = run_radar(self._bundle(corpus_dir), kb, make_case())
        assert report.primary == "glioblastoma"
        assert len(report.evidence) == 5
        kinds = trace.kinds()
        assert kinds[0] == "initial_diagnosis"
        assert kinds[1] == "generate_queries"
        assert kinds[-1] == "final_diagnosis"
        init_step = trace.steps[0]
        assert init_step.detail == {"n_candidates": 10}
        assert trace.steps[1].detail == {"n_pairs": 5}
        for step in trace.steps:
            if step.step_kind == "search":
                assert len(step.detail["chunk_ids"]) <= 5
        # two distinct keywords fetched once each; repeats hit the cache
        assert kinds.count("kb_fetch") == 2
        assert kinds.count("kb_hit") == 3
        assert kb.stats()["documents"] == 20

    def test_keyword_reuse_across_cases_hits_cache(self, corpus_dir):
        kb = self._kb()
        run_radar(self._bundle(corpus_dir), kb, make_case("c1"))
        _, trace = run_radar(self._bundle(corpus_dir), kb, make_case("c2"))
        assert "kb_fetch" not in trace.kinds()
        assert trace.kinds().count("kb_hit") == 5

    def test_failing_keyword_degrades_to_sentinel(self, corpus_dir):
        kb = self._kb()
        bundle = self._bundle(
            corpus_dir, ("glioblastoma", "angiocentric glioma"),
            fail_keywords=("angiocentric glioma",),
        )
        report, trace = run_radar(bundle, kb, make_case())
        assert len(report.evidence) == 5
        sentinels = [e for e in report.evidence if e.answer == NO_EVIDENCE_ANSWER]
        assert len(sentinels) == 2  # questions 1 and 3 used the failing keyword
        assert all(e.keyword == "angiocentric glioma" for e in sentinels)
        assert trace.kinds().count("retrieval_error") == 2
        assert report.primary == "glioblastoma"
        assert bundle.chat.calls == 2 + 3 + 1  # no answer call for a failed retrieval

    def test_a_search_that_sees_no_rows_answers_the_sentinel(self, corpus_dir):
        """On an empty store the first keyword fetches no documents, so the
        first question's search sees no rows and it is answered without a
        chat call; later questions see the rows later keywords fetched."""
        asked = []
        hooks = {"answer_generator": asked.append}  # returns None: the usual reply
        bundle = self._bundle(corpus_dir, ("no such keyword", "glioblastoma"), hooks)
        report, trace = run_radar(bundle, self._kb(), make_case())
        fetch, search, answer = trace.steps[2:5]
        assert (fetch.step_kind, fetch.detail["new_docs"]) == ("kb_fetch", 0)
        assert (search.step_kind, search.detail["chunk_ids"]) == ("search", [])
        assert (answer.step_kind, answer.detail) == ("answer", {"sentinel": True})
        assert report.evidence[0].answer == NO_EVIDENCE_ANSWER
        assert not any("question 0 about the lesion?" in prompt for prompt in asked)
        assert len(asked) == 4  # every later question saw the glioblastoma rows
        assert bundle.chat.calls == 2 + 4 + 1

    @pytest.mark.parametrize("vector", [None, np.zeros(8, dtype=np.float32)])
    def test_failed_query_embedding_degrades_to_sentinel(self, corpus_dir, vector):
        """A query embedder that raises ProviderError (None) or returns the
        wrong dimension (ShapeError) fails retrieval, as a failed ingest does."""

        class BrokenEmbedder:
            dim = 64

            def embed(self, text):
                if vector is None:
                    raise ProviderError("embedding backend unavailable")
                return vector

        kb = self._kb()
        run_radar(self._bundle(corpus_dir), kb, make_case("warm-up"))  # every keyword now a hit
        bundle = replace(self._bundle(corpus_dir), embedder=BrokenEmbedder())
        report, trace = run_radar(bundle, kb, make_case())
        assert [e.answer for e in report.evidence] == [NO_EVIDENCE_ANSWER] * 5
        assert trace.kinds().count("kb_hit") == 5
        assert trace.kinds().count("retrieval_error") == 5
        assert "search" not in trace.kinds()
        assert bundle.chat.calls == 2 + 1  # no answer call for a failed retrieval

    def _degrades_with_http_embedding(self, corpus_dir, embedding):
        """On a warm store, a live embedder that answers ``embedding`` to
        every query fails each question's retrieval with a ProviderError
        and the case completes on the no-evidence answer."""
        kb = self._kb()
        run_radar(self._bundle(corpus_dir), kb, make_case("warm-up"))  # every keyword now a hit
        endpoint = FakeEndpoint([FakeReply(body={"embedding": embedding})])
        embedder = HttpEmbedder("http://embed.test", dim=64, connect=endpoint)
        bundle = replace(self._bundle(corpus_dir), embedder=embedder)
        report, trace = run_radar(bundle, kb, make_case())
        assert [e.answer for e in report.evidence] == [NO_EVIDENCE_ANSWER] * 5
        errors = [s.detail["error"] for s in trace.steps if s.step_kind == "retrieval_error"]
        assert len(errors) == 5
        assert all(e.startswith("ProviderError: ") for e in errors)

    def test_non_numeric_http_query_embedding_degrades_to_sentinel(self, corpus_dir):
        """A live embedder's reply with a non-numeric embedding is a
        ProviderError, so it fails retrieval instead of the case."""
        self._degrades_with_http_embedding(corpus_dir, ["a"] * 64)

    @pytest.mark.parametrize("component", [10**400, 1e39], ids=["huge-int", "big"])
    def test_http_query_embedding_outside_float32_degrades_to_sentinel(self, corpus_dir,
                                                                      component):
        self._degrades_with_http_embedding(corpus_dir, [component] + [0.0] * 63)

    def test_non_finite_chunk_embedding_degrades_to_sentinel(self, corpus_dir):
        """On a cold store every keyword ingests; a chunk vector with a NaN
        component fails that ingest, which degrades its question."""

        class NonFiniteEmbedder:
            dim = 64

            def embed(self, text):
                return np.full(64, np.nan, dtype=np.float32)

        bundle = replace(self._bundle(corpus_dir), embedder=NonFiniteEmbedder())
        kb = self._kb()
        report, trace = run_radar(bundle, kb, make_case())
        assert [e.answer for e in report.evidence] == [NO_EVIDENCE_ANSWER] * 5
        assert trace.kinds().count("retrieval_error") == 5
        assert "kb_fetch" not in trace.kinds()
        assert kb.stats()["chunks"] == 0
        assert bundle.chat.calls == 2 + 1  # no answer call for a failed retrieval

    @pytest.mark.parametrize("vector, error", [
        (np.zeros(64, dtype=np.float32), "DegenerateVectorError"),
        (np.ones(8, dtype=np.float32), "ShapeError"),
    ])
    def test_one_bad_question_embedding_degrades_alone(self, corpus_dir, vector, error):
        """The query checks run per question, so one question that embeds to
        zero or to the wrong dim takes no other question out of the scan."""

        class OneBadQuestion(HashingEmbedder):
            def embed(self, text):
                return vector if text == "question 2 about the lesion?" else super().embed(text)

        bundle = replace(self._bundle(corpus_dir), embedder=OneBadQuestion(dim=64))
        report, trace = run_radar(bundle, self._kb(), make_case())
        answers = [e.answer == NO_EVIDENCE_ANSWER for e in report.evidence]
        assert answers == [False, False, True, False, False]
        errors = [s.detail["error"] for s in trace.steps if s.step_kind == "retrieval_error"]
        assert len(errors) == 1 and errors[0].startswith(f"{error}: ")
        assert trace.kinds().count("search") == 4
        assert bundle.chat.calls == 2 + 4 + 1

    def test_a_question_with_a_lone_surrogate_degrades_alone(self, corpus_dir):
        """A model may escape a lone surrogate into a question; the hashing
        embedder refuses that question, and only it loses its evidence."""
        bundle = self._bundle(corpus_dir)
        bundle.chat.pairs[0]["question"] = "question \ud800 about the lesion?"
        report, trace = run_radar(bundle, self._kb(), make_case())
        answers = [e.answer == NO_EVIDENCE_ANSWER for e in report.evidence]
        assert answers == [True, False, False, False, False]
        errors = [s.detail["error"] for s in trace.steps if s.step_kind == "retrieval_error"]
        assert len(errors) == 1 and errors[0].startswith("ValidationError: ")
        assert bundle.chat.calls == 2 + 4 + 1

    def test_a_later_ingest_does_not_reach_an_earlier_search(self):
        """Question 1's miss ingests a chunk with question 0's very text, which
        outranks every row question 0 saw; question 0's evidence stays what a
        search right after its own lookup finds."""
        docs = {
            "alpha": [make_document(f"alpha-{i}", "alpha", body=f"alpha lesion note {i}. " * 20)
                      for i in range(4)],
            "beta": [make_document("beta-0", "beta", body="question 0 about the lesion?")],
        }
        source = SimpleNamespace(fetch=lambda keyword: list(docs[keyword]))
        embedder = HashingEmbedder(dim=64)
        bundle = ProviderBundle(RadarResponder(["alpha", "beta"]), embedder, source)
        _, trace = run_radar(bundle, self._kb(), make_case())

        alone = self._kb()
        alone.lookup_or_fetch("alpha", source, embedder)
        query = embedder.embed("question 0 about the lesion?")
        expected = [h.chunk_id for h in alone.index.search_top_k(query, 5)]
        searches = [s.detail["chunk_ids"] for s in trace.steps if s.step_kind == "search"]
        assert searches[0] == expected
        assert "beta-0:0" not in searches[0]
        assert searches[2][0] == "beta-0:0"  # question 2 looks up after the ingest

    def test_one_scan_per_case_and_no_answer_before_it(self, corpus_dir, monkeypatch):
        events = []
        search_batch = FlatIndex.search_batch

        def counted(index, *args):
            events.append("scan")
            return search_batch(index, *args)

        def answer(prompt):
            events.append("answer")

        monkeypatch.setattr(FlatIndex, "search_batch", counted)
        monkeypatch.setattr(topologies, "_BRANCHES", InlineExecutor())  # answers run at submit
        kb = self._kb()
        for case_id in ("cold", "warm"):
            bundle = self._bundle(corpus_dir, hooks={"answer_generator": answer})
            run_radar(bundle, kb, make_case(case_id))
        assert events == (["scan"] + ["answer"] * 5) * 2

    def test_an_ingest_the_index_refuses_degrades_its_questions(self, corpus_dir):
        """A chunk id the index already holds makes the glioblastoma ingest
        raise DuplicateChunkError; that keyword's questions degrade, the
        others answer."""
        kb = self._kb()
        away = -HashingEmbedder(dim=64).embed("question 1 about the lesion?")  # never a hit
        kb.index.insert([unit_chunk("gbm-article-0:0", away)], "stale")
        bundle = self._bundle(corpus_dir)
        report, trace = run_radar(bundle, kb, make_case())
        answers = [e.answer == NO_EVIDENCE_ANSWER for e in report.evidence]
        assert answers == [True, False, True, False, True]
        errors = [s.detail["error"] for s in trace.steps if s.step_kind == "retrieval_error"]
        assert len(errors) == 3 and all(e.startswith("DuplicateChunkError: ") for e in errors)
        assert bundle.chat.calls == 2 + 2 + 1

    def test_any_radar_error_from_the_source_degrades_only_its_questions(self, corpus_dir):
        """A ConfigError names no retrieval failure in particular; as a
        RadarError it still degrades only the questions of its keyword."""
        bundle = self._bundle(corpus_dir)
        error = ConfigError("cannot read the cached page")
        bundle = replace(bundle, source=RaisingSource(bundle.source, "tuberous sclerosis", error))
        report, trace = run_radar(bundle, self._kb(), make_case())
        answers = [e.answer == NO_EVIDENCE_ANSWER for e in report.evidence]
        assert answers == [False, True, False, True, False]
        errors = [s.detail for s in trace.steps if s.step_kind == "retrieval_error"]
        assert errors == [{"keyword": "tuberous sclerosis",
                           "error": "ConfigError: cannot read the cached page"}] * 2
        assert report.primary == "glioblastoma"
        assert bundle.chat.calls == 2 + 3 + 1

    def test_an_error_outside_the_program_aborts_the_case(self, corpus_dir):
        """Any other exception is a program fault, not the question's: it
        aborts the case once every started agent call is back."""
        bundle = self._bundle(corpus_dir)
        error = KeyError("tuberous sclerosis")
        bundle = replace(bundle, source=RaisingSource(bundle.source, "tuberous sclerosis", error))
        with pytest.raises(KeyError) as raised:
            run_radar(bundle, self._kb(), make_case())
        assert raised.value is error
        assert bundle.chat.calls == 2  # no answer was asked

    def test_five_answers_in_flight_together(self, corpus_dir):
        barrier = threading.Barrier(5, timeout=5)

        def answer(prompt):
            barrier.wait()

        bundle = self._bundle(corpus_dir, hooks={"answer_generator": answer})
        report, _ = run_radar(bundle, self._kb(), make_case())
        assert len(report.evidence) == 5

    def test_initial_doctor_and_query_generator_in_flight_together(self, corpus_dir):
        barrier = threading.Barrier(2, timeout=5)

        def wait(prompt):
            barrier.wait()

        bundle = self._bundle(corpus_dir, hooks={"initial_doctor": wait, "query_generator": wait})
        report, _ = run_radar(bundle, self._kb(), make_case())
        assert report.primary == "glioblastoma"

    @pytest.mark.parametrize("fail_keywords", [(), ("tuberous sclerosis",)])
    def test_trace_and_evidence_match_serial_run(self, corpus_dir, monkeypatch, fail_keywords):
        def run():
            bundle = self._bundle(corpus_dir, fail_keywords=fail_keywords)
            return run_radar(bundle, self._kb(), make_case())

        report, trace = run()
        monkeypatch.setattr(topologies, "_BRANCHES", InlineExecutor())
        serial_report, serial_trace = run()
        assert report == serial_report
        assert step_records(trace) == step_records(serial_trace)
        questions = [f"question {i} about the lesion?" for i in range(5)]
        assert [e.question for e in report.evidence] == questions
        if not fail_keywords:
            assert trace.kinds() == [
                "initial_diagnosis", "generate_queries",
                *RETRIEVED["fetch"], *RETRIEVED["fetch"],
                *RETRIEVED["hit"], *RETRIEVED["hit"], *RETRIEVED["hit"],
                "final_diagnosis",
            ]

    def test_concurrent_cases_keep_serial_traces(self, corpus_dir, monkeypatch):
        # Eight cases at once on a warm store, so every lookup hits and each
        # case's trace is fixed; a short switch interval shakes the hand-offs.
        kb = self._kb()
        run_radar(self._bundle(corpus_dir), kb, make_case("warm-up"))
        cases = [make_case(f"c{i}") for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(len(cases)) as pool:
                futures = [pool.submit(run_radar, self._bundle(corpus_dir), kb, c) for c in cases]
                results = [f.result(timeout=30) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(topologies, "_BRANCHES", InlineExecutor())
        for case, (report, trace) in zip(cases, results):
            serial_report, serial_trace = run_radar(self._bundle(corpus_dir), kb, case)
            assert report == serial_report
            assert step_records(trace) == step_records(serial_trace)

    def test_failed_answer_aborts_after_every_branch(self, corpus_dir):
        # Answer 2 of 5 fails all three attempts. Only then do the other
        # answers reply, one after another, so an abort that did not wait for
        # every branch would miss their steps.
        chain = [0, 1, 3, 4]
        released = {i: threading.Event() for i in chain}
        attempts = []

        def answer(prompt):
            i = int(re.search(r"question (\d) about", prompt).group(1))
            if i == 2:
                attempts.append(prompt)
                if len(attempts) == 3:
                    released[chain[0]].set()
                return "not json"
            assert released[i].wait(timeout=5)
            if i != chain[-1]:
                released[chain[chain.index(i) + 1]].set()
            return None

        bundle = self._bundle(corpus_dir, hooks={"answer_generator": answer})
        with pytest.raises(TopologyRunError) as exc_info:
            run_radar(bundle, self._kb(), make_case())
        assert bundle.chat.in_flight == 0
        assert bundle.chat.calls == 2 + 4 + 3
        trace = exc_info.value.trace
        assert trace.kinds() == [
            "initial_diagnosis", "generate_queries",
            *RETRIEVED["fetch"], *RETRIEVED["fetch"],
            *RETRIEVED["hit"], "answer", "answer",
            *RETRIEVED["hit"], *RETRIEVED["hit"],
            "answer",
        ]
        assert trace.steps[-1].agent_role == "answer_generator"
        assert "error" in trace.steps[-1].detail
        assert "failed at answer" in str(exc_info.value)

    def test_abort_names_earliest_failure_in_pipeline_order(self, corpus_dir):
        # The first answer fails before the initial doctor does, yet the
        # initial doctor comes first in the pipeline.
        answer_failed = threading.Event()

        def initial(prompt):
            assert answer_failed.wait(timeout=5)
            return "not json"

        def answer(prompt):
            if "question 0 " in prompt:
                answer_failed.set()
                return "not json"
            return None

        bundle = self._bundle(corpus_dir, hooks={"initial_doctor": initial, "answer_generator": answer})
        with pytest.raises(TopologyRunError) as exc_info:
            run_radar(bundle, self._kb(), make_case())
        kinds = exc_info.value.trace.kinds()
        assert kinds[:4] == ["initial_diagnosis"] * 3 + ["generate_queries"]
        assert kinds[-1] == "initial_diagnosis"
        assert "final_diagnosis" not in kinds
        assert "failed at initial_diagnosis" in str(exc_info.value)

    def test_agent_error_aborts_with_trace(self, corpus_dir):
        kb = KnowledgeBase(dim=64)
        bundle = ProviderBundle(
            chat=ScriptedChatProvider(["not json"] * 3),
            embedder=HashingEmbedder(dim=64),
            source=FixtureSource(corpus_dir),
        )
        with pytest.raises(TopologyRunError) as exc_info:
            run_radar(bundle, kb, make_case())
        assert exc_info.value.trace.topology is Topology.RADAR

    def test_missing_embedder_rejected(self, corpus_dir):
        kb = KnowledgeBase(dim=64)
        with pytest.raises(Exception):
            run_radar(ProviderBundle(chat=ScriptedChatProvider([])), kb, make_case())


class TestMaxRetries:
    """Every reply holds no JSON, and the script outlasts every attempt, so
    ``max_retries`` alone decides how many calls a failing step makes."""

    @pytest.mark.parametrize("max_retries, calls", [(0, 1), (1, 2), (2, 3)])
    @pytest.mark.parametrize("run", [run_single, run_collaborative, run_challenger])
    def test_bounds_attempts_of_the_failing_step(self, run, max_retries, calls):
        chat = ScriptedChatProvider(["no json here"] * 6)
        with pytest.raises(TopologyRunError):
            run(ProviderBundle(chat=chat), make_case(), max_retries=max_retries)
        assert chat.calls == calls

    def test_radar_bounds_attempts_of_both_start_calls(self, corpus_dir):
        chat = ScriptedChatProvider(["no json here"] * 6)
        bundle = ProviderBundle(
            chat=chat, embedder=HashingEmbedder(dim=64), source=FixtureSource(corpus_dir)
        )
        with pytest.raises(TopologyRunError) as exc_info:
            run_radar(bundle, KnowledgeBase(dim=64), make_case(), max_retries=0)
        assert chat.calls == 2  # the initial doctor and the query generator, once each
        assert exc_info.value.trace.kinds() == [
            "initial_diagnosis", "generate_queries", "initial_diagnosis"
        ]
