from __future__ import annotations

import json
import re
import sys
import threading
from concurrent.futures import Future, ThreadPoolExecutor

import pytest

from radar import topologies
from radar.agents import default_templates
from radar.domain import NO_EVIDENCE_ANSWER
from radar.knowledge import FixtureSource, KnowledgeBase
from radar.providers import ChatResponse, HashingEmbedder, ScriptedChatProvider
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

from conftest import make_case, make_report

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
    registry = default_templates()
    matches = [t for t in RADAR_TEMPLATES if prompt.startswith(registry.get(t).split("{", 1)[0])]
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
        monkeypatch.setattr(topologies, "_branch_pool", InlineExecutor)
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
        monkeypatch.setattr(topologies, "_branch_pool", InlineExecutor)
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
