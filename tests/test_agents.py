from __future__ import annotations

import functools
import json
import shutil

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radar import agents
from radar.agents import (
    AgentConfig,
    PACKAGED_TEMPLATES,
    TEMPLATE_DIR,
    AgentRole,
    TemplateRegistry,
    answer_question,
    ask_structured,
    config_for_role,
    final_diagnosis,
    generate_queries,
    initial_diagnosis,
    parse_answer,
    parse_candidates,
    parse_label,
    parse_objections,
    parse_queries,
    parse_report,
    parse_structured,
)
from radar.domain import (
    NO_EVIDENCE_ANSWER,
    CandidateList,
    DiagnosisReport,
    EvidenceAnswer,
    QueryPair,
)
from radar.errors import AgentOutputError, ConfigError, ParseError, ValidationError
from radar.index import ScoredChunk
from radar.providers import ScriptedChatProvider, TEMP_HIGH, TEMP_LOW, TEMP_MID

from conftest import make_case

TEN = [f"diagnosis {i}" for i in range(10)]


def ten_candidates_json(entries=None):
    return json.dumps({"candidates": entries or TEN})


def report_json(primary="glioblastoma", confidences=(0.6, 0.2, 0.1, 0.06, 0.04)):
    return json.dumps(
        {
            "primary": primary,
            "differentials": ["metastasis", "lymphoma", "abscess", "demyelination"],
            "confidences": list(confidences),
        }
    )


class TestParseStructured:
    def test_plain_object(self):
        report = parse_structured(report_json(), parse_report)
        assert report.primary == "glioblastoma"
        assert report.confidences == (0.6, 0.2, 0.1, 0.06, 0.04)

    def test_object_with_surrounding_prose(self):
        text = 'Here you go: {"canonical": "glioblastoma"} — hope that helps.'
        assert parse_structured(text, parse_label) == "glioblastoma"

    def test_fenced_block(self):
        text = "```json\n{\"objections\": [\"weak reasoning\"]}\n```"
        assert parse_structured(text, parse_objections) == ["weak reasoning"]

    def test_bare_array(self):
        text = '[{"question": "q?", "keyword": "k"}]'
        parser = functools.partial(parse_queries, n=1)
        assert parse_structured(text, parser) == [QueryPair(question="q?", keyword="k")]

    def test_prose_without_json(self):
        with pytest.raises(ParseError):
            parse_structured("I am not sure what to say.", parse_objections)

    def test_schema_violation_reports_position(self):
        with pytest.raises(ParseError) as exc_info:
            parse_structured('noise {"wrong": 1} noise', PARSERS["answer"])
        assert exc_info.value.position == 6

    def test_a_run_of_brackets_too_deep_to_decode_costs_one_attempt(self, monkeypatch):
        starts = []
        raw_decode = json.JSONDecoder.raw_decode

        def spy(decoder, text, *args):
            starts.append(len(text))
            return raw_decode(decoder, text, *args)

        monkeypatch.setattr(json.JSONDecoder, "raw_decode", spy)
        with pytest.raises(ParseError):
            parse_structured("[" * 20000, parse_candidates)
        assert starts == [20000]
        starts.clear()
        reply = "[" * 20000 + " " + ten_candidates_json()
        assert agents._extract_json(reply) == ({"candidates": TEN}, 20001)
        assert len(starts) == 2

    def test_a_run_of_brackets_that_cannot_start_a_value_costs_no_attempt(self, monkeypatch):
        calls = []
        raw_decode = json.JSONDecoder.raw_decode

        def spy(decoder, text, *args):
            calls.append(len(text))
            return raw_decode(decoder, text, *args)

        monkeypatch.setattr(json.JSONDecoder, "raw_decode", spy)
        with pytest.raises(ParseError):
            agents._extract_json("{" * 20000)
        assert calls == []
        assert agents._extract_json("{" * 20000 + '{"a": [1]}') == ({"a": [1]}, 20000)
        assert calls == [10]

    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet='{}[]" a1-:,\n\ttfnNI', max_size=30))
    @example("x [-1] [1]")
    @example("[ NaN] [1]")
    @example("[\tInfinity]")
    @example("[\r\n-Infinity]")
    @example("[[1] x")
    @example('{{"a": 1} x')
    @example('{ \n}')
    def test_finds_what_trying_every_bracket_finds(self, text):
        def extract_trying_every_bracket(reply):
            decoder = json.JSONDecoder()
            for pos, ch in enumerate(reply):
                if ch in "{[":
                    try:
                        value, _ = decoder.raw_decode(reply[pos:])
                    except ValueError:
                        continue
                    return json.dumps(value), pos
            return None

        try:
            value, pos = agents._extract_json(text)
            found = json.dumps(value), pos
        except ParseError:
            found = None
        assert found == extract_trying_every_bracket(text)


# One parser per reply type, bound to the context its agent supplies.
RETRIEVED_IDS = ("doc:0", "doc:1")
EVIDENCE = (EvidenceAnswer("q", "ans", ("c0",), "k"),)
PARSERS = {
    "candidates": parse_candidates,
    "queries": functools.partial(parse_queries, n=2),
    "queries5": functools.partial(parse_queries, n=5),
    "answer": functools.partial(
        parse_answer, question="q?", keyword="k", retrieved_ids=set(RETRIEVED_IDS)
    ),
    "report": functools.partial(parse_report, trace_id="t"),
    "report_with_evidence": functools.partial(parse_report, evidence=EVIDENCE, trace_id="t-9"),
    "objections": parse_objections,
    "label": parse_label,
}

PAIRS = [{"question": "q0?", "keyword": "k0"}, {"question": "q1?", "keyword": "k1"}]
QUERY_PAIRS = [QueryPair("q0?", "k0"), QueryPair("q1?", "k1")]
DIFFERENTIALS = ["metastasis", "lymphoma", "abscess", "demyelination"]
CONFIDENCES = [0.6, 0.2, 0.1, 0.06, 0.04]
REPORT = {"primary": "glioblastoma", "differentials": DIFFERENTIALS, "confidences": CONFIDENCES}
# The benchmark's synthetic responder answers every non-answer prompt with
# one object that is at once a candidate list, a query list and a report.
PAIRS5 = [{"question": f"q{i}?", "keyword": f"k{i}"} for i in range(5)]
ONE_FOR_ALL = json.dumps({
    "candidates": TEN, "queries": PAIRS5, "primary": "glioblastoma",
    "differentials": DIFFERENTIALS, "confidences": [0.5, 0.2, 0.15, 0.1, 0.05],
})


def _report(confidences=CONFIDENCES, evidence=(), trace_id="t"):
    return DiagnosisReport("glioblastoma", tuple(DIFFERENTIALS), tuple(confidences),
                           evidence, trace_id)


def _dumps(value, **extra):
    return json.dumps({**value, **extra})


# The two tables pin which replies each parser accepts, and with which error
# type it rejects the rest; a reply is re-asked on either error type, but the
# type says whether the JSON shape or a value was wrong.
# (reply type, reply text, the domain object it parses to)
ACCEPTED = [
    ("candidates", json.dumps(TEN), CandidateList(tuple(TEN))),
    ("candidates", json.dumps({"candidates": TEN}), CandidateList(tuple(TEN))),
    ("candidates", json.dumps({"candidates": TEN, "note": "extra"}), CandidateList(tuple(TEN))),
    ("candidates", f"Sure:\n```json\n{json.dumps(TEN)}\n```", CandidateList(tuple(TEN))),
    ("candidates", ONE_FOR_ALL, CandidateList(tuple(TEN))),
    ("queries", json.dumps(PAIRS), QUERY_PAIRS),
    ("queries", json.dumps({"queries": PAIRS}), QUERY_PAIRS),
    ("queries", json.dumps({"pairs": PAIRS}), QUERY_PAIRS),
    ("queries", json.dumps({"queries": PAIRS, "pairs": []}), QUERY_PAIRS),
    ("queries", json.dumps([{**p, "why": "extra"} for p in PAIRS]), QUERY_PAIRS),
    ("queries5", ONE_FOR_ALL, [QueryPair(p["question"], p["keyword"]) for p in PAIRS5]),
    ("answer", json.dumps({"answer": "a", "supporting_chunk_ids": ["doc:0"]}),
     EvidenceAnswer("q?", "a", ("doc:0",), "k")),
    ("answer", json.dumps({"answer": "a", "supporting_chunk_ids": ["doc:1", "doc:0"], "x": 1}),
     EvidenceAnswer("q?", "a", ("doc:1", "doc:0"), "k")),
    ("answer", json.dumps({"answer": NO_EVIDENCE_ANSWER, "supporting_chunk_ids": []}),
     EvidenceAnswer("q?", NO_EVIDENCE_ANSWER, (), "k")),
    ("report", json.dumps(REPORT), _report()),
    ("report", _dumps(REPORT, evidence=[{"bogus": 1}], trace_id="ignored"), _report()),
    ("report", _dumps(REPORT, confidences=[1, 0, 0, 0, 0]), _report(confidences=(1.0, 0, 0, 0, 0))),
    ("report", ONE_FOR_ALL, _report(confidences=(0.5, 0.2, 0.15, 0.1, 0.05))),
    ("report_with_evidence", json.dumps(REPORT), _report(evidence=EVIDENCE, trace_id="t-9")),
    ("objections", json.dumps({"objections": []}), []),
    ("objections", json.dumps(["too broad"]), ["too broad"]),
    ("objections", json.dumps({"objections": ["too broad"], "severity": "high"}), ["too broad"]),
    ("label", json.dumps({"canonical": "glioblastoma"}), "glioblastoma"),
    ("label", json.dumps({"canonical": "Glioblastoma", "confidence": 0.9}), "Glioblastoma"),
    ("label", '```json\n"glioblastoma"\n```', "glioblastoma"),
]

# (reply type, reply text, the error it is rejected with)
REJECTED = [
    ("candidates", "no json here", ParseError),
    ("candidates", json.dumps({}), ParseError),
    ("candidates", json.dumps({"candidates": "glioma"}), ParseError),
    ("candidates", json.dumps(TEN[:9] + [3]), ParseError),
    ("candidates", json.dumps(TEN[:9] + ["  "]), ParseError),
    ("candidates", json.dumps(TEN[:8]), ValidationError),
    ("candidates", json.dumps(TEN + ["diagnosis 10"]), ValidationError),
    ("candidates", json.dumps(["glioma", "Glioma"] + TEN[2:]), ValidationError),
    ("queries", json.dumps({"questions": PAIRS}), ParseError),
    ("queries", json.dumps({"queries": None, "pairs": PAIRS}), ParseError),
    ("queries", json.dumps(PAIRS[:1] + ["k1"]), ParseError),
    ("queries", json.dumps(PAIRS[:1] + [{"question": "q1?", "keyword": 1}]), ParseError),
    ("queries", json.dumps(PAIRS[:1] + [{"question": "q1?"}]), ParseError),
    ("queries", json.dumps(PAIRS[:1]), ValidationError),
    ("queries", json.dumps(PAIRS[:1] + [{"question": "q1?", "keyword": ""}]), ValidationError),
    ("queries", json.dumps(PAIRS[:1] + [{"question": " ", "keyword": "k1"}]), ValidationError),
    ("queries", json.dumps(PAIRS[:1] + [{"question": "q1?", "keyword": "k" * 101}]),
     ValidationError),
    ("queries", ONE_FOR_ALL, ValidationError),
    ("answer", json.dumps([{"answer": "a", "supporting_chunk_ids": ["doc:0"]}]), ParseError),
    ("answer", json.dumps({"answer": " ", "supporting_chunk_ids": ["doc:0"]}), ParseError),
    ("answer", json.dumps({"answer": "a", "supporting_chunk_ids": "doc:0"}), ParseError),
    ("answer", json.dumps({"answer": "a", "supporting_chunk_ids": [0]}), ParseError),
    ("answer", json.dumps({"answer": "a"}), ParseError),
    ("answer", json.dumps({"answer": "a", "supporting_chunk_ids": ["doc:9"]}), ValidationError),
    ("answer", json.dumps({"answer": "a", "supporting_chunk_ids": []}), ValidationError),
    ("answer", ONE_FOR_ALL, ParseError),
    ("report", json.dumps([REPORT]), ParseError),
    ("report", _dumps(REPORT, primary=""), ParseError),
    ("report", _dumps(REPORT, differentials="metastasis"), ParseError),
    ("report", _dumps(REPORT, differentials=DIFFERENTIALS[:3] + [""]), ParseError),
    ("report", _dumps(REPORT, confidences=[True, 0, 0, 0, 0]), ParseError),
    ("report", _dumps(REPORT, confidences=["0.6", "0.2", "0.1", "0.06", "0.04"]), ParseError),
    ("report", _dumps(REPORT, differentials=DIFFERENTIALS[:3]), ValidationError),
    ("report", _dumps(REPORT, confidences=CONFIDENCES[:4]), ValidationError),
    ("report", _dumps(REPORT, confidences=[0.2, 0.6, 0.1, 0.06, 0.04]), ValidationError),
    ("report", _dumps(REPORT, confidences=[1.5, 0.2, 0.1, 0.06, 0.04]), ValidationError),
    ("objections", json.dumps({"objections": "too broad"}), ParseError),
    ("objections", json.dumps([1]), ParseError),
    ("objections", ONE_FOR_ALL, ParseError),
    ("label", json.dumps({"canonical": ""}), ParseError),
    ("label", json.dumps({"canonical": 3}), ParseError),
    ("label", json.dumps(["glioblastoma"]), ParseError),
]


class TestReplyTable:
    @pytest.mark.parametrize("kind, text, expected", ACCEPTED)
    def test_accepted(self, kind, text, expected):
        assert parse_structured(text, PARSERS[kind]) == expected

    @pytest.mark.parametrize("kind, text, error", REJECTED)
    def test_rejected(self, kind, text, error):
        with pytest.raises(error):
            parse_structured(text, PARSERS[kind])


def test_ask_structured_parses_through_module_hook(monkeypatch):
    """Every attempt goes through ``agents.parse_structured`` by module lookup,
    so a wrapper installed on the module sees each one."""
    calls = []
    original = agents.parse_structured

    def counting(text, parser):
        calls.append(text)
        return original(text, parser)

    monkeypatch.setattr(agents, "parse_structured", counting)
    provider = ScriptedChatProvider(["not json", json.dumps({"objections": []})])
    cfg = config_for_role(AgentRole.CHALLENGER)
    assert ask_structured(provider, cfg, "prompt", parse_objections) == []
    assert calls == ["not json", json.dumps({"objections": []})]


class TestConfigForRole:
    def test_presets(self):
        init = config_for_role(AgentRole.INITIAL_DOCTOR)
        assert (init.temperature, init.top_p) == (TEMP_HIGH, 0.95)
        assert config_for_role(AgentRole.ANSWER_GENERATOR).temperature == TEMP_LOW
        assert config_for_role(AgentRole.FINAL_DOCTOR).temperature == TEMP_MID

    def test_overrides(self):
        assert config_for_role(AgentRole.FINAL_DOCTOR, max_retries=0).max_retries == 0


def copy_templates(dest, skip=()):
    """A template directory holding every packaged template but ``skip``."""
    shutil.copytree(TEMPLATE_DIR, dest)
    for template_id in skip:
        (dest / f"{template_id}.txt").unlink()
    return dest


class TestTemplateRegistry:
    def test_placeholders_substituted_braces_preserved(self):
        rendered = PACKAGED_TEMPLATES.render(
            "initial_doctor", caption="CAPTION-X", clinical_data="CLINICAL-Y"
        )
        assert "CAPTION-X" in rendered
        assert "CLINICAL-Y" in rendered
        assert '{"candidates"' in rendered  # JSON braces untouched

    @pytest.mark.parametrize("template_id, fields, pasted, filled", [
        ("doctor_revise", {"caption": "lesion {critique}", "clinical_data": "none",
                           "draft": "DRAFT", "critique": "CRITIQUE"},
         "lesion {critique}", "CRITIQUE"),
        ("answer_generator", {"question": "what do {chunks} show?", "chunks": "CHUNKS"},
         "what do {chunks} show?", "CHUNKS"),
    ], ids=["caption", "question"])
    def test_a_placeholder_inside_a_value_is_left_as_written(self, template_id, fields, pasted,
                                                              filled):
        rendered = PACKAGED_TEMPLATES.render(template_id, **fields)
        assert pasted in rendered
        assert rendered.count(filled) == 1  # only where the template names it

    def test_missing_template(self):
        with pytest.raises(ConfigError):
            PACKAGED_TEMPLATES.get("does_not_exist")

    def test_every_template_the_code_names_is_packaged(self):
        named = {template for _, _, template in agents._ROLE_PRESETS.values()}
        named |= {"single_doctor", "collaborator_revise", "doctor_revise", "normalize_label"}
        assert named <= set(PACKAGED_TEMPLATES.ids())

    def test_custom_directory(self, tmp_path):
        templates = copy_templates(tmp_path / "templates")
        (templates / "greet.txt").write_text("hello {caption}")
        registry = TemplateRegistry(templates)
        assert registry.render("greet", caption="world") == "hello world"
        assert registry.ids() == sorted(PACKAGED_TEMPLATES.ids() + ["greet"])
        assert registry.get("final_doctor") == PACKAGED_TEMPLATES.get("final_doctor")

    def test_custom_directory_reads_whole_when_built(self, tmp_path):
        templates = copy_templates(tmp_path / "templates")
        registry = TemplateRegistry(templates)
        (templates / "final_doctor.txt").write_text("edited after the build")
        assert registry.get("final_doctor") == PACKAGED_TEMPLATES.get("final_doctor")

    def test_partial_directory_rejected_when_built(self, tmp_path):
        templates = copy_templates(tmp_path / "templates", skip={"final_doctor"})
        with pytest.raises(ConfigError, match="lacks final_doctor"):
            TemplateRegistry(templates)

    def test_unreadable_template_rejected_when_built(self, tmp_path):
        templates = copy_templates(tmp_path / "templates")
        (templates / "final_doctor.txt").write_bytes(b"\xff\xfe not utf-8")
        with pytest.raises(ConfigError, match="cannot read templates"):
            TemplateRegistry(templates)

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            TemplateRegistry(tmp_path / "nope")


class TestInitialDiagnosis:
    def test_well_formed(self):
        provider = ScriptedChatProvider([ten_candidates_json()])
        result = initial_diagnosis(provider, config_for_role(AgentRole.INITIAL_DOCTOR), make_case())
        assert list(result.candidates) == TEN

    def test_short_list_retries_then_errors(self):
        short = json.dumps({"candidates": TEN[:8]})
        provider = ScriptedChatProvider([short, short, short])
        with pytest.raises(AgentOutputError) as exc_info:
            initial_diagnosis(provider, config_for_role(AgentRole.INITIAL_DOCTOR), make_case())
        assert provider.calls == 3  # 1 + max_retries re-asks
        assert exc_info.value.raw == short

    @pytest.mark.parametrize("reply", ["[" * 1500, "[" + "1" * 5000 + "]"],
                             ids=["too-deep", "too-long-integer"])
    def test_a_reply_json_cannot_decode_is_re_asked(self, reply):
        provider = ScriptedChatProvider([reply, ten_candidates_json()])
        result = initial_diagnosis(provider, config_for_role(AgentRole.INITIAL_DOCTOR), make_case())
        assert provider.calls == 2
        assert list(result.candidates) == TEN

    def test_folded_duplicates_trigger_retry_then_success(self):
        duped = json.dumps({"candidates": ["glioma", "Glioma"] + TEN[2:]})
        provider = ScriptedChatProvider([duped, ten_candidates_json()])
        result = initial_diagnosis(provider, config_for_role(AgentRole.INITIAL_DOCTOR), make_case())
        assert provider.calls == 2
        assert list(result.candidates) == TEN

    def test_retry_appends_format_reminder(self):
        class Recorder(ScriptedChatProvider):
            def __init__(self, script):
                super().__init__(script)
                self.requests = []

            def complete(self, request):
                self.requests.append(request)
                return super().complete(request)

        provider = Recorder(["not json", ten_candidates_json()])
        initial_diagnosis(provider, config_for_role(AgentRole.INITIAL_DOCTOR), make_case())
        retry_request = provider.requests[1]
        assert len(retry_request.messages) == 3
        assert retry_request.messages[1].role == "assistant"
        assert "JSON" in retry_request.messages[2].content


class TestGenerateQueries:
    def pairs_json(self, n):
        return json.dumps(
            [{"question": f"question {i}?", "keyword": f"keyword {i}"} for i in range(n)]
        )

    def test_five_pairs(self):
        provider = ScriptedChatProvider([self.pairs_json(5)])
        pairs = generate_queries(provider, config_for_role(AgentRole.QUERY_GENERATOR), make_case(), 5)
        assert len(pairs) == 5
        assert pairs[0].keyword == "keyword 0"

    def test_wrong_count_retries_then_errors(self):
        provider = ScriptedChatProvider([self.pairs_json(3)] * 3)
        with pytest.raises(AgentOutputError):
            generate_queries(provider, config_for_role(AgentRole.QUERY_GENERATOR), make_case(), 5)
        assert provider.calls == 3

    def test_empty_keyword_triggers_retry(self):
        bad = json.dumps([{"question": "q?", "keyword": ""}])
        provider = ScriptedChatProvider([bad, self.pairs_json(1)])
        pairs = generate_queries(provider, config_for_role(AgentRole.QUERY_GENERATOR), make_case(), 1)
        assert provider.calls == 2
        assert len(pairs) == 1


RETRIEVED = [
    ScoredChunk("doc:0", 0.9, "glioblastoma"),
    ScoredChunk("doc:1", 0.8, "glioblastoma"),
    ScoredChunk("doc:2", 0.7, "glioblastoma"),
    ScoredChunk("doc:3", 0.6, "glioblastoma"),
    ScoredChunk("doc:4", 0.5, "glioblastoma"),
]
CHUNK_TEXTS = {f"doc:{i}": f"chunk text {i}" for i in range(5)}


class TestAnswerQuestion:
    def test_citing_subset(self):
        reply = json.dumps({"answer": "ring enhancement is typical", "supporting_chunk_ids": ["doc:0", "doc:2"]})
        provider = ScriptedChatProvider([reply])
        answer = answer_question(
            provider,
            config_for_role(AgentRole.ANSWER_GENERATOR),
            "does it enhance?",
            RETRIEVED,
            CHUNK_TEXTS,
            keyword="glioblastoma",
        )
        assert answer.supporting_chunk_ids == ("doc:0", "doc:2")
        assert answer.keyword == "glioblastoma"

    def test_empty_retrieval_sentinel_without_provider_call(self):
        provider = ScriptedChatProvider(["should never be used"])
        answer = answer_question(
            provider,
            config_for_role(AgentRole.ANSWER_GENERATOR),
            "anything?",
            [],
            {},
            keyword="rare thing",
        )
        assert answer.answer == NO_EVIDENCE_ANSWER
        assert answer.supporting_chunk_ids == ()
        assert provider.calls == 0

    def test_citing_unknown_id_rejected_then_retried(self):
        bad = json.dumps({"answer": "made up", "supporting_chunk_ids": ["other:9"]})
        good = json.dumps({"answer": "grounded", "supporting_chunk_ids": ["doc:1"]})
        provider = ScriptedChatProvider([bad, good])
        answer = answer_question(
            provider,
            config_for_role(AgentRole.ANSWER_GENERATOR),
            "q?",
            RETRIEVED,
            CHUNK_TEXTS,
        )
        assert provider.calls == 2
        assert answer.supporting_chunk_ids == ("doc:1",)

    def test_prompt_contains_chunk_ids_and_texts(self):
        class Recorder(ScriptedChatProvider):
            def __init__(self, script):
                super().__init__(script)
                self.requests = []

            def complete(self, request):
                self.requests.append(request)
                return super().complete(request)

        reply = json.dumps({"answer": "a", "supporting_chunk_ids": ["doc:0"]})
        provider = Recorder([reply])
        answer_question(
            provider, config_for_role(AgentRole.ANSWER_GENERATOR), "q?", RETRIEVED, CHUNK_TEXTS
        )
        prompt = provider.requests[0].messages[0].content
        assert "[doc:0]" in prompt
        assert "chunk text 3" in prompt


class TestFinalDiagnosis:
    def test_well_formed(self):
        provider = ScriptedChatProvider([report_json()])
        report = final_diagnosis(
            provider,
            config_for_role(AgentRole.FINAL_DOCTOR),
            make_case(),
            CandidateList(tuple(TEN)),
            [],
            trace_id="t-1",
        )
        assert report.primary == "glioblastoma"
        assert report.confidences == (0.6, 0.2, 0.1, 0.06, 0.04)
        assert report.trace_id == "t-1"

    def test_out_of_order_confidences_retry(self):
        bad = report_json(confidences=(0.2, 0.6, 0.1, 0.05, 0.05))
        provider = ScriptedChatProvider([bad, report_json()])
        report = final_diagnosis(
            provider,
            config_for_role(AgentRole.FINAL_DOCTOR),
            make_case(),
            CandidateList(tuple(TEN)),
            [],
        )
        assert provider.calls == 2
        assert report.primary == "glioblastoma"

    def test_four_labels_only_errors_after_retries(self):
        bad = json.dumps(
            {"primary": "p", "differentials": ["a", "b", "c"], "confidences": [0.5, 0.2, 0.1, 0.1]}
        )
        provider = ScriptedChatProvider([bad] * 3)
        with pytest.raises(AgentOutputError):
            final_diagnosis(
                provider,
                config_for_role(AgentRole.FINAL_DOCTOR),
                make_case(),
                CandidateList(tuple(TEN)),
                [],
            )

    def test_evidence_attached_verbatim(self):
        evidence = [EvidenceAnswer("q", "ans", ("c0",), "k")]
        provider = ScriptedChatProvider([report_json()])
        report = final_diagnosis(
            provider,
            config_for_role(AgentRole.FINAL_DOCTOR),
            make_case(),
            CandidateList(tuple(TEN)),
            evidence,
        )
        assert report.evidence == tuple(evidence)


class TestAgentConfig:
    def test_negative_temperature_rejected(self):
        with pytest.raises(ValidationError):
            AgentConfig(
                role=AgentRole.FINAL_DOCTOR,
                temperature=-1.0,
                top_p=0.9,
                prompt_template_id="final_doctor",
            )


class TestDeterminism:
    def test_same_scripts_same_outputs(self):
        def run():
            provider = ScriptedChatProvider([ten_candidates_json(), report_json()])
            cfg_init = config_for_role(AgentRole.INITIAL_DOCTOR)
            cfg_final = config_for_role(AgentRole.FINAL_DOCTOR)
            case = make_case()
            candidates = initial_diagnosis(provider, cfg_init, case)
            report = final_diagnosis(provider, cfg_final, case, candidates, [], trace_id="t")
            return json.dumps(report.to_dict(), sort_keys=True)

        assert run() == run()
