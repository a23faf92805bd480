from __future__ import annotations

import dataclasses
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radar.chunking import Document, Section
from radar.domain import (
    NO_EVIDENCE_ANSWER,
    CandidateList,
    Case,
    DiagnosisReport,
    EvidenceAnswer,
    QueryPair,
    canonical_fold,
    decode,
    encode,
    load_cases,
    no_evidence_answer,
    read_json,
    validate_case,
)
from radar.errors import ConfigError, CorruptionError, EvaluationError, ValidationError
from radar.evaluation import TruthRecord, load_synonyms
from radar.knowledge import FetchLogEntry, FixtureSource, KnowledgeBase, StoreMeta
from radar.providers import ScriptEntry, scripted_provider_from_file
from radar.runner import (
    KbSettings,
    ReportLine,
    RunConfig,
    SourceSettings,
    load_run_config,
)


class TestCanonicalFold:
    def test_strips_punctuation_keeps_intra_word_hyphen(self):
        assert canonical_fold("Glioblastoma,  IDH-wildtype") == "glioblastoma idh-wildtype"

    def test_fixed_point(self):
        assert canonical_fold("abc") == "abc"

    def test_whitespace_collapse(self):
        assert canonical_fold("  A  B ") == "a b"

    def test_digits_survive(self):
        assert canonical_fold("Type-2 NF2") == "type-2 nf2"

    def test_edge_hyphens_dropped(self):
        assert canonical_fold("-abc-") == "abc"
        assert canonical_fold("a - b") == "a b"

    def test_empty_raises(self):
        with pytest.raises(ValidationError):
            canonical_fold("")

    @given(st.text(min_size=1, max_size=80))
    def test_idempotent(self, text):
        folded = canonical_fold(text)
        if folded:
            assert canonical_fold(folded) == folded


class TestValidateCase:
    def test_valid_record(self):
        case = validate_case(
            {
                "id": "c1",
                "caption": "T2 hyperintense lesion",
                "clinical_data": "headache",
                "truth_label": "glioma",
                "paraphrase_id": 0,
            }
        )
        assert isinstance(case, Case)
        assert case.paraphrase_id == 0

    def test_empty_id_names_field(self):
        with pytest.raises(ValidationError) as exc_info:
            validate_case({"id": "", "caption": "x", "truth_label": "y"})
        assert exc_info.value.fields == ["id empty"]

    def test_empty_caption_names_field(self):
        with pytest.raises(ValidationError) as exc_info:
            validate_case({"id": "c2", "caption": "", "truth_label": "y"})
        assert exc_info.value.fields == ["caption empty"]

    def test_multiple_violations_all_reported(self):
        with pytest.raises(ValidationError) as exc_info:
            validate_case({"id": "", "caption": "", "truth_label": "", "paraphrase_id": -1})
        assert len(exc_info.value.fields) == 4

    def test_direct_construction_also_validates(self):
        with pytest.raises(ValidationError):
            Case(id="", caption="x", clinical_data="", truth_label="y")

    def test_load_cases_roundtrip(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        path.write_text(
            '{"id": "c1", "caption": "a", "clinical_data": "b", "truth_label": "t", "paraphrase_id": 0}\n'
            '\n'
            '{"id": "c2", "caption": "c", "clinical_data": "d", "truth_label": "u", "paraphrase_id": 1}\n',
            encoding="utf-8",
        )
        cases = load_cases(path)
        assert [c.id for c in cases] == ["c1", "c2"]

    def test_load_cases_rejects_bom(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        path.write_bytes("﻿{}".encode("utf-8"))
        with pytest.raises(ValidationError, match="BOM"):
            load_cases(path)

    GOOD_CASE = b'{"id": "c1", "caption": "a", "truth_label": "t"}\n'

    @pytest.mark.parametrize("content, where, problem, fields", [
        (None, "", "cannot read", []),
        (b"\xff\xfe not utf-8\n", "", "cannot read", []),
        (GOOD_CASE + b'{"id": "c2"\n', ":2", "not valid JSON", []),
        (GOOD_CASE + b"[1, 2]\n", ":2", "expected a JSON object, got list", []),
        (GOOD_CASE + b'"c2"\n', ":2", "expected a JSON object, got str", []),
        (GOOD_CASE + b'{"id": "", "caption": "x", "truth_label": "y"}\n', ":2",
         "invalid case: id empty", ["id empty"]),
        (b'{"id": "c1", "caption": "a", "truth_label": "t", "paraphrase_id": "1"}\n', ":1",
         "key 'paraphrase_id' must be an integer, got \"1\"", ["paraphrase_id"]),
        (GOOD_CASE + b'{"id": "sub/c2", "caption": "x", "truth_label": "y"}\n', ":2",
         "invalid case: id not usable as a file name", ["id not usable as a file name"]),
        (GOOD_CASE + b'{"id": "../../c2", "caption": "x", "truth_label": "y"}\n', ":2",
         "invalid case: id not usable as a file name", ["id not usable as a file name"]),
        (GOOD_CASE + b'{"id": "..", "caption": "x", "truth_label": "y"}\n', ":2",
         "invalid case: id not usable as a file name", ["id not usable as a file name"]),
        (GOOD_CASE + b'{"id": ".", "caption": "x", "truth_label": "y"}\n', ":2",
         "invalid case: id not usable as a file name", ["id not usable as a file name"]),
        (GOOD_CASE + b'{"id": "c\\u00002", "caption": "x", "truth_label": "y"}\n', ":2",
         "invalid case: id not usable as a file name", ["id not usable as a file name"]),
    ], ids=["missing", "not-utf8", "not-json", "array", "string", "empty-id", "string-paraphrase",
            "slash-id", "dot-dot-path-id", "dot-dot-id", "dot-id", "nul-id"])
    def test_load_cases_names_the_fault(self, tmp_path, content, where, problem, fields):
        path = tmp_path / "cases.jsonl"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ValidationError, match=problem) as exc_info:
            load_cases(path)
        assert f"{path}{where}" in str(exc_info.value)
        assert exc_info.value.fields == fields

    def test_load_cases_names_both_lines_of_a_repeated_id(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        path.write_bytes(self.GOOD_CASE + b'{"id": "c2", "caption": "b", "truth_label": "u"}\n'
                         + self.GOOD_CASE)
        with pytest.raises(ValidationError, match=re.escape(
                f"{path}:3: id 'c1' already appears at {path}:1")):
            load_cases(path)


class TestCandidateList:
    TEN = tuple(f"diagnosis {i}" for i in range(10))

    def test_exactly_ten_ok(self):
        assert len(CandidateList(self.TEN).candidates) == 10

    @pytest.mark.parametrize("n", [0, 8, 9, 11])
    def test_wrong_cardinality_rejected(self, n):
        with pytest.raises(ValidationError):
            CandidateList(tuple(f"d{i}" for i in range(n)))

    def test_duplicates_after_folding_rejected(self):
        entries = ("glioma", "Glioma") + tuple(f"d{i}" for i in range(8))
        with pytest.raises(ValidationError, match="duplicates"):
            CandidateList(entries)

    def test_empty_entry_rejected(self):
        with pytest.raises(ValidationError):
            CandidateList(("",) + self.TEN[1:])


class TestQueryPair:
    def test_ok(self):
        pair = QueryPair(question="What enhances?", keyword="ring enhancement")
        assert pair.keyword == "ring enhancement"

    def test_empty_parts_rejected(self):
        with pytest.raises(ValidationError):
            QueryPair(question="", keyword="k")
        with pytest.raises(ValidationError):
            QueryPair(question="q", keyword=" ")

    def test_keyword_length_cap(self):
        with pytest.raises(ValidationError):
            QueryPair(question="q", keyword="k" * 101)
        QueryPair(question="q", keyword="k" * 100)


class TestEvidenceAnswer:
    def test_cited_answer_ok(self):
        ans = EvidenceAnswer("q", "the lesion enhances", ("c1", "c2"), "enhancement")
        assert ans.supporting_chunk_ids == ("c1", "c2")

    def test_uncited_non_sentinel_rejected(self):
        with pytest.raises(ValidationError):
            EvidenceAnswer("q", "some claim", (), "k")

    def test_sentinel_may_be_uncited(self):
        ans = no_evidence_answer("q", "k")
        assert ans.answer == NO_EVIDENCE_ANSWER
        assert ans.supporting_chunk_ids == ()


class TestDiagnosisReport:
    def test_valid_report(self):
        report = DiagnosisReport(
            primary="glioblastoma",
            differentials=("metastasis", "lymphoma", "abscess", "demyelination"),
            confidences=(0.6, 0.2, 0.1, 0.06, 0.04),
        )
        assert report.labels[0] == "glioblastoma"
        assert len(report.labels) == 5

    @pytest.mark.parametrize("n_diff", [3, 5])
    def test_wrong_differential_count(self, n_diff):
        with pytest.raises(ValidationError):
            DiagnosisReport(
                primary="p",
                differentials=tuple(f"d{i}" for i in range(n_diff)),
                confidences=(0.5, 0.2, 0.1, 0.1, 0.1),
            )

    def test_wrong_confidence_count(self):
        with pytest.raises(ValidationError):
            DiagnosisReport(
                primary="p",
                differentials=("a", "b", "c", "d"),
                confidences=(0.5, 0.2, 0.1),
            )

    def test_increasing_confidences_rejected(self):
        with pytest.raises(ValidationError, match="non-increasing"):
            DiagnosisReport(
                primary="p",
                differentials=("a", "b", "c", "d"),
                confidences=(0.2, 0.6, 0.1, 0.05, 0.05),
            )

    def test_confidence_range_enforced(self):
        with pytest.raises(ValidationError):
            DiagnosisReport(
                primary="p",
                differentials=("a", "b", "c", "d"),
                confidences=(1.2, 0.6, 0.1, 0.05, 0.05),
            )

    def test_dict_roundtrip(self):
        report = DiagnosisReport(
            primary="p",
            differentials=("a", "b", "c", "d"),
            confidences=(0.5, 0.2, 0.1, 0.1, 0.1),
            evidence=(EvidenceAnswer("q", "ans", ("x",), "k"),),
            trace_id="radar-c1",
        )
        assert DiagnosisReport.from_dict(report.to_dict()) == report

    def test_huge_integer_confidence_is_rejected(self):
        raw = DiagnosisReport("p", ("a", "b", "c", "d"), (0.6, 0.2, 0.1, 0.1, 0.0)).to_dict()
        raw["confidences"][0] = 10**400  # an integer, but one no float holds
        with pytest.raises(ValidationError, match="outside"):
            DiagnosisReport.from_dict(raw)


def _store_file(name):
    def make(tmp_path):
        KnowledgeBase(dim=8).save(tmp_path / "store")
        return tmp_path / "store" / name
    return make


def _corpus_file(tmp_path):
    (tmp_path / "corpus").mkdir()
    return tmp_path / "corpus" / "doc.json"


# Each whole-file JSON read: (path of the file to spoil, the read, its error,
# its top-level type).
JSON_READS = {
    "config": (lambda tmp: tmp / "config.json", load_run_config, ConfigError, dict),
    "synonyms": (lambda tmp: tmp / "syn.json", load_synonyms, EvaluationError, dict),
    "script": (lambda tmp: tmp / "script.json", scripted_provider_from_file, ConfigError, list),
    "meta": (_store_file("meta.json"), lambda p: KnowledgeBase.load(p.parent),
             CorruptionError, dict),
    "documents": (_store_file("documents.json"), lambda p: KnowledgeBase.load(p.parent),
                  CorruptionError, dict),
    "corpus": (_corpus_file, lambda p: FixtureSource(p.parent), ConfigError, dict),
}

JSON_FAULTS = {
    "missing": lambda path, top: path.unlink(missing_ok=True),
    "directory": lambda path, top: path.unlink(missing_ok=True) or path.mkdir(),
    "not-utf8": lambda path, top: path.write_bytes(b"\xff\xfe"),
    "bom": lambda path, top: path.write_bytes("\ufeff".encode() + top),
    "not-json": lambda path, top: path.write_bytes(top[:1] + b"not json"),
    "wrong-type": lambda path, top: path.write_bytes(b"{}" if top == b"[]" else b"[]"),
}

FAULT_MESSAGES = {
    "missing": "cannot read", "directory": "cannot read", "not-utf8": "cannot read",
    "bom": "without BOM", "not-json": "not valid JSON", "wrong-type": "expected a JSON",
}


class TestReadJson:
    @pytest.mark.parametrize("read, fault", [
        (read, fault) for read in JSON_READS for fault in JSON_FAULTS
        if (read, fault) != ("corpus", "missing")  # a corpus file is read only when listed
    ])
    def test_every_json_read_names_the_file(self, tmp_path, read, fault):
        where, load, error, top = JSON_READS[read]
        path = where(tmp_path)
        JSON_FAULTS[fault](path, b"[]" if top is list else b"{}")
        with pytest.raises(error, match=FAULT_MESSAGES[fault]) as exc_info:
            load(path)
        assert str(path) in str(exc_info.value)

    @pytest.mark.parametrize("content, expect, message", [
        (b"[1]", dict, "expected a JSON object, got list"),
        (b'{"a": 1}', list, "expected a JSON array, got dict"),
        (b'"text"', dict, "expected a JSON object, got str"),
        (b"{", dict, "not valid JSON"),
        (b"1" * 5000, dict, "not valid JSON"),
        (b"[" * 100_000 + b"]" * 100_000, list, "not valid JSON"),
    ], ids=["array", "object", "string", "truncated", "long-integer", "deep-nesting"])
    def test_read_json_wording_is_read_jsonl_wording(self, tmp_path, content, expect, message):
        path = tmp_path / "f.json"
        path.write_bytes(content)
        with pytest.raises(EvaluationError, match=re.escape(f"{path}: {message}")):
            read_json(path, EvaluationError, expect=expect)

    @pytest.mark.parametrize("content, expect", [(b'{"a": [1]}', dict), (b"[{}]", list)])
    def test_read_json_returns_the_value(self, tmp_path, content, expect):
        path = tmp_path / "f.json"
        path.write_bytes(content)
        assert read_json(path, EvaluationError, expect=expect) == json.loads(content)


# ---------------------------------------------------------------------------
# decode: every record read from a file
# ---------------------------------------------------------------------------

# One JSON value of each type, by name.
JSON_VALUES = {"null": None, "boolean": True, "integer": 7, "fraction": 0.5, "string": "text",
               "array": [], "object": {}}
STRING, INTEGER, NUMBER, ARRAY, OBJECT = ({"string"}, {"integer"}, {"integer", "fraction"},
                                          {"array"}, {"object"})
CHOICE: set[str] = set()  # "text" is none of the choices, so every value is rejected
NULLABLE_STRING, SECTION = STRING | {"null"}, OBJECT | {"null"}  # a null section is absent

EVIDENCE = EvidenceAnswer("q", "the lesion enhances", ("d1:0", "d1:1"), "enhancement")
REPORT = DiagnosisReport("glioma", ("a", "b", "c", "d"), (0.6, 0.2, 0.1, 0.06, 0.04), (EVIDENCE,),
                         "radar-c1")
REPORT_FIELDS = {
    "primary": STRING, "differentials": ARRAY, "differentials.0": STRING,
    "confidences": ARRAY, "confidences.0": NUMBER, "evidence": ARRAY, "evidence.0": OBJECT,
    "evidence.0.question": STRING, "evidence.0.answer": STRING, "evidence.0.keyword": STRING,
    "evidence.0.supporting_chunk_ids": ARRAY, "evidence.0.supporting_chunk_ids.0": STRING,
    "trace_id": STRING,
}
FETCH_LOG_ENTRY = FetchLogEntry("glioma", 1_700_000_000.5, 10)
CONFIG = RunConfig(kb=KbSettings(source=SourceSettings(fail_keywords=("broken term",))))

# Each decoded record type: (an instance, the error its reader raises, the
# JSON types each key path accepts, how unknown keys are handled).
RECORDS = {
    "case": (Case("c1", "caption", "clinical", "glioma", 2), ValidationError,
             {"id": STRING, "caption": STRING, "clinical_data": STRING, "truth_label": STRING,
              "paraphrase_id": INTEGER}, "ignore"),
    "document": (Document("d1", "glioma", Section.CASE, "title", "body", "https://x.test/d1"),
                 CorruptionError,
                 {"doc_id": STRING, "keyword": STRING, "section": CHOICE, "title": STRING,
                  "body": STRING, "source_url": STRING}, "ignore"),
    "evidence": (EVIDENCE, ValidationError,
                 {k.removeprefix("evidence.0."): v for k, v in REPORT_FIELDS.items()
                  if k.startswith("evidence.0.")}, "ignore"),
    "report": (REPORT, ValidationError, REPORT_FIELDS, "ignore"),
    "report-line": (ReportLine(**vars(REPORT), case_id="c1"), EvaluationError,
                    {**REPORT_FIELDS, "case_id": STRING}, "ignore"),
    "fetch-log-entry": (FETCH_LOG_ENTRY, CorruptionError,
                        {"keyword": STRING, "timestamp": NUMBER, "doc_count": INTEGER}, "ignore"),
    "store-meta": (StoreMeta(1000, 200, ("glioma",), (FETCH_LOG_ENTRY,)), CorruptionError,
                   {"chunk_chars": INTEGER, "overlap_chars": INTEGER, "fetched_keywords": ARRAY,
                    "fetched_keywords.0": STRING, "fetch_log": ARRAY, "fetch_log.0": OBJECT,
                    "fetch_log.0.keyword": STRING, "fetch_log.0.timestamp": NUMBER,
                    "fetch_log.0.doc_count": INTEGER}, "ignore"),
    "script-entry": (ScriptEntry("reply", "f00d"), ConfigError,
                     {"content": STRING, "fingerprint": STRING}, "ignore"),
    "truth": (TruthRecord("c1", "glioma"), EvaluationError,
              {"case_id": STRING, "truth_label": STRING}, "ignore"),
    "config": (CONFIG, ConfigError, {
        "topology": CHOICE, "seed": INTEGER, "workers": INTEGER,
        "provider": SECTION, "provider.kind": CHOICE, "provider.script_path": NULLABLE_STRING,
        "provider.chat": SECTION, "provider.chat.url": NULLABLE_STRING,
        "provider.embed": SECTION, "provider.embed.url": NULLABLE_STRING,
        "provider.timeouts_ms": INTEGER, "provider.model": NULLABLE_STRING,
        "provider.embedder_kind": CHOICE, "provider.dim": INTEGER,
        "kb": SECTION, "kb.chunk_chars": INTEGER, "kb.overlap_chars": INTEGER,
        "kb.store_dir": NULLABLE_STRING, "kb.source": SECTION, "kb.source.kind": CHOICE,
        "kb.source.corpus_dir": NULLABLE_STRING, "kb.source.fail_keywords": ARRAY,
        "kb.source.fail_keywords.0": STRING, "kb.source.base_url": NULLABLE_STRING,
        "kb.source.delay_ms": INTEGER, "kb.source.cache_dir": NULLABLE_STRING,
        "agents": SECTION, "agents.n_queries": INTEGER, "agents.max_retries": INTEGER,
        "agents.template_dir": NULLABLE_STRING, "eval": SECTION,
        "eval.normalizer_kind": CHOICE, "eval.synonym_table": NULLABLE_STRING,
    }, "reject"),
}


def _json_form(record) -> dict:
    return json.loads(json.dumps(encode(record)))


def _replace(raw, path: str, value):
    *parents, last = path.split(".")
    for key in parents:
        raw = raw[int(key)] if isinstance(raw, list) else raw[key]
    raw[int(last) if isinstance(raw, list) else last] = value


class TestDecodeTable:
    def test_every_key_of_every_record_is_in_the_table(self):
        def paths(value, prefix=""):
            if isinstance(value, dict):
                items = value.items()
            elif isinstance(value, list):
                items = list(enumerate(value))[:1]
            else:
                return []
            return [p for key, item in items
                    for p in (f"{prefix}{key}", *paths(item, f"{prefix}{key}."))]
        for name, (record, _, accepts, _) in RECORDS.items():
            assert sorted(paths(_json_form(record))) == sorted(accepts), name

    @pytest.mark.parametrize("name", RECORDS)
    def test_the_json_form_reads_back(self, name):
        record, error, _, unknown = RECORDS[name]
        assert decode(type(record), _json_form(record), "r", error, unknown=unknown) == record

    @pytest.mark.parametrize("name, path", [
        (name, path) for name, (_, _, accepts, _) in RECORDS.items() for path in accepts
    ])
    def test_a_value_of_another_json_type_is_named(self, name, path):
        record, error, accepts, unknown = RECORDS[name]
        for kind, value in JSON_VALUES.items():
            if kind in accepts[path]:
                continue
            raw = _json_form(record)
            _replace(raw, path, value)
            with pytest.raises(error) as exc_info:
                decode(type(record), raw, "where", error, unknown=unknown)
            assert str(exc_info.value).startswith(f"where: key {path!r} must be "), kind
            if error is ValidationError:
                assert exc_info.value.fields == [path]

    @pytest.mark.parametrize("name", RECORDS)
    def test_a_missing_required_key_is_named(self, name):
        record, error, accepts, unknown = RECORDS[name]
        required = [f.name for f in dataclasses.fields(record) if f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING and not f.metadata]
        for key in required:
            raw = _json_form(record)
            del raw[key]
            with pytest.raises(error, match=re.escape(f"where: key {key!r} is missing")):
                decode(type(record), raw, "where", error, unknown=unknown)

    @pytest.mark.parametrize("value", list(JSON_VALUES.values())[:-1],
                             ids=list(JSON_VALUES)[:-1])
    def test_a_record_must_be_an_object(self, value):
        with pytest.raises(CorruptionError, match="where: must be an object, got "):
            decode(FetchLogEntry, value, "where", CorruptionError)

    def test_unknown_keys_are_ignored_or_named(self):
        raw = {**_json_form(FETCH_LOG_ENTRY), "extra": 1}
        assert decode(FetchLogEntry, raw, "r", CorruptionError, unknown="ignore") == FETCH_LOG_ENTRY
        with pytest.raises(CorruptionError, match="where: key 'extra' is unknown"):
            decode(FetchLogEntry, raw, "where", CorruptionError)

    def test_an_invariant_fault_keeps_the_records_fields(self):
        with pytest.raises(ValidationError) as exc_info:
            decode(Case, {"id": "", "caption": "", "truth_label": "t"}, "where", ValidationError)
        assert str(exc_info.value) == "where: invalid case: id empty; caption empty"
        assert exc_info.value.fields == ["id empty", "caption empty"]

    def test_a_nested_invariant_fault_names_its_key(self):
        raw = _json_form(REPORT)
        raw["evidence"][0]["supporting_chunk_ids"] = []
        with pytest.raises(EvaluationError, match="where: key 'evidence.0' is invalid: evidence"):
            decode(DiagnosisReport, raw, "where", EvaluationError, unknown="ignore")


NONEMPTY = st.text(min_size=1).filter(str.strip)
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
EVIDENCE_ANSWERS = st.one_of(
    st.builds(EvidenceAnswer, st.text(), st.text(), st.lists(st.text(), min_size=1).map(tuple),
              st.text()),
    st.builds(no_evidence_answer, st.text(), st.text()),
)
REPORT_ARGS = dict(
    primary=NONEMPTY,
    differentials=st.lists(NONEMPTY, min_size=4, max_size=4).map(tuple),
    confidences=st.lists(st.floats(0, 1), min_size=5, max_size=5).map(
        lambda c: tuple(sorted(c, reverse=True))),
    evidence=st.lists(EVIDENCE_ANSWERS, max_size=3).map(tuple),
    trace_id=st.text(),
)
FETCH_LOG_ENTRIES = st.builds(FetchLogEntry, st.text(), FLOATS, st.integers())
ROUND_TRIPS = {
    "case": st.builds(
        Case, st.text(st.characters(blacklist_characters="/\0"), min_size=1).filter(
            lambda s: s.strip() and s not in (".", "..")),
        NONEMPTY, st.text(), NONEMPTY, st.integers(min_value=0)),
    "document": st.builds(Document, st.text(min_size=1), st.text(min_size=1),
                          st.sampled_from(Section), st.text(), st.text(min_size=1), st.text()),
    "evidence": EVIDENCE_ANSWERS,
    "report": st.builds(DiagnosisReport, **REPORT_ARGS),
    "report-line": st.builds(ReportLine, **REPORT_ARGS, case_id=st.text()),
    "fetch-log-entry": FETCH_LOG_ENTRIES,
    "store-meta": st.integers(1, 10**6).flatmap(lambda chunk: st.builds(
        StoreMeta, st.just(chunk), st.integers(0, chunk - 1),
        st.lists(st.text()).map(tuple), st.lists(FETCH_LOG_ENTRIES).map(tuple))),
    "script-entry": st.builds(ScriptEntry, st.text(), st.text()),
    "truth": st.builds(TruthRecord, st.text(), st.text()),
    "config": st.from_type(RunConfig),
}


def test_round_trips_cover_every_record():
    assert ROUND_TRIPS.keys() == RECORDS.keys()


@pytest.mark.parametrize("name", ROUND_TRIPS)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_decode_reads_back_the_json_form(name, data):
    record = data.draw(ROUND_TRIPS[name])
    _, error, _, unknown = RECORDS[name]
    assert decode(type(record), _json_form(record), "r", error, unknown=unknown) == record
