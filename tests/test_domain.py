from __future__ import annotations

import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from radar.domain import (
    NO_EVIDENCE_ANSWER,
    CandidateList,
    Case,
    DiagnosisReport,
    EvidenceAnswer,
    QueryPair,
    canonical_fold,
    load_cases,
    no_evidence_answer,
    read_json,
    validate_case,
)
from radar.errors import ConfigError, CorruptionError, EvaluationError, ValidationError
from radar.evaluation import load_synonyms
from radar.knowledge import FixtureSource, KnowledgeBase
from radar.providers import scripted_provider_from_file
from radar.runner import load_run_config


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
         "paraphrase_id not a non-negative integer", ["paraphrase_id not a non-negative integer"]),
    ], ids=["missing", "not-utf8", "not-json", "array", "string", "empty-id", "string-paraphrase"])
    def test_load_cases_names_the_fault(self, tmp_path, content, where, problem, fields):
        path = tmp_path / "cases.jsonl"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ValidationError, match=problem) as exc_info:
            load_cases(path)
        assert f"{path}{where}" in str(exc_info.value)
        assert exc_info.value.fields == fields


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

    @pytest.mark.parametrize("edit", [
        lambda raw: raw.update(differentials="bcde"),
        lambda raw: raw.update(confidences="abcde"),
        lambda raw: raw.update(evidence="ab"),
        lambda raw: raw["evidence"][0].update(supporting_chunk_ids="ab"),
        lambda raw: raw["confidences"].__setitem__(0, "0.6"),
        lambda raw: raw["confidences"].__setitem__(4, False),
        lambda raw: raw["evidence"][0]["supporting_chunk_ids"].append(7),
        lambda raw: raw["confidences"].__setitem__(0, 10**400),
    ], ids=["string-differentials", "string-confidences", "string-evidence", "string-chunk-ids",
            "string-confidence", "bool-confidence", "int-chunk-id", "huge-int-confidence"])
    def test_from_dict_checks_rather_than_converts(self, edit):
        evidence = (EvidenceAnswer("q", "ans", ("x",), "k"),)
        raw = DiagnosisReport("p", ("a", "b", "c", "d"), (0.6, 0.2, 0.1, 0.1, 0.0),
                              evidence).to_dict()
        edit(raw)
        with pytest.raises(ValidationError):
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
