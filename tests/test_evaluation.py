from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radar.errors import EvaluationError, ValidationError
from radar.evaluation import (
    DictionaryNormalizer,
    EvalResult,
    NormalizedPrediction,
    ProviderNormalizer,
    aggregate,
    evaluate_run,
    load_synonyms,
    load_truths,
    score_case,
)
from radar.providers import ScriptedChatProvider

from conftest import make_report

DICT = DictionaryNormalizer({"gbm": "glioblastoma"})


class TestDictionaryNormalizer:
    def test_table_lookup_after_folding(self):
        assert DICT.normalize("GBM").canonical == "glioblastoma"

    def test_identity_with_fold_when_absent(self):
        assert DictionaryNormalizer().normalize("Glioblastoma").canonical == "glioblastoma"

    def test_idempotent(self):
        first = DICT.normalize("GBM")
        second = DICT.normalize(first.canonical)
        assert second.canonical == first.canonical

    def test_table_values_are_folded(self):
        normalizer = DictionaryNormalizer({"nf2": "Neurofibromatosis Type-2"})
        assert normalizer.normalize("NF2").canonical == "neurofibromatosis type-2"

    def test_empty_label_rejected(self):
        with pytest.raises(ValidationError):
            DICT.normalize("")

    def test_pure_function(self):
        for _ in range(3):
            assert DICT.normalize("GBM") == DICT.normalize("GBM")


class TestProviderNormalizer:
    def test_provider_reply_folded(self):
        provider = ScriptedChatProvider([json.dumps({"canonical": "Glioblastoma"})])
        normalizer = ProviderNormalizer(provider)
        prediction = normalizer.normalize("GBM, IDH-wildtype")
        assert prediction.canonical == "glioblastoma"
        assert not prediction.degraded

    def test_failure_falls_back_to_folded_raw(self):
        provider = ScriptedChatProvider([])  # exhausted: provider failure
        normalizer = ProviderNormalizer(provider)
        prediction = normalizer.normalize("Weird-Term")
        assert prediction.canonical == "weird-term"
        assert prediction.degraded

    def test_garbage_reply_falls_back(self):
        provider = ScriptedChatProvider(["no json here"])
        prediction = ProviderNormalizer(provider).normalize("GBM")
        assert prediction.canonical == "gbm"
        assert prediction.degraded


class TestNormalizedPrediction:
    def test_canonical_must_be_folded(self):
        with pytest.raises(ValidationError):
            NormalizedPrediction(raw="x", canonical="Not Folded", normalizer_id="d")

    def test_canonical_must_be_non_empty(self):
        with pytest.raises(ValidationError):
            NormalizedPrediction(raw="x", canonical="", normalizer_id="d")


class TestScoreCase:
    def test_primary_match_via_dictionary(self):
        report = make_report(primary="GBM")
        assert score_case(report, "glioblastoma", DICT) == (True, True)

    def test_truth_in_third_differential(self):
        report = make_report(primary="something else")
        # differentials: metastasis, lymphoma, abscess, demyelination
        assert score_case(report, "Abscess", DICT) == (False, True)

    def test_no_match(self):
        report = make_report(primary="x")
        assert score_case(report, "unrelated condition", DICT) == (False, False)


def pairs(hits):
    out = []
    for i, (top1, top5) in enumerate(hits):
        primary = "truth" if top1 else f"miss {i}"
        differentials = ("truth", "b", "c", "d") if (top5 and not top1) else (f"d{i}a", "b", "c", "d")
        out.append((f"case{i}", make_report(primary=primary, differentials=differentials)))
    return out


class TestEvaluateRun:
    TRUTHS = {f"case{i}": "truth" for i in range(4)}

    def test_half_and_three_quarters(self):
        reports = pairs([(True, True), (False, True), (False, False), (True, True)])
        result = evaluate_run(reports, self.TRUTHS, DictionaryNormalizer())
        assert result.top1 == 0.5
        assert result.top5 == 0.75
        assert result.n_cases == 4
        assert [s.top5_hit for s in result.per_case] == [True, True, False, True]

    def test_empty_input_rejected(self):
        with pytest.raises(EvaluationError):
            evaluate_run([], self.TRUTHS, DictionaryNormalizer())

    def test_all_hits(self):
        reports = pairs([(True, True)] * 3)
        result = evaluate_run(reports, self.TRUTHS, DictionaryNormalizer())
        assert result.top1 == result.top5 == 1.0

    def test_missing_truth_lists_ids(self):
        reports = pairs([(True, True), (False, True)])
        with pytest.raises(EvaluationError) as exc_info:
            evaluate_run(reports, {"case0": "truth"}, DictionaryNormalizer())
        assert exc_info.value.missing_ids == ["case1"]

    def test_permutation_invariant(self):
        reports = pairs([(True, True), (False, True), (False, False), (True, True)])
        forward = evaluate_run(reports, self.TRUTHS, DictionaryNormalizer())
        backward = evaluate_run(list(reversed(reports)), self.TRUTHS, DictionaryNormalizer())
        assert (forward.top1, forward.top5) == (backward.top1, backward.top5)
        assert sorted(s.case_id for s in forward.per_case) == sorted(
            s.case_id for s in backward.per_case
        )

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_top1_implies_top5(self, rng):
        labels = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
        rng.shuffle(labels)
        report = make_report(primary=labels[0], differentials=tuple(labels[1:5]))
        truth = rng.choice(labels)
        top1, top5 = score_case(report, truth, DictionaryNormalizer())
        assert not top1 or top5


class TestAggregate:
    def _result(self, top1, top5=None, run_id="r"):
        return EvalResult(
            run_id=run_id,
            n_cases=1,
            top1=top1,
            top5=top1 if top5 is None else top5,
            per_case=(),
        )

    def test_constant_runs(self):
        agg = aggregate([self._result(0.5)] * 3)
        assert agg.mean_top1 == 50.0
        assert agg.std_top1 == 0.0

    def test_two_run_sample_std(self):
        agg = aggregate([self._result(0.45), self._result(0.55)])
        assert agg.mean_top1 == pytest.approx(50.0, abs=1e-9)
        assert agg.std_top1 == pytest.approx(7.0711, abs=1e-3)

    def test_single_run_zero_std(self):
        agg = aggregate([self._result(0.625)])
        assert agg.mean_top1 == 62.5
        assert agg.std_top1 == 0.0
        assert agg.n_runs == 1

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            aggregate([])


class TestEvalResultInvariants:
    def test_top1_cannot_exceed_top5(self):
        with pytest.raises(ValidationError):
            EvalResult(run_id="r", n_cases=1, top1=0.8, top5=0.5, per_case=())

    def test_needs_cases(self):
        with pytest.raises(ValidationError):
            EvalResult(run_id="r", n_cases=0, top1=0.0, top5=0.0, per_case=())


class TestFileLoaders:
    def test_truths(self, tmp_path):
        path = tmp_path / "truth.jsonl"
        path.write_text(
            '{"case_id": "c1", "truth_label": "glioma"}\n'
            '{"case_id": "c2", "truth_label": "lymphoma"}\n'
        )
        assert load_truths(path) == {"c1": "glioma", "c2": "lymphoma"}

    def test_bad_truth_record(self, tmp_path):
        path = tmp_path / "truth.jsonl"
        path.write_text('{"case": "c1"}\n')
        with pytest.raises(EvaluationError):
            load_truths(path)

    GOOD_TRUTH = b'{"case_id": "c1", "truth_label": "glioma"}\n'

    @pytest.mark.parametrize("content, where, problem", [
        (None, "", "cannot read"),
        (b"\xff\xfe not utf-8\n", "", "cannot read"),
        ("\ufeff".encode() + GOOD_TRUTH, "", "without BOM"),
        (GOOD_TRUTH + b'{"case_id": "c2",\n', ":2", "not valid JSON"),
        (GOOD_TRUTH + b'["c2", "glioma"]\n', ":2", "expected a JSON object, got list"),
        (GOOD_TRUTH + b'{"case_id": "c2"}\n', ":2", "bad truth record"),
        (GOOD_TRUTH + b'{"case_id": 2, "truth_label": "glioma"}\n', ":2", "bad truth record"),
        (GOOD_TRUTH + b'{"case_id": "c2", "truth_label": null}\n', ":2", "bad truth record"),
    ], ids=["missing", "not-utf8", "bom", "not-json", "array", "no-label", "int-case-id",
            "null-label"])
    def test_truths_name_the_fault(self, tmp_path, content, where, problem):
        path = tmp_path / "truth.jsonl"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(EvaluationError, match=problem) as exc_info:
            load_truths(path)
        assert f"{path}{where}" in str(exc_info.value)

    def test_a_repeated_case_id_names_both_lines(self, tmp_path):
        path = tmp_path / "truth.jsonl"
        path.write_bytes(self.GOOD_TRUTH + b'{"case_id": "c2", "truth_label": "lymphoma"}\n'
                         + b'{"case_id": "c1", "truth_label": "meningioma"}\n')
        with pytest.raises(EvaluationError, match=re.escape(
                f"{path}:3: case_id 'c1' already appears at {path}:1")):
            load_truths(path)

    def test_synonyms(self, tmp_path):
        path = tmp_path / "syn.json"
        path.write_text('{"gbm": "glioblastoma"}')
        assert load_synonyms(path) == {"gbm": "glioblastoma"}

    def test_synonyms_must_be_object(self, tmp_path):
        path = tmp_path / "syn.json"
        path.write_text('["gbm"]')
        with pytest.raises(EvaluationError):
            load_synonyms(path)

    @pytest.mark.parametrize("value", [None, 3, ["glioblastoma"], {"a": "b"}])
    def test_synonym_values_must_be_strings(self, tmp_path, value):
        path = tmp_path / "syn.json"
        path.write_text(json.dumps({"gbm": "glioblastoma", "a": value}))
        with pytest.raises(EvaluationError, match="synonym 'a' must map to a string"):
            load_synonyms(path)
