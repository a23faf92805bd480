"""Top-1/Top-5 scoring against ground truth, with pluggable label normalization.

Predictions and truths pass through the same normalizer before comparison,
so synonym and spelling variants score as matches. Accuracies aggregate
across repeated runs as mean plus sample standard deviation on a 0-100
scale.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Protocol, Sequence

from .agents import PACKAGED_TEMPLATES, TemplateRegistry, parse_label, parse_structured
from .domain import DiagnosisReport, canonical_fold, encode, read_json, read_records
from .errors import EvaluationError, RadarError, ValidationError
from .providers import TEMP_LOW, ChatProvider, user_request

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class NormalizedPrediction:
    raw: str
    canonical: str
    normalizer_id: str
    degraded: bool = False  # provider normalizer fell back to plain folding

    def __post_init__(self) -> None:
        if not self.canonical:
            raise ValidationError(f"label {self.raw!r} normalized to an empty string")
        if self.canonical != canonical_fold(self.canonical):
            raise ValidationError(f"canonical form {self.canonical!r} is not folded")


class Normalizer(Protocol):
    normalizer_id: str

    def normalize(self, raw: str) -> NormalizedPrediction: ...


class DictionaryNormalizer:
    """Fold, then map through a synonym table; identity when absent.

    Pure and deterministic, which makes it the right backend for tests and
    offline scoring. Table keys and values are folded up front so lookups
    are insensitive to case, spacing, and punctuation.
    """

    def __init__(self, table: Mapping[str, str] | None = None, normalizer_id: str = "dictionary"):
        self.normalizer_id = normalizer_id
        self._table = {
            canonical_fold(key): canonical_fold(value) for key, value in (table or {}).items()
        }

    def normalize(self, raw: str) -> NormalizedPrediction:
        folded = canonical_fold(raw)
        if not folded:
            raise ValidationError(f"label {raw!r} folds to an empty string")
        return NormalizedPrediction(
            raw=raw,
            canonical=self._table.get(folded, folded),
            normalizer_id=self.normalizer_id,
        )


class ProviderNormalizer:
    """Ask a chat backend for the canonical term, then fold the reply.

    Any provider failure falls back to the folded raw label with the
    ``degraded`` flag set, so scoring always completes.
    """

    def __init__(
        self,
        provider: ChatProvider,
        templates: TemplateRegistry = PACKAGED_TEMPLATES,
        normalizer_id: str = "provider",
    ):
        self.normalizer_id = normalizer_id
        self._provider = provider
        self._templates = templates

    def normalize(self, raw: str) -> NormalizedPrediction:
        folded = canonical_fold(raw)
        if not folded:
            raise ValidationError(f"label {raw!r} folds to an empty string")
        prompt = self._templates.render("normalize_label", label=raw)
        try:
            reply = self._provider.complete(user_request(prompt, temperature=TEMP_LOW))
            canonical = canonical_fold(parse_structured(reply.content, parse_label))
            return NormalizedPrediction(raw=raw, canonical=canonical, normalizer_id=self.normalizer_id)
        except RadarError as exc:
            log.warning("label normalization failed for %r, using folded raw: %s", raw, exc)
            return NormalizedPrediction(
                raw=raw, canonical=folded, normalizer_id=self.normalizer_id, degraded=True
            )


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseScore:
    case_id: str
    top1_hit: bool
    top5_hit: bool


@dataclass(frozen=True)
class EvalResult:
    run_id: str
    n_cases: int
    top1: float
    top5: float
    per_case: tuple[CaseScore, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_case", tuple(self.per_case))
        if self.n_cases <= 0:
            raise ValidationError("an evaluation needs at least one case")
        if self.top1 > self.top5:
            raise ValidationError(f"top1 {self.top1} cannot exceed top5 {self.top5}")

    def to_dict(self) -> dict:
        return encode(self)


@dataclass(frozen=True)
class AggregateResult:
    mean_top1: float
    std_top1: float
    mean_top5: float
    std_top5: float
    n_runs: int


def score_case(
    report: DiagnosisReport, truth_label: str, normalizer: Normalizer
) -> tuple[bool, bool]:
    """Whether the truth matches the primary (top-1) or any of the five (top-5)."""
    truth = normalizer.normalize(truth_label).canonical
    predictions = [normalizer.normalize(label).canonical for label in report.labels]
    top1 = predictions[0] == truth
    top5 = truth in predictions
    return top1, top5


def evaluate_run(
    reports: Sequence[tuple[str, DiagnosisReport]],
    truths: Mapping[str, str],
    normalizer: Normalizer,
    run_id: str = "run",
) -> EvalResult:
    """Score one run's (case_id, report) pairs against ground-truth labels."""
    if not reports:
        raise EvaluationError("no reports to evaluate")
    missing = sorted({case_id for case_id, _ in reports if case_id not in truths})
    if missing:
        raise EvaluationError(f"no truth label for case ids: {missing}", missing_ids=missing)
    per_case = []
    for case_id, report in reports:
        top1, top5 = score_case(report, truths[case_id], normalizer)
        per_case.append(CaseScore(case_id, top1, top5))
    n = len(per_case)
    return EvalResult(
        run_id=run_id,
        n_cases=n,
        top1=sum(s.top1_hit for s in per_case) / n,
        top5=sum(s.top5_hit for s in per_case) / n,
        per_case=tuple(per_case),
    )


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return mean, 0.0
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(variance)


def aggregate(results: Sequence[EvalResult]) -> AggregateResult:
    """Mean and sample standard deviation across runs, on the 0-100 scale."""
    if not results:
        raise EvaluationError("nothing to aggregate")
    mean1, std1 = _mean_std([r.top1 * 100.0 for r in results])
    mean5, std5 = _mean_std([r.top5 * 100.0 for r in results])
    return AggregateResult(
        mean_top1=mean1, std_top1=std1, mean_top5=mean5, std_top5=std5, n_runs=len(results)
    )


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruthRecord:
    """One line of a truth file."""

    case_id: str
    truth_label: str


def load_truths(path: str | Path) -> dict[str, str]:
    """Read {case_id, truth_label} records, one case id each, from a JSON-lines file."""
    records = read_records(path, TruthRecord, EvaluationError, "case_id", ": bad truth record")
    return {truth.case_id: truth.truth_label for _, truth in records}


def load_synonyms(path: str | Path) -> dict[str, str]:
    """Read a synonym table: a JSON object of folded-raw to canonical."""
    table = read_json(path, EvaluationError)
    for key, value in table.items():
        if not isinstance(value, str):
            raise EvaluationError(f"{path}: synonym {key!r} must map to a string, got {value!r}")
    return table
