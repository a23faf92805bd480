"""Shared domain types and canonical-label utilities.

All types are frozen dataclasses that validate their invariants at
construction time, so instances can be shared freely across workers.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping

from .errors import RadarError, ValidationError

# Answer text used when a question could not be grounded in any retrieved
# chunk. EvidenceAnswer treats it as the one case where citations may be empty.
NO_EVIDENCE_ANSWER = "no evidence found"

CANDIDATE_COUNT = 10
DIFFERENTIAL_COUNT = 4
MAX_KEYWORD_CHARS = 100


def canonical_fold(label: str) -> str:
    """Lowercase a label, collapse whitespace, and strip punctuation.

    Intra-word hyphens and digits survive (medical terms like "IDH-wildtype"
    or "MELAS" depend on them); every other punctuation character becomes a
    word break. Idempotent: folding a folded label is a no-op.
    """
    if not label:
        raise ValidationError("cannot fold an empty label")
    lowered = label.lower()
    out: list[str] = []
    last = len(lowered) - 1
    for i, ch in enumerate(lowered):
        if ch.isalnum():
            out.append(ch)
        elif ch == "-" and 0 < i < last and lowered[i - 1].isalnum() and lowered[i + 1].isalnum():
            out.append(ch)
        else:
            out.append(" ")
    return " ".join("".join(out).split())


def is_json_int(value: Any) -> bool:
    """Whether a parsed JSON value is an integer; ``true`` is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_json_number(value: Any) -> bool:
    """Whether a parsed JSON value is a number; ``true`` is not one."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _json_array(value: Any, name: str) -> tuple:
    """A parsed JSON array as a tuple, so a string is not read as its characters."""
    if not isinstance(value, list):
        raise ValidationError(f"{name} must be a JSON array, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class Case:
    """One patient record: image caption, clinical data, and ground truth."""

    id: str
    caption: str
    clinical_data: str
    truth_label: str
    paraphrase_id: int = 0  # 0 = original caption, 1-4 = paraphrase variants

    def __post_init__(self) -> None:
        problems = []
        for name in ("id", "caption", "truth_label"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value.strip():
                problems.append(f"{name} empty")
        if not isinstance(self.clinical_data, str):
            problems.append("clinical_data not a string")
        paraphrase = self.paraphrase_id
        if not is_json_int(paraphrase) or paraphrase < 0:
            problems.append("paraphrase_id not a non-negative integer")
        if problems:
            raise ValidationError("invalid case: " + "; ".join(problems), fields=problems)


def validate_case(raw: Mapping[str, Any]) -> Case:
    """Build a Case from a raw record, reporting every violated field at once."""
    return Case(
        id=raw.get("id"),
        caption=raw.get("caption"),
        clinical_data=raw.get("clinical_data", ""),
        truth_label=raw.get("truth_label"),
        paraphrase_id=raw.get("paraphrase_id", 0),
    )


def _read_text(path: str | Path, error: type[RadarError]) -> str:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    if text.startswith("\ufeff"):
        raise error(f"{path}: file must be UTF-8 without BOM")
    return text


def _parse(text: str, where: str | Path, error: type[RadarError], expect: type) -> Any:
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also a too-long integer or too-deep nesting
        raise error(f"{where}: not valid JSON: {exc}") from exc
    if not isinstance(raw, expect):
        kind = "array" if expect is list else "object"
        raise error(f"{where}: expected a JSON {kind}, got {type(raw).__name__}")
    return raw


def read_json(path: str | Path, error: type[RadarError], expect: type = dict) -> Any:
    """Read a whole JSON file whose top level is ``expect`` (dict or list).

    The file must be readable UTF-8 without BOM and valid JSON of that type;
    anything else raises ``error`` naming the file, so a loader checks only
    its own content.
    """
    return _parse(_read_text(path, error), path, error, expect)


def read_jsonl(path: str | Path, error: type[RadarError]) -> Iterator[tuple[str, dict]]:
    """Yield ``("path:line", object)`` for each non-blank line of a JSON-lines file.

    The file is read as ``read_json`` reads one and each line must be a JSON
    object; anything else raises ``error`` naming the file and line.
    """
    for lineno, line in enumerate(_read_text(path, error).splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        yield where, _parse(line, where, error, dict)


def load_cases(path: str | Path) -> list[Case]:
    """Read cases from a line-delimited JSON file (UTF-8, no BOM)."""
    cases = []
    for where, raw in read_jsonl(path, ValidationError):
        try:
            cases.append(validate_case(raw))
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}", fields=exc.fields) from exc
    return cases


@dataclass(frozen=True)
class CandidateList:
    """Ordered list of exactly ten candidate diagnoses, distinct after folding."""

    candidates: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "candidates", tuple(self.candidates))
        if len(self.candidates) != CANDIDATE_COUNT:
            raise ValidationError(
                f"candidate list must have exactly {CANDIDATE_COUNT} entries, got {len(self.candidates)}"
            )
        if any(not c or not c.strip() for c in self.candidates):
            raise ValidationError("candidate list contains an empty entry")
        folded = [canonical_fold(c) for c in self.candidates]
        if len(set(folded)) != len(folded):
            dupes = sorted({f for f in folded if folded.count(f) > 1})
            raise ValidationError(f"candidate list has duplicates after folding: {dupes}")


@dataclass(frozen=True)
class QueryPair:
    """A diagnostic question together with its retrieval keyword."""

    question: str
    keyword: str

    def __post_init__(self) -> None:
        if not self.question or not self.question.strip():
            raise ValidationError("query question is empty")
        if not self.keyword or not self.keyword.strip():
            raise ValidationError("query keyword is empty")
        if len(self.keyword) > MAX_KEYWORD_CHARS:
            raise ValidationError(
                f"query keyword exceeds {MAX_KEYWORD_CHARS} characters ({len(self.keyword)})"
            )


@dataclass(frozen=True)
class EvidenceAnswer:
    """A question's synthesized answer plus the chunk ids that support it."""

    question: str
    answer: str
    supporting_chunk_ids: tuple[str, ...]
    keyword: str

    def __post_init__(self) -> None:
        wrong = [n for n in ("question", "answer", "keyword")
                 if not isinstance(getattr(self, n), str)]
        if wrong:
            raise ValidationError(f"evidence {', '.join(wrong)} not a string", fields=wrong)
        object.__setattr__(self, "supporting_chunk_ids", tuple(self.supporting_chunk_ids))
        if not all(isinstance(c, str) for c in self.supporting_chunk_ids):
            raise ValidationError(f"chunk ids must be strings, got {self.supporting_chunk_ids}")
        if not self.supporting_chunk_ids and self.answer != NO_EVIDENCE_ANSWER:
            raise ValidationError(
                "evidence answer has no supporting chunks but is not the "
                f"{NO_EVIDENCE_ANSWER!r} sentinel"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "question": self.question,
            "answer": self.answer,
            "supporting_chunk_ids": list(self.supporting_chunk_ids),
            "keyword": self.keyword,
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "EvidenceAnswer":
        return cls(
            question=raw["question"],
            answer=raw["answer"],
            supporting_chunk_ids=_json_array(raw["supporting_chunk_ids"], "supporting_chunk_ids"),
            keyword=raw.get("keyword", ""),
        )


def no_evidence_answer(question: str, keyword: str) -> EvidenceAnswer:
    """The sentinel EvidenceAnswer for a question nothing could be retrieved for."""
    return EvidenceAnswer(
        question=question, answer=NO_EVIDENCE_ANSWER, supporting_chunk_ids=(), keyword=keyword
    )


@dataclass(frozen=True)
class DiagnosisReport:
    """One primary and four differential diagnoses with aligned confidences."""

    primary: str
    differentials: tuple[str, ...]
    confidences: tuple[float, ...]
    evidence: tuple[EvidenceAnswer, ...] = ()
    trace_id: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "differentials", tuple(self.differentials))
        confidences = tuple(self.confidences)
        if not all(map(is_json_number, confidences)):
            raise ValidationError(f"confidences must be numbers, got {list(confidences)}")
        for c in confidences:  # before float(), which overflows on a huge integer
            if not 0.0 <= c <= 1.0:
                raise ValidationError(f"confidence {c} outside [0, 1]")
        object.__setattr__(self, "confidences", tuple(map(float, confidences)))
        object.__setattr__(self, "evidence", tuple(self.evidence))
        if not isinstance(self.primary, str) or not self.primary.strip():
            raise ValidationError("report primary diagnosis is empty")
        if not isinstance(self.trace_id, str):
            raise ValidationError(f"report trace_id must be a string, got {self.trace_id!r}")
        if len(self.differentials) != DIFFERENTIAL_COUNT:
            raise ValidationError(
                f"report must carry exactly {DIFFERENTIAL_COUNT} differentials, "
                f"got {len(self.differentials)}"
            )
        if any(not isinstance(d, str) or not d.strip() for d in self.differentials):
            raise ValidationError("report contains an empty differential")
        if len(self.confidences) != DIFFERENTIAL_COUNT + 1:
            raise ValidationError(
                f"report must carry exactly {DIFFERENTIAL_COUNT + 1} confidences, "
                f"got {len(self.confidences)}"
            )
        for earlier, later in zip(self.confidences, self.confidences[1:]):
            if later > earlier:
                raise ValidationError(
                    f"confidences must be non-increasing, got {list(self.confidences)}"
                )

    @property
    def labels(self) -> tuple[str, ...]:
        """Primary followed by the four differentials."""
        return (self.primary, *self.differentials)

    def to_dict(self) -> dict[str, Any]:
        return {
            "primary": self.primary,
            "differentials": list(self.differentials),
            "confidences": list(self.confidences),
            "evidence": [e.to_dict() for e in self.evidence],
            "trace_id": self.trace_id,
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "DiagnosisReport":
        evidence = _json_array(raw.get("evidence", []), "evidence")
        return cls(
            primary=raw["primary"],
            differentials=_json_array(raw["differentials"], "differentials"),
            confidences=_json_array(raw["confidences"], "confidences"),
            evidence=tuple(EvidenceAnswer.from_dict(e) for e in evidence),
            trace_id=raw.get("trace_id", ""),
        )
