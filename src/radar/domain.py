"""Shared domain types, canonical-label utilities, and the record decoder.

All types are frozen dataclasses that validate their invariants at
construction time, so instances can be shared freely across workers.

``decode`` is the one type check for records read from files: a record
dataclass's type hints are its JSON schema, so its ``__post_init__`` keeps
only the semantic checks (non-empty, ranges, ordering, counts).
"""
from __future__ import annotations

import contextlib
import difflib
import functools
import json
import os
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from enum import Enum, EnumMeta
from pathlib import Path
from typing import (
    Any, BinaryIO, Callable, Iterator, Literal, Mapping, get_args, get_origin, get_type_hints,
)

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


def is_json_number(value: Any) -> bool:
    """Whether a parsed JSON value is a number; ``true`` is not one."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# The JSON form of a record
# ---------------------------------------------------------------------------

_JSON_DEFAULT = "json_default"
_OMIT = object()  # an absent key leaves the field to its dataclass default


def json_default(value: Any) -> Any:
    """A required field that ``decode`` fills with ``value`` when its key is
    absent; unlike a dataclass default, it may sit before required fields."""
    return field(metadata={_JSON_DEFAULT: value})


def encode(record: Any) -> dict[str, Any]:
    """The JSON form ``decode`` reads back: fields in declaration order, an
    enum as its value, a tuple as an array."""
    return asdict(record, dict_factory=lambda items: {
        key: value.value if isinstance(value, Enum) else list(value) if isinstance(value, tuple)
        else value for key, value in items
    })


class _Fault(Exception):
    """A value ``decode`` rejects; ``keys`` gathers its key path, innermost first."""

    def __init__(self, problem: str, fields: list[str] | None = None, hint: bool = False):
        super().__init__(problem)
        self.fields, self.hint, self.keys = fields, hint, []

    def at(self, key: str) -> "_Fault":
        self.keys.append(key)
        return self


def _wrong(expected: str, value: Any) -> _Fault:
    shown = json.dumps(value, default=repr)
    return _Fault(f"must be {expected}, got {shown if len(shown) <= 40 else shown[:37] + '...'}")


def _typed(expected: str, types: tuple[type, ...]) -> Callable[[Any], Any]:
    """A reader for the JSON values whose exact Python type is in ``types``."""
    def read(value: Any) -> Any:
        if type(value) in types:
            return value
        raise _wrong(expected, value)
    return read


# JSON types by exact Python type, so ``true`` is not a number.
_SCALARS = {str: ("a string", (str,)), int: ("an integer", (int,)),
            float: ("a number", (int, float))}


@functools.cache
def _reader(tp: Any, unknown: str) -> Callable[[Any], Any]:
    """The reader for ``tp``, built from its type hints once and then cached."""
    args = get_args(tp)
    if is_dataclass(tp):
        return _record_reader(tp, unknown)
    if hasattr(tp, "__supertype__"):  # a NewType reads as the type it names
        return _reader(tp.__supertype__, unknown)
    if type(None) in args:
        read = _reader(next(arg for arg in args if arg is not type(None)), unknown)
        return lambda value: None if value is None else read(value)
    if get_origin(tp) is Literal or isinstance(tp, EnumMeta):
        choices = {arg: arg for arg in args} or {member.value: member for member in tp}
        expected = "one of " + ", ".join(map(json.dumps, choices))

        def read_choice(value: Any) -> Any:
            try:
                return choices[value]
            except (KeyError, TypeError):  # not a choice, or not even hashable
                raise _wrong(expected, value) from None
        return read_choice
    if get_origin(tp) is not tuple:
        return _typed(*_SCALARS[tp])
    read_item, read_list = _reader(args[0], unknown), _typed("an array", (list,))

    def read_array(value: Any) -> tuple:
        items = []
        for i, item in enumerate(read_list(value)):
            try:
                items.append(read_item(item))
            except _Fault as fault:
                raise fault.at(str(i))
        return tuple(items)
    return read_array


def _record_reader(tp: type, unknown: str) -> Callable[[Any], Any]:
    hints = get_type_hints(tp)
    plan = []  # (key, exact scalar types, reader, whether null means absent, absent value)
    for f in fields(tp):
        hint = hints[f.name]
        has_default = f.default is not MISSING or f.default_factory is not MISSING
        absent = _OMIT if has_default else f.metadata.get(_JSON_DEFAULT, MISSING)
        plan.append((f.name, _SCALARS.get(hint, ("", ()))[1], _reader(hint, unknown),
                     is_dataclass(hint), absent))

    def read_record(value: Any) -> Any:
        if type(value) is not dict:
            raise _wrong("an object", value)
        if unknown == "reject":
            for key in value:
                if key not in hints:
                    raise _Fault("is unknown", hint=True).at(key)
        kwargs = {}
        for key, scalar, read, section, absent in plan:
            item = value.get(key, MISSING)
            if type(item) in scalar:  # the common case, checked without a call
                kwargs[key] = item
            elif item is MISSING or (item is None and section):  # a null section is absent
                if absent is MISSING:
                    raise _Fault("is missing").at(key)
                if absent is not _OMIT:
                    kwargs[key] = absent
            else:
                try:
                    kwargs[key] = read(item)
                except _Fault as fault:
                    raise fault.at(key)
        try:
            return tp(**kwargs)
        except RadarError as exc:  # a failed invariant
            raise _Fault(str(exc), getattr(exc, "fields", [])) from exc
    return read_record


def _key_paths(tp: Any, prefix: str = "") -> list[str]:
    hints = get_type_hints(tp) if is_dataclass(tp) else {}
    return [path for key, hint in hints.items()
            for path in (prefix + key, *_key_paths(hint, f"{prefix}{key}."))]


def decode(tp: Any, value: Any, where: str, error: type[RadarError], *,
           unknown: Literal["reject", "ignore"] = "reject") -> Any:
    """Check a parsed JSON value against ``tp`` and build it.

    ``tp`` is ``str``, ``int``, ``float`` (JSON numbers only; ``true`` is
    neither), an ``Optional``, ``Literal``, ``Enum`` or ``NewType``, a
    ``tuple[X, ...]`` (an array) or a dataclass (an object), nested freely.
    An absent key, or a null nested record, takes the field's default; an
    undeclared key is ignored, or rejected naming the closest declared one.
    Any fault, a record's failed invariant too, raises ``error`` naming
    ``where`` and the dotted key path (an array item's key is its index); a
    ``ValidationError`` lists the path, or a record's own ``fields``.
    """
    try:
        return _reader(tp, unknown)(value)
    except _Fault as fault:
        key = ".".join(reversed(fault.keys))
        text = str(fault)
        if key:  # a nested record's failed invariant reads "key 'k' is invalid: ..."
            text = f"key {key!r} {'' if fault.fields is None else 'is invalid: '}{text}"
        guess = fault.hint and difflib.get_close_matches(key, _key_paths(tp), n=1)
        message = f"{where}: {text}" + (f"; did you mean {guess[0]!r}?" if guess else "")
        if not issubclass(error, ValidationError):
            raise error(message) from fault.__cause__
        named = fault.fields if fault.fields is not None else [key] if key else []
        raise error(message, fields=named) from fault.__cause__


@dataclass(frozen=True)
class Case:
    """One patient record: image caption, clinical data, and ground truth."""

    id: str  # names the trace file, so it holds no "/" or NUL and is not "." or ".."
    caption: str
    clinical_data: str = json_default("")
    truth_label: str
    paraphrase_id: int = 0  # 0 = original caption, 1-4 = paraphrase variants

    def __post_init__(self) -> None:
        problems = [f"{name} empty" for name in ("id", "caption", "truth_label")
                    if not getattr(self, name).strip()]
        if self.id in (".", "..") or "/" in self.id or "\0" in self.id:
            problems.append("id not usable as a file name")
        if self.paraphrase_id < 0:
            problems.append("paraphrase_id not a non-negative integer")
        if problems:
            raise ValidationError("invalid case: " + "; ".join(problems), fields=problems)


def validate_case(raw: Mapping[str, Any]) -> Case:
    """Build a Case from a raw record; its failed invariants are reported together."""
    return decode(Case, raw, "case", ValidationError, unknown="ignore")


def walk_files(root: str | Path, digest: Any = None) -> Iterator[tuple[str, bytes]]:
    """Yield ``(relative path, bytes)`` for every file under ``root``, reading each once.

    The files are those ``Path(root).rglob("*")`` lists and ``is_file`` accepts:
    hidden files and symlinks to files are included, symlinked directories are
    not followed, and a directory that may not be listed is skipped. They come
    in ``sorted(Path)`` order, by the tuple of path parts, so ``a/b.json``
    precedes ``a-b.json``. With a ``digest`` (a hashlib object), each file's
    record (its relative path in UTF-8, a NUL byte, its bytes, a 0x01 byte) is
    added to it as the file is read. An unreadable file raises its ``OSError``.
    """
    def walk(directory: str, prefix: str) -> Iterator[tuple[str, bytes]]:
        try:
            with os.scandir(directory) as it:
                entries = sorted(it, key=lambda entry: entry.name)
        except PermissionError:
            return
        for entry in entries:
            if entry.is_dir(follow_symlinks=False):
                yield from walk(entry.path, prefix + entry.name + "/")
            elif entry.is_file():
                with open(entry.path, "rb", buffering=0) as f:
                    data = f.readall()
                name = prefix + entry.name
                if digest is not None:
                    digest.update(name.encode("utf-8") + b"\x00")
                    digest.update(data)
                    digest.update(b"\x01")
                yield name, data

    return walk(os.fspath(root), "")


COPY_BUFFER_BYTES = 1 << 20  # a copy holds at most this much of a file in memory


def _stat_key(st: os.stat_result) -> tuple[int, int, int, int]:
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)


@dataclass(frozen=True)
class FileMark:
    """A file as ``os.fstat`` saw it when this process last read or wrote it whole.

    ``key`` is ``(st_dev, st_ino, st_size, st_mtime_ns)``: a file replaced,
    rewritten or resized since then shows another key.
    """

    path: Path
    key: tuple[int, int, int, int]

    @classmethod
    def of(cls, path: str | Path, fh: BinaryIO) -> "FileMark":
        return cls(Path(path), _stat_key(os.fstat(fh.fileno())))

    @property
    def size(self) -> int:
        return self.key[2]

    def open(self) -> BinaryIO | None:
        """The marked file, opened for reading, if ``path`` still holds it unchanged."""
        try:
            fh = open(self.path, "rb", buffering=0)
        except OSError:
            return None
        if _stat_key(os.fstat(fh.fileno())) != self.key:
            fh.close()
            return None
        return fh


def copy_range(src: BinaryIO, start: int, end: int, dst: BinaryIO) -> None:
    """Write bytes ``[start, end)`` of ``src`` to ``dst``, ``COPY_BUFFER_BYTES`` at a time."""
    src.seek(start)
    buf = memoryview(bytearray(min(end - start, COPY_BUFFER_BYTES)))
    while start < end:
        n = src.readinto(buf[: end - start])
        if not n:
            raise OSError(f"{src.name} ended at byte {start}, before byte {end}")
        dst.write(buf[:n])
        start += n


def replace_file(path: str | Path, write: Callable[[BinaryIO, BinaryIO | None], Any],
                 old: FileMark | None = None) -> FileMark:
    """Replace file ``path`` whole with what ``write(fh, src)`` writes to ``fh``,
    a fresh temporary file beside it; returns the new file's mark.

    ``src`` is the file ``old`` marks, open for reading, if it is still on
    disk unchanged, else None; it is opened before the move, so ``old`` may
    mark ``path`` itself. Readers of ``path`` see the old file or the whole
    new one, never part of it, and a write that fails leaves no temporary
    file behind. The move keeps the inode, size and mtime the mark holds.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    # Created as a plain open creates a file, so the umask in force applies.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        src = old.open() if old is not None else None
        # Written through this descriptor: reopened with O_TRUNC, the file
        # would be flushed to disk at close on ext4.
        with src or contextlib.nullcontext(), open(fd, "wb") as fh:
            write(fh, src)
            fh.flush()
            mark = FileMark.of(path, fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return mark


def read_marked(path: str | Path, error: type[RadarError]) -> tuple[bytes, FileMark]:
    """The bytes of file ``path`` and its mark, both through one open; a file
    that cannot be read raises ``error`` naming it."""
    try:
        with open(path, "rb", buffering=0) as fh:
            mark = FileMark.of(path, fh)  # before the read, so a change during it shows
            return fh.readall(), mark
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc


def _decode_text(data: bytes, path: str | Path, error: type[RadarError]) -> str:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
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


def parse_json(data: bytes, path: str | Path, error: type[RadarError], expect: type = dict) -> Any:
    """The JSON value of the bytes of file ``path``, whose top level is ``expect``.

    The bytes must be UTF-8 without BOM and valid JSON of that type;
    anything else raises ``error`` naming the file, so a loader checks only
    its own content.
    """
    return _parse(_decode_text(data, path, error), path, error, expect)


def read_json(path: str | Path, error: type[RadarError], expect: type = dict) -> Any:
    """Read a whole JSON file whose top level is ``expect`` (dict or list).

    The file must be readable and hold what ``parse_json`` accepts; anything
    else raises ``error`` naming the file.
    """
    return parse_json(read_marked(path, error)[0], path, error, expect)


def read_records(path: str | Path, tp: type, error: type[RadarError], id_key: str,
                 what: str = "") -> Iterator[tuple[dict, Any]]:
    """Yield ``(object, record)`` for each non-blank line of a JSON-lines file.

    The file is read as ``read_json`` reads one. Each line must be a JSON
    object that decodes as ``tp``, and no two records may share an
    ``id_key`` value; anything else raises ``error`` naming the line and
    ``what``.
    """
    seen: dict[str, str] = {}
    text = _decode_text(read_marked(path, error)[0], path, error)
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        raw = _parse(line, where, error, dict)
        record = decode(tp, raw, where + what, error, unknown="ignore")
        first = seen.setdefault(getattr(record, id_key), where)
        if first != where:
            raise error(f"{where}: {id_key} {getattr(record, id_key)!r} already appears at {first}")
        yield raw, record


def load_cases(path: str | Path) -> list[Case]:
    """Read cases with distinct ids from a JSON-lines file."""
    return [case for _, case in read_records(path, Case, ValidationError, "id")]


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
    keyword: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "supporting_chunk_ids", tuple(self.supporting_chunk_ids))
        if not self.supporting_chunk_ids and self.answer != NO_EVIDENCE_ANSWER:
            raise ValidationError(
                "evidence answer has no supporting chunks but is not the "
                f"{NO_EVIDENCE_ANSWER!r} sentinel"
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
        for c in self.confidences:  # before float(), which overflows on a huge integer
            if not 0.0 <= c <= 1.0:
                raise ValidationError(f"confidence {c} outside [0, 1]")
        object.__setattr__(self, "confidences", tuple(map(float, self.confidences)))
        object.__setattr__(self, "evidence", tuple(self.evidence))
        if not self.primary.strip():
            raise ValidationError("report primary diagnosis is empty")
        if len(self.differentials) != DIFFERENTIAL_COUNT:
            raise ValidationError(
                f"report must carry exactly {DIFFERENTIAL_COUNT} differentials, "
                f"got {len(self.differentials)}"
            )
        if any(not d.strip() for d in self.differentials):
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
        return encode(self)

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "DiagnosisReport":
        return decode(cls, raw, "report", ValidationError, unknown="ignore")
