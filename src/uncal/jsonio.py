"""JSON Lines record streams and deterministic report serialization.

Loading is strict: every line is validated against the record schema, invalid
lines are returned with their line numbers (the messages carry no location;
callers prefix `path:line:` once), and a file where more than half the lines
fail is rejected outright. Report writing controls float formatting
(17 significant digits, round-trip exact) and key order so that identical
configurations produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Sequence

from .errors import CorruptInput, IoError
from .ragctl import RagTraceRecord
from .rewards import (
    EmissionEvent,
    MatchResult,
    MatchRule,
    PredictionRecord,
    scan_emissions,
)

_PRED_FIELDS = {
    "qid", "dataset", "question", "gold_answers", "response_text",
    "extracted_answer", "verbal_confidence", "emissions",
    "response_token_count", "token_probs", "p_affirmative", "match",
}
_RAG_FIELDS = {
    "qid", "dataset", "gold_answers", "noret_answer", "noret_confidence",
    "noret_emissions", "noret_probe_score", "noret_token_probs", "ret_answer",
    "noret_response_text", "external_trigger",
}


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------


def format_float(value: float) -> str:
    """17-significant-digit decimal form; round-trips float64 exactly."""
    if value != value or math.isinf(value):
        raise ValueError("reports must not contain NaN or infinity")
    if value == 0.0:
        return "0"  # canonicalize -0.0
    text = format(value, ".17g")
    return text


def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, fixed float format, no whitespace drift."""
    pieces = []
    _write_canonical(obj, pieces)
    return "".join(pieces)


def _write_canonical(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(encode_basestring(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            out.append(encode_basestring(key))
            out.append(":")
            _write_canonical(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _write_canonical(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def write_report(path, obj) -> None:
    try:
        Path(path).write_text(dumps_canonical(obj) + "\n", encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot write report {path}: {exc}") from exc


def write_jsonl(path, objs: Sequence[dict]) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            _write_lines(fh, objs)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def rewrite_jsonl(path, objs: Sequence[dict]) -> None:
    """Replace an existing file atomically: the lines go to a temporary file
    in the same directory, which then takes the file's place (and mode).
    If writing fails, the original file is left untouched."""
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                _write_lines(fh, objs)
            os.chmod(tmp, path.stat().st_mode & 0o7777)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _write_lines(fh, objs) -> None:
    for obj in objs:
        fh.write(dumps_canonical(obj) + "\n")


def write_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Plot-ready CSV with the same float discipline as the JSON reports."""

    def cell(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return format_float(value)
        return str(value)

    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(cell(v) for v in row) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Record <-> dict
# ---------------------------------------------------------------------------


def prediction_to_dict(record: PredictionRecord) -> dict:
    out = {
        "qid": record.qid,
        "dataset": record.dataset,
        "question": record.question,
        "gold_answers": list(record.gold_answers),
        "response_text": record.response_text,
        "response_token_count": record.response_token_count,
        "emissions": [
            {"char_position": e.char_position}
            | ({"token_index": e.token_index} if e.token_index is not None else {})
            for e in record.emissions
        ],
    }
    if record.extracted_answer is not None:
        out["extracted_answer"] = record.extracted_answer
    if record.verbal_confidence is not None:
        out["verbal_confidence"] = record.verbal_confidence
    if record.token_probs is not None:
        out["token_probs"] = list(record.token_probs)
    if record.p_affirmative is not None:
        out["p_affirmative"] = record.p_affirmative
    if record.match is not None:
        out["match"] = {
            "correct": record.match.correct,
            "rule": record.match.rule.value,
            "f1": record.match.f1,
        }
    return out


def _require(obj: dict, key: str, kind):
    if key not in obj:
        raise ValueError(f"missing required field {key!r}")
    value = obj[key]
    if not isinstance(value, kind):
        raise ValueError(f"field {key!r} has wrong type")
    return value


def _golds(obj: dict) -> tuple[str, ...]:
    golds = _require(obj, "gold_answers", list)
    if not golds or not all(isinstance(g, str) for g in golds):
        raise ValueError("gold_answers must be non-empty strings")
    return tuple(golds)


# JSON numbers decode to exactly these types; bool (an int subclass) is not one
_NUMBER_TYPES = (int, float)


def _optional(obj: dict, key: str, types: tuple, what: str):
    """Optional field whose value must have exactly one of `types`."""
    value = obj.get(key)
    if value is not None and type(value) not in types:
        raise ValueError(f"{key} must be {what}")
    return value


def _probability(obj: dict, key: str) -> float | None:
    """Optional number in [0,1]."""
    value = obj.get(key)
    if value is None:
        return None
    if type(value) not in _NUMBER_TYPES:
        raise ValueError(f"{key} must be a number")
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{key} outside [0,1]")
    return float(value)


def _token_probs(obj: dict, key: str) -> tuple[float, ...] | None:
    """Optional list of numbers in (0,1]."""
    value = obj.get(key)
    if value is None:
        return None
    if not isinstance(value, list) or not all(
        type(p) in _NUMBER_TYPES and 0.0 < p <= 1.0 for p in value
    ):
        raise ValueError(f"{key} must be numbers in (0,1]")
    return tuple(map(float, value))


def _count(obj: dict, key: str) -> int | None:
    """Optional nonnegative integer."""
    value = obj.get(key)
    if value is not None and (type(value) is not int or value < 0):
        raise ValueError(f"{key} must be a nonnegative int")
    return value


def _check_fields(obj, known: set[str]) -> None:
    if not isinstance(obj, dict):
        raise ValueError("not a JSON object")
    unknown = set(obj) - known
    if unknown:
        raise ValueError(f"unknown fields {sorted(unknown)}")


def prediction_from_dict(obj: dict) -> PredictionRecord:
    _check_fields(obj, _PRED_FIELDS)
    qid = _require(obj, "qid", str)
    golds = _golds(obj)
    text = _require(obj, "response_text", str)
    emissions_raw = obj.get("emissions")
    if emissions_raw is None:
        emissions = tuple(scan_emissions(text))
    else:
        if not isinstance(emissions_raw, list):
            raise ValueError("emissions must be a list")
        emissions = tuple(map(_emission, emissions_raw))
    count = _count(obj, "response_token_count")
    if count is None:
        count = len(text.split())
    return PredictionRecord(
        qid=qid,
        dataset=str(obj.get("dataset", "")),
        question=str(obj.get("question", "")),
        gold_answers=golds,
        response_text=text,
        extracted_answer=_optional(obj, "extracted_answer", (str,), "a string"),
        verbal_confidence=_probability(obj, "verbal_confidence"),
        emissions=emissions,
        response_token_count=count,
        token_probs=_token_probs(obj, "token_probs"),
        p_affirmative=_probability(obj, "p_affirmative"),
        match=_match(obj.get("match")),
    )


def _emission(obj) -> EmissionEvent:
    if not isinstance(obj, dict):
        raise ValueError("each emission must be a JSON object")
    position = _count(obj, "char_position")
    if position is None:
        raise ValueError("emission without char_position")
    return EmissionEvent(char_position=position, token_index=_count(obj, "token_index"))


def _match(obj) -> MatchResult | None:
    """A cached match block: boolean `correct`, a known `rule`, `f1` in [0,1]."""
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise ValueError("match must be a JSON object")
    f1 = _probability(obj, "f1")
    if f1 is None:
        raise ValueError("match without f1")
    return MatchResult(
        correct=_require(obj, "correct", bool),
        rule=MatchRule(_require(obj, "rule", str)),
        f1=f1,
    )


def rag_to_dict(record: RagTraceRecord) -> dict:
    out = {
        "qid": record.qid,
        "dataset": record.dataset,
        "gold_answers": list(record.gold_answers),
        "noret_answer": record.noret_answer,
        "ret_answer": record.ret_answer,
        "noret_emissions": record.noret_emissions,
    }
    if record.noret_confidence is not None:
        out["noret_confidence"] = record.noret_confidence
    if record.noret_probe_score is not None:
        out["noret_probe_score"] = record.noret_probe_score
    if record.noret_token_probs is not None:
        out["noret_token_probs"] = list(record.noret_token_probs)
    if record.noret_response_text is not None:
        out["noret_response_text"] = record.noret_response_text
    if record.external_trigger is not None:
        out["external_trigger"] = record.external_trigger
    return out


def rag_from_dict(obj: dict) -> RagTraceRecord:
    _check_fields(obj, _RAG_FIELDS)
    qid = _require(obj, "qid", str)
    golds = _golds(obj)
    noret = _require(obj, "noret_answer", str)
    ret = _require(obj, "ret_answer", str)
    probe_score = _optional(obj, "noret_probe_score", _NUMBER_TYPES, "a number")
    return RagTraceRecord(
        qid=qid,
        dataset=str(obj.get("dataset", "")),
        gold_answers=golds,
        noret_answer=noret,
        ret_answer=ret,
        noret_confidence=_probability(obj, "noret_confidence"),
        noret_emissions=_count(obj, "noret_emissions") or 0,
        noret_probe_score=None if probe_score is None else float(probe_score),
        noret_token_probs=_token_probs(obj, "noret_token_probs"),
        noret_response_text=_optional(obj, "noret_response_text", (str,), "a string"),
        external_trigger=_optional(obj, "external_trigger", (bool,), "true or false"),
    )


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LoadResult:
    records: list
    errors: list[tuple[int, str]]  # (line number, message)
    total_lines: int


def load_lines(path, parse: Callable[[dict], object]) -> LoadResult:
    """Parse every nonblank line with `parse`. A line that is not JSON, or
    that `parse` rejects (ValueError, KeyError, TypeError), becomes an error
    entry (line number, message) instead of a record."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    records = []
    errors = []
    total = 0
    for i, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        total += 1
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append((i, f"invalid JSON: {exc.msg}"))
            continue
        try:
            records.append(parse(obj))
        except KeyError as exc:
            errors.append((i, f"missing field {exc.args[0]!r}"))
        except (ValueError, TypeError) as exc:
            errors.append((i, str(exc)))
    if total and len(errors) > total / 2:
        raise CorruptInput(
            f"{path}: {len(errors)} of {total} lines failed validation"
        )
    return LoadResult(records=records, errors=errors, total_lines=total)


def load_predictions(path) -> LoadResult:
    """Strictly validated PredictionRecord stream."""
    return load_lines(path, prediction_from_dict)


def load_rag_traces(path) -> LoadResult:
    return load_lines(path, rag_from_dict)
