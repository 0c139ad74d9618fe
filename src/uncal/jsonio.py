"""JSON Lines record streams and deterministic report serialization.

Each line kind has one field table (`PREDICTION`, `RAG_TRACE`, `SPACE`,
`KL_PAIR`, `KL_ANNOTATION`, `ROW_ID` for matrix sidecars, and `PROBE_MODEL` for
the one JSON input that is not a line stream), which both reads its lines
(`read_table`) and writes them (`encode`, compiled at import). Loading is
strict: invalid lines are returned with their line numbers (the messages carry
no file or line; callers prefix `path:line:` once), and a file where more than
half the lines fail is rejected outright. A rejection inside a nested object
starts with where it sits in the line: `emissions[0]: unknown fields ['x']`.
Report writing controls float formatting (17 significant digits, round-trip
exact) and key order so that identical configurations produce byte-identical
files. Every output file is written atomically.
"""

from __future__ import annotations

import enum
import itertools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import CorruptInput, IoError, ShapeError
from .probe import DEFAULT_SPAN_TOKENS, DEFAULT_WINDOW
from .ragctl import RagTraceRecord
from .reprgeo import TokenAnnotation, TokenDistPair, TokenType
from .rewards import (
    EmissionEvent,
    MatchResult,
    MatchRule,
    PredictionRecord,
    scan_emissions,
)
from .trajspace import Trajectory, TrajectorySpace

# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------


def format_float(value: float) -> str:
    """17-significant-digit decimal form; round-trips float64 exactly."""
    if value != value or math.isinf(value):
        raise ValueError("reports must not contain NaN or infinity")
    if value == 0.0:
        return "0"  # canonicalize -0.0
    return format(value, ".17g")


class Line(str):
    """Canonical JSON text, as `encode` returns it; `dumps_canonical` keeps it."""


# canonical text by exact type: a bool is no int here, and a Line is its own text
_PLAIN = {
    str: encode_basestring,
    int: int.__repr__,
    float: format_float,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
    Line: str,
}


def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, fixed float format, no whitespace drift."""
    return _canonical(obj)


def _canonical(obj) -> str:
    """`dumps_canonical` for this module's own calls, which perfbench's tracer leaves unwrapped."""
    plain = _PLAIN.get(type(obj))
    if plain is not None:
        return plain(obj)
    if isinstance(obj, dict):
        parts = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            parts.append(encode_basestring(key) + ":" + _canonical(obj[key]))
        return "{" + ",".join(parts) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join([_canonical(item) for item in obj]) + "]"
    for kind in (int, float, str):  # subclasses, such as numpy's float64
        if isinstance(obj, kind):
            return _PLAIN[kind](obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def _write_atomic(path, chunks) -> None:
    """Write the text `chunks` to `path` atomically: they go to a temporary
    file in the same directory, which then takes the path's place. If writing
    fails (an I/O error, or a value a report may not hold), no partial file is
    left and an existing file is untouched. The file keeps the mode of the one
    it replaces, or takes the mode `open` would give; a symlinked path is
    written through to its target."""
    target = Path(os.path.realpath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                for chunk in chunks:
                    fh.write(chunk)
            os.chmod(tmp, _mode(target))
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _mode(path: Path) -> int:
    """The mode of the file at `path`, or the one `open` gives a new file."""
    if path.exists():
        return path.stat().st_mode & 0o7777
    umask = os.umask(0)  # the umask can only be read by setting it
    os.umask(umask)
    return 0o666 & ~umask


def write_report(path, obj) -> None:
    _write_atomic(path, [_canonical(obj) + "\n"])


def write_jsonl(path, objs: Iterable) -> None:
    """One canonical line per object; the lines are streamed, not built in memory."""
    _write_atomic(path, (_canonical(obj) + "\n" for obj in objs))


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

    lines = (",".join(cell(v) for v in row) + "\n" for row in rows)
    _write_atomic(path, itertools.chain([",".join(header) + "\n"], lines))


# ---------------------------------------------------------------------------
# Reading: value readers, one table per line kind, one function for all tables
# ---------------------------------------------------------------------------

# JSON numbers decode to exactly these types; bool (an int subclass) is not one
_NUMBER_TYPES = frozenset((int, float))
_FLOAT_MAX = sys.float_info.max


def _finite(value) -> bool:
    # `json` also reads NaN and Infinity; the range test refuses them, and
    # ints too large for a float
    return type(value) in _NUMBER_TYPES and -_FLOAT_MAX <= value <= _FLOAT_MAX


def _reader(valid, what: str):
    """Reader of the values `valid` accepts. A reader takes the field name for
    its message and a decoded JSON value, and returns the value or raises
    ValueError naming the field."""

    def read(name: str, value):
        if not valid(value):
            raise ValueError(f"{name} must be {what}")
        return value

    return read


def _typed(kind: type, what: str):
    """Reader of the values of exactly type `kind` (so a bool is no int).
    Strings are most of the fields read, so this costs one call, not two."""

    def read(name: str, value):
        if type(value) is not kind:
            raise ValueError(f"{name} must be {what}")
        return value

    return read


read_string = _typed(str, "a string")
read_int = _typed(int, "an integer")
read_bool = _typed(bool, "true or false")
read_strings = _reader(
    lambda v: type(v) is list and v != [] and all(type(s) is str for s in v),
    "a non-empty list of strings",
)
read_number = _reader(_finite, "a finite number")
read_numbers = _reader(
    lambda v: type(v) is list and all(map(_finite, v)), "a list of finite numbers"
)


def _unit_numbers(low_ok: Callable[[float], bool]) -> Callable[[object], bool]:
    """A check, at C speed, that a value is a list of JSON numbers (no bool)
    at most 1 that pass `low_ok`. A leading NaN makes `min` and `max` NaN and
    fails a bound; otherwise they are the extremes of the other values, so
    once both bounds hold the sum is NaN exactly when some value is NaN."""
    return lambda v: type(v) is list and set(map(type, v)) <= _NUMBER_TYPES and (
        not v or (low_ok(min(v)) and max(v) <= 1.0 and not math.isnan(sum(v))))


read_probabilities = _reader(_unit_numbers((0.0).__le__), "numbers in [0,1]")
read_token_probs = _reader(_unit_numbers((0.0).__lt__), "numbers in (0,1]")
read_positive_numbers = _reader(
    lambda v: type(v) is list and all(_finite(s) and s > 0 for s in v),
    "a list of finite numbers > 0",
)
read_count = _reader(lambda v: type(v) is int and v >= 0, "a nonnegative int")


def read_probability(name: str, value) -> float:
    if type(value) not in _NUMBER_TYPES:
        raise ValueError(f"{name} must be a number")
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} outside [0,1]")
    return value


def read_enum(kind: type[enum.Enum]):
    """Reader of the value string of one member of `kind`."""
    members = {member.value: member for member in kind}

    def read(name: str, value):
        if type(value) is not str or value not in members:
            raise ValueError(f"{name} must be one of {sorted(members)}, got {value!r}")
        return members[value]

    return read


def _nested_fields(table: dict, name: str, value) -> dict:
    """The fields of the nested object `value` read by `table`. Each rejection
    starts with `name`, where the object sits: `match: missing field 'f1'`."""
    if type(value) is not dict:
        raise ValueError(f"{name} must be a JSON object")
    try:
        return read_table(table, value)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def read_object(table: dict, build):
    """Reader of a nested object: `build(**fields)` of its fields read by
    `table`. Its `table` attribute is that table, by which `encode` writes."""

    def read(name: str, value):
        return build(**_nested_fields(table, name, value))

    read.table = table
    return read


def read_objects(table: dict, build):
    """Reader of a list of objects, each read as by `read_object(table, build)`
    under the name `name[i]`; its `table` is exposed the same way."""

    def read(name: str, value):
        if type(value) is not list:
            raise ValueError(f"{name} must be a list of JSON objects")
        return tuple(
            build(**_nested_fields(table, f"{name}[{i}]", v)) for i, v in enumerate(value)
        )

    read.table = table
    return read


REQUIRED = object()  # the default of a field every object must carry

# {field: (reader, default or REQUIRED)}, one table per line kind
EMISSION = {"char_position": (read_count, REQUIRED), "token_index": (read_count, None)}
MATCH = {
    "correct": (read_bool, REQUIRED),
    "rule": (read_enum(MatchRule), REQUIRED),
    "f1": (read_probability, REQUIRED),
}
PREDICTION = {
    "qid": (read_string, REQUIRED),
    "dataset": (read_string, ""),
    "question": (read_string, ""),
    "gold_answers": (read_strings, REQUIRED),
    "response_text": (read_string, REQUIRED),
    "extracted_answer": (read_string, None),
    "verbal_confidence": (read_probability, None),
    "emissions": (read_objects(EMISSION, EmissionEvent), None),  # None: scanned
    "response_token_count": (read_count, None),  # None: whitespace tokens
    "token_probs": (read_token_probs, None),
    "p_affirmative": (read_probability, None),
    "match": (read_object(MATCH, MatchResult), None),
}
RAG_TRACE = {
    "qid": (read_string, REQUIRED),
    "dataset": (read_string, ""),
    "gold_answers": (read_strings, REQUIRED),
    "noret_answer": (read_string, REQUIRED),
    "ret_answer": (read_string, REQUIRED),
    "noret_confidence": (read_probability, None),
    "noret_emissions": (read_count, 0),
    "noret_probe_score": (read_number, None),
    "noret_token_probs": (read_token_probs, None),
    "noret_response_text": (read_string, None),
    "external_trigger": (read_bool, None),
}
TRAJECTORY = {
    "id": (read_string, REQUIRED),
    "answer": (read_string, REQUIRED),
    "confidence": (read_probability, REQUIRED),
    "base_prob": (read_probability, REQUIRED),
}
SPACE = {
    "gold_answer": (read_string, REQUIRED),
    "trajectories": (read_objects(TRAJECTORY, dict), REQUIRED),
}
KL_PAIR = {
    "position": (read_count, REQUIRED),
    "base_probs": (read_probabilities, REQUIRED),
    "calibrated_probs": (read_probabilities, REQUIRED),
}
KL_ANNOTATION = {"position": (read_count, REQUIRED), "type": (read_enum(TokenType), REQUIRED)}
ROW_ID = {"qid": (read_string, REQUIRED), "token_index": (read_count, None)}  # sidecar rows
# a `probe fit` model: every field it writes; `config` and `fit` say how it was
# fitted, and only the window and span sizes in `config` are read back
FIT = {
    "converged": (read_bool, REQUIRED),
    "grad_norm": (read_number, REQUIRED),
    "iterations": (read_count, REQUIRED),
}
PROBE_MODEL_CONFIG = {
    "hidden": (read_string, None),
    "preds": (read_string, None),
    "layer": (read_int, None),
    "window": (read_int, DEFAULT_WINDOW),
    "span_tokens": (read_int, DEFAULT_SPAN_TOKENS),
    "l2": (read_number, None),
    "seed": (read_int, None),
}
PROBE_MODEL = {
    "layer": (read_int, REQUIRED),
    "weights": (read_numbers, REQUIRED),
    "bias": (read_number, REQUIRED),
    "threshold": (read_number, REQUIRED),
    "feature_means": (read_numbers, REQUIRED),
    "feature_stds": (read_positive_numbers, REQUIRED),  # a fit never writes one <= 0
    "fit": (read_object(FIT, dict), None),
    "config": (read_object(PROBE_MODEL_CONFIG, dict), None),  # None: the defaults
    "schema": (_reader(lambda v: v == "uncal-probe-model-v2", "'uncal-probe-model-v2'"), None),
}


def read_table(table: dict, obj) -> dict:
    """The fields of the JSON object `obj` read by `table`. An absent field
    takes its default, and so does a null where the default is None. Rejects
    a non-object, unknown fields, a missing required field and any value its
    reader refuses."""
    if type(obj) is not dict:
        raise ValueError("line must be a JSON object")
    out = {}
    absent = 0
    for key, (read, default) in table.items():
        value = obj.get(key)
        if value is not None or (default is not None and key in obj):
            out[key] = read(key, value)
        elif default is REQUIRED:
            raise ValueError(f"missing field {key!r}")
        else:
            out[key] = default
            absent += key not in obj
    # the keys of `obj` beyond the table fields it holds are unknown
    if len(obj) > len(table) - absent:
        raise ValueError(f"unknown fields {sorted(obj.keys() - table.keys())}")
    return out


def _field_text(value) -> str:
    """A record's field value in line form, as text."""
    if isinstance(value, enum.Enum):
        value = value.value
    elif isinstance(value, np.ndarray):
        value = value.tolist()
    return _canonical(value)


def _compile(table: dict):
    """The encoder of `table`'s lines (see `encode`); a tuple of records becomes a list."""
    fields = [(key, encode_basestring(key) + ":",
               _compile(read.table) if hasattr(read, "table") else _field_text)
              for key, (read, _) in sorted(table.items())]

    def encode(record, **given) -> Line:
        if isinstance(record, tuple):
            return Line("[" + ",".join([encode(item) for item in record]) + "]")
        if given and not given.keys() <= table.keys():
            raise AttributeError(f"no table fields {sorted(given.keys() - table.keys())}")
        parts = []
        for key, prefix, write in fields:
            if key in given:
                value, write = given[key], _canonical
            else:
                value = getattr(record, key)
            if value is not None:
                plain = _PLAIN.get(type(value))  # most values: no call to `write`
                parts.append(prefix + (plain(value) if plain else write(value)))
        return Line("{" + ",".join(parts) + "}")

    return encode


_ENCODERS = {id(t): _compile(t) for t in (PREDICTION, MATCH, RAG_TRACE, SPACE, KL_PAIR,
                                          KL_ANNOTATION, ROW_ID, PROBE_MODEL, FIT)}


def encode(table: dict, record, **given) -> Line:
    """The canonical line that `read_table(table, ...)` reads back as `record`.
    Each field, in sorted key order, is `given[key]` (in line form) if given,
    else `getattr(record, key)`: a field the record lacks, or a given key the
    table lacks, raises AttributeError. None values are left out; a nested
    object is written by its table's encoder, an enum member by its value, a
    numpy array or a tuple as a list."""
    return _ENCODERS[id(table)](record, **given)


def _parser(table: dict, build):
    """`obj -> record` for the lines of one table."""
    return lambda obj: build(**read_table(table, obj))


def prediction_from_dict(obj) -> PredictionRecord:
    fields = read_table(PREDICTION, obj)
    text = fields["response_text"]
    if fields["emissions"] is None:
        fields["emissions"] = tuple(scan_emissions(text))
    if fields["response_token_count"] is None:
        fields["response_token_count"] = len(text.split())
    return PredictionRecord(**fields)


def space_from_dict(obj) -> TrajectorySpace:
    fields = read_table(SPACE, obj)
    gold = fields["gold_answer"]
    return TrajectorySpace(
        tuple(Trajectory(**t, correct=t["answer"] == gold) for t in fields["trajectories"]),
        gold,
    )


rag_from_dict = _parser(RAG_TRACE, RagTraceRecord)
kl_pair_from_dict = _parser(KL_PAIR, TokenDistPair)
kl_annotation_from_dict = _parser(KL_ANNOTATION, TokenAnnotation)


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LoadResult:
    records: list
    errors: list[tuple[int, str]]  # (line number, message)
    total_lines: int


_scan = json.JSONDecoder().scan_once


def _decode(line: str):
    """`json.loads(line)`, in one scan when the line is exactly one JSON value."""
    try:
        obj, end = _scan(line, 0)
    except (StopIteration, ValueError):
        return json.loads(line)
    return obj if end == len(line) else json.loads(line)


def decode_lines(text: str):
    """(line number, `json.loads` value or its JSONDecodeError) per nonblank line of `text`.
    Lines end at "\n" alone: a JSON string may hold U+0085, U+2028 or U+2029
    unescaped, and `str.splitlines` would break the line there."""
    for i, line in enumerate(text.split("\n"), start=1):
        if line.strip():
            try:
                yield i, _decode(line)
            except json.JSONDecodeError as exc:
                yield i, exc


def load_lines(path, parse: Callable[[dict], object]) -> LoadResult:
    """Parse every nonblank line with `parse`, one of the `*_from_dict`
    functions. A line that is not JSON, or that `parse` rejects, becomes an
    error entry (line number, message) instead of a record."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    records = []
    errors = []
    total = 0
    for i, obj in decode_lines(text):
        total += 1
        if isinstance(obj, json.JSONDecodeError):
            errors.append((i, f"invalid JSON: {obj.msg}"))
            continue
        try:
            records.append(parse(obj))
        except (ValueError, ShapeError) as exc:
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
