"""JSON Lines streams and deterministic report serialization.

Each line kind has one field table (`PREDICTION`, `RAG_TRACE`, `SPACE`,
`KL_PAIR`, `KL_ANNOTATION`, `ROW_ID` for matrix sidecars, `PLAN_STEP` for the
steps of `uncal run`, and `PROBE_MODEL` for the one JSON input that is not a
line stream), which both reads its lines (`read_table`) and writes them
(`encode_lines`).

Lines are read a block of `BLOCK_LINES` at a time, one field column at a
time: each field's `Reader.check` tests the block's column of values in a
few C-level passes (type sets, `min`/`max`, enum key sets; nested objects as
one flattened block of their own). `check` is the only rule that accepts a
value; a line kind's `rule`, if any, checks across the fields of the lines
the checks accept (a prediction's emissions sorted and inside its text, a
space's ids unique, a KL pair's lengths equal). One function, `_refused`,
decides which objects a table refuses and words why: the first field, in
table order, that is missing where it is required or whose `check` refuses
its value (that reader's `refusal`), else the unknown fields. It words the
refusals of a block's lines, of `read_table` and of nested objects alike; a
line the rule refuses gets the rule's message. So a line is accepted or
refused, with the same message, whatever block it falls in. A table load
yields the accepted lines as one column table: a plain dict from field to
list, in line order, a nested object read as a dict of its fields. A line
kind's `rows` may map a block's columns first: a trace load (`RAG_TRACES`)
checks every token probability and the response text of each line, but
keeps only each trace's minimum token probability, and not the text. A load
may instead derive: a function (`Derive`) maps each block's columns, as
soon as the block is read, to its part of a value, and the parts are joined
once the last block is read (`_joined`: arrays concatenated, lists chained,
dataclasses, dicts and tuples field by field). A table load is the same
reader with no derive, and a derivation that reads each row alone gives of
a table, taken as one block, what the load derives. `scored_kl_pairs` reads
KL pairs whose rule's arrays also give each pair's KL, so a load keeps only
positions and KL values. A file is read line by line: a load holds one
block of lines, their decoded objects and columns, and the parts derived
so far (for a table, the columns of the lines accepted so far). Loading
is strict: invalid lines are returned with their line numbers (the messages
carry no file or line; callers prefix `path:line:` once), and a file where
more than half the lines fail is rejected outright. A rejection inside a
nested object starts with where it sits in the line: `emissions[0]: unknown
fields ['x']`. A file's bytes are hashed as they are read (`open_hashed`),
so a load's `sha256` names exactly the bytes it parsed.

Writing is the same in reverse: lines are written from a column table, each
field column of a block formatted by one formatter (`encode_basestring`,
17-digit floats, a nested table's own lines), and each line joins its row;
a command that rewrites a table replaces the columns it changed. A CSV is
written the same way, a block of rows and one column at a time. Report
writing controls float formatting (17 significant digits, round-trip exact)
and key order so that identical configurations produce byte-identical files.
Every output file is written atomically.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, islice, repeat
from json.encoder import encode_basestring
from operator import is_, is_not, itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import CorruptInput, IoError
from .probe import DEFAULT_SPAN_TOKENS, DEFAULT_WINDOW
from .reprgeo import TokenType, kl_rows, paired_rows
from .rewards import MatchRule
from .trajspace import space_refusal

# lines read, or rows written, together; bounds what one block holds alive
BLOCK_LINES = 256

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
    """Canonical JSON text, as `encode_lines` returns it; `dumps_canonical` keeps it."""


# canonical text by exact type: a bool is no int here, and a Line is its own text
_PLAIN = {
    str: encode_basestring,
    int: int.__repr__,
    float: format_float,
    bool: {True: "true", False: "false"}.__getitem__,
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


_CSV_QUOTED = frozenset(',"\r\n')  # a cell holding one of these is quoted (RFC 4180)


def _csv_cell(value) -> str:
    """One CSV cell: None empty, a bool `true`/`false`, a float as in the
    reports (digits, sign, point and exponent only), and any other value's
    text, quoted where it holds a comma, a quote or a line break."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    text = str(value)
    return text if _CSV_QUOTED.isdisjoint(text) else '"' + text.replace('"', '""') + '"'


def _csv_column(values: Sequence) -> list[str]:
    """The cells of one column: all floats in one pass, else cell by cell."""
    return _float_texts(values) if _typed_column(values, _FLOAT) else list(map(_csv_cell, values))


def write_csv(path, header: Sequence[str], rows: Sequence[Sequence] | np.ndarray) -> None:
    """Plot-ready CSV with the same float discipline as the JSON reports,
    formatted a block of `BLOCK_LINES` rows at a time, one column at a time;
    the rows of a 2-D numpy array are converted to Python values a block at
    a time."""

    def lines():
        yield ",".join(map(_csv_cell, header)) + "\n"
        for start in range(0, len(rows), BLOCK_LINES):
            block = rows[start:start + BLOCK_LINES]
            columns = map(_csv_column, block.T.tolist() if isinstance(block, np.ndarray)
                          else zip(*block, strict=True))
            yield "".join(map("%s\n".__mod__, map(",".join, zip(*columns))))

    _write_atomic(path, lines())


# ---------------------------------------------------------------------------
# Reading: value readers, one table per line kind, one function for all tables
# ---------------------------------------------------------------------------

# JSON numbers decode to exactly these types; bool (an int subclass) is not one
_NUMBER_TYPES = frozenset((int, float))
_LIST = frozenset((list,))
_DICT = frozenset((dict,))
_STR = frozenset((str,))
_FLOAT = frozenset((float,))
_FLOAT_MAX = sys.float_info.max


class Reader(NamedTuple):
    """How a field's values are read. `check(values)` is true exactly when
    every value of the list `values` is accepted, tested in a few passes at C
    speed rather than one call per value; it is the only rule that accepts a
    value. `refusal(name, value)` words why `check` refuses `value`, for the
    field `name`. `convert`, if any, maps a column of accepted values to the
    fields; `table`, if any, is the table of a nested object, by which
    `encode_lines` writes it."""

    check: Callable[[list], bool]
    refusal: Callable[[str, object], str]
    convert: Callable[[list], list] | None = None
    table: dict | None = None


def _must_be(what: str):
    """The refusal `{name} must be {what}`."""
    return lambda name, value: f"{name} must be {what}"


def _typed_column(values, kinds: frozenset) -> bool:
    return set(map(type, values)) <= kinds


def _numbers_column(low_ok: Callable[[float], bool], high: float):
    """Check of a column of JSON numbers (no bool) that pass `low_ok` and lie
    at or below `high`, none of them NaN. A leading NaN makes `min` and `max`
    NaN and fails a bound; past that, the bounds hold only for values that
    compare, so NaN is looked for once they do."""
    return lambda values: _typed_column(values, _NUMBER_TYPES) and (not values or (
        low_ok(min(values)) and max(values) <= high and not any(map(math.isnan, values))))


def _lists_column(element_check):
    """Check of a column of lists whose elements, all together, pass `element_check`."""
    return lambda values: (_typed_column(values, _LIST)
                           and element_check(list(chain.from_iterable(values))))


_finite_column = _numbers_column((-_FLOAT_MAX).__le__, _FLOAT_MAX)
_probabilities = _numbers_column((0.0).__le__, 1.0)


def _typed(kind: type, what: str) -> Reader:
    """Reader of the values of exactly type `kind` (so a bool is no int)."""
    return Reader(partial(_typed_column, kinds=frozenset((kind,))), _must_be(what))


read_string = _typed(str, "a string")
read_int = _typed(int, "an integer")
read_bool = _typed(bool, "true or false")
read_strings = Reader(
    lambda values: (_typed_column(values, _LIST) and all(values)
                    and _typed_column(chain.from_iterable(values), _STR)),
    _must_be("a non-empty list of strings"),
)
read_number = Reader(_finite_column, _must_be("a finite number"))
read_numbers = Reader(_lists_column(_finite_column), _must_be("a list of finite numbers"))
read_probabilities = Reader(_lists_column(_probabilities), _must_be("numbers in [0,1]"))
read_token_probs = Reader(_lists_column(_numbers_column((0.0).__lt__, 1.0)),
                          _must_be("numbers in (0,1]"))
read_positive_numbers = Reader(_lists_column(_numbers_column((0.0).__lt__, _FLOAT_MAX)),
                               _must_be("a list of finite numbers > 0"))
# a count is used as a float too, so it may not exceed the largest one
read_count = Reader(
    lambda values: (_typed_column(values, frozenset((int,)))
                    and (not values or 0 <= min(values) and max(values) <= _FLOAT_MAX)),
    lambda name, value: (f"{name} exceeds {_FLOAT_MAX!r}"
                         if type(value) is int and value > _FLOAT_MAX
                         else f"{name} must be a nonnegative int"),
)
read_probability = Reader(
    _probabilities,
    lambda name, value: (f"{name} outside [0,1]" if type(value) in _NUMBER_TYPES
                         else f"{name} must be a number"),
)


def _int_at_least(low: int) -> Reader:
    """Reader of the integers (no bool) of at least `low`."""
    return Reader(lambda values: (_typed_column(values, frozenset((int,)))
                                  and (not values or min(values) >= low)),
                  _must_be(f"an integer >= {low}"))


def read_enum(kind: type[enum.Enum]) -> Reader:
    """Reader of the value string of one member of `kind`, converted to that member."""
    members = {member.value: member for member in kind}
    return Reader(lambda values: _typed_column(values, _STR) and set(values) <= members.keys(),
                  lambda name, value: f"{name} must be one of {sorted(members)}, got {value!r}",
                  lambda values: list(map(members.__getitem__, values)))


def _located(table: dict, name: str, value) -> str | None:
    """The refusal of the nested object `value` by `table`, starting with
    `name`, where it sits: `match: missing field 'f1'`; None if accepted."""
    if type(value) is not dict:
        return f"{name} must be a JSON object"
    refusal = _refused(table, [value], _columns(table, [value])).get(0)
    return refusal and f"{name}: {refusal}"


def _objects(table: dict, objs: list) -> list[dict]:
    """The accepted nested objects `objs`, each read by `table` into a dict of its fields."""
    fields = _fields(table, _columns(table, objs))
    return [dict(zip(fields, row)) for row in zip(*fields.values())]


def read_object(table: dict) -> Reader:
    """Reader of a nested object, read by `table` into a dict of its fields;
    a column of them is checked and read as one block of its own."""
    return Reader(lambda objs: (_typed_column(objs, _DICT)
                                and not _refused(table, objs, _columns(table, objs))),
                  partial(_located, table), partial(_objects, table), table)


def read_objects(table: dict) -> Reader:
    """Reader of a list of objects, each read by `read_object(table)` and
    located as `name[i]`; a column of such lists is read as the one block of
    all their objects."""
    each = read_object(table)

    def refusal(name: str, value) -> str:
        if type(value) is not list:
            return f"{name} must be a list of JSON objects"
        return next(filter(None, (_located(table, f"{name}[{i}]", v)
                                  for i, v in enumerate(value))))

    return Reader(_lists_column(each.check), refusal, lambda values: list(
        _runs(each.convert(list(chain.from_iterable(values))), values)), table)


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
    "emissions": (read_objects(EMISSION), None),  # None: `probe.emitted` scans the text
    "response_token_count": (read_count, None),  # None: `rewards.token_counts` counts
    "token_probs": (read_token_probs, None),
    "p_affirmative": (read_probability, None),
    "match": (read_object(MATCH), None),
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
    # checked whole, but a load keeps only the minimum (`_trace_columns`)
    "noret_token_probs": (read_token_probs, None),
    "noret_response_text": (read_string, None),  # checked, not kept
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
    "trajectories": (read_objects(TRAJECTORY), REQUIRED),
}
KL_PAIR = {
    "position": (read_count, REQUIRED),
    "base_probs": (read_probabilities, REQUIRED),
    "calibrated_probs": (read_probabilities, REQUIRED),
}
KL_ANNOTATION = {"position": (read_count, REQUIRED), "type": (read_enum(TokenType), REQUIRED)}
ROW_ID = {"qid": (read_string, REQUIRED), "token_index": (read_count, None)}  # sidecar rows
PLAN_STEP = {"argv": (read_strings, REQUIRED)}  # one `uncal` command of a plan
# a `probe fit` model: every field it writes; `config` and `fit` say how it was
# fitted, and only the window and span sizes in `config` are read back, in
# the ranges `probe fit` takes them
FIT = {
    "converged": (read_bool, REQUIRED),
    "grad_norm": (read_number, REQUIRED),
    "iterations": (read_count, REQUIRED),
}
PROBE_MODEL_CONFIG = {
    "hidden": (read_string, None),
    "preds": (read_string, None),
    "layer": (read_int, None),
    "window": (_int_at_least(0), DEFAULT_WINDOW),
    "span_tokens": (_int_at_least(1), DEFAULT_SPAN_TOKENS),
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
    "fit": (read_object(FIT), None),
    "config": (read_object(PROBE_MODEL_CONFIG), None),  # None: the defaults
    "schema": (Reader(lambda values: values.count("uncal-probe-model-v2") == len(values),
                      _must_be("'uncal-probe-model-v2'")), None),
}


_NOT_AN_OBJECT = "line must be a JSON object"


def read_table(table: dict, obj) -> dict:
    """The fields of the JSON object `obj` read by `table`, as a block of
    that one line reads them; raises ValueError with its refusal."""
    if type(obj) is not dict:
        raise ValueError(_NOT_AN_OBJECT)
    refused, fields = _read_columns(table, [obj])
    if refused:
        raise ValueError(refused[0])
    return {key: column[0] for key, column in fields.items()}


_present = partial(is_not, None)
_absent = partial(is_, None)


def _failing(check, values: list, start: int, stop: int) -> list[int]:
    """The indices in [start, stop) of the `values` that `check` refuses
    alone, found by halving the range while `check` refuses it."""
    if check(values[start:stop]):
        return []
    if stop - start == 1:
        return [start]
    middle = (start + stop) // 2
    return _failing(check, values, start, middle) + _failing(check, values, middle, stop)


def _columns(table: dict, objs: list) -> dict[str, list]:
    """Each field's column of the values of the JSON objects `objs`: the
    default where a field is absent, and None where it has no value (no
    reader accepts None, so an absent required field is refused)."""
    return {key: list(map(dict.get, objs, repeat(key), repeat(None if default is REQUIRED
                                                               else default)))
            for key, (_, default) in table.items()}


def _refused(table: dict, objs: list, columns: dict[str, list]) -> dict[int, str]:
    """{index: refusal} of the JSON objects `objs`, whose `_columns` are
    `columns`, that `table` refuses: for each, the first field in table
    order that is missing where it is required (`missing field 'k'`) or
    whose check refuses its value (that reader's `refusal`), else its unknown
    fields. Where a column fails its check, the values it refuses are found
    by halving it."""
    refused = {}
    for key, (read, default) in table.items():
        column = columns[key]
        # where the default is None, a None is that default, which no reader sees
        rows = ([i for i, v in enumerate(column) if v is not None]
                if default is None and any(map(_absent, column)) else None)
        values = column if rows is None else list(map(column.__getitem__, rows))
        if read.check(values):
            continue
        failing = _failing(read.check, values, 0, len(values))
        for i in failing if rows is None else map(rows.__getitem__, failing):
            if i not in refused:
                missing = default is REQUIRED and key not in objs[i]
                refused[i] = f"missing field {key!r}" if missing else read.refusal(key, column[i])
    if not set().union(*objs) <= table.keys():
        for i, obj in enumerate(objs):
            if i not in refused and not obj.keys() <= table.keys():
                refused[i] = f"unknown fields {sorted(obj.keys() - table.keys())}"
    return refused


def _fields(table: dict, columns: dict[str, list]) -> dict[str, list]:
    """The fields of the columns of accepted values `columns`: each reader
    with a `convert` maps its column, unless every value is None."""
    for key, column in columns.items():
        read, default = table[key]
        if read.convert is None or not any(map(_present, column)):
            continue
        if default is None and any(map(_absent, column)):
            converted = iter(read.convert(list(filter(_present, column))))
            columns[key] = [None if v is None else next(converted) for v in column]
        else:
            columns[key] = read.convert(column)
    return columns


def _read_columns(table: dict, objs: list) -> tuple[dict[int, str], dict[str, list]]:
    """(refused, fields): the `_refused` rows of the JSON objects `objs`,
    and the `_fields` of the others."""
    columns = _columns(table, objs)
    refused = _refused(table, objs, columns)
    if refused:
        kept = [i for i in range(len(objs)) if i not in refused]
        columns = {key: list(map(column.__getitem__, kept)) for key, column in columns.items()}
    return refused, _fields(table, columns)


def _runs(items: list, lists: list):
    """`items` cut into consecutive slices, as long as each of `lists` in turn."""
    ends = list(accumulate(map(len, lists)))
    return map(items.__getitem__, map(slice, chain((0,), ends), ends))


class LineKind(NamedTuple):
    """A line stream. `table` reads its lines' fields. `rule`, if any,
    checks across the fields of the lines the column checks accept: it gives
    (row, refusal) of each row it refuses, and may add a column of what its
    check computed per row (the KL of `scored_kl_pairs`). `rows` then maps
    the field columns of the lines both accept to the columns a block
    yields, and refuses none of them; by default the columns as read."""

    table: dict
    rows: Callable[[dict[str, list]], dict[str, list]] = dict
    rule: Callable[[dict[str, list]], list[tuple[int, str]]] | None = None


def _emission_refusals(fields: dict[str, list]) -> list[tuple[int, str]]:
    """(row, refusal) of each prediction whose emissions are not sorted by
    `char_position`, or do not all lie inside its response text (position 0
    of an empty text included)."""
    refused = []
    for row, (events, text) in enumerate(zip(fields["emissions"], fields["response_text"])):
        if events:
            positions = [event["char_position"] for event in events]
            if positions != sorted(positions):
                refused.append((row, "emissions must be sorted by char_position"))
            elif positions[-1] >= max(len(text), 1):
                refused.append((row, "emission position outside response text"))
    return refused


def _trace_columns(fields: dict[str, list]) -> dict[str, list]:
    """The fields, with each trace's token probabilities replaced by their
    minimum (`noret_min_token_prob`: None where a line gives no list, +inf
    where it gives an empty one) and the response text left out."""
    del fields["noret_response_text"]
    fields["noret_min_token_prob"] = [None if probs is None else min(probs, default=math.inf)
                                      for probs in fields.pop("noret_token_probs")]
    return fields


def _space_refusals(fields: dict[str, list]) -> list[tuple[int, str]]:
    """(row, refusal) of each space that `trajspace.space_refusal` refuses."""
    refusals = (space_refusal([t["id"] for t in trajectories],
                              [t["base_prob"] for t in trajectories])
                for trajectories in fields["trajectories"])
    return [(row, refusal) for row, refusal in enumerate(refusals) if refusal is not None]


def _kl_pair_refusals(fields: dict[str, list], epsilon: float) -> list[tuple[int, str]]:
    """(row, refusal) of each KL pair whose two distributions differ in
    length, or one of which does not sum to 1 within 1e-6 (its row sum,
    the bits `np.sum` of its vector gives), base before calibrated. The
    pairs of each pair of lengths are read as one 2-D array per side, and
    the same arrays give each pair's KL at the floor `epsilon`
    (`reprgeo.kl_rows`), which goes into a `kl` column of `fields` (None
    where the lengths differ)."""
    refused, kls = {}, [None] * len(fields["position"])
    for rows, base, calibrated in paired_rows(fields["base_probs"], fields["calibrated_probs"]):
        if base.shape != calibrated.shape:
            refused |= dict.fromkeys(rows, "distribution pair must be two equal-length vectors")
            continue
        base_off = np.abs(base.sum(axis=1) - 1.0) > 1e-6
        calibrated_off = np.abs(calibrated.sum(axis=1) - 1.0) > 1e-6
        for k in np.flatnonzero(base_off | calibrated_off).tolist():
            name = "base" if base_off[k] else "calibrated"
            refused[rows[k]] = f"{name} distribution does not sum to 1"
        for row, kl in zip(rows, kl_rows(base, calibrated, epsilon).tolist()):
            kls[row] = kl
    fields["kl"] = kls
    return sorted(refused.items())


def scored_kl_pairs(epsilon: float) -> LineKind:
    """KL pairs as `repr kl` reads them: a pair is refused where its
    distributions differ in length or one does not sum to 1, and the arrays
    that rule reads also give each pair's KL at the floor `epsilon`; a load
    keeps each pair's `position` and `kl` alone, not its distributions."""
    return LineKind(KL_PAIR, lambda fields: {"position": fields["position"], "kl": fields["kl"]},
                    lambda fields: _kl_pair_refusals(fields, epsilon))


PREDICTIONS = LineKind(PREDICTION, rule=_emission_refusals)
RAG_TRACES = LineKind(RAG_TRACE, _trace_columns)
SPACES = LineKind(SPACE, rule=_space_refusals)
KL_ANNOTATIONS = LineKind(KL_ANNOTATION)
ROW_IDS = LineKind(ROW_ID)  # matrix sidecar rows


# ---------------------------------------------------------------------------
# Writing: one formatter per field column
# ---------------------------------------------------------------------------

def _float_texts(column: list) -> list[str]:
    """`format_float` of each float of `column`, as one C-level pass."""
    if not all(map(math.isfinite, column)):
        raise ValueError("reports must not contain NaN or infinity")
    texts = list(map("%.17g".__mod__, column))
    return ["0" if text == "-0" else text for text in texts] if "-0" in texts else texts


def _texts(values: list, table: dict | None = None) -> list[str]:
    """The text of each of `values`, none of them None; `table` writes them
    if they are objects of a nested table. Values of one type have one
    formatter: a plain type's, the table's, or that of their plain form (an
    enum member's value, an array's list); lists and tuples are written
    from the one column of all their items."""
    kinds = set(map(type, values))
    if len(kinds) > 1:
        return [_texts([v], table)[0] for v in values]
    kind = kinds.pop() if kinds else None
    if kind is float:
        return _float_texts(values)
    if kind in _PLAIN:
        return list(map(_PLAIN[kind], values))
    if kind is tuple or kind is list:
        items = list(chain.from_iterable(values))
        # an item None is null, not left out
        texts = (list(map(_canonical, items)) if table is None and any(map(_absent, items))
                 else _texts(items, table))
        return list(map("[%s]".__mod__, map(",".join, _runs(texts, values))))
    if table is not None:  # mappings of a nested table's fields
        return list(_encode_block(table, {key: list(map(itemgetter(key), values))
                                          for key in table}))
    if kind is np.ndarray:
        return _texts([v.tolist() for v in values])
    if kind is not None and issubclass(kind, enum.Enum):  # a member's text is its value's
        return list(map({m: _texts([m.value])[0] for m in kind}.__getitem__, values))
    return list(map(_canonical, values))  # dicts, and subclasses of plain types


def _field_parts(prefix: str, column: list, table: dict | None) -> list[str]:
    """`prefix` and the text of each value of a field's column, or "" where
    the value is None and the field is left out."""
    present = list(filter(_present, column))
    if not present:
        return [""] * len(column)
    texts = map(prefix.__add__, _texts(present, table))
    if len(present) == len(column):
        return list(texts)
    return ["" if v is None else next(texts) for v in column]


def _encode_block(table: dict, columns: dict[str, list]) -> Iterator[Line]:
    """The lines of the rows of `columns`, one field column at a time (see
    `encode_lines`); each is joined only when it is drawn."""
    parts = [_field_parts("," + encode_basestring(key) + ":", columns[key], read.table)
             for key, (read, _) in sorted(table.items())]
    # each part leads with a comma; the first is dropped
    return (Line("{" + line[1:] + "}") for line in map("".join, zip(*parts)))


def encode_lines(table: dict, columns: dict[str, Sequence]) -> Iterator[Line]:
    """The canonical lines that `read_table(table, ...)` reads back as the
    rows of the column table `columns` (field -> values, as a load yields
    them), made a block at a time. Each line holds, in sorted key order, each
    field of the table from its column: a field `columns` lacks raises
    KeyError, and a column the table lacks is not written. None values are
    left out; a nested object (a mapping of its fields) is written by its
    table, an enum member by its value, a numpy array or a tuple as a list."""
    for start in range(0, len(columns[next(iter(table))]), BLOCK_LINES):
        block = slice(start, start + BLOCK_LINES)
        yield from _encode_block(table, {key: columns[key][block] for key in table})


def encode(table: dict, fields) -> Line:
    """The one line of `encode_lines` for the mapping `fields` of one row."""
    return next(encode_lines(table, {key: [fields[key]] for key in table}))


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LoadResult:
    records: object  # the column table of the accepted lines, or what a derive made of it
    errors: list[tuple[int, str]]  # (line number, message)
    total_lines: int
    sha256: str  # hex digest of the bytes read


class _Sha256Reader(io.RawIOBase):
    """The unbuffered binary file `raw`, read through a sha256 (`sha256`)
    that every byte read updates."""

    def __init__(self, raw):
        super().__init__()
        self.raw, self.sha256 = raw, hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = self.raw.readinto(buffer)
        self.sha256.update(memoryview(buffer)[:count])
        return count

    def close(self) -> None:
        self.raw.close()
        super().close()


def open_hashed(path):
    """(text file, sha256): the file `path` opened for reading as UTF-8 text
    whose lines end at "\n" alone, with no newline translated (a "\r"
    stays in its line as JSON whitespace), and the sha256 that each byte
    read from it updates. Once the text is read to its end, the digest is
    that of the bytes the reader parsed, however the file changes meanwhile."""
    raw = _Sha256Reader(open(path, "rb", buffering=0))
    return io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8", newline="\n"), raw.sha256


_scan = json.JSONDecoder().scan_once
_LINE_ENDS = frozenset({"", "\n", "\r\n"})


def _decode(line: str):
    """`json.loads` of `line` without its final "\n", in one scan when the
    line is one JSON value followed by no more than its "\r\n" or "\n"."""
    try:
        obj, end = _scan(line, 0)
    except (StopIteration, ValueError):
        return json.loads(line.removesuffix("\n"))
    return obj if line[end:] in _LINE_ENDS else json.loads(line.removesuffix("\n"))


def decode_lines(lines: Iterable[str]):
    """(line number, `json.loads` value or its JSONDecodeError) per nonblank
    line of `lines`, each without or with its final "\n", as a text file
    yields them. Lines end at "\n" alone: a JSON string may hold U+0085,
    U+2028 or U+2029 unescaped, and `str.splitlines` would break the line there."""
    for i, line in enumerate(lines, start=1):
        if line and not line.isspace():
            try:
                yield i, _decode(line)
            except json.JSONDecodeError as exc:
                yield i, exc


def _read_block(kind: LineKind, block: list, errors: list) -> dict[str, list]:
    """The columns of the decoded lines `block` that `kind` accepts; (line
    number, JSONDecodeError or refusal) of each other line is appended to
    `errors`, in line order."""
    objs = list(map(itemgetter(1), block))
    rows = [i for i, obj in enumerate(objs) if type(obj) is dict]  # a non-object is refused
    inner, fields = _read_columns(kind.table, objs if len(rows) == len(objs)
                                  else [objs[i] for i in rows])
    refusals = {rows[k]: message for k, message in inner.items()}  # block index -> refusal
    if kind.rule is not None and (ruled := kind.rule(fields)):
        accepted = [i for k, i in enumerate(rows) if k not in inner]
        refusals.update((accepted[k], message) for k, message in ruled)
        kept = [k for k, i in enumerate(accepted) if i not in refusals]
        fields = {key: list(map(column.__getitem__, kept)) for key, column in fields.items()}
    if refusals or len(rows) < len(objs):
        for i, (line_no, obj) in enumerate(block):
            if isinstance(obj, json.JSONDecodeError):
                errors.append((line_no, obj))
            elif type(obj) is not dict:
                errors.append((line_no, _NOT_AN_OBJECT))
            elif i in refusals:
                errors.append((line_no, refusals[i]))
    return kind.rows(fields)


Derive = Callable[[dict[str, list]], object]  # a block's columns -> its part of a value


def _joined(parts: list):
    """The value whose parts, one per block in line order, are `parts`, all
    of one structure: arrays are concatenated, lists chained, and
    dataclasses, dicts and tuples joined field by field. Each part's lists
    are emptied as they are chained, so a join holds about one list of its
    values at a time."""
    first = parts[0]
    if first is None:  # a derive that keeps nothing of a block
        return None
    if isinstance(first, np.ndarray):
        return np.concatenate(parts)
    if isinstance(first, list):
        joined = []
        for part in parts:
            joined += part
            part.clear()
        return joined
    if dataclasses.is_dataclass(first):
        return type(first)(**{field.name: _joined([getattr(part, field.name) for part in parts])
                              for field in dataclasses.fields(first)})
    if isinstance(first, dict):
        return {key: _joined([part[key] for part in parts]) for key in first}
    return tuple(map(_joined, map(list, zip(*parts))))


def read_lines(lines: Iterable[str], kind: LineKind) -> tuple[dict, list, int]:
    """(accepted, errors, count) of the nonblank lines of `lines` (see
    `decode_lines`): the column table of the lines `kind` accepts, (line
    number, JSONDecodeError or refusal) of each other line, and the number
    of lines, read a block of `BLOCK_LINES` at a time."""
    return _read_lines(lines, kind, None)


def _blocks(lines: Iterable[str], kind: LineKind, errors: list) -> Iterator[tuple[int, dict]]:
    """(line count, columns) of each block of `BLOCK_LINES` nonblank lines
    of `lines`, in order: `_read_block`, which appends to `errors`."""
    lines = decode_lines(lines)
    while block := list(islice(lines, BLOCK_LINES)):
        yield len(block), _read_block(kind, block, errors)


def _read_lines(lines: Iterable[str], kind: LineKind,
                derive: Derive | None) -> tuple[object, list, int]:
    """`read_lines` for this module's own calls, which perfbench's tracer
    leaves unwrapped; or where `derive` is given, what it derives of the
    accepted lines instead of their table: it maps the columns of each
    block as soon as the block is read, and the parts are joined
    (`_joined`) once the last block is, so the table is never whole. A
    table is the join of its blocks' tables (each derived by `dict`), so
    `derive` of a table is `derive` of one block of all its lines."""
    derive, parts, errors, total = derive or dict, [], [], 0
    for count, columns in _blocks(lines, kind, errors):
        total += count
        parts.append(derive(columns))
    if not parts:  # the part of no lines: a file of none still yields every column
        parts.append(derive(_read_block(kind, [], errors)))
    return _joined(parts), errors, total


def _result(refused: list, total: int, sha256, records=None) -> LoadResult:
    """The LoadResult of a read of `total` lines, the JSON errors of `refused` as messages."""
    errors = [(i, f"invalid JSON: {exc.msg}" if isinstance(exc, json.JSONDecodeError)
               else str(exc)) for i, exc in refused]
    return LoadResult(records=records, errors=errors, total_lines=total,
                      sha256=sha256.hexdigest())


def _valid(path, result: LoadResult) -> LoadResult:
    """`result`, the read of `path`, refused where more than half the lines fail."""
    if result.total_lines and len(result.errors) > result.total_lines / 2:
        raise CorruptInput(f"{path}: {len(result.errors)} of {result.total_lines} lines "
                           "failed validation")
    return result


def read_file(path, kind: LineKind, derive: Derive | None = None) -> LoadResult:
    """`read_lines` of the file `path`, with the sha256 of the bytes read: the
    column table of the nonblank lines that `kind` accepts, or what `derive`
    derives of them. A line that is not JSON, or that `kind` rejects,
    becomes an error entry (line number, message) instead."""
    try:
        fh, sha256 = open_hashed(path)
        with fh:  # line by line: the text is never whole
            records, refused, total = _read_lines(fh, kind, derive)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    return _result(refused, total, sha256, records)


def rewrite_file(source, target, kind: LineKind, rewrite: Callable[[dict], Iterable[str]],
                 finish: Callable[[LoadResult], None]) -> None:
    """Write to `target` (atomically: `_write_atomic`) the lines `rewrite`
    makes of the columns of each block of the file `source`, read as by
    `load_lines`, in one pass: each block is written before the next is
    read, so no table is held. `finish` gets the read's result (`records`
    None) after the last block, before the file takes `target`'s place
    (which may be `source`'s): a refused `source`, or what `finish` raises,
    leaves `target` as it was and no temporary file."""
    try:
        fh, sha256 = open_hashed(source)
    except OSError as exc:
        raise IoError(f"cannot read {source}: {exc}") from exc

    refused = []

    def blocks():  # a read fault is the source's, not a write fault of `target`
        try:
            yield from _blocks(fh, kind, refused)
        except OSError as exc:
            raise IoError(f"cannot read {source}: {exc}") from exc

    def chunks():
        total = 0
        for count, columns in blocks():
            total += count
            yield "".join(map("%s\n".__mod__, rewrite(columns)))
        finish(_valid(source, _result(refused, total, sha256)))

    with fh:
        _write_atomic(target, chunks())


def load_lines(path, kind: LineKind, derive: Derive | None = None) -> LoadResult:
    """`read_file`, refusing a file where more than half the lines fail."""
    return _valid(path, read_file(path, kind, derive))
