"""The block reader of `uncal.jsonio` against `read_table` on each line
alone, the memory a load and a probe feature hold, and scores that depend
on their row alone. (The column encoder is checked in `test_jsonio.py`.)

The rejection fixtures mix every kind of fault a line can have. Their
expected `(line, message)` lists were taken from the per-line reader before
lines were read by column, and must not change."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncal import cli, jsonio, matio, probe, recal, reprgeo
from uncal.errors import AlignmentError, IoError, ShapeError
from uncal.rewards import MatchRule, score_predictions

from conftest import count_calls, emission, prediction, predictions
from oracles import TokenDistPair, oracle_read_table


def _valid_predictions(n):
    return [json.dumps({"qid": f"v{i}", "gold_answers": ["a", f"b{i}"],
                        "response_text": f"Answer: a <uncertain> {i}",
                        "verbal_confidence": i / n, "dataset": "d",
                        "match": {"correct": i % 2 == 0, "rule": "TokenF1", "f1": 0.5}})
            for i in range(n)]


PREDICTION_FAULTS = [
    '{"qid": "p3",',
    '["p4"]',
    '"p5"',
    '{"qid":"p6","gold_answers":["a"],"response_text":"x","extra":1,"more":2}',
    '{"qid":"p7","gold_answers":["a"]}',
    '{"gold_answers":["a"],"response_text":"x"}',
    '{"qid":"p9","gold_answers":["a"],"response_text":"x","dataset":null}',
    '{"qid":"p10","gold_answers":["a"],"response_text":"x",'
    '"match":{"correct":true,"rule":"Nope","f1":1.0}}',
    '{"qid":"p11","gold_answers":["a"],"response_text":"x","match":{"correct":true,"rule":"YesNo"}}',
    '{"qid":"p12","gold_answers":["a"],"response_text":"xyz",'
    '"emissions":[{"char_position":0},{"char_position":1,"x":2}]}',
    '{"qid":"p13","gold_answers":["a"],"response_text":"<uncertain> <uncertain>",'
    '"emissions":[{"char_position":12},{"char_position":0}]}',
    '{"qid":"p14","gold_answers":["a"],"response_text":"ab","emissions":[{"char_position":5}]}',
    '{"qid":"p15","gold_answers":[],"response_text":"x"}',
    '{"qid":"p16","gold_answers":["a"],"response_text":"x","verbal_confidence":1.5}',
    '{"qid":"p17","gold_answers":["a"],"response_text":"x","verbal_confidence":true}',
    '{"qid":"p18","gold_answers":["a"],"response_text":"x","token_probs":[0.5,0.0]}',
    '{"qid":"p19","gold_answers":["a"],"response_text":"x","match":[1]}',
    '{"qid":"p20","gold_answers":["a"],"response_text":"x","emissions":{"char_position":0}}',
    '{"qid":"p21","gold_answers":["a"],"response_text":"x","response_token_count":-1}',
    '{"qid":"p22","gold_answers":["a"],"response_text":"x","p_affirmative":NaN}',
    '{"qid":"p23","gold_answers":["a"],"response_text":"x","emissions":[[0]]}',
    '{"qid":"p24","gold_answers":["a",2],"response_text":"x","match":null,"emissions":null}',
]

RAG_FAULTS = [
    '{"qid":"r1"',
    '[]',
    '{"qid":"r3","gold_answers":["a"],"noret_answer":"a","ret_answer":"b","x":1}',
    '{"qid":"r4","gold_answers":["a"],"noret_answer":"a"}',
    '{"qid":"r5","gold_answers":["a"],"noret_answer":"a","ret_answer":"b","noret_emissions":null}',
    '{"qid":"r6","gold_answers":["a"],"noret_answer":"a","ret_answer":"b","noret_confidence":2}',
    '{"qid":"r7","gold_answers":["a"],"noret_answer":"a","ret_answer":"b",'
    '"noret_probe_score":"x"}',
    '{"qid":"r8","gold_answers":["a"],"noret_answer":"a","ret_answer":"b",'
    '"noret_token_probs":[0]}',
    '{"qid":"r9","gold_answers":["a"],"noret_answer":"a","ret_answer":"b","external_trigger":1}',
    '{"qid":"r10","gold_answers":"a","noret_answer":"a","ret_answer":"b"}',
    '{"qid":"r11","gold_answers":["a"],"noret_answer":"a","ret_answer":"b",'
    '"noret_probe_score":1e999}',
]


def _valid_rag(n):
    return [json.dumps({"qid": f"v{i}", "gold_answers": ["a"], "noret_answer": "a",
                        "ret_answer": "b", "noret_confidence": i / n, "noret_emissions": i % 3,
                        "noret_probe_score": -i * 1.5, "noret_token_probs": [0.5, 1],
                        "external_trigger": i % 2 == 0})
            for i in range(n)]


def _trajectory(id_, answer, base_prob, confidence=0.5, **extra):
    return {"id": id_, "answer": answer, "confidence": confidence, "base_prob": base_prob,
            **extra}


SPACE_FAULTS = [json.dumps(obj) if not isinstance(obj, str) else obj for obj in [
    '{"gold_answer": "A"',
    '7',
    {"gold_answer": "A", "trajectories": [_trajectory("a", "A", 1.0)], "note": "x"},
    {"trajectories": [_trajectory("a", "A", 1.0)]},
    {"gold_answer": "A", "trajectories": None},
    {"gold_answer": "A", "trajectories": {"id": "a"}},
    {"gold_answer": "A", "trajectories": [_trajectory("a", "A", 0.5), "b"]},
    {"gold_answer": "A", "trajectories": [_trajectory("a", "A", 1.0, weight=1)]},
    {"gold_answer": "A", "trajectories": [_trajectory("a", "A", 1.0, confidence=1.2)]},
    {"gold_answer": "A", "trajectories": [_trajectory("a", "A", 0.5), _trajectory("a", "B", 0.5)]},
    {"gold_answer": "A", "trajectories": [_trajectory("a", "A", 0.5), _trajectory("b", "B", 0.4)]},
    {"gold_answer": "A", "trajectories": []},
    {"gold_answer": 1, "trajectories": [_trajectory("a", "A", 1.0)]},
]]


def _valid_spaces(n):
    return [json.dumps({"gold_answer": "A", "trajectories": [
        _trajectory("a", "A", 0.25, confidence=i / n), _trajectory("b", "B", 0.75)]})
        for i in range(n)]


KL_PAIR_FAULTS = [
    '{"position": 1,',
    'null',
    '{"position":3,"base_probs":[1.0],"calibrated_probs":[1.0],"extra":0}',
    '{"position":4,"base_probs":[1.0]}',
    '{"position":-1,"base_probs":[1.0],"calibrated_probs":[1.0]}',
    '{"position":6,"base_probs":[0.5,"x"],"calibrated_probs":[0.5,0.5]}',
    '{"position":7,"base_probs":[0.5,0.5],"calibrated_probs":[1.0]}',
    '{"position":8,"base_probs":[0.5,0.4],"calibrated_probs":[0.5,0.5]}',
    '{"position":9,"base_probs":[0.5,0.5],"calibrated_probs":[1.5,-0.5]}',
]


def _valid_kl_pairs(n):
    return [json.dumps({"position": i, "base_probs": [0.25, 0.75],
                        "calibrated_probs": [0.5, 0.5]}) for i in range(n)]


KL_ANNOTATION_FAULTS = [
    '{"position":1',
    '{"position":2,"type":"Nope"}',
    '{"position":null,"type":"Other"}',
    '{"position":4,"type":"Other","x":1}',
    '{"position":5}',
    '{"position":6,"type":["Other"]}',
]


def _valid_kl_annotations(n):
    return [json.dumps({"position": i, "type": "ReasoningToken"}) for i in range(n)]


ROW_ID_FAULTS = [
    '{"qid":',
    '["q"]',
    '{"qid":"q","token_index":-1}',
    '{"qid":"q","token_index":1.0}',
    '{"qid":1}',
    '{"token_index":0}',
    '{"qid":"q","row":0}',
]


def _valid_row_ids(n):
    return [json.dumps({"qid": f"q{i // 3}", "token_index": i % 3}) for i in range(n)]


def _valid_plan_steps(n):
    return [json.dumps({"argv": ["calib", "--in", f"preds{i}.jsonl"]}) for i in range(n)]


def _mixed(faults, valid):
    """Each fault after two valid lines, then a blank line and the last valid ones."""
    lines = []
    valid = iter(valid)
    for fault in faults:
        lines += [next(valid), next(valid), fault]
    return lines + [""] + list(valid)


FIXTURES = {
    "PREDICTIONS": _mixed(PREDICTION_FAULTS, _valid_predictions(46)),
    "RAG_TRACES": _mixed(RAG_FAULTS, _valid_rag(24)),
    "SPACES": _mixed(SPACE_FAULTS, _valid_spaces(28)),
    "KL_PAIRS": _mixed(KL_PAIR_FAULTS, _valid_kl_pairs(20)),
    "KL_ANNOTATIONS": _mixed(KL_ANNOTATION_FAULTS, _valid_kl_annotations(14)),
    "ROW_IDS": _mixed(ROW_ID_FAULTS, _valid_row_ids(16)),
}

# (line, message) of each rejected fixture line, as the per-line reader gave them
EXPECTED = {'KL_ANNOTATIONS': [(3, "invalid JSON: Expecting ',' delimiter"),
                    (6,
                     "type must be one of ['ConfidenceDigit', 'NearbyContext', 'Other', "
                     "'ReasoningToken', 'StructuralLabel', 'UncertaintyToken'], got 'Nope'"),
                    (9, 'position must be a nonnegative int'),
                    (12, "unknown fields ['x']"),
                    (15, "missing field 'type'"),
                    (18,
                     "type must be one of ['ConfidenceDigit', 'NearbyContext', 'Other', "
                     "'ReasoningToken', 'StructuralLabel', 'UncertaintyToken'], got "
                     "['Other']")],
 'KL_PAIRS': [(3, 'invalid JSON: Expecting property name enclosed in double quotes'),
              (6, 'line must be a JSON object'),
              (9, "unknown fields ['extra']"),
              (12, "missing field 'calibrated_probs'"),
              (15, 'position must be a nonnegative int'),
              (18, 'base_probs must be numbers in [0,1]'),
              (21, 'distribution pair must be two equal-length vectors'),
              (24, 'base distribution does not sum to 1'),
              (27, 'calibrated_probs must be numbers in [0,1]')],
 'PREDICTIONS': [(3, 'invalid JSON: Expecting property name enclosed in double quotes'),
                 (6, 'line must be a JSON object'),
                 (9, 'line must be a JSON object'),
                 (12, "unknown fields ['extra', 'more']"),
                 (15, "missing field 'response_text'"),
                 (18, "missing field 'qid'"),
                 (21, 'dataset must be a string'),
                 (24,
                  "match: rule must be one of ['Date', 'ExactMatch', 'TokenF1', 'YesNo'], got "
                  "'Nope'"),
                 (27, "match: missing field 'f1'"),
                 (30, "emissions[1]: unknown fields ['x']"),
                 (33, 'emissions must be sorted by char_position'),
                 (36, 'emission position outside response text'),
                 (39, 'gold_answers must be a non-empty list of strings'),
                 (42, 'verbal_confidence outside [0,1]'),
                 (45, 'verbal_confidence must be a number'),
                 (48, 'token_probs must be numbers in (0,1]'),
                 (51, 'match must be a JSON object'),
                 (54, 'emissions must be a list of JSON objects'),
                 (57, 'response_token_count must be a nonnegative int'),
                 (60, 'p_affirmative outside [0,1]'),
                 (63, 'emissions[0] must be a JSON object'),
                 (66, 'gold_answers must be a non-empty list of strings')],
 'RAG_TRACES': [(3, "invalid JSON: Expecting ',' delimiter"),
                (6, 'line must be a JSON object'),
                (9, "unknown fields ['x']"),
                (12, "missing field 'ret_answer'"),
                (15, 'noret_emissions must be a nonnegative int'),
                (18, 'noret_confidence outside [0,1]'),
                (21, 'noret_probe_score must be a finite number'),
                (24, 'noret_token_probs must be numbers in (0,1]'),
                (27, 'external_trigger must be true or false'),
                (30, 'gold_answers must be a non-empty list of strings'),
                (33, 'noret_probe_score must be a finite number')],
 'ROW_IDS': [(3, 'invalid JSON: Expecting value'),
             (6, 'line must be a JSON object'),
             (9, 'token_index must be a nonnegative int'),
             (12, 'token_index must be a nonnegative int'),
             (15, 'qid must be a string'),
             (18, "missing field 'qid'"),
             (21, "unknown fields ['row']")],
 'SPACES': [(3, "invalid JSON: Expecting ',' delimiter"),
            (6, 'line must be a JSON object'),
            (9, "unknown fields ['note']"),
            (12, "missing field 'gold_answer'"),
            (15, 'trajectories must be a list of JSON objects'),
            (18, 'trajectories must be a list of JSON objects'),
            (21, 'trajectories[1] must be a JSON object'),
            (24, "trajectories[0]: unknown fields ['weight']"),
            (27, 'trajectories[0]: confidence outside [0,1]'),
            (30, 'trajectory ids must be unique'),
            (33, 'base probabilities must sum to 1, got 0.9'),
            (36, 'a trajectory space needs at least one trajectory'),
            (39, 'gold_answer must be a string')]}


def _kind(name: str) -> jsonio.LineKind:
    """The line kind `name`: a `jsonio` kind, or KL_PAIRS, the pairs `repr
    kl` reads (`jsonio.scored_kl_pairs`) at its default floor."""
    if name == "KL_PAIRS":
        return jsonio.scored_kl_pairs(reprgeo.KL_EPSILON)
    return getattr(jsonio, name)


def _count(accepted: dict) -> int:
    """The number of lines a load accepted: the rows of its column table."""
    return len(next(iter(accepted.values())))


def _joined(kind, blocks: list) -> dict:
    """The column table of a load of the lines, each read alone into one of `blocks`."""
    columns = jsonio.read_lines([], kind)[0]  # the columns a load of no lines yields
    return {key: [value for block in blocks for value in block[key]] for key in columns}


def _load(tmp_path, kind, lines):
    path = tmp_path / f"{kind}.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return jsonio.load_lines(path, _kind(kind))


@pytest.mark.parametrize("block", [1, 3, jsonio.BLOCK_LINES])
@pytest.mark.parametrize("kind", sorted(FIXTURES))
def test_rejections_are_those_of_the_per_line_reader(tmp_path, monkeypatch, kind, block):
    monkeypatch.setattr(jsonio, "BLOCK_LINES", block)
    lines = FIXTURES[kind]
    result = _load(tmp_path, kind, lines)
    assert result.errors == EXPECTED[kind]
    assert result.total_lines == len(lines) - 1
    assert _count(result.records) == result.total_lines - len(result.errors)


@pytest.mark.parametrize("kind, valid, fault, message", [
    ("PREDICTIONS", _valid_predictions,
     {"emissions": [{"char_position": 12}, {"char_position": 0}]},
     "emissions must be sorted by char_position"),
    ("PREDICTIONS", _valid_predictions, {"emissions": [{"char_position": 40}]},
     "emission position outside response text"),
    ("SPACES", _valid_spaces,
     {"trajectories": [_trajectory("a", "A", 0.5), _trajectory("b", "B", 0.4)]},
     "base probabilities must sum to 1, got 0.9"),
    ("KL_PAIRS", _valid_kl_pairs, {"calibrated_probs": [1.0]},
     "distribution pair must be two equal-length vectors"),
])
def test_a_rule_fault_refuses_its_line_alone(monkeypatch, kind, valid, fault, message):
    # the rule across a line's fields refuses that line in its block: the
    # block is not read again line by line, and the other lines load as
    # each would alone
    lines = valid(jsonio.BLOCK_LINES)
    lines[100] = json.dumps(json.loads(lines[100]) | fault)
    read = count_calls(monkeypatch, jsonio, "read_table")
    made = []  # the calls of the kind's `rows`: one for the block
    line_kind = _kind(kind)
    counted = line_kind._replace(rows=lambda fields: made.append(fields) or line_kind.rows(fields))
    table, errors, total = jsonio.read_lines(lines, counted)
    assert errors == [(101, message)] and total == jsonio.BLOCK_LINES
    assert len(read) <= len(errors) and len(made) == 1
    alone = [jsonio.read_lines([line], line_kind) for line in lines]
    assert alone[100][1] == [(1, message)]
    assert table == _joined(line_kind, [accepted for accepted, _, _ in alone])


# lines that each line kind, the plan's included, accepts
_VALID = {"PREDICTIONS": _valid_predictions, "RAG_TRACES": _valid_rag,
          "SPACES": _valid_spaces, "KL_PAIRS": _valid_kl_pairs,
          "KL_ANNOTATIONS": _valid_kl_annotations, "ROW_IDS": _valid_row_ids,
          "_PLAN": _valid_plan_steps}


# the columns a load yields, where they are not the fields of the kind's table:
# a trace keeps its lowest token probability, and not its response text
_YIELDED = {"RAG_TRACES": [key for key in jsonio.RAG_TRACE
                           if key not in ("noret_token_probs", "noret_response_text")]
            + ["noret_min_token_prob"],
            "KL_PAIRS": ["position", "kl"]}


@pytest.mark.parametrize("name", sorted(
    [name for name, value in vars(jsonio).items() if isinstance(value, jsonio.LineKind)]
    + ["KL_PAIRS", "_PLAN"]))
def test_every_line_kind_yields_a_column_table(name):
    kind = cli._PLAN if name == "_PLAN" else _kind(name)
    for lines in ([], _VALID[name](5)):
        table, errors, total = jsonio.read_lines(lines, kind)
        assert errors == [] and total == len(lines)
        assert type(table) is dict and list(table) == _YIELDED.get(name, list(kind.table))
        assert [len(column) for column in table.values()] == [total] * len(table)


def test_a_sidecar_fails_at_its_first_rejected_row(tmp_path):
    # not JSON is an I/O fault, a refused field an alignment fault
    path = tmp_path / "x.mat.ids.jsonl"
    for fault, (_, message) in zip(ROW_ID_FAULTS, EXPECTED["ROW_IDS"]):
        path.write_text("\n".join(_valid_row_ids(3) + [fault] + ROW_ID_FAULTS) + "\n")
        kind = IoError if message.startswith("invalid JSON") else AlignmentError
        with pytest.raises(kind) as refused:
            matio.read_row_ids(path)
        assert str(refused.value).startswith(f"{path}:4: {message}")


# ---------------------------------------------------------------------------
# The block reader against the per-line reader, on random mixes of lines
# ---------------------------------------------------------------------------

# values a field may be set to: every JSON type, on both sides of each bound
_ODD_VALUES = [
    None, True, False, 0, 1, -1, 2, 0.0, 0.5, 1.0, 1.5, -0.5, 5e-324, 1e308, 10**400, math.nan,
    math.inf, "", "x", "TokenF1", [], ["a"], ["a", 1], [0.5, 1], [0, 0.5], [1.5], [True], {},
    {"correct": True, "rule": "YesNo", "f1": 0.5}, {"correct": 1, "rule": "YesNo", "f1": 0.5},
    {"correct": True, "rule": "YesNo", "f1": 0.5, "x": 0}, [{"char_position": 0}],
    [{"char_position": 0}, {"char_position": 0, "token_index": 1}], [{"char_position": -1}],
    [{"token_index": 0}], [[0]],
]
_ODD = st.sampled_from(_ODD_VALUES)
_DISTRIBUTIONS = [[1.0], [0.5, 0.5], [0.25, 0.75], [0.5, 0.4], [], [0.1] * 10,
                  [1 - 5e-7], [1 - 2e-6], [0.5, 0.5 + 5e-7]]
_GOOD = {
    "PREDICTIONS": st.fixed_dictionaries(
        {"qid": st.text(max_size=3), "gold_answers": st.lists(st.text(max_size=3), min_size=1,
                                                               max_size=2),
         "response_text": st.sampled_from(["", "x", "<uncertain> a", "Answer: a\nConfidence: 0.4"])},
        optional={"dataset": st.text(max_size=2), "verbal_confidence": st.floats(0, 1),
                  "match": st.fixed_dictionaries({"correct": st.booleans(),
                                                  "rule": st.sampled_from(MatchRule).map(
                                                      lambda rule: rule.value),
                                                  "f1": st.floats(0, 1)}),
                  "token_probs": st.lists(st.floats(0.01, 1), max_size=2),
                  "response_token_count": st.integers(0, 9), "extracted_answer": st.none()}),
    "RAG_TRACES": st.fixed_dictionaries(
        {"qid": st.text(max_size=3), "gold_answers": st.lists(st.text(max_size=3), min_size=1,
                                                               max_size=2),
         "noret_answer": st.text(max_size=2), "ret_answer": st.text(max_size=2)},
        optional={"noret_confidence": st.floats(0, 1), "noret_emissions": st.integers(0, 3),
                  "noret_probe_score": st.floats(-1e308, 1e308),
                  "noret_token_probs": st.lists(st.floats(0.01, 1), max_size=2),
                  "external_trigger": st.booleans(), "dataset": st.just("d")}),
    # ids and probabilities from small pools, so that some spaces repeat an
    # id, are empty, or do not sum to 1
    "SPACES": st.fixed_dictionaries(
        {"gold_answer": st.sampled_from(["A", "B"]),
         "trajectories": st.lists(st.fixed_dictionaries(
             {"id": st.sampled_from(["a", "b", "c"]), "answer": st.sampled_from(["A", "B"]),
              "confidence": st.floats(0, 1),
              "base_prob": st.sampled_from([0.25, 0.5, 0.75, 1.0, 0.1, 0.2, 0.7])}),
             max_size=3)}),
    # distributions of unequal lengths, or sums off 1 by more or less than 1e-6
    "KL_PAIRS": st.fixed_dictionaries(
        {"position": st.integers(0, 5),
         "base_probs": st.sampled_from(_DISTRIBUTIONS),
         "calibrated_probs": st.sampled_from(_DISTRIBUTIONS)}),
}


@st.composite
def _line_mixes(draw, kind):
    table = _kind(kind).table
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        obj = draw(_GOOD[kind])
        fault = draw(st.sampled_from(["none", "none", "set", "drop", "text"]))
        if fault == "set":
            obj[draw(st.sampled_from(sorted(table) + ["extra"]))] = draw(_ODD)
        elif fault == "drop" and obj:
            del obj[draw(st.sampled_from(sorted(obj)))]
        line = json.dumps(obj)
        if fault == "text":
            line = draw(st.sampled_from(["", " ", "[1]", "{", '{"qid": "x"} 1', "null"]))
        lines.append(line)
    return lines


def _per_line(kind, lines):
    """(accepted, (line, message) errors) of `lines`, each read alone: its
    fields by `read_table`, then the kind's rule and rows over them."""
    blocks, errors = [], []
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append((i, f"invalid JSON: {exc.msg}"))
            continue
        try:
            fields = {key: [value] for key, value in jsonio.read_table(kind.table, obj).items()}
            for _, refusal in kind.rule(fields) if kind.rule else []:
                raise ValueError(refusal)
            blocks.append(kind.rows(fields))
        except ValueError as exc:
            errors.append((i, str(exc)))
    return _joined(kind, blocks), errors


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_GOOD)).flatmap(lambda kind: st.tuples(
    st.just(kind), _line_mixes(kind))), st.sampled_from([1, 2, 3, jsonio.BLOCK_LINES]))
def test_block_reader_equals_the_per_line_reader(mix, block):
    kind_name, lines = mix
    kind = _kind(kind_name)
    saved, jsonio.BLOCK_LINES = jsonio.BLOCK_LINES, block
    try:
        records, errors, total = jsonio.read_lines(lines, kind)
    finally:
        jsonio.BLOCK_LINES = saved
    want_records, want_errors = _per_line(kind, lines)
    assert records == want_records
    assert [(i, f"invalid JSON: {e.msg}" if isinstance(e, json.JSONDecodeError) else str(e))
            for i, e in errors] == want_errors
    assert total == sum(1 for line in lines if line.strip())


_PROBS = st.lists(st.floats(0, 1), max_size=4)
# half the draws normalized, so that sums lie on both sides of 1 +- 1e-6
_PAIR = st.tuples(_PROBS, _PROBS, st.booleans()).map(
    lambda d: [[v / sum(p) for v in p] if d[2] and sum(p) > 0 else p for p in d[:2]])


@settings(max_examples=300, deadline=None)
@given(_PAIR)
def test_the_kl_pair_rule_refuses_what_the_pair_class_refused(pair):
    base, calibrated = pair
    line = json.dumps({"position": 0, "base_probs": base, "calibrated_probs": calibrated})
    _, errors, _ = jsonio.read_lines([line], _kind("KL_PAIRS"))
    try:
        TokenDistPair(0, base, calibrated)
        want = []
    except (ValueError, ShapeError) as exc:
        want = [(1, str(exc))]
    assert errors == want


@settings(max_examples=300, deadline=None)
@given(st.lists(_PAIR, max_size=40), st.sampled_from([1, 3, 7, jsonio.BLOCK_LINES]))
def test_the_kl_pair_rule_refuses_each_pair_of_a_mixed_block_as_it_would_alone(pairs, block):
    # a block's pairs of each pair of lengths are summed together: the
    # refusals, and their order, are those of each pair read by itself
    lines = [json.dumps({"position": i, "base_probs": base, "calibrated_probs": calibrated})
             for i, (base, calibrated) in enumerate(pairs)]
    saved, jsonio.BLOCK_LINES = jsonio.BLOCK_LINES, block
    try:
        table, errors, _ = jsonio.read_lines(lines, _kind("KL_PAIRS"))
    finally:
        jsonio.BLOCK_LINES = saved
    want = []
    for i, (base, calibrated) in enumerate(pairs, start=1):
        try:
            TokenDistPair(0, base, calibrated)
        except (ValueError, ShapeError) as exc:
            want.append((i, str(exc)))
    assert errors == want
    assert table["position"] == [i - 1 for i in range(1, len(pairs) + 1)
                                 if i not in dict(want)]


# every table by its name in `jsonio`, nested ones included
_TABLES = ["PREDICTION", "EMISSION", "MATCH", "RAG_TRACE", "SPACE", "TRAJECTORY", "KL_PAIR",
           "KL_ANNOTATION", "ROW_ID", "PLAN_STEP", "PROBE_MODEL", "FIT", "PROBE_MODEL_CONFIG"]


def _readers():
    """(name, reader) of each distinct reader of the fields of `_TABLES`."""
    seen, out = set(), []
    for name in _TABLES:
        for key, (read, _) in getattr(jsonio, name).items():
            if id(read) not in seen:
                seen.add(id(read))
                out.append((key, read))
    return out


_READERS = _readers()
_JSON = st.recursive(
    _ODD | st.floats() | st.integers() | st.text(max_size=3)
    | st.sampled_from(["Other", "ExactMatch", "uncal-probe-model-v2"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["correct", "rule", "f1", "char_position", "token_index", "id", "answer",
                         "confidence", "base_prob", "converged", "grad_norm", "iterations",
                         "window", "x"]), inner, max_size=4),
    max_leaves=6,
)


def test_every_field_of_every_table_is_read_by_a_reader():
    tables = [getattr(jsonio, name) for name in _TABLES]
    for name, table in zip(_TABLES, tables):
        for key, (read, _) in table.items():
            assert isinstance(read, jsonio.Reader), (name, key)
            # a nested table is one of `_TABLES`, so every table is named there
            assert read.table is None or any(read.table is t for t in tables), (name, key)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(range(len(_READERS))), st.lists(_JSON, max_size=4))
def test_a_column_check_accepts_what_the_reader_accepts_value_by_value(index, values):
    name, read = _READERS[index]
    assert read.check(values) == all(read.check([v]) for v in values), name


# field values for the oracle: `_ODD`, and an accepted value of each field it has none for
_FIELD_VALUES = _ODD_VALUES + [
    "uncal-probe-model-v2", "Other", [{"id": "a", "answer": "A", "confidence": 0.5,
                                       "base_prob": 1.0}],
    {"converged": True, "grad_norm": 0.5, "iterations": 3}, {"window": 2, "l2": 0.5},
]


@st.composite
def _objects(draw, table):
    """An object of the table's keys, each absent, or a value its field
    accepts, or, at a rate drawn per object, any of `_FIELD_VALUES`; and
    maybe an unknown key."""
    obj = {}
    choices = ["absent"] + ["good"] * 4 + ["any"] * draw(st.sampled_from([0, 1, 4]))
    for key, (read, _) in table.items():
        good = [v for v in _FIELD_VALUES if read.check([v])]
        choice = draw(st.sampled_from(choices if good else ["absent", "any"]))
        if choice != "absent":
            obj[key] = draw(st.sampled_from(good if choice == "good" else _FIELD_VALUES))
    if draw(st.integers(0, 3)) == 0:
        obj["extra"] = draw(st.sampled_from(_FIELD_VALUES))
    return obj


def _outcome(read, *args):
    try:
        return "fields", read(*args)
    except ValueError as exc:
        return "refused", str(exc)


@pytest.mark.parametrize("name", _TABLES)
def test_read_table_equals_the_per_value_readers_on_every_value_of_every_field(name):
    table = getattr(jsonio, name)
    # an object the table accepts: each field's first accepted value
    base = {}
    for key, (read, _) in table.items():
        base.update([(key, v) for v in _FIELD_VALUES if read.check([v])][:1])
    assert _outcome(jsonio.read_table, table, base)[0] == "fields"
    for key in [*table, "extra"]:
        for obj in [{k: v for k, v in base.items() if k != key},
                    *(base | {key: value} for value in _FIELD_VALUES)]:
            assert (_outcome(jsonio.read_table, table, obj)
                    == _outcome(oracle_read_table, name, obj)), obj


@settings(max_examples=1500, deadline=None)
@given(st.sampled_from(_TABLES).flatmap(lambda name: st.tuples(
    st.just(name), _objects(getattr(jsonio, name)) | _ODD)))
def test_read_table_equals_the_per_value_readers(case):
    name, obj = case
    assert (_outcome(jsonio.read_table, getattr(jsonio, name), obj)
            == _outcome(oracle_read_table, name, obj))


# ---------------------------------------------------------------------------
# Memory: a load holds one block of decoded lines, never the whole text
# ---------------------------------------------------------------------------


def test_loading_predictions_peaks_at_most_as_the_per_line_reader_did(tmp_path):
    # 5000 pre-matched records, about 480 bytes a line: the per-line reader,
    # which held the whole text and all its lines, peaked at 3.82 to 3.86
    # times the file's size on this file; the block reader at about 1.9
    path = tmp_path / "preds.jsonl"
    rng = np.random.default_rng(3)
    words = [f"w{i}" for i in range(300)]
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(5000):
            text = " ".join(rng.choice(words, 40)) + f"\nAnswer: {words[i % 300]}"
            fh.write(json.dumps({
                "qid": f"q{i:05d}", "dataset": "d", "question": " ".join(rng.choice(words, 6)),
                "gold_answers": [words[i % 300]], "response_text": text,
                "response_token_count": 42, "verbal_confidence": float(rng.random()),
                "p_affirmative": round(float(rng.random()), 4),
                "match": {"correct": True, "rule": "ExactMatch", "f1": 1.0},
            }, sort_keys=True) + "\n")
    size = path.stat().st_size
    jsonio.load_lines(path, jsonio.PREDICTIONS)  # warm: lazy imports and caches are not the load's
    tracemalloc.start()
    try:
        result = jsonio.load_lines(path, jsonio.PREDICTIONS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.records["qid"]) == 5000
    assert peak <= 3.8 * size, peak / size


def test_probe_features_convert_only_the_window(tmp_path):
    # 50 qids of 40 tokens in one 2000 x 256 float32 layer; one example each
    n, tokens, dims = 50, 40, 256
    hidden = np.random.default_rng(0).normal(size=(n * tokens, dims)).astype(np.float32)
    firsts = [(7 * i) % tokens for i in range(n)]
    table = predictions([prediction(f"q{i}", ("a",), "x" * 3000,
                                    emissions=[emission(1500, first)],
                                    response_token_count=tokens)
                         for i, first in enumerate(firsts)])
    inputs = probe.emitted(table, score_predictions(table))
    stack = hidden, {f"q{i}": slice(i * tokens, (i + 1) * tokens) for i in range(n)}
    want = np.stack([np.concatenate([hidden[i * tokens + max(0, first - 4):
                                            i * tokens + min(tokens, first + 5)]
                                     .astype(float).mean(axis=0), [tokens, 1.0, 0.5]])
                     for i, first in enumerate(firsts)])
    probe.examples(inputs, stack, 4, 1)  # warm
    tracemalloc.start()
    try:
        got, _, _ = probe.examples(inputs, stack, 4, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    # in units of an (examples x dims) float64 matrix: the accumulator with
    # one offset's float32 rows, then the features made of it (2.3 units
    # measured); converting the whole layer would take 40 units
    unit = n * dims * 8
    assert peak <= 2.6 * unit, peak / unit


# ---------------------------------------------------------------------------
# Scores that depend on their row alone
# ---------------------------------------------------------------------------

_WEIGHT = st.floats(-5, 5, allow_subnormal=False)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_probe_scores_of_a_batch_are_those_of_its_rows_alone(rows, dims, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, dims)) * rng.uniform(0.1, 100)
    model = probe.ProbeModel(0, rng.normal(size=dims), float(rng.normal()), 0.5,
                             rng.normal(size=dims), rng.uniform(0.5, 2, size=dims))
    batch = model.scores(x)
    alone = np.concatenate([model.scores(x[i:i + 1]) for i in range(rows)])
    assert batch.tobytes() == alone.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 1) | st.none(), st.integers(0, 60),
                          st.sampled_from(["a", "bb", "the answer"])), min_size=1, max_size=12),
       st.tuples(_WEIGHT, _WEIGHT, _WEIGHT, _WEIGHT), _WEIGHT)
def test_ats_values_of_a_batch_are_those_of_its_records_alone(rows, weights, bias):
    table = predictions([prediction(f"q{i}", ("a",), "step\n" * (n % 4) + f"Answer: {answer}",
                                    verbal_confidence=c, response_token_count=n)
                         for i, (c, n, answer) in enumerate(rows)])
    model = recal.AtsModel(weights, bias, 1e-3, (0.1, 20.0, 3.0, 1.0), (1.5, 9.0, 2.0, 0.7))
    confidence = np.array([np.nan if c is None else c for c, _, _ in rows])
    batch = recal.apply_ats(model, table, confidence)
    alone = np.concatenate([
        recal.apply_ats(model, {key: column[i:i + 1] for key, column in table.items()},
                        confidence[i:i + 1])
        for i in range(len(rows))])
    assert batch.tobytes() == alone.tobytes()
