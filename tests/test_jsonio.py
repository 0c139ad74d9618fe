"""The line encoder, the line decoder and the list readers of
`uncal.jsonio`, each against the definition it replaced, and a guard that a
load accepts every prediction and trace line their tables accept."""

import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uncal import jsonio, matio, optim, probe
from uncal.reprgeo import TokenType
from uncal.rewards import MatchRule

from conftest import count_calls, prediction, predictions, random_space, rows
from oracles import RagTraceRecord, oracle_csv_text, oracle_to_dict, oracle_trace_table

_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
_PROB = st.floats(0.0, 1.0)
# a float as a record may hold it: a Python float, or numpy's float64 subclass
_PROB_ANY = _PROB | _PROB.map(np.float64)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_FINITE_ANY = _FINITE | _FINITE.map(np.float64)
# an array element, which a float32 array holds exactly too
_FINITE32 = st.floats(allow_nan=False, allow_infinity=False, width=32)


def _check(table, fields):
    """The encoder writes what the field-dict writer wrote, and its line
    reads back through the table."""
    line = jsonio.encode(table, fields)
    assert line == jsonio.dumps_canonical(oracle_to_dict(table, fields))
    jsonio.read_table(table, json.loads(line))


@st.composite
def _predictions(draw) -> dict:
    """A row of a prediction table, its fields as a load reads them."""
    text = draw(_TEXT)
    positions = sorted(draw(st.sets(st.integers(0, max(len(text) - 1, 0)), max_size=3)))
    return {
        "qid": draw(_TEXT), "gold_answers": draw(st.lists(_TEXT, min_size=1, max_size=3)),
        "response_text": text, "dataset": draw(_TEXT), "question": draw(_TEXT),
        "extracted_answer": draw(st.none() | _TEXT),
        "verbal_confidence": draw(st.none() | _PROB_ANY),
        "emissions": [{"char_position": p, "token_index": draw(st.none() | st.integers(0, 99))}
                      for p in positions],
        "response_token_count": draw(st.integers(0, 10**6)),
        "token_probs": draw(st.none() | st.lists(_PROB.filter(bool), max_size=4)),
        "p_affirmative": draw(st.none() | _PROB_ANY),
        "match": draw(st.none() | st.fixed_dictionaries({
            "correct": st.booleans(), "rule": st.sampled_from(MatchRule), "f1": _PROB_ANY})),
    }


@settings(max_examples=200, deadline=None)
@given(_predictions(), st.none() | _PROB_ANY)
def test_prediction_encoder(row, confidence):
    _check(jsonio.PREDICTION, row)
    _check(jsonio.PREDICTION, {**row, "verbal_confidence": confidence})


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_predictions(), st.none() | _PROB_ANY), max_size=7),
       st.sampled_from([1, 2, 3, jsonio.BLOCK_LINES]))
def test_column_encoder_equals_the_row_oracle(pairs, block):
    # each block's field columns are formatted together; every line must be
    # the one the row alone was written as
    table = {key: [row[key] for row, _ in pairs] for key in jsonio.PREDICTION}
    confidence = [c for _, c in pairs]
    saved, jsonio.BLOCK_LINES = jsonio.BLOCK_LINES, block
    try:
        lines = list(jsonio.encode_lines(jsonio.PREDICTION, table))
        replaced = list(jsonio.encode_lines(jsonio.PREDICTION,
                                            {**table, "verbal_confidence": confidence}))
    finally:
        jsonio.BLOCK_LINES = saved
    assert lines == [jsonio.dumps_canonical(oracle_to_dict(jsonio.PREDICTION, row))
                     for row, _ in pairs]
    assert replaced == [
        jsonio.dumps_canonical(oracle_to_dict(jsonio.PREDICTION, {**row, "verbal_confidence": c}))
        for row, c in pairs]


@settings(max_examples=100, deadline=None)
@given(st.fixed_dictionaries({
    "qid": _TEXT, "gold_answers": st.lists(_TEXT, min_size=1, max_size=3), "noret_answer": _TEXT,
    "ret_answer": _TEXT, "dataset": _TEXT, "noret_confidence": st.none() | _PROB_ANY,
    "noret_emissions": st.integers(0, 99), "noret_probe_score": st.none() | _FINITE_ANY,
    "noret_token_probs": st.none() | st.lists(_PROB.filter(bool), max_size=4),
    "noret_response_text": st.none() | _TEXT, "external_trigger": st.none() | st.booleans(),
}))
def test_rag_trace_encoder(row):
    _check(jsonio.RAG_TRACE, row)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_space_encoder(seed):
    # a trajectory's `correct` is no field of the table, and is not written
    space = random_space(np.random.default_rng(seed))
    gold = space["gold_answer"]
    _check(jsonio.SPACE, {**space, "trajectories": [{**t, "correct": t["answer"] == gold}
                                                    for t in space["trajectories"]]})


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 6), st.integers(0, 2**32 - 1),
       st.sampled_from(TokenType))
def test_kl_encoders(position, size, seed, kind):
    rng = np.random.default_rng(seed)
    _check(jsonio.KL_PAIR, {"position": position, "base_probs": rng.dirichlet(np.ones(size)),
                            "calibrated_probs": rng.dirichlet(np.ones(size))})
    _check(jsonio.KL_ANNOTATION, {"position": position, "type": kind})


@settings(max_examples=100, deadline=None)
@given(_TEXT, st.none() | st.integers(0, 10**6))
def test_row_id_encoder(qid, token):
    _check(jsonio.ROW_ID, {"qid": qid, "token_index": token})


_FITS = st.builds(optim.Fit, st.lists(_FINITE).map(tuple), st.integers(0, 200),
                  _FINITE_ANY, st.booleans())


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 5).flatmap(lambda n: st.tuples(*[
        st.lists(strategy, min_size=n, max_size=n).map(np.array)
        for strategy in (_FINITE32, _FINITE32, st.floats(2.0**-20, 2.0**20, width=32))
    ])),
    st.integers(-1, 40), _FINITE_ANY, _PROB_ANY, st.none() | _FITS,
    st.none() | st.fixed_dictionaries({
        "hidden": st.none() | _TEXT, "preds": st.none() | _TEXT, "layer": st.none() | st.integers(),
        "window": st.integers(0, 9), "span_tokens": st.integers(1, 9), "l2": _FINITE,
        "seed": st.none() | st.integers()}),
    st.booleans(),
)
def test_probe_model_and_fit_encoders(arrays, layer, bias, threshold, fit, config, float32):
    # a model and its fit are written from mappings of their fields; a Fit's
    # loss trace is no field of the table, and is not written
    weights, means, stds = (a.astype(np.float32) if float32 else a for a in arrays)
    model = vars(probe.ProbeModel(layer, weights, bias, threshold, means, stds))
    fit_fields = None if fit is None else vars(fit)
    _check(jsonio.PROBE_MODEL, {**model, "fit": fit_fields, "schema": "uncal-probe-model-v2",
                                "config": config})
    _check(jsonio.PROBE_MODEL, {**model, "fit": fit_fields, "schema": None, "config": None})
    if fit is not None:
        _check(jsonio.FIT, fit_fields)
        # an encoded line inside a larger value is written as it is
        report = {"fit": jsonio.encode(jsonio.FIT, fit_fields), "n": [1, 2.5]}
        assert jsonio.dumps_canonical(report) == jsonio.dumps_canonical(
            {"fit": oracle_to_dict(jsonio.FIT, fit_fields), "n": [1, 2.5]})


_MODEL = {**vars(probe.ProbeModel(0, np.zeros(2), 0.0, 0.5, np.zeros(2), np.ones(2))),
          "schema": None, "config": None}
_RECORD = rows(predictions([prediction("q", ("a",), "t")]))[0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_encoder_refuses_nan_and_infinity(bad):
    cases = [
        (jsonio.PROBE_MODEL, {**_MODEL, "bias": bad}),
        (jsonio.PROBE_MODEL, {**_MODEL, "threshold": np.float64(bad)}),
        (jsonio.PROBE_MODEL, {**_MODEL, "weights": np.array([0.0, bad])}),
        (jsonio.PROBE_MODEL, {**_MODEL, "fit": vars(optim.Fit((), 1, bad, True))}),
        (jsonio.FIT, vars(optim.Fit((), 1, bad, True))),
        (jsonio.PREDICTION, {**_RECORD, "verbal_confidence": bad}),
        (jsonio.PREDICTION, {**_RECORD, "token_probs": (0.5, bad)}),
        (jsonio.PREDICTION, {**_RECORD, "match": {"correct": False, "rule": MatchRule.TOKEN_F1,
                                                  "f1": bad}}),
    ]
    for table, fields in cases:
        with pytest.raises(ValueError, match="NaN or infinity"):
            jsonio.encode(table, fields)


def test_encoder_refuses_a_missing_field_and_leaves_out_other_keys():
    with pytest.raises(KeyError, match="token_index"):
        jsonio.encode(jsonio.ROW_ID, {"qid": "q"})
    with pytest.raises(KeyError, match="char_position"):
        jsonio.encode(jsonio.PREDICTION, {**_RECORD, "emissions": [{"token_index": 1}]})
    with pytest.raises(KeyError, match="match"):
        next(jsonio.encode_lines(jsonio.PREDICTION, {k: [v] for k, v in _RECORD.items()
                                                     if k != "match"}))
    assert (jsonio.encode(jsonio.ROW_ID, {"qid": "q", "token_index": 0, "tokens": 1})
            == '{"qid":"q","token_index":0}')


@pytest.mark.parametrize("config, refusal", [
    ({"window": 0, "span_tokens": 1}, None),
    ({"window": 5, "span_tokens": 16}, None),
    ({}, None),  # the defaults
    ({"window": -1}, "window must be an integer >= 0"),
    ({"window": 1.0}, "window must be an integer >= 0"),
    ({"window": True}, "window must be an integer >= 0"),
    ({"window": None}, "window must be an integer >= 0"),
    ({"span_tokens": 0}, "span_tokens must be an integer >= 1"),
    ({"span_tokens": -4}, "span_tokens must be an integer >= 1"),
    ({"span_tokens": "2"}, "span_tokens must be an integer >= 1"),
    # the first refused field in table order words the refusal
    ({"window": -1, "span_tokens": 0}, "window must be an integer >= 0"),
])
def test_probe_model_config_reads_the_window_and_span_ranges(config, refusal):
    # the one place a probe model's window and span ranges are checked
    if refusal is None:
        fields = jsonio.read_table(jsonio.PROBE_MODEL_CONFIG, config)
        assert fields["window"] == config.get("window", jsonio.DEFAULT_WINDOW)
        assert fields["span_tokens"] == config.get("span_tokens", jsonio.DEFAULT_SPAN_TOKENS)
    else:
        with pytest.raises(ValueError, match=f"^{refusal}$"):
            jsonio.read_table(jsonio.PROBE_MODEL_CONFIG, config)


# list elements on either side of every bound: bools, NaN, signed zeros,
# ints too large for a float, and values that are no numbers
_ELEMENTS = st.sampled_from([
    True, False, math.nan, -math.nan, 0.0, -0.0, 0, 1, 1.0, -1, 0.5, 5e-324,
    1.0000000000000002, math.inf, -math.inf, 10**400, -(10**400), "0.5", None, [0.5], {},
]) | st.floats() | st.integers(-3, 3)


def _probabilities(v) -> bool:
    return type(v) is list and all(type(p) in (int, float) and 0.0 <= p <= 1.0 for p in v)


def _token_probs(v) -> bool:
    return type(v) is list and all(type(p) in (int, float) and 0.0 < p <= 1.0 for p in v)


def _accepts(read, value) -> bool:
    return read.check([value])


@settings(max_examples=500, deadline=None)
@given(st.lists(_ELEMENTS, max_size=5) | st.sampled_from([(0.5,), {"a": 1}, "0.5", 0.5, None]))
@example([])
@example([math.nan])
@example([math.nan, 0.5, 1])
@example([math.nan, 10**400])
@example([0.5, math.nan, 10**400])
@example([0.5, 1, math.nan])
@example([1, 0])
def test_list_readers_equal_their_element_wise_definitions(value):
    assert _accepts(jsonio.read_probabilities, value) == _probabilities(value)
    assert _accepts(jsonio.read_token_probs, value) == _token_probs(value)


def _outcome(decode, line):
    try:
        return "value", repr(decode(line))
    except json.JSONDecodeError as exc:
        return "error", exc.msg, exc.pos, exc.lineno, exc.colno
    except ValueError as exc:
        return "value error", str(exc)


_BODIES = [
    '{"a":1}', '{"a": [1, 2.5, null, true]}', "[]", '"x"', "1e999", "NaN", "-Infinity",
    '"bad \\q escape"', '"\\u12"', '"\\ud800"', '{"a" 1}', '{"a":', "nul", "", "{}{}",
    '{"a":1} x', "1" * 5000,
]
_PADS = ["", " ", "\t", "\r", "﻿", "x", "]", " 1"]


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(_PADS), st.sampled_from(_BODIES) | st.text(max_size=12),
       st.sampled_from(_PADS))
@example("﻿", '{"a":1}', "")
@example("", '{"a":1}', " ")
@example("", '"\\x"', "")
@example("", "{\n", "")
def test_decode_equals_json_loads(before, body, after):
    # `_decode` reads a line without its final "\n", as the next test checks:
    # a drawn line may end in one, and an error at its end is then on line 1
    line = before + body + after
    assert _outcome(jsonio._decode, line) == _outcome(json.loads, line.removesuffix("\n"))


@pytest.mark.parametrize("char", ["\x85", "\u2028", "\u2029"])
def test_line_breaking_characters_stay_inside_their_line(tmp_path, char):
    # `str.splitlines` breaks at these, though JSON writes them unescaped
    row = rows(predictions([prediction(f"q{char}", (char,), f"a{char}b\nAnswer: {char}")]))[0]
    path = tmp_path / "preds.jsonl"
    line = jsonio.encode(jsonio.PREDICTION, row)
    assert char in line
    path.write_text(line + "\n" + line + "\r\n", encoding="utf-8")
    result = jsonio.load_lines(path, jsonio.PREDICTIONS)
    assert not result.errors and result.total_lines == 2
    assert result.records["qid"] == [row["qid"]] * 2


@pytest.mark.parametrize("end", ["", "\n", "\r\n", "\r", "\r\r\n", " \r\n", "\n\r\n"])
@pytest.mark.parametrize("body", _BODIES)
def test_decode_equals_json_loads_of_the_line_without_its_newline(body, end):
    line = body + end
    assert _outcome(jsonio._decode, line) == _outcome(json.loads, line.removesuffix("\n"))


@pytest.mark.parametrize("body", ['{"a": 1}', '[1, 2.5]', '"x"', "1"])
def test_a_crlf_line_is_decoded_in_one_scan(monkeypatch, body):
    want = json.loads(body)
    loads = count_calls(monkeypatch, json, "loads")
    assert jsonio._decode(body + "\r\n") == want
    assert loads == []


def test_a_carriage_return_inside_a_line_does_not_end_it(tmp_path):
    # universal newlines split this line at its "\r" into two invalid ones
    path = tmp_path / "cr.jsonl"
    path.write_bytes(b'{"qid": "a",\r"gold_answers": ["x"], "response_text": "Answer: x"}')
    result = jsonio.load_lines(path, jsonio.PREDICTIONS)
    assert (result.errors, result.total_lines) == ([], 1)
    assert (result.records["qid"], result.records["gold_answers"]) == (["a"], [["x"]])


def test_a_crlf_sidecar_reads_as_its_lf_copy(tmp_path):
    rows = [{"qid": "a", "token_index": 0}, {"qid": "a", "token_index": None},
            {"qid": "b\r", "token_index": 0}]
    lf, crlf = tmp_path / "lf.ids.jsonl", tmp_path / "crlf.ids.jsonl"
    jsonio.write_jsonl(lf, rows)
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    assert b"\r\n" in crlf.read_bytes()
    assert matio.read_row_ids(crlf).records == matio.read_row_ids(lf).records == {
        "qid": ["a", "a", "b\r"], "token_index": [0, None, 0]}


# field values at the edges of what the tables accept
_UNIT = st.sampled_from([0, 1, 0.0, 1.0]) | _PROB
_TOKEN_PROB_LIST = st.lists(st.sampled_from([1, 1.0, 5e-324]) | st.floats(5e-324, 1.0),
                            max_size=4)
_BIG = sys.float_info.max
_SCORE = st.sampled_from([1e308, -1e308, _BIG, -_BIG, 0]) | _FINITE
_COUNT = st.just(0) | st.integers(0, 2**40)
_MARKED_TEXT = st.lists(_TEXT | st.just("<uncertain>"), max_size=4).map("".join)
_GOLD_LIST = st.lists(_TEXT, min_size=1, max_size=3)


def _lines(table, values):
    """JSON objects holding every required field of `table` and any of the
    others; a field whose default is None may also be null."""
    required = {k: values[k] for k, (_, default) in table.items() if default is jsonio.REQUIRED}
    optional = {k: values[k] | st.none() if table[k][1] is None else values[k]
                for k in values.keys() - required.keys()}
    return st.fixed_dictionaries(required, optional=optional)


_RAG_LINES = _lines(jsonio.RAG_TRACE, {
    "qid": _TEXT, "dataset": _TEXT, "gold_answers": _GOLD_LIST, "noret_answer": _TEXT,
    "ret_answer": _TEXT, "noret_confidence": _UNIT, "noret_emissions": _COUNT,
    "noret_probe_score": _SCORE, "noret_token_probs": _TOKEN_PROB_LIST,
    "noret_response_text": _TEXT, "external_trigger": st.booleans(),
})
_MATCH_BLOCK = st.fixed_dictionaries({
    "correct": st.booleans(), "rule": st.sampled_from([r.value for r in MatchRule]),
    "f1": _UNIT,
})
# no `emissions`: the loader scans them from the text
_PREDICTION_LINES = _lines(jsonio.PREDICTION, {
    "qid": _TEXT, "dataset": _TEXT, "question": _TEXT, "gold_answers": _GOLD_LIST,
    "response_text": _MARKED_TEXT, "extracted_answer": _TEXT, "verbal_confidence": _UNIT,
    "response_token_count": _COUNT, "token_probs": _TOKEN_PROB_LIST, "p_affirmative": _UNIT,
    "match": _MATCH_BLOCK,
})
_RAG_EDGE = {"qid": "r", "gold_answers": ["a"], "noret_answer": "a", "ret_answer": "b"}
_PREDICTION_EDGE = {"qid": "q", "gold_answers": ["a"], "response_text": "<uncertain>"}


@settings(max_examples=300, deadline=None)
@given(_RAG_LINES)
@example(_RAG_EDGE | {"noret_confidence": 0, "noret_emissions": 0, "noret_probe_score": -1e308,
                      "noret_token_probs": [1.0, 5e-324]})
@example(_RAG_EDGE | {"noret_confidence": 1.0, "noret_probe_score": 1e308,
                      "noret_token_probs": []})
def test_every_rag_line_the_table_accepts_loads_as_it_reads(obj):
    # the table is the one check of a field's value; a trace load adds none,
    # and keeps the lowest token probability and not the response text
    fields = jsonio.read_table(jsonio.RAG_TRACE, obj)
    table, errors, _ = jsonio.read_lines([json.dumps(obj)], jsonio.RAG_TRACES)
    assert errors == [] and table == oracle_trace_table([RagTraceRecord(**fields)])


def _held_per_trace(path) -> float:
    """The bytes per trace that the table of a load of the trace file `path`
    holds, as `tracemalloc` sees them."""
    jsonio.load_lines(path, jsonio.RAG_TRACES)  # warm: lazy imports and caches are not the table's
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = jsonio.load_lines(path, jsonio.RAG_TRACES).records
        return (tracemalloc.get_traced_memory()[0] - before) / len(table["qid"])
    finally:
        tracemalloc.stop()


def test_a_trace_load_holds_the_same_bytes_whatever_the_token_count(tmp_path):
    # a trace keeps its lowest token probability, not the list, nor its text
    held = {}
    for count in (32, 320):
        rng = np.random.default_rng(3)
        path = tmp_path / f"{count}.jsonl"
        path.write_text("".join(json.dumps({
            "qid": f"r{i}", "dataset": "d", "gold_answers": ["alpha beta"],
            "noret_answer": "alpha", "ret_answer": "beta",
            "noret_confidence": float(rng.random()), "noret_emissions": i % 3,
            "noret_probe_score": float(rng.random()),
            "noret_token_probs": rng.uniform(0.01, 1.0, size=count).tolist(),
            "noret_response_text": "Some words of reasoning.\nAnswer: alpha",
            "external_trigger": i % 2 == 0}) + "\n" for i in range(1000)))
        held[count] = _held_per_trace(path)
    assert max(held.values()) <= 1.1 * min(held.values())
    assert max(held.values()) <= 600  # ten fields, as numbers and short strings


@settings(max_examples=300, deadline=None)
@given(_PREDICTION_LINES)
@example(_PREDICTION_EDGE | {"verbal_confidence": 0, "p_affirmative": 1.0,
                             "token_probs": [1, 5e-324]})
@example(_PREDICTION_EDGE | {"verbal_confidence": 1.0, "p_affirmative": 0.0, "token_probs": [],
                             "match": {"correct": True, "rule": "TokenF1", "f1": 0}})
def test_every_prediction_line_the_table_accepts_loads(obj):
    jsonio.read_table(jsonio.PREDICTION, obj)
    table, errors, _ = jsonio.read_lines([json.dumps(obj)], jsonio.PREDICTIONS)
    assert errors == []
    # a load keeps the fields a line gives: none is derived from the text
    for key in ("emissions", "response_token_count"):
        assert (table[key][0] is None) == (obj.get(key) is None)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.none() | st.booleans() | st.integers() | _FINITE
                         | st.text(st.sampled_from('ab,"\r\n '), max_size=5),
                         min_size=2, max_size=2), max_size=4))
def test_csv_cells_read_back_through_the_csv_module(tmp_path_factory, rows):
    import csv

    def text(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        return jsonio.format_float(value) if isinstance(value, float) else str(value)

    path = tmp_path_factory.mktemp("csv") / "t.csv"
    jsonio.write_csv(path, ["a,b", "c"], rows)
    with open(path, newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == [["a,b", "c"]] + [list(map(text, row)) for row in rows]


_CSV_TEXT = st.text(st.sampled_from('ab,"\r\n -0'), max_size=5)
_CSV_ANY = st.none() | st.booleans() | st.integers() | _FINITE_ANY | st.just(-0.0) | _CSV_TEXT


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_FINITE | st.just(-0.0), st.integers(), _FINITE.map(np.float64),
                          _CSV_TEXT, _CSV_ANY), min_size=1, max_size=12),
       st.integers(0, 2 * jsonio.BLOCK_LINES + 1))
def test_csv_bytes_equal_the_per_cell_rule(tmp_path_factory, drawn, count):
    # whole float columns are formatted at once, other columns cell by cell;
    # the drawn rows repeat over a few blocks of rows
    rows = [list(drawn[i % len(drawn)]) for i in range(count)]
    header = ["x", "n", "np", 'a,"b"', "any"]
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    jsonio.write_csv(path, header, rows)
    assert path.read_bytes() == oracle_csv_text(header, rows).encode("utf-8")


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(_FINITE | st.just(-0.0), _FINITE), min_size=1, max_size=6),
       st.integers(0, 2 * jsonio.BLOCK_LINES + 1))
def test_a_csv_of_an_array_equals_that_of_its_rows(tmp_path_factory, drawn, count):
    # an array's rows are converted a block at a time, to the same bytes
    array = np.array([drawn[i % len(drawn)] for i in range(count)]).reshape(count, 2)
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    jsonio.write_csv(path, ["pc1", "pc2"], array)
    assert path.read_bytes() == oracle_csv_text(["pc1", "pc2"], array.tolist()).encode("utf-8")


@pytest.mark.parametrize("bad", [math.nan, math.inf, np.float64("nan")])
def test_a_csv_value_no_report_may_hold_leaves_no_file(tmp_path, bad):
    rows = [[0.5, "x"]] * (2 * jsonio.BLOCK_LINES) + [[bad, "y"]]
    with pytest.raises(ValueError, match="NaN or infinity"):
        jsonio.write_csv(tmp_path / "t.csv", ["a", "b"], rows)
    assert list(tmp_path.iterdir()) == []


def test_a_csv_cell_is_quoted_only_where_it_must_be(tmp_path):
    path = tmp_path / "t.csv"
    jsonio.write_csv(path, ["name", "x"], [["plain", 0.5], ['a,"b"', None], ["c\rd", True]])
    assert path.read_bytes() == b'name,x\nplain,0.5\n"a,""b""",\n"c\rd",true\n'
