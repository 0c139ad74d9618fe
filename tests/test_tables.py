"""The column functions over prediction and trace tables against the
per-record rules they replaced (`oracles.py`), bit for bit: the scores of
`rewards.score_predictions` (cached `match` blocks and the threshold rule
included) and `ragctl.score_traces`, the ATS design rows of
`recal.ats_features`, and the examples of `probe.examples`. Each is checked
on the bundled fixtures and on Hypothesis-drawn tables."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import uncal
from uncal import cli, jsonio, probe, ragctl, recal, rewards
from uncal.rewards import MatchRule, score_predictions

from conftest import prediction, predictions, rows, trace, traces
from oracles import (
    oracle_ats_row,
    oracle_examples,
    oracle_score_predictions,
    oracle_score_traces,
    oracle_trace_table,
    prediction_records,
    trace_records,
)

PREDS = jsonio.load_lines(uncal.fixture_path("preds20.jsonl"), jsonio.PREDICTIONS).records
TRACES = jsonio.load_lines(uncal.fixture_path("ragtraces20.jsonl"), jsonio.RAG_TRACES).records
TRACE_LINES = list(map(json.loads, uncal.fixture_path("ragtraces20.jsonl").read_text(
    encoding="utf-8").splitlines()))
THRESHOLDS = st.sampled_from([0.0, 0.3, 0.5, 1.0]) | st.floats(0.0, 1.0)


def assert_same(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_scores_equal(table: dict, f1_threshold: float) -> None:
    batch = score_predictions(table, f1_threshold)
    want = oracle_score_predictions(prediction_records(table), f1_threshold)
    for got, column in zip((batch.confidence, batch.correct, batch.marked), want):
        assert_same(got, column)


def assert_traces_equal(table: dict, lines: list[dict], f1_threshold: float) -> None:
    """`table`, the load of the trace line objects `lines`, scores as their
    records do."""
    scored = ragctl.score_traces(table, f1_threshold)
    records = trace_records(lines)
    assert table == oracle_trace_table(records)
    noret, ret, signals = oracle_score_traces(records, f1_threshold)
    assert scored.qid.tolist() == [r.qid for r in records]
    assert scored.datasets.tolist() == [r.dataset for r in records] and scored.code is None
    # grouped: the sorted distinct names, and each trace's index among them
    grouped = ragctl.grouped(scored)
    assert grouped.datasets.tolist() == sorted({r.dataset for r in records})
    assert grouped.code.dtype == np.intp
    assert grouped.datasets[grouped.code].tolist() == [r.dataset for r in records]
    for columns, matches in ((scored.noret, noret), (scored.ret, ret)):
        assert columns.correct.tolist() == [m.correct for m in matches]
        assert columns.exact.tolist() == [m.rule is MatchRule.EXACT_MATCH for m in matches]
        assert_same(columns.f1, np.array([m.f1 for m in matches], dtype=float))
    assert scored.signals.keys() == signals.keys()
    for kind, column in signals.items():
        assert_same(scored.signals[kind], column)


def assert_ats_design_equal(table: dict) -> None:
    confidence = score_predictions(table).confidence
    usable = ~np.isnan(confidence)
    logits = recal._logits(confidence[usable])
    records = [r for r, ok in zip(prediction_records(table), usable.tolist()) if ok]
    want = np.column_stack([logits, np.reshape([oracle_ats_row(r) for r in records], (-1, 3))])
    assert_same(np.column_stack([logits, recal.ats_features(table, confidence)]), want)


def assert_examples_equal(table: dict, stack: dict, window: int, span: int,
                          order: str = "in order", seed: int = 0) -> None:
    """`probe.examples` of `table` over a layer holding the qid -> matrix
    `stack`, its sidecar listing the rows in `order` (see `_layer`), equal
    the former per-record features bit for bit."""
    batch = score_predictions(table)
    x, labels, qids = probe.examples(probe.emitted(table, batch), _layer(stack, order, seed),
                                     window, span)
    want_x, want_labels, want_qids = oracle_examples(
        prediction_records(table), batch.correct.tolist(), stack, window, span)
    assert_same(x, want_x)
    assert_same(labels, want_labels)
    assert qids == want_qids


_ORDERS = ("in order", "tokens reversed", "interleaved", "shuffled")


def _layer(stack: dict, order: str, seed: int):
    """The layer `cli._load_token_stack` reads where the sidecar lists the
    tokens of the qid -> matrix `stack` qid by qid `in order`, each qid's
    `tokens reversed`, `interleaved` token by token across the qids, or
    `shuffled`: each qid's rows a slice of the matrix where they are
    contiguous and in order, an array of row indices otherwise."""
    ids = [(qid, token) for qid, values in stack.items() for token in range(len(values))]
    if order == "tokens reversed":
        ids = [(qid, token) for qid, values in stack.items()
               for token in reversed(range(len(values)))]
    elif order == "interleaved":
        ids.sort(key=lambda row: row[1])
    elif order == "shuffled":
        ids = [ids[i] for i in np.random.default_rng(seed).permutation(len(ids))]
    matrix = np.array([stack[qid][token] for qid, token in ids])
    count, rows, fault = cli._token_rows({"qid": [qid for qid, _ in ids],
                                          "token_index": [token for _, token in ids]})
    assert count == len(matrix) and fault is None
    return matrix, rows


def _matched(table: dict, f1_threshold: float) -> dict:
    """`table` with the answers and match blocks `uncal match` writes."""
    answers = rewards.answers(table, range(len(table["qid"])))
    matches = rewards.match_answers(answers, table["gold_answers"], f1_threshold)
    return {**table, "extracted_answer": answers, "match": list(map(vars, matches))}


def test_fixture_scores():
    for f1_threshold in (0.0, 0.3, 0.8, 1.0):
        assert_scores_equal(PREDS, f1_threshold)
        # with the match blocks `uncal match` writes, at another threshold
        assert_scores_equal(_matched(PREDS, 0.3), f1_threshold)


def test_fixture_traces():
    for f1_threshold in (0.0, 0.3, 1.0):
        assert_traces_equal(TRACES, TRACE_LINES, f1_threshold)


def test_fixture_ats_design():
    assert_ats_design_equal(PREDS)
    assert_ats_design_equal(_matched(PREDS, 0.3))


def test_fixture_examples():
    # the fixture's emissions carry no token index: each emitted row is given one
    lines = [{**row, "emissions": [{**e, "token_index": e["char_position"] % 5}
                                   for e in row["emissions"]]}
             for row in rows(PREDS)]
    table = predictions(lines)
    rng = np.random.default_rng(0)
    stack = {qid: rng.normal(size=(6, 4)).astype(np.float32) for qid in table["qid"][::2]}
    stack.update({qid: rng.normal(size=(6, 4)) for qid in table["qid"][1::2]})
    for window, span in ((0, 1), (1, 2), (4, 1)):
        for order in _ORDERS:
            assert_examples_equal(table, stack, window, span, order)


# answers and gold answers from a pool that reaches every match rule
_ANSWERS = st.sampled_from(["alpha", "Alpha.", "omega", "beta gamma", "gamma", "yes", "true",
                            "1920", "March 1920", "", "big machine", "big machine records"])
_CONFIDENCES = st.sampled_from([0.0, 0.05, 0.5, 0.9, 1.0]) | st.floats(0.0, 1.0)
_TOKENS = 8


@st.composite
def _prediction_lines(draw, emitted: bool = False) -> list[dict]:
    """Prediction lines whose confidence is in the field, in the text or
    absent; whose answer is explicit, on an answer line or absent; with or
    without a cached `match` block of any rule; and, where `emitted`, whose
    text emits once, at a token index below `_TOKENS`."""
    lines = []
    for i in range(draw(st.integers(1 if emitted else 0, 12))):
        conf = draw(st.none() | _CONFIDENCES)
        in_text = conf is not None and draw(st.booleans())
        parts = ["step"] * draw(st.integers(0, 3))
        if emitted or draw(st.booleans()):
            parts.insert(0, "hmm <uncertain>")
        if draw(st.booleans()):
            parts.append(f"Answer: {draw(_ANSWERS)}")
        if in_text:
            parts.append(f"Confidence: {conf!r}")
        text = "\n".join(parts)
        line = prediction(
            f"q{i}", draw(st.lists(_ANSWERS, min_size=1, max_size=2)), text,
            extracted_answer=draw(st.none() | _ANSWERS),
            verbal_confidence=None if in_text else conf,
            response_token_count=draw(st.none() | st.sampled_from([0, 3, 40])),
            match=draw(st.none() | st.fixed_dictionaries({
                "correct": st.booleans(), "rule": st.sampled_from([r.value for r in MatchRule]),
                "f1": _CONFIDENCES})),
        )
        if emitted:
            line["emissions"] = [{"char_position": 4,
                                  "token_index": draw(st.integers(0, _TOKENS - 1))}]
        lines.append(line)
    return lines


@settings(max_examples=300, deadline=None)
@given(_prediction_lines(), THRESHOLDS)
def test_drawn_scores(lines, f1_threshold):
    assert_scores_equal(predictions(lines), f1_threshold)


@settings(max_examples=200, deadline=None)
@given(_prediction_lines())
def test_drawn_ats_design(lines):
    assert_ats_design_equal(predictions(lines))


@settings(max_examples=300, deadline=None)
@given(_prediction_lines(emitted=True), st.integers(0, 2**32 - 1), st.integers(0, 3),
       st.integers(1, 3), st.sampled_from(_ORDERS), st.sampled_from([2, 3, 7]),
       st.sampled_from([np.float32, np.float64]))
def test_drawn_examples(lines, seed, window, span, order, dims, dtype):
    # window 0, spans past the first token, windows clipped at either end of
    # sequences of 1 to 12 tokens (each longer than its first emission), and
    # sidecars that list a qid's rows out of token order or apart
    table = predictions(lines)
    rng = np.random.default_rng(seed)
    firsts = {qid: events[0]["token_index"] for qid, events in zip(table["qid"],
                                                                    table["emissions"])}
    # the first row always has hidden states, the others at random
    stack = {qid: rng.normal(size=(int(rng.integers(first + 1, 13)), dims)).astype(dtype)
             for i, (qid, first) in enumerate(firsts.items()) if i == 0 or rng.random() < 0.7}
    assert_examples_equal(table, stack, window, span, order, seed)


_SIGNAL = st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.lists(_ANSWERS, min_size=1, max_size=2), _ANSWERS, _ANSWERS,
                          st.fixed_dictionaries({}, optional={
                              "dataset": st.sampled_from(["d1", "d2"]),
                              "noret_confidence": _SIGNAL,
                              "noret_emissions": st.integers(0, 3),
                              "noret_probe_score": st.floats(-1e6, 1e6),
                              "noret_token_probs": st.lists(
                                  st.floats(0.0, 1.0, exclude_min=True), max_size=3),
                              "external_trigger": st.booleans()})),
                max_size=12),
       THRESHOLDS)
def test_drawn_traces(drawn, f1_threshold):
    lines = [trace(f"r{i}", golds, noret, ret, **signals)
             for i, (golds, noret, ret, signals) in enumerate(drawn)]
    assert_traces_equal(traces(lines), lines, f1_threshold)
