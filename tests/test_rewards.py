import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncal import jsonio
from uncal.rewards import (
    GoldSet,
    MatchRule,
    answers,
    extract_answer_line,
    extract_confidence,
    match_answer,
    match_answers,
    normalize_answer,
    parse_date,
    reasoning_depth,
    scan_emissions,
    score_predictions,
    token_bag,
    token_f1,
)

from conftest import count_calls, emission, prediction, predictions
from oracles import oracle_match_answer, oracle_reasoning_depth


def matched(table, f1_threshold=0.3):
    """Each row's answer matched, as `uncal match` writes it."""
    return match_answers(answers(table, range(len(table["qid"]))), table["gold_answers"],
                         f1_threshold)


def annotate(line: dict, f1_threshold: float) -> dict:
    """The prediction line as `uncal match` writes it at `f1_threshold`."""
    table = predictions([line])
    (verdict,) = matched(table, f1_threshold)
    return {**line, "extracted_answer": answers(table, [0])[0],
            "match": {"correct": verdict.correct, "rule": verdict.rule.value, "f1": verdict.f1}}


def correct(line: dict, f1_threshold: float) -> bool:
    """Is the prediction line's answer scored correct at `f1_threshold`?"""
    return bool(score_predictions(predictions([line]), f1_threshold).correct[0])


class TestExtractAnswerLine:
    def test_simple(self):
        assert extract_answer_line("...reasoning...\nAnswer: Paris") == "Paris"

    def test_absent(self):
        assert extract_answer_line("no answer line at all") is None

    def test_last_line_wins(self):
        assert extract_answer_line("Answer: A\nmore text\nAnswer: B") == "B"

    def test_case_insensitive_and_whitespace(self):
        assert extract_answer_line("answer:   Big Machine Records  ") == "Big Machine Records"

    def test_inline_confidence_stripped(self):
        text = "step 1\nAnswer: Randy Newman Confidence: 0.9"
        assert extract_answer_line(text) == "Randy Newman"

    def test_confidence_cut_where_extract_confidence_reads_it(self):
        # spaces or a tab before the colon still label the confidence
        for text in ("Answer: Paris Confidence  : 0.9", "Answer: Paris confidence\t:0.9"):
            assert extract_confidence(text) == 0.9
            assert extract_answer_line(text) == "Paris"
            (verdict,) = matched(predictions([prediction("q", ("Paris",), text)]))
            assert verdict == match_answer("Paris", GoldSet(("Paris",)))
            assert verdict.rule is MatchRule.EXACT_MATCH

    def test_empty_payload_is_present(self):
        assert extract_answer_line("Answer:") == ""


class TestExtractConfidence:
    def test_plain(self):
        assert extract_confidence("Answer: X\nConfidence: 0.9") == 0.9

    def test_clamped_above(self):
        assert extract_confidence("Confidence: 1.7") == 1.0

    def test_absent(self):
        assert extract_confidence("no confidence here") is None

    def test_last_occurrence_wins(self):
        assert extract_confidence("Confidence: 0.1\nConfidence: 0.6") == 0.6

    def test_negative_clamps_to_zero(self):
        assert extract_confidence("Confidence: -0.2") == 0.0


class TestNormalizeAnswer:
    def test_article_and_punctuation(self):
        assert normalize_answer("The Eiffel Tower!") == "eiffel tower"

    def test_empty(self):
        assert normalize_answer("") == ""

    def test_whitespace_only_trim(self):
        assert normalize_answer("  1534 ") == "1534"

    def test_interior_article_kept(self):
        assert normalize_answer("war of the worlds") == "war of the worlds"


def f1(pred: str, gold: str) -> float:
    """`token_f1` of the token bags of two answers, as `match_answer` builds them."""
    return token_f1(token_bag(normalize_answer(pred)), token_bag(normalize_answer(gold)))


class TestTokenF1:
    def test_identical(self):
        assert f1("red car", "red car") == 1.0

    def test_disjoint(self):
        assert f1("blue bike", "red car") == 0.0

    def test_hand_value(self):
        assert f1("red car fast", "red car") == pytest.approx(0.8)

    def test_both_empty(self):
        assert f1("", "") == 1.0

    @settings(max_examples=60, deadline=None)
    @given(a=st.text("abc xyz", max_size=20), b=st.text("abc xyz", max_size=20))
    def test_symmetric_and_bounded(self, a, b):
        forward = f1(a, b)
        assert 0.0 <= forward <= 1.0
        assert forward == f1(b, a)


class TestDates:
    def test_iso_forms(self):
        assert parse_date("1534") == (1534, None, None)
        assert parse_date("1920-03") == (1920, 3, None)
        assert parse_date("1920-03-05") == (1920, 3, 5)

    def test_month_name_forms(self):
        assert parse_date("March 5, 1920") == (1920, 3, 5)
        assert parse_date("5 March 1920") == (1920, 3, 5)
        assert parse_date("March 1920") == (1920, 3, None)

    def test_rejects_garbage(self):
        assert parse_date("Paris") is None
        assert parse_date("1920-13") is None

    def test_unicode_digits_still_parse(self):
        # `\d` reads any Unicode decimal digit, as the date patterns do
        assert parse_date("\u0661\u0669\u0662\u0660") == (1920, None, None)
        assert parse_date("March \uff11\uff19\uff12\uff10") == (1920, 3, None)
        assert parse_date("March fifth") is None


# answers from pieces that reach every rule: articles (twice over, since
# only a leading one is dropped) and punctuation that normalize away,
# yes/no words, date forms, and repeated plain words for partial F1
_ANSWER_PIECES = st.sampled_from([
    "the", "The", "a", "AN", "red", "car", "red", "fast", "yes", "True", "no",
    "Incorrect", "correct", "FALSE", ",", ".", "!", "'s", "-", "  ", "\t", "1920",
    "1920-03", "1920-03-05", "1920-13-40", "March", "mar", "5th", "5,", "31", "Dec",
    "2001", "", "\u0130", "\u00e9",
])
# answers with repeated tokens, so token overlap takes both the set and the
# multiset path, with digits (Unicode ones too) and date forms
_REPEATS = st.lists(st.sampled_from([
    "new", "new", "york", "York", "the", "city", "1920", "March", "5", "2001-12",
    "\u0661\u0669\u0662\u0660", "yes", "no", ",",
]), max_size=6).map(" ".join)
_ANSWER_TEXTS = (st.lists(_ANSWER_PIECES, max_size=6).map(" ".join)
                 | st.lists(_ANSWER_PIECES, max_size=4).map("".join) | _REPEATS)


class TestMatchAnswer:
    def test_article_stripping_exact_match(self):
        result = match_answer("the red car", GoldSet(["red car"]), 0.3)
        assert result.correct and result.rule is MatchRule.EXACT_MATCH and result.f1 == 1.0

    def test_disjoint_prediction_fails(self):
        result = match_answer("Taylor Swift", GoldSet(["Big Machine Records"]), 0.3)
        assert not result.correct and result.f1 == 0.0

    def test_token_f1_fallback_fires(self):
        result = match_answer("born in Mount Laurel", GoldSet(["Mount Laurel Township"]), 0.3)
        assert result.correct and result.rule is MatchRule.TOKEN_F1
        assert result.f1 == pytest.approx(4.0 / 7.0)

    def test_yes_no_canonicalization(self):
        assert match_answer("True", GoldSet(["yes"]), 0.3).rule is MatchRule.YES_NO
        assert match_answer("incorrect", GoldSet(["no"]), 0.3).correct
        assert not match_answer("yes", GoldSet(["no"]), 0.3).correct

    def test_token_bags_are_built_only_for_the_token_f1_rule(self):
        golds = GoldSet(["yes", "1920-03-05"])
        assert match_answer("True", golds).rule is MatchRule.YES_NO
        assert match_answer("March 5, 1920", golds).rule is MatchRule.DATE
        assert golds._bags is None
        assert match_answer("maybe", golds).rule is MatchRule.TOKEN_F1
        assert golds.bags == ((1, {"yes"}, None), (1, {"19200305"}, None))

    def test_date_component_agreement(self):
        assert match_answer("March 5, 1920", GoldSet(["1920-03-05"]), 0.3).rule is MatchRule.DATE
        assert match_answer("1920", GoldSet(["March 1920"]), 0.3).correct
        assert not match_answer("1704", GoldSet(["1534"]), 0.3).correct

    @settings(max_examples=50, deadline=None)
    @given(gold=st.text("abcd ef", min_size=1, max_size=15))
    def test_reflexive_on_nonempty(self, gold):
        result = match_answer(gold, GoldSet([gold]))
        assert result.correct

    def test_repeated_tokens_count_as_a_multiset(self):
        result = match_answer("new new york", GoldSet(["new york city"]), 0.0)
        assert result.rule is MatchRule.TOKEN_F1 and result.f1 == 2.0 / 3.0
        assert match_answer("new new", GoldSet(["new new new"]), 0.0).f1 == 0.8

    def test_empty_gold_set_refused(self, tmp_path):
        # a GoldSet is built from a record's gold answers, which the loader checks
        good = {"qid": "q", "gold_answers": ["x"], "response_text": "Answer: x"}
        path = tmp_path / "p.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(good | {"gold_answers": []}) + "\n")
        assert jsonio.load_lines(path, jsonio.PREDICTIONS).errors == [
            (2, "gold_answers must be a non-empty list of strings")]

    @settings(max_examples=1000, deadline=None)
    @given(preds=st.lists(_ANSWER_TEXTS, min_size=1, max_size=3),
           golds=st.lists(_ANSWER_TEXTS, min_size=1, max_size=4),
           threshold=st.sampled_from([0.0, 0.3, 0.5, 2.0 / 3.0, 1.0]) | st.floats(0.0, 1.0))
    def test_equals_the_former_matcher(self, preds, golds, threshold):
        gold_set = GoldSet(golds)  # one set serves every answer matched against it
        for pred in preds:
            new = match_answer(pred, gold_set, threshold)
            old = oracle_match_answer(pred, golds, threshold)
            assert (new.correct, new.rule, repr(new.f1)) == (old.correct, old.rule, repr(old.f1))


class TestScanEmissions:
    def test_no_marker(self):
        assert scan_emissions("nothing here") == []

    def test_double_emission_shape(self):
        text = "...find the birthplace. <uncertain>\n...Answer: <uncertain>"
        assert len(scan_emissions(text)) == 2

    def test_adjacent_markers(self):
        events = scan_emissions("<uncertain><uncertain>")
        assert [e["char_position"] for e in events] == [0, 11]


def test_match_uses_last_answer_line():
    table = predictions([prediction("q", ("venice",),
                                    "Answer: Rome\nreconsidering\nAnswer: Venice")])
    assert matched(table)[0].correct


def test_match_pipeline_deterministic():
    table = predictions([prediction("q", ("mount laurel township",),
                                    "Answer: born in Mount Laurel")])
    assert matched(table) == matched(table)


def test_reasoning_depth_counts_lines_before_answer():
    text = "step one\n\nstep two\nAnswer: x\ntrailing"
    assert reasoning_depth(text) == 2
    assert reasoning_depth("no answer\nlines here") == 2
    # a line ends wherever `str.splitlines` ends it, not only at "\n"
    assert reasoning_depth("one\rtwo\u2028 answer :x\x85three") == 2
    assert reasoning_depth("one\nx answer: y\vAnswer\t:z") == 2


# texts of answer labels, payloads and every kind of line break
_LABELLED_TEXTS = st.lists(st.sampled_from(["answer", "ANSWER", "Answer", ":", " ", "\t", "x",
                                            "\n", "\r", "\r\n", "\u2028", "\x85", "\v", "\f",
                                            "\x1c"]),
                           max_size=16).map("".join)


@settings(max_examples=300, deadline=None)
@given(_LABELLED_TEXTS)
def test_reasoning_depth_equals_the_former_rule(text):
    assert reasoning_depth(text) == oracle_reasoning_depth(text)


@pytest.mark.parametrize("text, answer, depth", [
    ("Step 1: a\rAnswer: X", "X", 1),
    ("Step 1: a\u2028Answer: X", "X", 1),
    ("Answer: Q\x0cStep: r", "Q", 0),
])
def test_an_answer_line_ends_where_a_reasoning_line_does(text, answer, depth):
    assert (extract_answer_line(text), reasoning_depth(text)) == (answer, depth)


@settings(max_examples=300, deadline=None)
@given(_LABELLED_TEXTS)
def test_the_answer_is_read_from_the_line_reasoning_depth_stops_at(text):
    # the answer line is nonempty, so depth falls short of the nonempty
    # lines exactly when it stops at one: the one after `depth` of them
    lines = [line for line in text.splitlines() if line.strip()]
    depth, answer = reasoning_depth(text), extract_answer_line(text)
    assert (answer is not None) == (depth < len(lines))
    if answer is not None:
        assert answer == extract_answer_line(lines[depth])


class TestScorePredictions:
    def test_fields_in_record_order(self):
        table = predictions([
            prediction("a", ("Paris",), "hmm <uncertain>\nAnswer: Paris", dataset="d1",
                       verbal_confidence=0.8),
            prediction("b", ("Paris",), "Answer: Rome\nConfidence: 0.3", dataset="d2",
                       emissions=[emission(0)]),
            prediction("c", ("Paris",), "no answer"),
        ])
        batch = score_predictions(table)
        assert len(batch) == 3
        assert batch.confidence[:2].tolist() == [0.8, 0.3]
        assert math.isnan(batch.confidence[2])
        assert batch.correct.tolist() == [True, False, False]
        # `marked` reads the text, not the row's emission events
        assert batch.marked.tolist() == [True, False, False]

    def test_each_record_matched_and_read_once(self, monkeypatch):
        import uncal.rewards as rewards

        table = predictions([
            prediction(f"q{i}", ("x",), f"Answer: {'x' if i % 2 else 'y'}", verbal_confidence=0.5)
            for i in range(7)
        ])
        matches = count_calls(monkeypatch, rewards, "match_answer")
        read = count_calls(monkeypatch, rewards, "extract_answer_line")
        parsed = count_calls(monkeypatch, rewards, "extract_confidence")
        score_predictions(table)
        assert len(matches) == 7 and len(read) == 7 and parsed == []

    def test_a_cached_verdict_reads_no_answer_unless_it_needs_one(self, monkeypatch):
        import uncal.rewards as rewards

        lines = [annotate(prediction(f"q{i}", ("big machine records",), text), 0.3)
                 for i, text in enumerate(["Answer: big machine records", "Answer: big machine",
                                           "Answer: taylor"])]
        table = predictions([{**line, "extracted_answer": None} for line in lines])
        read = count_calls(monkeypatch, rewards, "extract_answer_line")
        matches = count_calls(monkeypatch, rewards, "match_answer")
        assert score_predictions(table, 0.5).correct.tolist() == [True, True, False]
        # ExactMatch decides alone, and F1 0 is below the threshold: only the
        # TokenF1 verdict at 0.8 asks whether its row has an answer
        assert [args[0] for args in read] == ["Answer: big machine"] and matches == []


_WORDS = ("big", "machine", "records", "yes", "true", "2001")


@st.composite
def _mixed_line(draw) -> dict:
    """A prediction line with a cached ExactMatch or TokenF1 block, or none;
    its answer on an `Answer:` line, in `extracted_answer`, or nowhere."""
    gold = " ".join(draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3)))
    answer = " ".join(draw(st.lists(st.sampled_from(_WORDS), max_size=3)))
    where = draw(st.sampled_from(["line", "field", "none"]))
    line = prediction("q", (gold,), f"Answer: {answer}" if where == "line" else "no answer",
                      extracted_answer=answer if where == "field" else None,
                      verbal_confidence=draw(st.none() | st.floats(0.0, 1.0)))
    rule = draw(st.sampled_from([None, "ExactMatch", "TokenF1"]))
    if rule == "ExactMatch":
        line["match"] = {"correct": True, "rule": rule, "f1": 1.0}
    elif rule == "TokenF1":
        f1 = draw(st.floats(0.0, 1.0))
        line["match"] = {"correct": f1 >= 0.3, "rule": rule, "f1": f1}
    return line


def match_verdicts(table, f1_threshold: float) -> np.ndarray:
    """The verdict of each row, as `uncal match` computes them for every row."""
    return np.array([verdict.correct for verdict in matched(table, f1_threshold)], dtype=bool)


def assert_batches_equal(got, want):
    assert np.array_equal(got.confidence, want.confidence, equal_nan=True)
    assert np.array_equal(got.correct, want.correct)
    assert np.array_equal(got.marked, want.marked)


class TestScoreWithMatchVerdicts:
    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(_mixed_line(), max_size=12),
           threshold=st.sampled_from([0.0, 0.3, 0.9, 1.0]))
    def test_the_verdicts_of_match_score_as_matching_does(self, lines, threshold):
        table = predictions([{**line, "qid": f"q{i}"} for i, line in enumerate(lines)])
        assert_batches_equal(score_predictions(table, threshold, match_verdicts(table, threshold)),
                             score_predictions(table, threshold))

    def test_rows_without_a_block_take_the_verdict_and_match_nothing(self, monkeypatch):
        import uncal.rewards as rewards

        table = predictions([
            prediction("a", ("x",), "Answer: x"),
            annotate(prediction("b", ("x",), "Answer: x"), 0.3),
            prediction("c", ("x",), "Answer: y"),
            annotate(prediction("d", ("x",), "Answer: y"), 0.3),
        ])
        # inverted verdicts: only the rows without a cached block read them
        inverted = ~match_verdicts(table, 0.3)
        matches = count_calls(monkeypatch, rewards, "match_answer")
        batch = score_predictions(table, 0.3, inverted)
        assert batch.correct.tolist() == [False, True, True, False]
        assert matches == []


class TestCachedMatchHonoursThreshold:
    # token F1 of "big machine" against "big machine records" is 0.8
    PARTIAL = prediction("p", ("big machine records",), "Answer: big machine")

    def test_token_f1_cache_rejudged_at_threshold(self):
        cached = annotate(self.PARTIAL, 0.3)
        assert cached["match"]["correct"] and cached["match"]["rule"] == "TokenF1"
        assert correct(cached, 0.3) is True
        assert correct(cached, 0.9) is False
        assert correct(cached, 0.8) is True

    def test_threshold_free_rules_trust_the_cache(self):
        cached = annotate(prediction("e", ("yes",), "Answer: True"), 0.3)
        assert cached["match"]["rule"] == "YesNo"
        assert correct(cached, 1.0) is True

    def test_no_answer_stays_wrong_at_zero_threshold(self):
        line = prediction("n", ("x",), "no answer")
        assert correct(line, 0.0) is False
        assert correct(annotate(line, 0.3), 0.0) is False

    @settings(max_examples=200, deadline=None)
    @given(
        answer=st.lists(st.sampled_from(["big", "machine", "records", "the", "yes"]),
                        max_size=4),
        gold=st.lists(st.sampled_from(["big", "machine", "records", "no"]),
                      min_size=1, max_size=4),
        cached_at=st.floats(0.0, 1.0),
        judged_at=st.floats(0.0, 1.0),
    )
    def test_cache_never_changes_the_verdict(self, answer, gold, cached_at, judged_at):
        line = prediction("h", (" ".join(gold),), "Answer: " + " ".join(answer))
        assert correct(annotate(line, cached_at), judged_at) == correct(line, judged_at)
