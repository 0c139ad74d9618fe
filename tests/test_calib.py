import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncal import calib
from uncal.errors import EmptyBatch
from uncal.rewards import ScoredBatch, score_predictions

from conftest import count_calls, make_record, outcome, predictions, random_batch, rows
from oracles import (
    oracle_ausc,
    oracle_brier,
    oracle_calibration_report,
    oracle_ece,
    oracle_error_taxonomy,
    oracle_nll,
)


def metrics(records, num_bins=10, epsilon=1e-6):
    """Every calibration metric of a prediction table, or of a list of
    prediction lines, scored once."""
    table = records if isinstance(records, dict) else predictions(records)
    return calib.calibration_report(score_predictions(table), num_bins, epsilon)


class TestEce:
    def test_perfect_calibration(self):
        records = [make_record(f"q{i}", 1.0, True) for i in range(5)]
        assert metrics(records, 10)["ece"] == 0.0

    def test_two_record_hand_value(self):
        records = [make_record("q1", 0.9, True), make_record("q2", 0.9, False)]
        assert metrics(records, 10)["ece"] == pytest.approx(0.4, abs=1e-15)

    def test_single_wrong_record(self):
        assert metrics([make_record("q1", 0.9, False)], 10)["ece"] == pytest.approx(0.9)

    def test_empty_batch(self):
        with pytest.raises(EmptyBatch):
            metrics([make_record("q1", None, True)], 10)

    def test_zero_when_bins_agree(self):
        # every bin's mean confidence equals its accuracy
        records = []
        for i in range(10):
            records.append(make_record(f"a{i}", 0.8, i < 8))
        for i in range(10):
            records.append(make_record(f"b{i}", 0.3, i < 3))
        assert metrics(records, 10)["ece"] == pytest.approx(0.0, abs=1e-15)


class TestBrier:
    def test_confident_correct(self):
        assert metrics([make_record("q", 1.0, True)])["brier"] == 0.0

    def test_hand_value(self):
        assert metrics([make_record("q", 0.7, False)])["brier"] == pytest.approx(0.49)

    def test_midpoint_constant(self):
        records = [make_record(f"q{i}", 0.5, i % 2 == 0) for i in range(6)]
        assert metrics(records)["brier"] == pytest.approx(0.25)

    def test_constant_confidence_decomposition(self, rng):
        for _ in range(20):
            c = float(rng.uniform(0.05, 0.95))
            outcomes = rng.random(50) < 0.5
            records = [
                make_record(f"q{i}", c, bool(ok)) for i, ok in enumerate(outcomes)
            ]
            acc = float(np.mean(outcomes))
            expected = c**2 * (1 - acc) + (1 - c) ** 2 * acc
            assert metrics(records)["brier"] == pytest.approx(expected, abs=1e-12)


class TestNll:
    def test_half_confidence(self):
        records = [make_record("q1", 0.5, True), make_record("q2", 0.5, False)]
        assert metrics(records)["nll"] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_confident_correct_near_zero(self):
        value = metrics([make_record("q", 1.0, True)], epsilon=1e-6)["nll"]
        assert value == pytest.approx(1e-6, abs=1e-9)

    def test_confident_wrong_clamped(self):
        value = metrics([make_record("q", 1.0, False)], epsilon=1e-6)["nll"]
        assert value == pytest.approx(-math.log(1e-6), rel=1e-9)


class TestAusc:
    def test_all_correct(self):
        records = [make_record(f"q{i}", 0.1 * i + 0.1, True) for i in range(5)]
        assert metrics(records)["ausc"] == 1.0

    def test_all_wrong(self):
        records = [make_record(f"q{i}", 0.1 * i + 0.1, False) for i in range(5)]
        assert metrics(records)["ausc"] == 0.0

    def test_two_record_hand_value(self):
        records = [make_record("q1", 0.9, True), make_record("q2", 0.1, False)]
        assert metrics(records)["ausc"] == pytest.approx(0.75, abs=1e-15)

    def test_duplication_invariance(self, rng):
        for trial in range(10):
            records, _ = random_batch(rng, 12, with_ties=trial % 2 == 0)
            lines = [{key: r[key] for key in ("qid", "gold_answers", "response_text",
                                              "verbal_confidence", "dataset")}
                     for r in rows(records)]
            doubled = lines + [{**line, "qid": line["qid"] + "-copy"} for line in lines]
            assert metrics(doubled)["ausc"] == pytest.approx(metrics(records)["ausc"], abs=1e-12)


class TestMetricOracleAgreement:
    def test_against_brute_force(self, rng):
        for trial in range(30):
            records, rows = random_batch(rng, int(rng.integers(3, 40)), with_ties=trial % 3 == 0)
            pairs = [(c, y) for c, y, _ in rows]
            assert metrics(records, 10)["ece"] == pytest.approx(
                oracle_ece(pairs, 10), abs=1e-12
            )
            assert metrics(records)["brier"] == pytest.approx(oracle_brier(pairs), abs=1e-12)
            assert metrics(records)["nll"] == pytest.approx(
                oracle_nll(pairs, 1e-6), abs=1e-12
            )
            assert metrics(records)["ausc"] == pytest.approx(oracle_ausc(rows), abs=1e-12)


class TestErrorTaxonomy:
    def test_no_wrong_answers(self):
        records = [make_record(f"q{i}", 0.9, True) for i in range(4)]
        taxonomy = calib.error_taxonomy(score_predictions(predictions(records)))
        assert taxonomy["total_wrong"] == 0 and taxonomy["epistemic"] == 0
        assert all(b["count"] == 0 for b in taxonomy["bands"])

    def test_threshold_application(self):
        records = [
            make_record("q1", 0.9, False),
            make_record("q2", 0.6, False),
            make_record("q3", 0.2, False),
        ]
        taxonomy = calib.error_taxonomy(score_predictions(predictions(records)))
        assert taxonomy["total_wrong"] == 3
        assert taxonomy["epistemic"] == 2 and taxonomy["aleatoric"] == 1
        assert taxonomy["strict_epistemic"] == 1
        assert taxonomy["epistemic"] + taxonomy["aleatoric"] == taxonomy["total_wrong"]

    def test_band_edges(self):
        records = [
            make_record("q1", 0.7, False),   # lands in 0.5 < c <= 0.7
            make_record("q2", 0.71, False),  # lands in c > 0.7
            make_record("q3", 0.1, False),   # lands in c <= 0.1
        ]
        taxonomy = calib.error_taxonomy(score_predictions(predictions(records)))
        by_label = {b["label"]: b["count"] for b in taxonomy["bands"]}
        assert by_label["c>0.7"] == 1
        assert by_label["0.5<c<=0.7"] == 1
        assert by_label["c<=0.1"] == 1

    def test_emission_split(self):
        records = [
            make_record("q1", 0.8, False, emissions_text="hmm <uncertain>"),
            make_record("q2", 0.8, False),
        ]
        taxonomy = calib.error_taxonomy(score_predictions(predictions(records)))
        assert taxonomy["epistemic_with_emit"] == 1
        assert taxonomy["epistemic_without_emit"] == 1

    def test_partition_invariant(self, rng):
        for _ in range(10):
            records, _ = random_batch(rng, 25)
            taxonomy = calib.error_taxonomy(score_predictions(records))
            assert taxonomy["epistemic"] + taxonomy["aleatoric"] == taxonomy["total_wrong"]
            assert taxonomy["strict_epistemic"] <= taxonomy["epistemic"]
            assert sum(b["count"] for b in taxonomy["bands"]) == taxonomy["total_wrong"]


def test_calibration_report_shape():
    records = [
        make_record("q1", 0.9, True),
        make_record("q2", 0.4, False),
        make_record("q3", None, True),
    ]
    report = calib.calibration_report(score_predictions(predictions(records)), num_bins=5)
    assert report["n"] == 3
    assert report["parse_rate"] == pytest.approx(2.0 / 3.0)
    assert report["accuracy"] == pytest.approx(2.0 / 3.0)
    assert report["mean_confidence"] == pytest.approx(0.65)
    gap = report["mean_confidence"] - report["accuracy"]
    assert report["overconfidence_gap"] == pytest.approx(gap)
    assert len(report["bins"]) == 5
    assert sum(b["count"] for b in report["bins"]) == 2


class TestScoredBatch:
    def test_report_matches_each_record_once(self, rng, monkeypatch):
        import uncal.rewards as rewards

        calls = count_calls(monkeypatch, rewards, "match_answer")
        records, _ = random_batch(rng, 40)
        batch = score_predictions(records)
        calib.calibration_report(batch)
        calib.error_taxonomy(batch)
        assert len(calls) == 40

    def test_empty_and_unparsed_batches_rejected(self):
        with pytest.raises(EmptyBatch):
            calib.calibration_report(score_predictions(predictions([])))
        with pytest.raises(EmptyBatch):
            calib.error_taxonomy(score_predictions(predictions([])))
        with pytest.raises(EmptyBatch):
            calib.calibration_report(score_predictions(predictions([make_record("q", None, True)])))


@st.composite
def _bins_and_rows(draw):
    """A bin count in [1, 50] and (confidence, correct, marked) rows whose
    confidences are missing, at the taxonomy's edges, on the bin edges
    k/bins, or anywhere in [0,1]."""
    bins = draw(st.integers(1, 50))
    confidence = (st.none() | st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7, 1.0])
                  | st.integers(0, bins).map(lambda k: k / bins) | st.floats(0.0, 1.0))
    return bins, draw(st.lists(st.tuples(confidence, st.booleans(), st.booleans()),
                               max_size=30))


@settings(max_examples=400, deadline=None)
@given(_bins_and_rows(), st.sampled_from([1e-6, 0.1, 0.49]))
def test_reports_equal_the_former_list_implementations(bins_and_rows, epsilon):
    bins, rows = bins_and_rows
    confidence = [c for c, _, _ in rows]
    correct = [ok for _, ok, _ in rows]
    marked = [m for _, _, m in rows]
    batch = ScoredBatch(np.array(confidence, dtype=float), np.array(correct, dtype=bool),
                        np.array(marked, dtype=bool), np.zeros(len(rows), dtype=bool))
    for got, want in (
        (outcome(lambda: calib.calibration_report(batch, bins, epsilon)),
         outcome(lambda: oracle_calibration_report(confidence, correct, bins, epsilon))),
        (outcome(lambda: calib.error_taxonomy(batch)),
         outcome(lambda: oracle_error_taxonomy(confidence, correct, marked))),
    ):
        # repr also tells a numpy scalar from the Python number the loop gave
        assert got == want and repr(got) == repr(want)
