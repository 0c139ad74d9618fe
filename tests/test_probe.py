import json
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uncal import jsonio, matio, optim, probe
from uncal.errors import (
    AlignmentError,
    DegenerateFit,
    IoError,
    UndefinedMetric,
)
from uncal.reprgeo import BLOCK_ROWS
from uncal.rewards import score_predictions

from conftest import (
    count_calls,
    emission,
    planted_stack,
    prediction,
    predictions,
    rows,
    token_stack,
    token_stacks,
)
from oracles import (
    oracle_auprc,
    oracle_auroc,
    oracle_logistic_gd,
    oracle_step_auprc,
    oracle_tune_threshold,
)


def emitted_record(token_index, tokens=10, text_pos=5, text=None):
    """A one-row prediction table whose first emission is at `text_pos`."""
    if text is None:
        text = "x" * text_pos + "<uncertain> rest\nAnswer: alpha"
    return predictions([prediction("q", ("alpha",), text,
                                   emissions=[emission(text_pos, token_index)],
                                   response_token_count=tokens)])


def features(hidden, table, window=probe.DEFAULT_WINDOW, span=probe.DEFAULT_SPAN_TOKENS):
    """The feature row of the one-row prediction table `table`, whose qid's
    hidden states are the rows of `hidden`."""
    inputs = probe.emitted(table, score_predictions(table))
    x, _, _ = probe.examples(inputs, token_stack({table["qid"][0]: hidden}), window, span)
    return x[0]


class TestBuildFeatures:
    """The features of one example, by `probe.examples`."""

    def test_window_zero_single_token(self):
        hidden = np.arange(40, dtype=float).reshape(10, 4)
        np.testing.assert_array_equal(features(hidden, emitted_record(3), window=0)[:-3],
                                      hidden[3])

    def test_left_clip_at_sequence_start(self):
        hidden = np.arange(40, dtype=float).reshape(10, 4)
        np.testing.assert_allclose(features(hidden, emitted_record(0), window=3)[:-3],
                                   hidden[0:4].mean(axis=0))

    def test_hand_mean_two_token_span(self):
        hidden = np.zeros((8, 2))
        hidden[2] = (1.0, 0.0)
        hidden[3] = (0.0, 1.0)
        hidden[4] = (2.0, 2.0)
        hidden[5] = (1.0, 3.0)
        np.testing.assert_allclose(features(hidden, emitted_record(3), window=1, span=2)[:-3],
                                   hidden[2:6].mean(axis=0))

    def test_scalars(self):
        hidden = np.ones((10, 3))
        record = emitted_record(4)
        row = features(hidden, record, window=1)
        assert row.shape == (6,)
        count, emissions, fraction = row[-3:]
        assert count == 10.0 and emissions == 1.0
        assert fraction == pytest.approx(5 / len(record["response_text"][0]))

    @pytest.mark.parametrize("text, position, fraction", [
        ("<uncertain> then text", 0, 0.0), ("x" * 200, 50, 0.25), ("", 0, 0.0),
    ])
    def test_first_emit_fraction(self, text, position, fraction):
        # the first emission's position over the response length; 0 for an
        # empty response, where position 0 is the one an emission may take
        record = emitted_record(0, text_pos=position, text=text)
        assert features(np.ones((2, 1)), record)[-1] == fraction

    def test_missing_token_index(self):
        record = predictions([prediction("q", ("a",), "<uncertain>\nAnswer: a",
                                         emissions=[emission(0)])])
        with pytest.raises(AlignmentError, match="'q': first emission has no token index"):
            features(np.ones((4, 2)), record)

    def test_out_of_bounds_token_index(self):
        with pytest.raises(AlignmentError, match="'q': emission token 9 outside 0..3"):
            features(np.ones((4, 2)), emitted_record(9, tokens=10))

    @pytest.mark.parametrize("window, span", [(10**30, 1), (0, 10**30), (2**63, 2**63)])
    def test_a_reach_beyond_every_sequence_clips_to_it(self, window, span):
        # the window and span are Python ints of any size, as the parser reads them
        hidden = np.arange(20, dtype=float).reshape(5, 4)
        lo = 0 if window else 2
        np.testing.assert_array_equal(
            features(hidden, emitted_record(2), window=window, span=span)[:-3],
            hidden[lo:].mean(axis=0))

    def test_the_first_refused_example_in_row_order_is_named(self):
        table = predictions([
            prediction(qid, ("a",), "<uncertain>\nAnswer: a", emissions=[emission(0, token)])
            for qid, token in (("ok", 1), ("far", 7), ("none", None))])
        inputs = probe.emitted(table, score_predictions(table))
        stack = token_stack({qid: np.ones((3, 2)) for qid in ("ok", "far", "none")})
        with pytest.raises(AlignmentError, match="'far': emission token 7 outside 0..2"):
            probe.examples(inputs, stack)


class TestSigmoid:
    """`optim.sigmoid`, the one logistic function of the probe and recal fits."""

    def test_equals_the_logistic_function(self):
        x = np.linspace(-30.0, 30.0, 601)
        np.testing.assert_allclose(optim.sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-14)
        assert optim.sigmoid(np.float64(0.0)) == 0.5

    def test_symmetric(self):
        x = np.linspace(-40.0, 40.0, 801)
        np.testing.assert_allclose(optim.sigmoid(x) + optim.sigmoid(-x), 1.0, rtol=1e-15)

    def test_tails_neither_overflow_nor_leave_the_unit_interval(self):
        x = np.array([-1e308, -1000.0, -700.0, 700.0, 1000.0, 1e308])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            p = optim.sigmoid(x)
        assert p.tolist() == [0.0, 0.0, optim.sigmoid(np.float64(-700.0)), 1.0, 1.0, 1.0]
        assert 0.0 < p[2] < 1e-300


class TestFitProbe:
    def test_separable_blobs_perfect_training_auroc(self):
        rng = np.random.default_rng(0)
        x = np.vstack(
            [rng.normal(-2.0, 1.0, (40, 4)), rng.normal(2.0, 1.0, (40, 4))]
        )
        y = np.array([0] * 40 + [1] * 40)
        model = probe.fit_probe(x, y, l2=1e-2)
        assert probe.auroc(probe.ranked(model.scores(x), y)) == 1.0

    def test_permutation_null_dev_auroc(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0.0, 1.0, size=(400, 6))
        y = (rng.random(400) < 0.5).astype(int)
        model = probe.fit_probe(x[:200], y[:200], l2=1e-2)
        dev_auroc = probe.auroc(probe.ranked(model.scores(x[200:]), y[200:]))
        assert 0.4 <= dev_auroc <= 0.6

    def test_duplicated_column_same_predictions(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0.0, 1.0, size=(200, 3))
        logits = 0.6 * x[:, 0] - 0.4 * x[:, 1]
        y = (rng.random(200) < 1.0 / (1.0 + np.exp(-logits))).astype(int)
        base = probe.fit_probe(x, y, l2=0.0)
        doubled = probe.fit_probe(np.hstack([x, x[:, [0]]]), y, l2=0.0)
        # CG from zero gives identical columns identical steps, so the
        # duplicates split the weight evenly
        assert doubled.weights[0] == doubled.weights[3]
        np.testing.assert_allclose(
            base.scores(x), doubled.scores(np.hstack([x, x[:, [0]]])), atol=1e-6
        )

    def test_loss_trace_non_increasing(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0.0, 1.0, size=(120, 5))
        y = (x[:, 0] + 0.3 * rng.normal(size=120) > 0).astype(int)
        model = probe.fit_probe(x, y, l2=1e-2)
        trace = model.fit.loss_trace
        assert all(a >= b - 1e-12 for a, b in zip(trace, trace[1:]))
        # optimality, recomputed from the returned parameters: the full
        # gradient is within the minimizer's tolerance, and brute-force
        # gradient descent reaches no lower objective
        phi = (x - model.feature_means) / model.feature_stds
        z = phi @ model.weights + model.bias
        residual = 1.0 / (1.0 + np.exp(-z)) - y
        grad = np.append(phi.T @ residual / len(y) + 2e-2 * model.weights, residual.mean())
        assert model.fit.converged
        assert np.max(np.abs(grad)) <= optim.GRAD_TOL
        objective = np.mean(np.logaddexp(0.0, z) - y * z) + 1e-2 * model.weights @ model.weights
        assert objective <= oracle_logistic_gd(phi, y, 1e-2) + 1e-12

    def test_separable_blobs_unregularized_stay_finite(self):
        rng = np.random.default_rng(0)
        x = np.vstack([rng.normal(-2.0, 1.0, (40, 4)), rng.normal(2.0, 1.0, (40, 4))])
        y = np.array([0] * 40 + [1] * 40)
        model = probe.fit_probe(x, y, l2=0.0)
        # no finite minimizer exists; the fit must still stop within the cap
        assert model.fit.iterations <= optim.MAX_ITERS
        assert np.all(np.isfinite(model.weights)) and np.isfinite(model.bias)
        trace = model.fit.loss_trace
        assert all(a >= b for a, b in zip(trace, trace[1:]))

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateFit):
            probe.fit_probe(np.ones((12, 2)), [1] * 12)

    @pytest.mark.parametrize("value", [0.0, 12.0, 0.7])
    def test_constant_features_rejected(self, value):
        # the mean of twelve 0.7s rounds to another float: the features must
        # still read as constant
        with pytest.raises(DegenerateFit, match="every feature is constant"):
            probe.fit_probe(np.full((12, 3), value), [0, 1] * 6)

    def test_standardize_gives_a_column_of_equal_values_zeros(self):
        x = np.column_stack([np.full(7, 0.7), np.arange(7.0)])
        phi, means, stds = optim.standardize(x)
        assert not phi[:, 0].any() and (means[0], stds[0]) == (0.7, 1.0)
        np.testing.assert_array_equal(phi[:, 1], (x[:, 1] - 3.0) / 2.0)

    def test_too_few_examples_rejected(self):
        with pytest.raises(DegenerateFit):
            probe.fit_probe(np.ones((4, 2)), [0, 1, 0, 1])


class TestRankMetrics:
    def test_perfect_ranking(self):
        assert probe.auroc(probe.ranked([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])) == 1.0

    def test_all_tied_scores(self):
        assert probe.auroc(probe.ranked([0.5] * 6, [1, 0, 1, 0, 1, 0])) == 0.5

    def test_hand_rank_fixture(self):
        assert probe.auroc(probe.ranked([0.9, 0.8, 0.4, 0.2], [1, 0, 1, 0])) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetric):
            probe.auroc(probe.ranked([0.4, 0.6], [1, 1]))
        with pytest.raises(UndefinedMetric):
            probe.auprc(probe.ranked([0.4, 0.6], [0, 0]))

    def test_auroc_rejects_nan_score(self):
        # NaN != NaN, so the tie loop would never advance past it
        with pytest.raises(UndefinedMetric, match="finite"):
            probe.auroc(probe.ranked([0.1, float("nan"), 0.3], [0, 1, 1]))

    def test_auprc_rejects_nan_score(self):
        with pytest.raises(UndefinedMetric, match="finite"):
            probe.auprc(probe.ranked([0.1, float("nan"), 0.3], [0, 1, 1]))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(0.0, 1.0, 60)
        labels = (rng.random(60) < 0.4).astype(int)
        before = probe.auroc(probe.ranked(scores, labels))
        after = probe.auroc(probe.ranked(np.exp(5.0 * scores), labels))
        assert before == pytest.approx(after, abs=1e-12)

    def test_complement_identity_with_ties(self):
        rng = np.random.default_rng(4)
        scores = np.round(rng.uniform(0.0, 1.0, 80), 1)
        labels = (rng.random(80) < 0.5).astype(int)
        total = (probe.auroc(probe.ranked(scores, labels))
                 + probe.auroc(probe.ranked(-scores, labels)))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_against_pairwise_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            n = int(rng.integers(4, 40))
            scores = rng.uniform(0.0, 1.0, n)
            if trial % 2 == 0:
                scores = np.round(scores, 1)
            labels = (rng.random(n) < 0.5).astype(int)
            if labels.min() == labels.max():
                continue
            assert probe.auroc(probe.ranked(scores, labels)) == pytest.approx(
                oracle_auroc(list(scores), list(labels)), abs=1e-12
            )
            assert probe.auprc(probe.ranked(scores, labels)) == pytest.approx(
                oracle_auprc(list(scores), list(labels)), abs=1e-12
            )


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(-1e6, 1e6),
                          st.booleans()), min_size=2, max_size=300))
def test_auprc_equals_the_former_loop(rows):
    scores, labels = zip(*rows)
    assume(0 < sum(labels) < len(labels))
    ranking = probe.ranked(scores, np.array(labels, dtype=int))
    assert probe.auprc(ranking) == oracle_step_auprc(ranking)


class TestTuneThreshold:
    def fitted_model(self):
        rng = np.random.default_rng(6)
        x = np.vstack([rng.normal(-3.0, 0.5, (30, 2)), rng.normal(3.0, 0.5, (30, 2))])
        y = np.array([0] * 30 + [1] * 30)
        return probe.fit_probe(x, y, l2=1e-2), x, y

    def test_separable_dev_reaches_perfect_f1(self):
        model, x, y = self.fitted_model()
        tuned = probe.tune_threshold(model, probe.ranked(model.scores(x), y))
        _, _, f1 = probe.trigger_prf(probe.ranked(tuned.scores(x), y), tuned.threshold)
        assert f1 == 1.0

    def test_zero_threshold_triggers_everything(self):
        model, x, y = self.fitted_model()
        precision, recall, _ = probe.trigger_prf(probe.ranked(model.scores(x), y), 0.0)
        assert recall == 1.0
        assert precision == pytest.approx(np.mean(y))

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0.0, 1.0, size=(100, 3))
        y = ((x[:, 0] + rng.normal(0, 1.2, 100)) > 0).astype(int)
        model = probe.fit_probe(x[:60], y[:60], l2=1e-2)
        tuned = probe.tune_threshold(model, probe.ranked(model.scores(x[60:]), y[60:]))
        scores = tuned.scores(x[60:])
        best = max(
            probe.trigger_prf(probe.ranked(scores, y[60:]), t)[2]
            for t in np.concatenate([[0.0], scores, [1.0]])
        )
        achieved = probe.trigger_prf(probe.ranked(scores, y[60:]), tuned.threshold)[2]
        assert achieved == pytest.approx(best, abs=1e-12)

    def test_needs_both_classes(self):
        model, x, _ = self.fitted_model()
        with pytest.raises(UndefinedMetric):
            probe.tune_threshold(model, probe.ranked(model.scores(x), np.ones(len(x), dtype=int)))


class TestTuneThresholdOracle:
    """`tune_threshold` equals a full recount at every candidate, exactly."""

    MODEL = probe.ProbeModel(layer=0, weights=np.zeros(1), bias=0.0, threshold=0.5,
                             feature_means=np.zeros(1), feature_stds=np.ones(1))

    def check(self, scores, labels):
        if 0 < sum(labels) < len(labels):
            tuned = probe.tune_threshold(self.MODEL, probe.ranked(scores, labels))
            assert tuned.threshold == oracle_tune_threshold(list(scores), list(labels))

    def test_tie_heavy_scores(self):
        rng = np.random.default_rng(11)
        for trial in range(300):
            n = int(rng.integers(2, 40))
            if trial % 2:
                scores = np.round(rng.uniform(0.0, 1.0, n), 1)
            else:
                scores = rng.choice([0.2, 0.5, 0.9], n)
            self.check(scores.tolist(), (rng.random(n) < 0.5).astype(int).tolist())

    def test_adjacent_float_scores(self):
        # the midpoint of two adjacent floats rounds onto one of them
        rng = np.random.default_rng(12)
        for _ in range(300):
            a = float(rng.uniform(0.05, 0.95))
            up = float(np.nextafter(a, 1.0))
            values = [float(np.nextafter(a, 0.0)), a, up, float(np.nextafter(up, 1.0))]
            n = int(rng.integers(2, 30))
            scores = [values[i] for i in rng.integers(0, len(values), n)]
            self.check(scores, (rng.random(n) < 0.5).astype(int).tolist())


class TestExamples:
    def test_emitted_records_with_hidden_states_in_record_order(self, rng):
        records, stacks = planted_stack(rng, layers=(0,), signal_layer=0, n=30)
        lines = rows(records)
        lines.insert(1, prediction("silent", ("a",), "Answer: b"))
        records = predictions(lines)
        stack = {qid: m for qid, m in stacks[0].items() if qid != records["qid"][2]}
        batch = score_predictions(records)
        x, wrong, qids = probe.examples(probe.emitted(records, batch), token_stack(stack))
        kept = [(i, ok) for i, (r, ok) in enumerate(zip(rows(records), batch.correct))
                if r["emissions"] and r["qid"] in stack]
        assert qids == [records["qid"][i] for i, _ in kept] and len(qids) == 29
        assert wrong.tolist() == [0 if ok else 1 for _, ok in kept]
        for row, (i, _) in zip(x, kept):
            one = predictions([rows(records)[i]])
            np.testing.assert_array_equal(row, features(stack[records["qid"][i]], one))

    def test_no_example_rejected(self):
        records = predictions([prediction("q", ("a",), "Answer: a")])
        with pytest.raises(AlignmentError):
            probe.examples(probe.emitted(records, score_predictions(records)),
                           token_stack({"q": np.ones((3, 2))}))

    def test_emitted_takes_only_the_emitted_rows(self):
        records = predictions([
            prediction("a", ("x",), "<uncertain> y\nAnswer: x", emissions=[emission(0, 2)],
                       response_token_count=7),
            prediction("b", ("x",), "Answer: x"),
            prediction("c", ("x",), "<uncertain>\nAnswer: z", emissions=[emission(0)]),
        ])
        inputs = probe.emitted(records, score_predictions(records))
        assert inputs["qid"] == ["a", "c"] and inputs["token_index"] == [2, None]
        assert inputs["wrong"].tolist() == [0, 1]
        assert inputs["scalars"].tolist() == [[7.0, 1.0, 0.0], [3.0, 1.0, 0.0]]


def sweep_inputs(records: dict) -> dict:
    """The `probe.emitted` rows of `records`, as `probe sweep` scores them."""
    return probe.emitted(records, score_predictions(records))


class TestLayerSweep:
    def test_planted_signal_peaks_at_its_layer(self, rng):
        records, stacks = planted_stack(rng, layers=(0, 8, 16), signal_layer=8, n=320)
        rows = probe.layer_sweep(token_stacks(stacks).items(), sweep_inputs(records), seed=0)
        by_layer = {r["layer"]: r for r in rows}
        assert max(by_layer, key=lambda k: by_layer[k]["auroc"]) == 8
        assert by_layer[8]["auroc"] >= 0.95

    def test_identical_stacks_give_identical_metrics(self, rng):
        records, stacks = planted_stack(rng, layers=(0,), signal_layer=0, n=200)
        layer = token_stack(stacks[0])
        cloned = {0: layer, 4: layer, 9: layer}
        rows = probe.layer_sweep(cloned.items(), sweep_inputs(records), seed=0)
        first = rows[0]
        for row in rows[1:]:
            assert (row["auroc"], row["auprc"], row["precision"], row["recall"], row["f1"]) == (
                first["auroc"], first["auprc"], first["precision"], first["recall"], first["f1"],
            )

    def test_rows_sorted_by_layer(self, rng):
        records, stacks = planted_stack(rng, layers=(0, 8), signal_layer=8, n=200)
        layers = token_stacks(stacks)
        rows = probe.layer_sweep({8: layers[8], 0: layers[0]}.items(), sweep_inputs(records),
                                 seed=0)
        assert [r["layer"] for r in rows] == [0, 8]

    def test_layers_with_the_qids_of_the_layer_before_share_its_split(self, rng, monkeypatch):
        records, stacks = planted_stack(rng, layers=(0, 8, 16), signal_layer=8, n=200)
        layers = token_stacks(stacks)
        # layer 16 lacks a qid: its examples, and so its split, differ
        matrix, rows_of = layers[16]
        layers[16] = matrix, {qid: rows for qid, rows in rows_of.items() if qid != "p0003"}
        splits = count_calls(monkeypatch, probe, "split_by_qid")
        rows = probe.layer_sweep(layers.items(), sweep_inputs(records), seed=3)
        assert len(splits) == 2
        monkeypatch.undo()
        # each layer swept alone, so split afresh: the same rows
        for row, (layer, stack) in zip(rows, layers.items()):
            assert probe.layer_sweep([(layer, stack)], sweep_inputs(records), seed=3) == [row]
        assert rows[2]["n_train"] + rows[2]["n_dev"] == rows[0]["n_train"] + rows[0]["n_dev"] - 1


class TestHiddenMatrixAndMatio:
    def test_validation(self, tmp_path):
        # a NaN would stall `probe.auroc`'s tie loop (NaN != NaN), so reading refuses it
        for bad in (np.nan, np.inf, -np.inf):
            path = tmp_path / "layer_0.mat"
            matio.write_matrix(path, np.array([[1.0, bad], [0.0, 2.0]]))
            with pytest.raises(IoError, match="layer_0.mat"):
                matio.read_matrix(path)

    @pytest.mark.parametrize("row", [0, BLOCK_ROWS - 1, BLOCK_ROWS, 2 * BLOCK_ROWS + 2])
    def test_a_value_in_any_block_is_checked(self, tmp_path, row):
        # finiteness is checked a block of rows at a time, the ragged last one included
        values = np.ones((2 * BLOCK_ROWS + 3, 2))
        values[row, 1] = np.nan
        path = tmp_path / "layer_0.mat"
        matio.write_matrix(path, values)
        with pytest.raises(IoError, match="payload holds a NaN or infinite value"):
            matio.read_matrix(path)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        values = rng.normal(size=(5, 3)).astype(np.float32)
        path = tmp_path / "layer_0.mat"
        matio.write_matrix(path, values)
        again = matio.read_matrix(path)
        np.testing.assert_array_equal(values, again)
        header = path.read_bytes().split(b"\n", 1)[0]
        assert header == b"UNCAL-MAT v1 rows=5 dims=3 dtype=f32le"

    def test_sidecar_round_trip(self, tmp_path):
        rows = [{"qid": "a", "token_index": 0}, {"qid": "a", "token_index": 1}]
        path = tmp_path / "layer_0.mat.ids.jsonl"
        jsonio.write_jsonl(path, rows)
        assert matio.read_row_ids(path).records == {"qid": ["a", "a"], "token_index": [0, 1]}

    @pytest.mark.parametrize("bad", ['{"qid": "a",}', '{"qid": "a"} x', ' \ufeff{"qid": "a"}'])
    def test_sidecar_invalid_json_names_line_and_position(self, tmp_path, bad):
        path = tmp_path / "layer_0.mat.ids.jsonl"
        path.write_text('{"qid": "a"}\n\n' + bad + "\n", encoding="utf-8")
        with pytest.raises(json.JSONDecodeError) as want:
            json.loads(bad)
        with pytest.raises(IoError) as got:
            matio.read_row_ids(path)
        assert str(got.value) == f"{path}:3: invalid JSON: {want.value}"

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_bytes(b"UNCAL-MAT v1 rows=2 dims=2 dtype=f32le\n\x00\x00")
        with pytest.raises(IoError):
            matio.read_matrix(path)

    @pytest.mark.parametrize("data, message", [
        (b"UNCAL-MAT v1 rows=1000000000000 dims=1 dtype=f32le\n" + bytes(16),
         "expected 4000000000000 payload bytes, got 16"),
        (b"UNCAL-MAT v1 rows=1 dims=1 dtype=f32le" + bytes(1 << 20),
         "not an UNCAL-MAT v1 file"),
    ], ids=["huge-row-count", "no-newline"])
    def test_refused_before_allocating(self, tmp_path, data, message):
        path = tmp_path / "huge.mat"
        path.write_bytes(data)
        tracemalloc.start()
        try:
            with pytest.raises(IoError) as refused:
                matio.read_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(refused.value) == f"{path}: {message}"
        assert peak < 64 * 1024

    def test_trailing_bytes_refused_with_their_count(self, tmp_path):
        path = tmp_path / "long.mat"
        matio.write_matrix(path, np.ones((2, 2)))
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 3)
        with pytest.raises(IoError) as refused:
            matio.read_matrix(path)
        assert str(refused.value) == f"{path}: expected 16 payload bytes, got 19"

    @pytest.mark.parametrize("shape", [(0, 3), (4, 0), (0, 0)])
    def test_empty_shapes_read(self, tmp_path, shape):
        path = tmp_path / "empty.mat"
        matio.write_matrix(path, np.zeros(shape))
        values = matio.read_matrix(path)
        assert values.shape == shape and values.dtype == np.float32

    def test_pipe_refused(self, tmp_path):
        # a pipe has no size to check against the header before reading
        path = tmp_path / "pipe.mat"
        os.mkfifo(path)

        def feed():
            try:
                with open(path, "wb") as fh:
                    fh.write(b"UNCAL-MAT v1 rows=1 dims=1 dtype=f32le\n" + bytes(4))
            except BrokenPipeError:
                pass

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            with pytest.raises(IoError) as refused:
                matio.read_matrix(path)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert str(refused.value) == f"{path}: not a regular file"


def test_split_by_qid_is_deterministic_and_roughly_80_20():
    qids = [f"q{i}" for i in range(500)]
    train1, dev1 = probe.split_by_qid(qids, seed=0)
    train2, dev2 = probe.split_by_qid(qids, seed=0)
    assert train1 == train2 and dev1 == dev2
    assert 0.7 < len(train1) / 500 < 0.9
    train3, _ = probe.split_by_qid(qids, seed=1)
    assert train3 != train1
