import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uncal
from uncal import cli, jsonio, optim, probe, recal, rewards
from uncal.cli import main
from uncal.errors import DegenerateFit
from uncal.rewards import score_predictions

from conftest import (count_calls, emission, fit_ats, make_record, prediction, predictions,
                      rows)
from oracles import (
    oracle_apply_ats,
    oracle_apply_ts,
    oracle_fit_global_ts,
    oracle_record_confidence,
    oracle_ts_nll,
    prediction_records,
)


def calibrated_batch(rng, t_star, n=4000):
    """The table of `calibrated_lines`."""
    return predictions(calibrated_lines(rng, t_star, n))


def calibrated_lines(rng, t_star, n):
    """Outcomes drawn as Bernoulli(q); stated confidence has its logit
    inflated by t_star, so a fitted temperature should recover t_star."""
    records = []
    for i in range(n):
        q = float(rng.uniform(0.05, 0.95))
        outcome = bool(rng.random() < q)
        logit = math.log(q / (1.0 - q))
        conf = 1.0 / (1.0 + math.exp(-logit * t_star))
        records.append(make_record(f"q{i}", conf, outcome))
    return records


def length_overconfident_batch(rng, n=3000):
    """Long responses carry logits inflated x3, short ones are calibrated."""
    records = []
    for i in range(n):
        q = float(rng.uniform(0.1, 0.9))
        outcome = bool(rng.random() < q)
        long = i % 2 == 0
        t_gen = 3.0 if long else 1.0
        logit = math.log(q / (1.0 - q))
        conf = 1.0 / (1.0 + math.exp(-logit * t_gen))
        words = "pad " * (200 if long else 10)
        text = f"{words.strip()}\nAnswer: {'alpha' if outcome else 'omega'}"
        records.append(prediction(f"q{i}", ("alpha",), text, verbal_confidence=conf,
                                  response_token_count=len(text.split())))
    return predictions(records)


class TestGlobalTs:
    def test_calibrated_batch_recovers_unit_temperature(self, rng):
        model = recal.fit_global_ts(score_predictions(calibrated_batch(rng, 1.0, n=10000)))
        assert 0.95 <= model.temperature <= 1.05

    def test_inflated_logits_recover_doubling(self, rng):
        model = recal.fit_global_ts(score_predictions(calibrated_batch(rng, 2.0, n=10000)))
        assert abs(model.temperature - 2.0) / 2.0 < 0.1

    def test_underconfident_logits_reach_below_the_ats_floor(self, rng):
        # the ATS form without features stalls at its 0.05 floor here (NLL
        # 0.562 against 0.542); global scaling over log(1/T) has no floor
        model = recal.fit_global_ts(score_predictions(calibrated_batch(rng, 0.03, n=10000)))
        assert model.temperature < recal.ATS_TEMPERATURE_FLOOR
        assert abs(model.temperature - 0.03) / 0.03 < 0.1

    def test_identity_application(self):
        confs = [0.1, 0.4, 0.5, 0.77]
        for c, mapped in zip(confs, recal.apply_ts(recal.TsModel(1.0), np.array(confs))):
            assert mapped == pytest.approx(c, abs=1e-12)

    def test_fixed_point_at_half(self):
        for t in (0.3, 1.0, 5.0):
            [mapped] = recal.apply_ts(recal.TsModel(t), np.array([0.5]))
            assert mapped == pytest.approx(0.5, abs=1e-12)

    def test_hand_value(self):
        assert recal.apply_ts(recal.TsModel(2.0), np.array([0.9]))[0] == pytest.approx(
            1.0 / (1.0 + math.exp(-math.log(9.0) / 2.0)), abs=1e-12
        )

    def test_large_temperature_flattens(self):
        [mapped] = recal.apply_ts(recal.TsModel(140.0), np.array([0.9]))
        assert mapped == pytest.approx(0.5, abs=0.01)

    def test_monotone_in_confidence(self):
        model = recal.TsModel(2.7)
        grid = np.linspace(0.01, 0.99, 50)
        mapped = recal.apply_ts(model, grid).tolist()
        assert all(a < b for a, b in zip(mapped, mapped[1:]))

    def test_temperature_stays_in_search_range(self, rng):
        for seed in range(5):
            batch = calibrated_batch(np.random.default_rng(seed), 1.0, n=60)
            model = recal.fit_global_ts(score_predictions(batch))
            assert math.exp(-5.0) <= model.temperature <= math.exp(5.0)

    def test_fitted_nll_never_worse_than_identity(self, rng):
        for t_star in (0.5, 1.0, 2.0, 4.0):
            batch = calibrated_batch(rng, t_star, n=800)
            model = recal.fit_global_ts(score_predictions(batch))
            assert model.fit_nll <= oracle_ts_nll(recal.TsModel(1.0), batch)

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateFit):
            recal.fit_global_ts(score_predictions(predictions(
                [make_record("a", 0.5, True), make_record("b", 0.6, True)])))

    def test_saturated_confidences_rejected(self):
        with pytest.raises(DegenerateFit):
            recal.fit_global_ts(score_predictions(predictions(
                [make_record("a", 0.0, False), make_record("b", 1.0, True)]
            )))


class TestGlobalTsAgainstGoldenSection:
    """The fit through `optim.minimize` against the golden-section search it
    replaced (`oracles.oracle_fit_global_ts`), on seeded planted batches."""

    @pytest.mark.parametrize("n", [20, 100, 1000, 5000])
    @pytest.mark.parametrize("t_star", [0.03, 0.1, 0.5, 1.0, 2.0, 4.0, 10.0])
    def test_temperature_and_nll_match_the_oracle(self, n, t_star):
        rng = np.random.default_rng([n, round(100 * t_star)])
        batch = score_predictions(calibrated_batch(rng, t_star, n=n))
        model = recal.fit_global_ts(batch)
        oracle = oracle_fit_global_ts(batch)
        assert abs(model.temperature - oracle.temperature) <= 1e-4 * oracle.temperature
        assert model.fit_nll <= oracle.fit_nll + 1e-9
        assert model.fit.converged

    @pytest.mark.parametrize("n", [20, 2000])
    @pytest.mark.parametrize("correct_above", [True, False])
    def test_separable_batch_stops_at_a_finite_temperature(self, n, correct_above):
        # every correct record is more (or less) confident than every wrong
        # one, on the other side of 0.5: no finite T maximizes the likelihood,
        # and the NLL falls as T goes to 0 (or to infinity)
        rng = np.random.default_rng(n)
        records = []
        for i in range(n):
            correct = i % 2 == 0
            high = float(rng.uniform(0.55, 0.99))
            conf = high if correct == correct_above else 1.0 - high
            records.append(make_record(f"q{i}", conf, correct))
        records = predictions(records)
        model = recal.fit_global_ts(score_predictions(records))
        assert 0.0 < model.temperature < math.inf
        assert (model.temperature < 1.0) == correct_above
        assert model.fit_nll <= oracle_ts_nll(recal.TsModel(1.0), records)
        assert model.fit.converged


class TestAts:
    def test_large_l2_degenerates_to_global_ts(self, rng):
        # l2 high enough to pin the weights, up to an extreme value
        batch = calibrated_batch(rng, 2.0, n=1500)
        ts_model = recal.fit_global_ts(score_predictions(batch))
        for l2 in (8.0, 1e3):
            ats_model = fit_ats(batch, score_predictions(batch), l2=l2)
            assert max(abs(w) for w in ats_model.weights) < 1e-2
            assert abs(ats_model.fit_nll - ts_model.fit_nll) < 1e-3

    def test_zero_variance_feature_keeps_zero_weight(self, rng):
        records = predictions([
            prediction(f"s{i}", ("alpha",), f"one two\nAnswer: {'alpha' if i % 3 else 'omega'}",
                       verbal_confidence=float(rng.uniform(0.2, 0.8)), response_token_count=5)
            for i in range(40)
        ])
        model = fit_ats(records, score_predictions(records), l2=0.0)
        # length, answer length, and depth are constant across the batch
        assert model.weights[1] == 0.0
        assert model.weights[2] == 0.0
        assert model.weights[3] == 0.0

    def test_planted_length_overconfidence_beats_global_ts(self, rng):
        batch = length_overconfident_batch(rng)
        ts_model = recal.fit_global_ts(score_predictions(batch))
        ats_model = fit_ats(batch, score_predictions(batch), l2=0.0)
        assert ats_model.fit_nll < ts_model.fit_nll - 0.01

    def test_dominates_global_ts_with_no_regularization(self):
        for seed in (1, 2, 3, 4):
            batch = calibrated_batch(np.random.default_rng(seed), 2.0, n=600)
            ts_model = recal.fit_global_ts(score_predictions(batch))
            ats_model = fit_ats(batch, score_predictions(batch), l2=0.0)
            assert ats_model.fit_nll <= ts_model.fit_nll + 1e-9

    def test_temperature_floor_respected(self, rng):
        batch = calibrated_batch(rng, 0.5, n=300)
        model = fit_ats(batch, score_predictions(batch), l2=0.0)
        # the temperatures whose NLL the fit reports as `fit_nll`
        scores = score_predictions(batch)
        _, logits, _ = recal._fit_rows(scores)
        phi, _, _ = optim.standardize(np.column_stack([
            logits, recal.ats_features(batch, scores.confidence)]))
        for t in recal._temperatures(model, phi)[:50]:
            assert t >= recal.ATS_TEMPERATURE_FLOOR

    def test_length_feature_is_the_token_count_as_loaded(self):
        # an explicit 0 stays 0, as in the probe's features; only an absent
        # count is the whitespace count, filled by the loader
        table = predictions([
            prediction(f"q{i}", ("a",), "one two three", emissions=[emission(0, 0)], **count)
            for i, count in enumerate([{"response_token_count": 0}, {},
                                       {"response_token_count": 7}])])
        lengths = recal.ats_features(table, np.zeros(3))[:, 0]
        assert lengths.tolist() == [0.0, 3.0, 7.0]
        inputs = probe.emitted(table, score_predictions(table))
        assert lengths.tolist() == inputs["scalars"][:, 0].tolist()


def recal_ptrue(tmp_path, lines) -> dict:
    """The table of the prediction lines `lines` after `uncal recal ptrue`."""
    src = tmp_path / "in.jsonl"
    out = tmp_path / "out.jsonl"
    jsonio.write_jsonl(src, lines)
    assert main(["recal", "ptrue", "--in", str(src), "--out", str(out)]) == 0
    return jsonio.load_lines(out, jsonio.PREDICTIONS).records


@pytest.mark.parametrize("bad", [1.5, -0.1, float("nan")])
def test_recalibrated_confidence_outside_unit_interval_refused(tmp_path, monkeypatch, bad):
    # a new confidence is range-checked before any line is written
    monkeypatch.setattr(recal, "apply_ts", lambda model, conf: np.full(len(conf), bad))
    out = tmp_path / "out.jsonl"
    out.write_text("old\n")
    fixture = str(uncal.fixture_path("preds20.jsonl"))
    assert main(["recal", "ts", "--fit", fixture, "--apply", fixture, "--out", str(out)]) == 1
    assert out.read_text() == "old\n"


class TestPtrue:
    def test_pass_through_extremes(self, tmp_path):
        records = [prediction(f"q{i}", ("x",), "Answer: x", verbal_confidence=0.5, p_affirmative=p)
                   for i, p in enumerate((1.0, 0.397, 0.0))]
        out = recal_ptrue(tmp_path, records)
        assert out["verbal_confidence"] == [1.0, 0.397, 0.0]

    def test_range_validated(self, tmp_path):
        # the loader's table is the check `recal ptrue` relies on
        good = {"qid": "q", "gold_answers": ["x"], "response_text": "Answer: x"}
        path = tmp_path / "in.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(good | {"p_affirmative": 1.2}) + "\n")
        assert jsonio.load_lines(path, jsonio.PREDICTIONS).errors == [(2, "p_affirmative outside [0,1]")]

    def test_batch_replacement_reduces_overconfident_wrong(self, tmp_path):
        # wrong answers carry low affirmative probability in this fixture
        records = []
        for i in range(40):
            correct = i % 2 == 0
            records.append(prediction(f"q{i}", ("alpha",),
                                      f"Answer: {'alpha' if correct else 'omega'}",
                                      verbal_confidence=0.9, p_affirmative=0.8 if correct else 0.2))

        def overconfident_wrong(confs):
            return sum(
                1
                for c, r in zip(confs, records)
                if c > 0.7 and r["gold_answers"][0] not in r["response_text"].lower()
            )

        before = overconfident_wrong([r["verbal_confidence"] for r in records])
        after = overconfident_wrong(recal_ptrue(tmp_path, records)["verbal_confidence"])
        assert before == 20 and after == 0


def test_rank_order_preserved_under_ts(rng):
    batch = calibrated_batch(rng, 2.0, n=200)
    model = recal.fit_global_ts(score_predictions(batch))
    confs = batch["verbal_confidence"]
    mapped = recal.apply_ts(model, np.array(confs))
    assert np.array_equal(np.argsort(confs, kind="stable"), np.argsort(mapped, kind="stable"))


def test_fits_score_each_record_once(rng, monkeypatch, tmp_path):
    # the command scores its fit file once; the fits read those columns and
    # score nothing themselves
    lines = [*calibrated_lines(rng, 1.5, n=200), make_record("unparsed", None, True)]
    records = predictions(lines)
    batch = score_predictions(records)
    matches = count_calls(monkeypatch, rewards, "match_answer")
    confidences = count_calls(monkeypatch, rewards, "confidences")
    parsed = count_calls(monkeypatch, rewards, "extract_confidence")
    recal.fit_global_ts(batch)
    fit_ats(records, batch, l2=0.01)
    assert len(matches) == len(confidences) == len(parsed) == 0
    fit, apply = tmp_path / "fit.jsonl", tmp_path / "apply.jsonl"
    jsonio.write_jsonl(fit, lines)
    jsonio.write_jsonl(apply, lines[:1])
    for kind in ("ts", "ats"):
        assert main(["recal", kind, "--fit", str(fit), "--apply", str(apply),
                     "--out", str(tmp_path / "out.jsonl")]) == 0
    # each fit row once per process: `ats` reads the verdicts `ts` kept. The
    # confidence column of the fit file once per command, reading the text of
    # the one row without a stated confidence, and that of the apply file too
    assert len(matches) == len(lines)
    assert len(confidences) == 2 + 2 and len(parsed) == 2
    # a lone command scores its fit file once
    cli._CACHE.clear()
    assert main(["recal", "ats", "--fit", str(fit), "--apply", str(apply),
                 "--out", str(tmp_path / "out.jsonl")]) == 0
    assert len(matches) == 2 * len(lines)
    assert len(confidences) == 4 + 2 and len(parsed) == 3


def test_ats_cli_default_l2_keeps_weights_finite_scale(tmp_path):
    # unpenalized, the 19 usable fixture records have no finite minimizer:
    # the weights ran into the thousands while the fit reported convergence
    fixture = str(uncal.fixture_path("preds20.jsonl"))
    model = tmp_path / "ats.json"
    assert main(["recal", "ats", "--fit", fixture, "--apply", fixture,
                 "--out", str(tmp_path / "out.jsonl"), "--model-out", str(model)]) == 0
    report = json.loads(model.read_text())
    assert report["l2"] == recal.DEFAULT_ATS_L2
    assert max(abs(w) for w in report["weights"]) < 10


# apply records: confidences from a pool with 0 and 1 in it, stated in the
# field or in the text or not at all; answers explicit, on an answer line or
# absent; token counts absent (whitespace tokens are counted), 0 or given
_POOL = st.sampled_from([0.0, 1.0, 0.05, 0.5, 0.9]) | st.floats(0.0, 1.0)


@st.composite
def _apply_records(draw) -> list[dict]:
    records = []
    for i in range(draw(st.integers(1, 12))):
        conf = draw(st.none() | _POOL)
        in_text = conf is not None and draw(st.booleans())
        lines = ["step"] * draw(st.integers(0, 3))
        if draw(st.booleans()):
            lines.append(f"Answer: {draw(st.sampled_from(['alpha', 'omega', 'a b c', '']))}")
        if in_text:
            lines.append(f"Confidence: {conf!r}")
        records.append(prediction(
            f"q{i}", ("alpha",), "\n".join(lines),
            extracted_answer=draw(st.none() | st.sampled_from(["alpha", "xyz", ""])),
            verbal_confidence=None if in_text else conf,
            response_token_count=draw(st.sampled_from([None, 0, 3, 250])),
            p_affirmative=draw(st.none() | _POOL),
        ))
    return records


FIT_FILE = str(uncal.fixture_path("preds20.jsonl"))
FIT_RECORDS = jsonio.load_lines(FIT_FILE, jsonio.PREDICTIONS).records


def _recal_lines(records, kind: str) -> tuple[dict, list[str]]:
    """The apply file's table as loaded, and the lines `uncal recal <kind>`
    writes for it, fitted on the bundled fixture."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "apply.jsonl", Path(tmp) / "out.jsonl"
        jsonio.write_jsonl(path, records)
        argv = (["recal", "ptrue", "--in", str(path)] if kind == "ptrue"
                else ["recal", kind, "--fit", FIT_FILE, "--apply", str(path)])
        assert main(argv + ["--out", str(out)]) == 0
        return jsonio.load_lines(path, jsonio.PREDICTIONS).records, out.read_text().splitlines()


def _former_line(row: dict, conf) -> str:
    """A line as the per-record writer wrote it: unchanged without a new
    confidence, else with `verbal_confidence` replaced."""
    if conf is None:
        return jsonio.encode(jsonio.PREDICTION, row)
    return jsonio.encode(jsonio.PREDICTION, {**row, "verbal_confidence": conf})


def _ats_tolerance(model, record) -> float:
    """How far the applied ATS confidence of `record` may move when only the
    summation order of its temperature's dot product u = phi . w + b does.
    Either order is within gamma_5 * (sum |phi_k w_k| + |b|) of the exact
    value (4 products and 5 terms, gamma_5 = 5 eps / (1 - 5 eps)), so the
    two differ by at most twice that; T = softplus(u) + floor moves by at most
    sigmoid(u) times that, and sigmoid(L/T) by p (1 - p) |L| / T^2 times T's
    move. 4 ulp of T and 4 ulp of the result cover the remaining roundings."""
    conf = np.array([oracle_record_confidence(record)])
    logit = recal._logits(conf)
    one = predictions([{**vars(record), "emissions": None, "match": None}])
    raw = np.column_stack([logit, recal.ats_features(one, conf)])[0]
    terms = (raw - model.feature_means) / model.feature_stds * model.weights
    eps = np.finfo(float).eps / 2
    du = 2 * 5 * eps / (1 - 5 * eps) * (np.abs(terms).sum() + abs(model.bias))
    u = terms.sum() + model.bias
    t = float(recal._softplus(u)) + recal.ATS_TEMPERATURE_FLOOR
    dt = float(optim.sigmoid(u)) * du + 4 * np.spacing(t)
    p = float(optim.sigmoid(logit[0] / t))
    return p * (1 - p) * abs(logit[0]) / t**2 * dt + 4 * np.spacing(p)


class TestColumnsEqualFormerPerRecordValues:
    TS_MODEL = recal.fit_global_ts(score_predictions(FIT_RECORDS))
    ATS_MODEL = fit_ats(FIT_RECORDS, score_predictions(FIT_RECORDS))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.none() | _POOL | st.just(float("nan")), max_size=20))
    def test_apply_ts_column(self, confs):
        column = np.array(confs, dtype=float)
        got = recal.apply_ts(self.TS_MODEL, column)
        for c, mapped in zip(column.tolist(), got.tolist()):
            if math.isnan(c):
                assert math.isnan(mapped)
            else:
                assert mapped == oracle_apply_ts(self.TS_MODEL, c)

    @settings(max_examples=60, deadline=None)
    @given(_apply_records())
    def test_ts_lines(self, records):
        loaded, lines = _recal_lines(records, "ts")
        assert lines == [
            _former_line(r, None if c is None else oracle_apply_ts(self.TS_MODEL, c))
            for r, c in zip(rows(loaded),
                            map(oracle_record_confidence, prediction_records(loaded)))]

    @settings(max_examples=60, deadline=None)
    @given(_apply_records())
    def test_ptrue_lines(self, records):
        loaded, lines = _recal_lines(records, "ptrue")
        assert lines == [_former_line(r, r["p_affirmative"]) for r in rows(loaded)]

    @settings(max_examples=40, deadline=None)
    @given(_apply_records())
    def test_ats_lines_within_the_dot_product_rounding(self, records):
        loaded, lines = _recal_lines(records, "ats")
        assert len(lines) == len(loaded["qid"])
        for row, record, line in zip(rows(loaded), prediction_records(loaded), lines):
            if oracle_record_confidence(record) is None:
                assert line == _former_line(row, None)
                continue
            got = json.loads(line)["verbal_confidence"]
            former = oracle_apply_ats(self.ATS_MODEL, record)
            assert abs(got - former) <= _ats_tolerance(self.ATS_MODEL, record)
            assert line == _former_line(row, got)

    @pytest.mark.parametrize("kind", ["ts", "ats", "ptrue"])
    def test_no_usable_confidence_writes_every_line_unchanged(self, kind, capsys):
        records = [prediction(f"q{i}", ("alpha",), "Answer: alpha") for i in range(3)]
        loaded, lines = _recal_lines(records, kind)
        assert lines == [_former_line(r, None) for r in rows(loaded)]
        missing = "p_affirmative" if kind == "ptrue" else "parseable confidence"
        fitted = ("" if kind == "ptrue"
                  else f"{FIT_FILE}: clamped 1 confidence values outside [0,1]\n")
        assert capsys.readouterr().err == fitted + f"skipped 3 records without {missing}\n"
        column, _ = rewards.confidences(loaded)
        assert np.isnan(recal.apply_ats(self.ATS_MODEL, loaded, column)).all()
