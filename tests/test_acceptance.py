"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import functools
import json
import math
import time

import numpy as np

import uncal
from uncal import calib, jsonio, matio, probe, ragctl, recal, reprgeo
from uncal import trajspace as ts
from uncal.cli import main
from uncal.ragctl import ControllerPolicy, PolicyKind
from uncal.rewards import GoldSet, match_answer, score_predictions

from conftest import (
    fit_ats,
    load,
    make_record,
    planted_stack,
    prediction,
    predictions,
    random_batch,
    random_rag_batch,
    random_space,
    rows as table_rows,
    run_policy,
    sweep_threshold,
    token_stacks,
)
from oracles import (
    oracle_auprc,
    oracle_auroc,
    oracle_ausc,
    oracle_brier,
    oracle_ece,
    oracle_nll,
    oracle_trigger_counts,
    oracle_ts_nll,
)

SEED = 20260809


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\n[FAIL] criterion {number}: {description}")
                raise
            elapsed = time.perf_counter() - started
            print(f"\n[PASS] criterion {number}: {description} ({elapsed:.2f}s)")
            return result

        return wrapper

    return decorate


def _space_batch(lines) -> ts.SpaceBatch:
    return ts.space_batch(load(jsonio.SPACES, lines))


@criterion(1, "theory suite: log-odds law, mass-ratio bound, compression ordering")
def test_theory_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    eta = 1.0
    batch = _space_batch([random_space(rng) for _ in range(1000)])
    tilted = ts.tilt(batch, eta)
    for space, (start, size) in enumerate(zip(batch.starts.tolist(), batch.sizes.tolist())):
        p0 = batch.base_prob[start:start + size]
        p1 = tilted.base_prob[start:start + size]
        rewards = batch.reward[start:start + size]

        # one-step log-odds law, all pairs, 1e-10
        log0 = np.log(p0)
        log1 = np.log(p1)
        measured = (log1[:, None] - log1[None, :]) - (log0[:, None] - log0[None, :])
        expected = eta * (rewards[:, None] - rewards[None, :])
        assert np.max(np.abs(measured - expected)) < 1e-10

        # support preservation on every space
        assert np.array_equal(p0 > 0, p1 > 0)

        # compression ordering among wrong and among correct trajectories; a
        # batch holds a space's correct trajectories first
        ratios = p1 / p0
        confidence = batch.confidence[start:start + size]
        gold = batch.first_group[space]
        correct = np.arange(size) < batch.groups[gold + 1] - batch.groups[gold]
        wrong = list(zip(confidence[~correct], ratios[~correct]))
        for c1, r1 in wrong:
            for c2, r2 in wrong:
                if c1 > c2:
                    assert r1 < r2
        right = list(zip(confidence[correct], ratios[correct]))
        for c1, r1 in right:
            for c2, r2 in right:
                if c1 > c2:
                    assert r1 > r2

    # answer-mass ratio bound wherever the hypothesis applies
    checked = [c for c in ts.verify_bounds(batch, eta) if c["status"] == "ok"]
    assert all(c["holds"] and c["support_preserved"] for c in checked)
    assert len(checked) >= 500, f"only {len(checked)} spaces met the bound hypothesis"
    assert time.perf_counter() - started < 5.0


@criterion(2, "frozen margin-flip fixture crosses zero under one tilt")
def test_margin_flip_fixture():
    started = time.perf_counter()
    batch = _space_batch([{"gold_answer": "A", "trajectories": [
        {"id": "z1", "answer": "A", "confidence": 0.9, "base_prob": 0.3},
        {"id": "z2", "answer": "B", "confidence": 0.8, "base_prob": 0.7},
    ]}])
    [pre] = ts.summarize(batch)
    assert pre["margin"] <= 0.0
    assert pre["margin"] == -0.2899999999999999  # frozen: 0.3*0.9 - 0.7*0.8
    [post] = ts.summarize(ts.tilt(batch, 2.0))
    assert post["margin"] > 0.0
    w1 = 0.3 * math.exp(1.8)
    w2 = 0.7 * math.exp(-1.6)
    assert abs(post["margin"] - (0.9 * w1 - 0.8 * w2) / (w1 + w2)) < 1e-12
    assert time.perf_counter() - started < 1.0


@criterion(3, "k sequential tilts equal one tilt at k*eta within 1e-10")
def test_tilt_composition():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(100):
        batch = _space_batch([random_space(rng)])
        k = int(rng.integers(2, 6))
        eta = float(rng.uniform(0.05, 1.5))
        stepped = batch
        for _ in range(k):
            stepped = ts.tilt(stepped, eta)
        direct = ts.tilt(batch, k * eta)
        assert np.max(np.abs(stepped.base_prob - direct.base_prob)) < 1e-10


@criterion(4, "metrics agree with independent brute-force oracles on 100 batches")
def test_metric_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED + 2)
    for trial in range(100):
        records, rows = random_batch(rng, int(rng.integers(3, 40)), with_ties=trial % 3 == 0)
        pairs = [(c, y) for c, y, _ in rows]
        metrics = calib.calibration_report(score_predictions(records), 10, 1e-6)
        assert abs(metrics["ece"] - oracle_ece(pairs, 10)) < 1e-12
        assert abs(metrics["brier"] - oracle_brier(pairs)) < 1e-12
        assert abs(metrics["nll"] - oracle_nll(pairs, 1e-6)) < 1e-12
        assert abs(metrics["ausc"] - oracle_ausc(rows)) < 1e-12

        scores = [c for c, _, _ in rows]
        labels = [0 if y else 1 for _, y, _ in rows]
        if 0 < sum(labels) < len(labels):
            ranking = probe.ranked(scores, labels)
            assert abs(probe.auroc(ranking) - oracle_auroc(scores, labels)) < 1e-12
            assert abs(probe.auprc(ranking) - oracle_auprc(scores, labels)) < 1e-12

        traces = random_rag_batch(rng, int(rng.integers(2, 25)))
        policy = ControllerPolicy(PolicyKind.CONFIDENCE_THRESHOLD, float(rng.uniform(0.0, 1.0)))
        report = run_policy(policy, traces)
        decisions = ragctl.decide(policy, ragctl.score_traces(traces)).tolist()
        lines = table_rows(traces)
        noret_ok = [match_answer(r["noret_answer"], GoldSet(r["gold_answers"])).correct
                    for r in lines]
        final_ok = [
            match_answer(r["ret_answer"] if d else r["noret_answer"],
                         GoldSet(r["gold_answers"])).correct
            for d, r in zip(decisions, lines)
        ]
        counts = oracle_trigger_counts(decisions, noret_ok, final_ok)
        assert report["n"] == counts["n"]
        assert report["triggered"] == counts["triggered"]
        assert report["noret_wrong"] == counts["noret_wrong"]
        assert report["triggered_and_wrong"] == counts["triggered_and_wrong"]
        if report["triggered"]:
            assert report["trigger_precision"] == (
                counts["triggered_and_wrong"] / counts["triggered"]
            )
            assert report["wrong_within_triggered"] == (
                counts["final_wrong_in_triggered"] / counts["triggered"]
            )
        if report["noret_wrong"]:
            assert report["trigger_recall"] == (
                counts["triggered_and_wrong"] / counts["noret_wrong"]
            )
        if counts["n"] - counts["triggered"]:
            assert report["untouched_accuracy"] == (
                counts["untouched_correct"] / (counts["n"] - counts["triggered"])
            )
    assert time.perf_counter() - started < 30.0


@criterion(5, "temperature recovery within 10% at T* in {0.5, 1, 2, 4}")
def test_temperature_recovery():
    for offset, t_star in enumerate((0.5, 1.0, 2.0, 4.0)):
        rng = np.random.default_rng(SEED + 10 + offset)
        records = []
        for i in range(10000):
            q = float(rng.uniform(0.05, 0.95))
            outcome = bool(rng.random() < q)
            logit = math.log(q / (1.0 - q))
            conf = 1.0 / (1.0 + math.exp(-logit * t_star))
            records.append(make_record(f"q{i}", conf, outcome))
        records = predictions(records)
        model = recal.fit_global_ts(score_predictions(records))
        assert abs(model.temperature - t_star) / t_star < 0.10
        assert model.fit_nll <= oracle_ts_nll(recal.TsModel(1.0), records)


@criterion(6, "ATS at l2=0 never trails global TS; beats it on the planted batch")
def test_ats_dominance():
    for seed in range(5):
        rng = np.random.default_rng(SEED + 20 + seed)
        records = []
        for i in range(1200):
            q = float(rng.uniform(0.05, 0.95))
            outcome = bool(rng.random() < q)
            logit = math.log(q / (1.0 - q))
            conf = 1.0 / (1.0 + math.exp(-logit * float(rng.choice([0.7, 1.0, 2.0]))))
            records.append(make_record(f"q{i}", conf, outcome))
        records = predictions(records)
        ts_model = recal.fit_global_ts(score_predictions(records))
        ats_model = fit_ats(records, score_predictions(records), l2=0.0)
        assert ats_model.fit_nll <= ts_model.fit_nll + 1e-9

    rng = np.random.default_rng(SEED + 30)
    planted = []
    for i in range(3000):
        q = float(rng.uniform(0.1, 0.9))
        outcome = bool(rng.random() < q)
        t_gen = 3.0 if i % 2 == 0 else 1.0
        logit = math.log(q / (1.0 - q))
        conf = 1.0 / (1.0 + math.exp(-logit * t_gen))
        words = "pad " * (200 if i % 2 == 0 else 10)
        text = f"{words.strip()}\nAnswer: {'alpha' if outcome else 'omega'}"
        planted.append(prediction(f"q{i}", ("alpha",), text, verbal_confidence=conf,
                                  response_token_count=len(text.split())))
    planted = predictions(planted)
    ts_model = recal.fit_global_ts(score_predictions(planted))
    ats_model = fit_ats(planted, score_predictions(planted), l2=0.0)
    assert ats_model.fit_nll <= ts_model.fit_nll + 1e-9
    assert ts_model.fit_nll - ats_model.fit_nll >= 0.01


@criterion(7, "layer sweep peaks at the planted layer; null layers near chance")
def test_probe_planted_signal_sweep():
    rng = np.random.default_rng(SEED)
    records, stacks = planted_stack(rng, layers=(0, 8, 16), signal_layer=8, n=600)
    rows = probe.layer_sweep(token_stacks(stacks).items(),
                             probe.emitted(records, score_predictions(records)), seed=0)
    by_layer = {r["layer"]: r["auroc"] for r in rows}
    assert max(by_layer, key=by_layer.get) == 8
    assert by_layer[8] >= 0.95
    for null_layer in (0, 16):
        assert 0.4 <= by_layer[null_layer] <= 0.6


@criterion(8, "Always/Never reproduce Ret-All/No-Ret; trigger rate monotone in tau")
def test_controller_identities():
    fixture = jsonio.load_lines(uncal.fixture_path("ragtraces20.jsonl"), jsonio.RAG_TRACES).records
    assert len(fixture["qid"]) == 20

    def accounting(table, decisions):
        n = len(table["qid"])
        em = 0
        f1_total = 0.0
        for decide, record in zip(decisions, table_rows(table)):
            answer = record["ret_answer"] if decide else record["noret_answer"]
            result = match_answer(answer, GoldSet(record["gold_answers"]))
            em += 1 if (result.correct and result.rule.value == "ExactMatch") else 0
            f1_total += result.f1
        return em / n, f1_total / n, sum(decisions) / n

    always = run_policy(ControllerPolicy(PolicyKind.ALWAYS), fixture)
    em, f1, rate = accounting(fixture, [True] * 20)
    assert (always["final_em"], always["final_f1"], always["trigger_rate"]) == (em, f1, rate)
    assert always["trigger_rate"] == 1.0 and always["trigger_recall"] == 1.0

    never = run_policy(ControllerPolicy(PolicyKind.NEVER), fixture)
    em, f1, rate = accounting(fixture, [False] * 20)
    assert (never["final_em"], never["final_f1"], never["trigger_rate"]) == (em, f1, rate)
    assert never["trigger_rate"] == 0.0 and never["trigger_recall"] == 0.0

    rng = np.random.default_rng(SEED + 40)
    grid = [i / 20 for i in range(21)]
    for _ in range(50):
        records = random_rag_batch(rng, int(rng.integers(5, 40)))
        reports = sweep_threshold(PolicyKind.CONFIDENCE_THRESHOLD, records, grid)
        rates = [r["trigger_rate"] for _, r in reports]
        assert all(a <= b for a, b in zip(rates, rates[1:]))


@criterion(9, "CKA/KL/PCA invariances at their stated tolerances")
def test_representation_invariances():
    rng = np.random.default_rng(SEED + 50)
    x = rng.normal(size=(60, 10))
    for _ in range(20):
        q, _ = np.linalg.qr(rng.normal(size=(10, 10)))
        s = float(rng.uniform(0.05, 20.0))
        assert abs(reprgeo.linear_cka(x, s * (x @ q)) - 1.0) < 1e-8

    lines = [json.dumps({"position": i, "base_probs": rng.dirichlet(np.ones(6)).tolist(),
                         "calibrated_probs": rng.dirichlet(np.ones(6)).tolist()})
             for i in range(30)]
    pairs, errors, _ = jsonio.read_lines(lines, jsonio.scored_kl_pairs(reprgeo.KL_EPSILON))
    assert errors == []
    types = list(reprgeo.TokenType)
    annotations = {"position": list(range(30)), "type": [types[i % len(types)] for i in range(30)]}
    table = reprgeo.kl_by_type(pairs, annotations)
    assert abs(sum(row["mass_fraction"] for row in table.values()) - 1.0) < 1e-9

    direction = np.array([2.0, -1.0, 0.5, 3.0])
    line = rng.normal(size=(80, 1)) * direction
    result = reprgeo.pca_project(line, 1)
    assert abs(result.explained_variance_ratio[0] - 1.0) < 1e-8


@criterion(10, "every CLI subcommand is byte-deterministic for a fixed seed")
def test_cli_determinism(tmp_path):
    preds = str(uncal.fixture_path("preds20.jsonl"))
    traces = str(uncal.fixture_path("ragtraces20.jsonl"))

    spaces = tmp_path / "spaces.jsonl"
    rng = np.random.default_rng(SEED)
    with open(spaces, "w") as fh:
        for _ in range(5):
            fh.write(jsonio.encode(jsonio.SPACE, random_space(rng)) + "\n")

    records, stacks = planted_stack(
        np.random.default_rng(SEED + 60), layers=(0, 8), signal_layer=8, n=120
    )
    hidden = tmp_path / "hidden"
    hidden.mkdir()
    for layer, per_qid in stacks.items():
        mats, ids = [], []
        for qid in sorted(per_qid):
            mats.append(per_qid[qid])
            ids.extend({"qid": qid, "token_index": t} for t in range(per_qid[qid].shape[0]))
        matio.write_matrix(hidden / f"layer_{layer}.mat", np.vstack(mats))
        matio.write_row_ids(hidden / f"layer_{layer}.mat.ids.jsonl", ids)
    probe_preds = tmp_path / "probe_preds.jsonl"
    jsonio.write_jsonl(probe_preds, jsonio.encode_lines(jsonio.PREDICTION, records))

    x = np.random.default_rng(SEED + 61).normal(size=(30, 5))
    matio.write_matrix(tmp_path / "x.mat", x)
    matio.write_matrix(tmp_path / "y.mat", 1.5 * x)
    pairs_path = tmp_path / "pairs.jsonl"
    ann_path = tmp_path / "ann.jsonl"
    with open(pairs_path, "w") as fh, open(ann_path, "w") as ann:
        for i in range(4):
            p = np.random.default_rng(SEED + 70 + i).dirichlet(np.ones(3))
            q = np.random.default_rng(SEED + 80 + i).dirichlet(np.ones(3))
            fh.write(jsonio.dumps_canonical({
                "position": i,
                "base_probs": [float(v) for v in p],
                "calibrated_probs": [float(v) for v in q],
            }) + "\n")
            ann.write(jsonio.dumps_canonical(
                {"position": i, "type": "ConfidenceDigit"}) + "\n")

    invocations = [
        (["theory", "verify", "--in", str(spaces), "--eta", "1.0"], ["tv.jsonl"]),
        (["theory", "iterate", "--in", str(spaces), "--eta", "0.5", "--steps", "3"], ["ti.jsonl"]),
        (["match", "--in", preds], ["m.jsonl"]),
        (["calib", "--in", preds], ["c.json"]),
        (["recal", "ts", "--fit", preds, "--apply", preds], ["o.jsonl"]),
        (["recal", "ats", "--fit", preds, "--apply", preds, "--l2", "0.01"], ["o.jsonl"]),
        (["recal", "ptrue", "--in", preds], ["o.jsonl"]),
        (["probe", "sweep", "--hidden", str(hidden), "--preds", str(probe_preds),
          "--layers", "0,8"], ["s.json"]),
        (["probe", "fit", "--hidden", str(hidden / "layer_8.mat"),
          "--preds", str(probe_preds), "--layer", "8"], ["model.json"]),
        (["rag", "--policy", "conf:0.5", "--in", traces], ["r.json"]),
        (["repr", "cka", "--x", str(tmp_path / "x.mat"), "--y", str(tmp_path / "y.mat")], ["k.json"]),
        (["repr", "kl", "--pairs", str(pairs_path), "--annotations", str(ann_path)], ["k.json"]),
        (["repr", "pca", "--in", str(tmp_path / "x.mat"), "--k", "2"], ["k.json"]),
        (["repr", "drift", "--base", str(tmp_path / "x.mat"),
          "--cal", str(tmp_path / "y.mat")], ["k.json"]),
    ]
    out_flag = {
        "theory": "--out", "match": "--out", "calib": "--out", "recal": "--out",
        "probe": "--out", "rag": "--out", "repr": "--out",
    }
    for argv, outputs in invocations:
        blobs = []
        for run in ("a", "b"):
            run_dir = tmp_path / f"{argv[0]}_{run}"
            run_dir.mkdir(exist_ok=True)
            target = run_dir / outputs[0]
            full = ["--seed", "0", *argv, out_flag[argv[0]], str(target)]
            assert main(full) == 0, f"{argv} failed"
            blobs.append(target.read_bytes())
        assert blobs[0] == blobs[1], f"{argv} not byte-deterministic"
