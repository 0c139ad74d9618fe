import argparse
import contextlib
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import uncal
from uncal import calib, cli, jsonio, matio, optim, probe, ragctl, rewards
from uncal.cli import _load_probe_model, _load_token_stack, main
from uncal.errors import AlignmentError, CorruptInput, EmptyBatch, IoError
from uncal.rewards import MatchResult, MatchRule

from conftest import count_calls, planted_stack, prediction, random_space, rows
from oracles import (
    EmissionEvent,
    PredictionRecord,
    RagTraceRecord,
    TokenAnnotation,
    TokenDistPair,
    Trajectory,
    TrajectorySpace,
    oracle_annotate_record,
    oracle_trace_table,
    prediction_records,
    record_row,
)

GOLDEN_CALIB = Path(__file__).parent / "data" / "golden_calib.json"
PREDS_FIXTURE = Path(str(uncal.fixture_path("preds20.jsonl")))
RAG_FIXTURE = Path(str(uncal.fixture_path("ragtraces20.jsonl")))


def write_spaces(path, count=6, seed=1):
    rng = np.random.default_rng(seed)
    with open(path, "w") as fh:
        for _ in range(count):
            fh.write(jsonio.encode(jsonio.SPACE, random_space(rng)) + "\n")


def write_hidden_dir(directory, layers=(0, 8), seed=2, n=120, dims=12):
    records, stacks = planted_stack(
        np.random.default_rng(seed), layers=layers, signal_layer=layers[-1], n=n, dims=dims
    )
    directory.mkdir(exist_ok=True)
    for layer, per_qid in stacks.items():
        mats, ids = [], []
        for qid in sorted(per_qid):
            m = per_qid[qid]
            mats.append(m)
            ids.extend({"qid": qid, "token_index": t} for t in range(m.shape[0]))
        matio.write_matrix(directory / f"layer_{layer}.mat", np.vstack(mats))
        jsonio.write_jsonl(directory / f"layer_{layer}.mat.ids.jsonl", ids)
    preds = directory / "preds.jsonl"
    jsonio.write_jsonl(preds, jsonio.encode_lines(jsonio.PREDICTION, records))
    return preds


class TestLoadPredictions:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        result = jsonio.load_lines(path, jsonio.PREDICTIONS)
        assert result.records == {key: [] for key in jsonio.PREDICTION}
        assert result.errors == []

    def test_one_malformed_line_among_ten(self, tmp_path):
        lines = [
            jsonio.dumps_canonical(
                {"qid": f"q{i}", "gold_answers": ["a"], "response_text": "Answer: a"}
            )
            for i in range(9)
        ]
        lines.insert(4, "{broken json")
        path = tmp_path / "preds.jsonl"
        path.write_text("\n".join(lines) + "\n")
        result = jsonio.load_lines(path, jsonio.PREDICTIONS)
        assert len(result.records["qid"]) == 9
        assert len(result.errors) == 1 and result.errors[0][0] == 5

    def test_majority_invalid_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("nope\nnope\n" + '{"qid":"q","gold_answers":["a"],"response_text":"x"}\n')
        with pytest.raises(CorruptInput):
            jsonio.load_lines(path, jsonio.PREDICTIONS)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "extra.jsonl"
        good = '{"qid":"g","gold_answers":["a"],"response_text":"x"}'
        path.write_text(
            good + "\n"
            + '{"qid":"q","gold_answers":["a"],"response_text":"x","bogus":1}\n'
            + good.replace('"g"', '"h"') + "\n"
        )
        result = jsonio.load_lines(path, jsonio.PREDICTIONS)
        assert len(result.records["qid"]) == 2 and len(result.errors) == 1
        assert "bogus" in result.errors[0][1]

    def test_round_trip_fixture(self, tmp_path):
        result = jsonio.load_lines(PREDS_FIXTURE, jsonio.PREDICTIONS)
        assert result.total_lines == 20 and not result.errors
        out = tmp_path / "again.jsonl"
        jsonio.write_jsonl(out, jsonio.encode_lines(jsonio.PREDICTION, result.records))
        again = jsonio.load_lines(out, jsonio.PREDICTIONS)
        assert again.records == result.records

    def test_rag_fixture_round_trip(self, tmp_path):
        # the field table reads and writes each line whole; a load keeps less
        result = jsonio.load_lines(RAG_FIXTURE, jsonio.RAG_TRACES)
        assert result.total_lines == 20 and not result.errors
        lines = RAG_FIXTURE.read_text(encoding="utf-8").splitlines()
        fields = [jsonio.read_table(jsonio.RAG_TRACE, json.loads(line)) for line in lines]
        out = tmp_path / "rag.jsonl"
        jsonio.write_jsonl(out, [jsonio.encode(jsonio.RAG_TRACE, row) for row in fields])
        assert out.read_bytes() == RAG_FIXTURE.read_bytes()
        assert jsonio.load_lines(out, jsonio.RAG_TRACES).records == result.records

    def test_match_output_reloads_with_annotations(self, tmp_path):
        out = tmp_path / "matched.jsonl"
        assert main(["match", "--in", str(PREDS_FIXTURE), "--out", str(out)]) == 0
        result = jsonio.load_lines(out, jsonio.PREDICTIONS)
        assert not result.errors
        table = result.records
        assert all(match is not None for match in table["match"])
        assert all(answer is not None or match["correct"] is False
                   for answer, match in zip(table["extracted_answer"], table["match"]))


class TestExitCodes:
    def test_unknown_subcommand_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_no_subcommand_exits_one(self, capsys):
        assert main([]) == 1

    def test_the_parser_is_built_once_per_process(self, capsys):
        assert main([]) == 1 and main(["frobnicate"]) == 1
        assert cli._build_parser.cache_info().misses == 1

    @pytest.mark.parametrize("group", ["theory", "recal", "probe", "repr"])
    def test_group_without_subcommand_prints_usage(self, group, capsys):
        assert main([group]) == 1
        assert "usage: uncal" in capsys.readouterr().err

    @pytest.mark.parametrize("policy", ["flare:0.3:4", "clf"])
    def test_unsupported_policy_spec_exits_one(self, policy, capsys):
        assert main(["rag", "--policy", policy, "--in", str(RAG_FIXTURE)]) == 1
        assert repr(policy) in capsys.readouterr().err

    @pytest.mark.parametrize("flags, given, missing", [
        (["--interest", "0,1"], "--interest", "--baseline"),
        (["--baseline", "2,3"], "--baseline", "--interest"),
    ])
    def test_drift_row_set_without_its_pair_is_a_usage_error(
        self, tmp_path, capsys, flags, given, missing
    ):
        # unrefused, the report recorded the flag but held no `embedding_drift`
        matio.write_matrix(tmp_path / "x.mat", np.arange(1.0, 16.0).reshape(5, 3))
        out = tmp_path / "d.json"
        assert main(["repr", "drift", "--base", str(tmp_path / "x.mat"),
                     "--cal", str(tmp_path / "x.mat"), *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"uncal: {given} needs {missing}" in err and "usage: uncal" in err
        assert not out.exists()

    @pytest.mark.parametrize("layers", [",", "0,0", "8,0,8"])
    def test_empty_or_repeated_layer_list_is_a_usage_error(self, tmp_path, capsys, layers):
        # unrefused, `0,0` fitted layer 0 twice and `,` gave an empty sweep
        preds = write_hidden_dir(tmp_path / "hidden", n=40)
        out = tmp_path / "s.json"
        assert main(["probe", "sweep", "--hidden", str(tmp_path / "hidden"),
                     "--preds", str(preds), "--layers", layers, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"bad --layers value {layers!r}" in err and "usage: uncal" in err
        assert not out.exists()

    def test_bad_row_list_is_a_usage_error(self, tmp_path, capsys):
        matio.write_matrix(tmp_path / "x.mat", np.eye(3))
        assert main(["repr", "drift", "--base", str(tmp_path / "x.mat"),
                     "--cal", str(tmp_path / "x.mat"),
                     "--interest", "0,x", "--baseline", "1"]) == 1
        err = capsys.readouterr().err
        assert "bad --interest value '0,x'" in err and "usage: uncal" in err

    @pytest.mark.parametrize("policy", ["nope", "conf:2", "flare:0.3:4"])
    def test_bad_policy_is_refused_before_the_traces_are_read(
        self, monkeypatch, capsys, policy
    ):
        loads = count_calls(monkeypatch, jsonio, "load_lines")
        assert main(["rag", "--policy", policy, "--in", str(RAG_FIXTURE)]) == 1
        assert loads == [] and repr(policy) in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--interest", "0,x", "--baseline", "1"],
        ["--interest", "0", "--baseline", "1,1"],
        ["--interest", "0"],
        ["--interest", "", "--baseline", "1"],
        ["--interest", "0", "--baseline", ""],
    ])
    def test_bad_row_lists_are_refused_before_the_matrices_are_read(
        self, tmp_path, monkeypatch, capsys, flags
    ):
        matio.write_matrix(tmp_path / "x.mat", np.eye(3))
        reads = count_calls(monkeypatch, matio, "read_matrix")
        assert main(["repr", "drift", "--base", str(tmp_path / "x.mat"),
                     "--cal", str(tmp_path / "x.mat"), *flags]) == 1
        assert reads == [] and "usage: uncal" in capsys.readouterr().err

    @pytest.mark.parametrize("interest", ["100", "-1"])
    def test_drift_row_outside_the_matrix_exits_one(self, tmp_path, capsys, interest):
        matio.write_matrix(tmp_path / "x.mat", np.arange(1.0, 16.0).reshape(5, 3))
        assert main(["repr", "drift", "--base", str(tmp_path / "x.mat"),
                     "--cal", str(tmp_path / "x.mat"),
                     "--interest", interest, "--baseline", "1"]) == 1
        assert f"row index {interest} outside 0..4" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_pca_k_below_one_exits_one(self, tmp_path, capsys, k):
        # unchecked, k=-1 would slice to every component but the smallest
        matio.write_matrix(tmp_path / "x.mat", np.random.default_rng(4).normal(size=(6, 3)))
        assert main(["repr", "pca", "--in", str(tmp_path / "x.mat"), "--k", k]) == 1
        assert f"bad --k value '{k}': must be an integer >= 1" in capsys.readouterr().err

    def test_non_finite_matrix_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "nan.mat"
        matio.write_matrix(bad, np.array([[1.0, 2.0], [np.nan, 0.5], [3.0, 1.0]]))
        assert main(["repr", "pca", "--in", str(bad), "--k", "1"]) == 2
        assert str(bad) in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["calib", "--in", str(tmp_path / "absent.jsonl")]) == 2

    def test_validation_failure_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "traces.jsonl"
        bad.write_text(
            jsonio.dumps_canonical(
                {
                    "qid": "q", "gold_answers": ["a"], "noret_answer": "a",
                    "ret_answer": "a",
                }
            )
            + "\n"
        )
        # confidence policy over a record without confidence
        assert main(["rag", "--policy", "conf:0.5", "--in", str(bad)]) == 1

    def test_success_exit_zero(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["calib", "--in", str(PREDS_FIXTURE), "--out", str(out)]) == 0


def qid_matrices(path) -> dict:
    """qid -> (tokens x dims) matrix of the layer file `path`, row t its token t."""
    values, rows = _load_token_stack(path)
    return {qid: values[qid_rows] for qid, qid_rows in rows.items()}


class TestTokenStack:
    @staticmethod
    def write_layer(path, ids):
        values = np.arange(2 * len(ids), dtype=np.float32).reshape(len(ids), 2)
        matio.write_matrix(path, values)
        jsonio.write_jsonl(str(path) + ".ids.jsonl", ids)
        return values

    def test_rows_ordered_by_token_index(self, tmp_path):
        path = tmp_path / "layer_0.mat"
        values = self.write_layer(
            path, [{"qid": "a", "token_index": 1}, {"qid": "a", "token_index": 0}]
        )
        np.testing.assert_array_equal(qid_matrices(path)["a"], values[[1, 0]])

    def test_gap_rejected(self, tmp_path):
        # an emission at token 2 would otherwise read token 3's hidden state
        path = tmp_path / "layer_0.mat"
        self.write_layer(path, [{"qid": "a", "token_index": t} for t in (0, 2, 3)])
        with pytest.raises(AlignmentError):
            _load_token_stack(path)

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "layer_0.mat"
        self.write_layer(path, [{"qid": "a", "token_index": t} for t in (0, 1, 1)])
        with pytest.raises(AlignmentError):
            _load_token_stack(path)

    def test_non_integer_token_index_rejected(self, tmp_path):
        path = tmp_path / "layer_0.mat"
        self.write_layer(path, [{"qid": "a", "token_index": t} for t in (0, 1.5)])
        with pytest.raises(AlignmentError):
            _load_token_stack(path)

    def test_missing_token_index_uses_position_within_qid(self, tmp_path):
        path = tmp_path / "layer_0.mat"
        values = self.write_layer(path, [{"qid": q} for q in ("a", "b", "a", "b", "b")])
        stack = qid_matrices(path)
        np.testing.assert_array_equal(stack["a"], values[[0, 2]])
        np.testing.assert_array_equal(stack["b"], values[[1, 3, 4]])

    def test_sweep_aligns_each_layer_by_its_own_sidecar(self, tmp_path, monkeypatch):
        # layers 0, 1 and 3 share one sidecar byte for byte; layer 2 lists the
        # same rows in another order, with its matrix rows permuted to match
        ids = [{"qid": q, "token_index": t} for q in ("a", "b", "c") for t in range(3)]
        order = [4, 0, 8, 2, 6, 1, 3, 7, 5]
        values = np.random.default_rng(0).normal(size=(4, 9, 2))
        values[2] = values[0][order]
        for k in range(4):
            path = tmp_path / f"layer_{k}.mat"
            matio.write_matrix(path, values[k])
            jsonio.write_jsonl(str(path) + ".ids.jsonl",
                                [ids[i] for i in order] if k == 2 else ids)
        reads = count_calls(monkeypatch, matio, "read_row_ids")
        swept = [qid_matrices(tmp_path / f"layer_{k}.mat") for k in range(4)]
        assert len(reads) == 2  # layers 1 and 3 reuse layer 0's rows by content
        alone = []
        for k in range(4):
            cli._CACHE.clear()
            alone.append(qid_matrices(tmp_path / f"layer_{k}.mat"))
        for stack, single in zip(swept, alone):
            assert list(stack) == list(single)
            for qid in single:
                np.testing.assert_array_equal(stack[qid], single[qid])
        for qid in ("a", "b", "c"):
            np.testing.assert_array_equal(swept[2][qid], swept[0][qid])

    def test_in_order_and_shuffled_sidecars_give_equal_stacks(self, tmp_path):
        # rows listed qid by qid in token order are slices of the layer's
        # matrix; the same rows shuffled are arrays of row indices
        ids = [{"qid": q, "token_index": t} for q in ("a", "b", "c") for t in range(3)]
        order = [4, 0, 8, 2, 6, 1, 3, 7, 5]
        values = np.random.default_rng(1).normal(size=(9, 2)).astype(np.float32)
        for name, rows in (("in_order", list(range(9))), ("shuffled", order)):
            matio.write_matrix(tmp_path / f"{name}.mat", values[rows])
            jsonio.write_jsonl(tmp_path / f"{name}.mat.ids.jsonl", [ids[i] for i in rows])
        in_order = qid_matrices(tmp_path / "in_order.mat")
        shuffled = qid_matrices(tmp_path / "shuffled.mat")
        assert sorted(in_order) == sorted(shuffled) == ["a", "b", "c"]
        for qid in in_order:
            np.testing.assert_array_equal(in_order[qid], shuffled[qid])
        assert _load_token_stack(tmp_path / "in_order.mat")[1] == {
            "a": slice(0, 3), "b": slice(3, 6), "c": slice(6, 9)}
        shuffled_rows = _load_token_stack(tmp_path / "shuffled.mat")[1]
        assert {qid: rows.tolist() for qid, rows in shuffled_rows.items()} == {
            "a": [1, 5, 3], "b": [6, 0, 8], "c": [4, 7, 2]}

    def test_reused_sidecar_still_checked_against_each_layer(self, tmp_path):
        ids = [{"qid": "a", "token_index": t} for t in (1, 0)]
        for k in (0, 1):
            self.write_layer(tmp_path / f"layer_{k}.mat", ids)
        matio.write_matrix(tmp_path / "layer_1.mat", np.zeros((3, 2), dtype=np.float32))
        _load_token_stack(tmp_path / "layer_0.mat")
        with pytest.raises(IoError, match=r"layer_1\.mat: sidecar row count does not match"):
            _load_token_stack(tmp_path / "layer_1.mat")
        gap = [{"qid": "a", "token_index": t} for t in (0, 2)]
        for k in (0, 2):
            self.write_layer(tmp_path / f"layer_{k}.mat", gap)
        for k in (0, 2):
            with pytest.raises(AlignmentError) as refused:
                _load_token_stack(tmp_path / f"layer_{k}.mat")
            assert str(refused.value) == (f"{tmp_path / f'layer_{k}.mat'}: "
                                          "token indices of qid 'a' are not 0..1")


class TestFunctional:
    def test_theory_verify_one_line_per_space(self, tmp_path):
        spaces = tmp_path / "spaces.jsonl"
        write_spaces(spaces, count=7)
        out = tmp_path / "tv.jsonl"
        assert main(["theory", "verify", "--in", str(spaces), "--eta", "1.0",
                     "--out", str(out)]) == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == 7
        assert all("status" in line for line in lines)
        for line in lines:
            if line["status"] == "ok":
                assert line["holds"] and line["support_preserved"]

    @pytest.mark.parametrize("command", ["verify", "iterate"])
    @pytest.mark.parametrize("eta", ["-1", "0", "nan", "inf", "x"])
    def test_theory_eta_refused_before_any_output(self, tmp_path, capsys, command, eta):
        # a space without a competing answer, on which `verify --eta -1` once
        # exited 0; `--eta nan` once left an empty output file
        spaces = _write_lines(tmp_path / "s.jsonl", [{"gold_answer": "A", "trajectories": [
            {"id": "t0", "answer": "A", "confidence": 0.5, "base_prob": 1.0}]}])
        out = tmp_path / "o.jsonl"
        assert main(["theory", command, "--in", str(spaces), "--eta", eta,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "--eta" in err and "usage:" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["verify"], ["iterate", "--steps", "2"]])
    @pytest.mark.parametrize("eta, message", [
        ("800", "|eta * reward| exceeds 700.0; tilted weights not representable"),
        ("400", "eta * reward spread exceeds 700.0; support would be lost"),
    ])
    def test_theory_overflow_names_its_space(self, tmp_path, capsys, command, eta, message):
        # eta * reward at eta 400: space 0 200 and -80, space 1 400 and -400
        def space(conf1, conf2):
            return {"gold_answer": "A", "trajectories": [
                {"id": "t0", "answer": "A", "confidence": conf1, "base_prob": 0.5},
                {"id": "t1", "answer": "B", "confidence": conf2, "base_prob": 0.5}]}

        spaces = _write_lines(tmp_path / "s.jsonl", [space(0.5, 0.2), space(1.0, 1.0)])
        out = tmp_path / "o.jsonl"
        assert main(["theory", *command, "--in", str(spaces), "--eta", eta,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"uncal: space 1: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["verify"], ["iterate", "--steps", "2"]])
    def test_theory_underflow_names_its_space(self, tmp_path, capsys, command):
        # spread 680 is under the limit, but 1e-300 * exp(-680) rounds to 0:
        # verify ended in a ZeroDivisionError traceback, and iterate exited 0
        # with a mean wrong confidence of null
        spaces = _write_lines(tmp_path / "s.jsonl", [{"gold_answer": "A", "trajectories": [
            {"id": "a", "answer": "A", "confidence": 1.0, "base_prob": 1.0},
            {"id": "b", "answer": "B", "confidence": 1.0, "base_prob": 1e-300}]}])
        out = tmp_path / "o.jsonl"
        assert main(["theory", *command, "--in", str(spaces), "--eta", "340",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "uncal: space 0: a positive probability tilts to 0; support would be lost\n")
        assert not out.exists()

    def test_probe_eval_records_the_model_layer(self, tmp_path):
        preds = write_hidden_dir(tmp_path / "hidden")
        layer = str(tmp_path / "hidden" / "layer_8.mat")
        model, out = tmp_path / "probe.json", tmp_path / "eval.json"
        assert main(["probe", "fit", "--hidden", layer, "--preds", str(preds),
                     "--layer", "8", "--out", str(model)]) == 0
        assert main(["probe", "eval", "--model", str(model), "--hidden", layer,
                     "--preds", str(preds), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "uncal-probe-eval-v3" and report["layer"] == 8

    def test_ptrue_replaces_confidence(self, tmp_path):
        records = [
            {"qid": "a", "gold_answers": ["x"], "response_text": "Answer: x",
             "verbal_confidence": 0.9, "p_affirmative": 0.25},
            {"qid": "b", "gold_answers": ["x"], "response_text": "Answer: x",
             "verbal_confidence": 0.9},
        ]
        src = tmp_path / "in.jsonl"
        src.write_text("".join(jsonio.dumps_canonical(r) + "\n" for r in records))
        out = tmp_path / "out.jsonl"
        assert main(["recal", "ptrue", "--in", str(src), "--out", str(out)]) == 0
        loaded = jsonio.load_lines(out, jsonio.PREDICTIONS).records
        assert loaded["verbal_confidence"][0] == 0.25   # replaced
        assert loaded["verbal_confidence"][1] == 0.9    # no p_affirmative: untouched


    def test_rag_report_names_each_number_once(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["rag", "--policy", "emit", "--in", str(RAG_FIXTURE),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "uncal-rag-report-v3"
        for block in [report["overall"], *report["per_dataset"].values()]:
            assert "trigger_recall" in block and "global_wrong_coverage" not in block

    def test_fitted_models_report_convergence(self, tmp_path):
        preds = write_hidden_dir(tmp_path / "hidden")
        assert main(["recal", "ats", "--fit", str(PREDS_FIXTURE),
                     "--apply", str(PREDS_FIXTURE), "--out", str(tmp_path / "o.jsonl"),
                     "--model-out", str(tmp_path / "ats.json")]) == 0
        assert main(["probe", "fit", "--hidden", str(tmp_path / "hidden" / "layer_8.mat"),
                     "--preds", str(preds), "--layer", "8",
                     "--out", str(tmp_path / "probe.json")]) == 0
        for name, schema in (("ats.json", "uncal-ats-model-v3"),
                             ("probe.json", "uncal-probe-model-v2")):
            model = json.loads((tmp_path / name).read_text())
            assert model["schema"] == schema
            assert sorted(model["fit"]) == ["converged", "grad_norm", "iterations"]
            assert model["fit"]["converged"] is True

    def test_ts_model_reports_its_fit(self, tmp_path):
        model_out = tmp_path / "ts.json"
        assert main(["recal", "ts", "--fit", str(PREDS_FIXTURE),
                     "--apply", str(PREDS_FIXTURE), "--out", str(tmp_path / "o.jsonl"),
                     "--model-out", str(model_out)]) == 0
        model = json.loads(model_out.read_text())
        assert model["schema"] == "uncal-ts-model-v3"
        assert sorted(model) == ["config", "fit", "fit_nll", "schema", "temperature"]
        assert sorted(model["fit"]) == ["converged", "grad_norm", "iterations"]
        assert model["fit"]["converged"] is True and model["fit"]["iterations"] >= 1
        assert 0.0 <= model["fit"]["grad_norm"] <= optim.GRAD_TOL

    def test_the_clamped_confidences_of_a_file_are_reported_once(self, tmp_path, capsys):
        copy = tmp_path / "copy.jsonl"
        shutil.copy(PREDS_FIXTURE, copy)
        for apply, files in ((PREDS_FIXTURE, [PREDS_FIXTURE]), (copy, [PREDS_FIXTURE, copy])):
            assert main(["recal", "ts", "--fit", str(PREDS_FIXTURE), "--apply", str(apply),
                         "--out", str(tmp_path / "o.jsonl")]) == 0
            assert [line for line in capsys.readouterr().err.splitlines()
                    if "clamped" in line] == [
                f"{f}: clamped 1 confidence values outside [0,1]" for f in files]

    @pytest.mark.parametrize("kind", ["ts", "ats"])
    def test_a_file_fit_and_applied_reports_each_rejected_line_once(self, tmp_path, capsys,
                                                                     kind):
        path, copy = tmp_path / "preds.jsonl", tmp_path / "copy.jsonl"
        bad = jsonio.dumps_canonical(prediction("bad", ("x",), "x", verbal_confidence=1.5))
        path.write_text(PREDS_FIXTURE.read_text() + bad + "\n")
        shutil.copy(path, copy)
        for apply, files in ((path, [path]), (copy, [path, copy])):
            assert main(["recal", kind, "--fit", str(path), "--apply", str(apply),
                         "--out", str(tmp_path / f"{apply.stem}.out.jsonl")]) == 0
            rejected = [line for line in capsys.readouterr().err.splitlines() if ":21:" in line]
            assert rejected == [f"{f}:21: verbal_confidence outside [0,1]" for f in files]
        # a file fit and applied is read twice, and writes the lines its copy does
        assert ((tmp_path / "preds.out.jsonl").read_bytes()
                == (tmp_path / "copy.out.jsonl").read_bytes())


class TestGoldenReport:
    def test_calib_matches_frozen_golden(self, tmp_path, monkeypatch):
        shutil.copy(PREDS_FIXTURE, tmp_path / "preds20.jsonl")
        monkeypatch.chdir(tmp_path)
        assert main(["calib", "--in", "preds20.jsonl", "--bins", "10",
                     "--out", "report.json"]) == 0
        assert Path("report.json").read_bytes() == GOLDEN_CALIB.read_bytes()

    def test_a_percent_copy_gives_the_same_report(self, tmp_path, capsys):
        # each stated confidence of the fixture written as a percentage: 0.65
        # as `65.00%`, and the 1.7 that is clamped as `170.0%`
        percent = tmp_path / "percent.jsonl"
        percent.write_text(re.sub(r"(Confidence: )(\d+\.\d+)", lambda m: (
            f"{m[1]}{Decimal(m[2]) * 100}%"), PREDS_FIXTURE.read_text()))
        assert percent.read_text().count("%") == 18
        reports = []
        for path in (PREDS_FIXTURE, percent):
            out = tmp_path / f"{path.stem}.json"
            assert main(["calib", "--in", str(path), "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
            del reports[-1]["config"]["input"]
        assert reports[0] == reports[1]
        assert capsys.readouterr().err.splitlines() == [
            f"{path}: clamped 1 confidence values outside [0,1]" for path in (PREDS_FIXTURE, percent)]

    def test_a_crlf_copy_gives_the_same_report(self, tmp_path, monkeypatch):
        # the config names the input, so both runs read `preds20.jsonl` by that name
        for name, ending in (("lf", b"\n"), ("crlf", b"\r\n")):
            (tmp_path / name).mkdir()
            (tmp_path / name / "preds20.jsonl").write_bytes(
                PREDS_FIXTURE.read_bytes().replace(b"\n", ending))
            monkeypatch.chdir(tmp_path / name)
            assert main(["calib", "--in", "preds20.jsonl", "--bins", "10",
                         "--out", "report.json"]) == 0
        assert b"\r\n" in (tmp_path / "crlf" / "preds20.jsonl").read_bytes()
        report = (tmp_path / "crlf" / "report.json").read_bytes()
        assert report == (tmp_path / "lf" / "report.json").read_bytes()
        assert report == GOLDEN_CALIB.read_bytes()


def _run_twice(argv_template, tmp_path, outputs):
    """Run a CLI invocation into two sibling directories; compare bytes."""
    blobs = []
    for run in ("a", "b"):
        run_dir = tmp_path / run
        run_dir.mkdir(exist_ok=True)
        argv = [arg.replace("{out}", str(run_dir)) for arg in argv_template]
        assert main(argv) == 0
        blobs.append(b"".join((run_dir / name).read_bytes() for name in outputs))
    assert blobs[0] == blobs[1]


class TestDeterminism:
    def test_theory_subcommands(self, tmp_path):
        spaces = tmp_path / "spaces.jsonl"
        write_spaces(spaces)
        _run_twice(
            ["theory", "verify", "--in", str(spaces), "--eta", "1.0",
             "--out", "{out}/tv.jsonl"],
            tmp_path, ["tv.jsonl"],
        )
        _run_twice(
            ["theory", "iterate", "--in", str(spaces), "--eta", "0.5",
             "--steps", "3", "--out", "{out}/ti.jsonl"],
            tmp_path, ["ti.jsonl"],
        )

    def test_match_calib_rag(self, tmp_path):
        _run_twice(
            ["match", "--in", str(PREDS_FIXTURE), "--out", "{out}/m.jsonl"],
            tmp_path, ["m.jsonl"],
        )
        _run_twice(
            ["calib", "--in", str(PREDS_FIXTURE), "--out", "{out}/c.json",
             "--csv", "{out}/c.csv"],
            tmp_path, ["c.json", "c.csv"],
        )
        _run_twice(
            ["rag", "--policy", "conf:0.5", "--in", str(RAG_FIXTURE),
             "--out", "{out}/r.json", "--csv", "{out}/r.csv"],
            tmp_path, ["r.json", "r.csv"],
        )

    def test_recal_subcommands(self, tmp_path):
        for name, extra in (("ts", []), ("ats", ["--l2", "0.01"])):
            _run_twice(
                ["recal", name, "--fit", str(PREDS_FIXTURE),
                 "--apply", str(PREDS_FIXTURE), "--out", "{out}/o.jsonl",
                 "--model-out", "{out}/model.json", *extra],
                tmp_path, ["o.jsonl", "model.json"],
            )
        _run_twice(
            ["recal", "ptrue", "--in", str(PREDS_FIXTURE), "--out", "{out}/p.jsonl"],
            tmp_path, ["p.jsonl"],
        )

    def test_probe_subcommands(self, tmp_path):
        preds = write_hidden_dir(tmp_path / "hidden")
        hidden = tmp_path / "hidden"
        _run_twice(
            ["probe", "sweep", "--hidden", str(hidden), "--preds", str(preds),
             "--layers", "0,8", "--out", "{out}/s.json", "--csv", "{out}/s.csv"],
            tmp_path, ["s.json", "s.csv"],
        )
        _run_twice(
            ["probe", "fit", "--hidden", str(hidden / "layer_8.mat"),
             "--preds", str(preds), "--layer", "8", "--out", "{out}/model.json"],
            tmp_path, ["model.json"],
        )
        model = tmp_path / "a" / "model.json"
        _run_twice(
            ["probe", "eval", "--model", str(model),
             "--hidden", str(hidden / "layer_8.mat"), "--preds", str(preds),
             "--out", "{out}/e.json"],
            tmp_path, ["e.json"],
        )

    def test_repr_subcommands(self, tmp_path):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(30, 5))
        matio.write_matrix(tmp_path / "x.mat", x)
        matio.write_matrix(tmp_path / "y.mat", x @ np.linalg.qr(rng.normal(size=(5, 5)))[0])
        pairs = tmp_path / "pairs.jsonl"
        annotations = tmp_path / "ann.jsonl"
        with open(pairs, "w") as fh, open(annotations, "w") as ann:
            for i in range(5):
                p = rng.dirichlet(np.ones(4))
                q = rng.dirichlet(np.ones(4))
                fh.write(json.dumps({
                    "position": i,
                    "base_probs": [float(v) for v in p],
                    "calibrated_probs": [float(v) for v in q],
                }) + "\n")
                ann.write(json.dumps({"position": i, "type": "ReasoningToken"}) + "\n")
        _run_twice(
            ["repr", "cka", "--x", str(tmp_path / "x.mat"),
             "--y", str(tmp_path / "y.mat"), "--out", "{out}/cka.json"],
            tmp_path, ["cka.json"],
        )
        _run_twice(
            ["repr", "kl", "--pairs", str(pairs), "--annotations", str(annotations),
             "--out", "{out}/kl.json", "--csv", "{out}/kl.csv"],
            tmp_path, ["kl.json", "kl.csv"],
        )
        _run_twice(
            ["repr", "pca", "--in", str(tmp_path / "x.mat"), "--k", "2",
             "--out", "{out}/pca.json", "--csv", "{out}/pca.csv"],
            tmp_path, ["pca.json", "pca.csv"],
        )
        _run_twice(
            ["repr", "drift", "--base", str(tmp_path / "x.mat"),
             "--cal", str(tmp_path / "y.mat"), "--out", "{out}/d.json"],
            tmp_path, ["d.json"],
        )


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# the three matrix commands in one fresh interpreter, writing into argv[1]
_REPR_SCRIPT = """
import sys
from uncal.cli import main
out = sys.argv[1]
assert main(["repr", "cka", "--x", "x.mat", "--y", "y.mat", "--out", out + "/cka.json"]) == 0
assert main(["repr", "pca", "--in", "x.mat", "--k", "2",
             "--out", out + "/pca.json", "--csv", out + "/pca.csv"]) == 0
assert main(["repr", "drift", "--base", "x.mat", "--cal", "y.mat", "--out", out + "/drift.json"]) == 0
assert main(["probe", "sweep", "--hidden", "hidden", "--preds", "hidden/preds.jsonl",
             "--layers", "0,8", "--out", out + "/sweep.json"]) == 0
"""


def test_repr_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, monkeypatch):
    # at 4800 x 256 a float64 product split over two BLAS threads changes
    # the last bits of all three outputs unless `uncal` pins one thread;
    # `probe sweep` scores each row alone, and fits through the same pin.
    # This process runs the commands too: `conftest.py` imports `uncal`
    # before numpy, so the in-process tests get the command's one thread
    write_hidden_dir(tmp_path / "hidden", n=400, dims=64)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4800, 256))
    matio.write_matrix(tmp_path / "x.mat", x)
    matio.write_matrix(tmp_path / "y.mat", x @ rng.normal(size=(256, 256)) * 0.05
                       + rng.normal(size=(4800, 256)))
    src = str(Path(uncal.__file__).parents[1])
    outputs = {}
    for threads in (None, "1", "2"):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        if threads is not None:
            env.update(dict.fromkeys(BLAS_THREAD_VARS, threads))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"threads_{threads}"
        out.mkdir()
        subprocess.run([sys.executable, "-c", _REPR_SCRIPT, str(out)], cwd=tmp_path,
                       env=env, check=True, timeout=300)
        outputs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    here = tmp_path / "in_process"
    here.mkdir()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["-c", str(here)])
    exec(_REPR_SCRIPT, {})
    outputs["in process"] = {p.name: p.read_bytes() for p in sorted(here.iterdir())}
    assert sorted(outputs["1"]) == ["cka.json", "drift.json", "pca.csv", "pca.json", "sweep.json"]
    assert outputs[None] == outputs["1"] == outputs["2"] == outputs["in process"]


class TestMatrixMemory:
    """Peak memory of the matrix commands as `tracemalloc` sees it (numpy
    reports its buffers). Each bound is what the command's formula needs, in
    units of one float32 input matrix plus `dims x dims` float64 squares:
    the float32 inputs; a float64 buffer per input of at most
    `reprgeo.BLOCK_ROWS` rows (8 bytes a value, so 2 units where it holds
    every row); the sums or products of the covariance kind; and a little
    room. A matrix of fewer than `BLOCK_ROWS + dims` rows is one block, and
    keeps the bounds of the whole float64 copies it was read into before."""

    # (rows, dims) -> command -> (input units, dims x dims float64 squares)
    BOUNDS = {
        # one block of more than BLOCK_ROWS rows: a whole copy per input, as before
        (1100, 2048): {"drift": (4.6, 0), "pca": (3.6, 2), "cka": (6.3, 1)},
        # two blocks of 1024 and 976 rows
        (2000, 128): {"drift": (3.3, 0), "pca": (2.3, 2), "cka": (4.2, 2)},
        # sixteen blocks: the inputs, and float64 buffers of 1/8 unit each; the
        # read's finiteness check and the PCA's CSV rows hold a block at a time
        (16384, 64): {"drift": (2.2, 0), "pca": (1.3, 2), "cka": (2.3, 2)},
    }

    @staticmethod
    def peak(argv) -> int:
        assert main(argv) == 0  # warm: lazy imports and caches are not the command's
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.fixture(scope="class", params=sorted(BOUNDS), ids=lambda shape: "%dx%d" % shape)
    def matrices(self, request, tmp_path_factory):
        work = tmp_path_factory.mktemp("matrices")
        rng = np.random.default_rng(6)
        for name in ("x", "y"):
            matio.write_matrix(work / f"{name}.mat", rng.normal(size=request.param))
        return work, request.param

    def bound(self, shape, command) -> float:
        rows, dims = shape
        units, squares = self.BOUNDS[shape][command]
        return units * rows * dims * 4 + squares * dims * dims * 8

    def test_drift_holds_a_block_of_float64_rows(self, matrices):
        # two inputs and one buffer: the base's block, then the difference
        work, shape = matrices
        assert self.peak(["repr", "drift", "--base", str(work / "x.mat"),
                          "--cal", str(work / "y.mat"), "--interest", "0,1,2,3",
                          "--baseline", "10,11,12,13",
                          "--out", str(work / "drift.json")]) <= self.bound(shape, "drift")

    def test_pca_centres_a_block_at_a_time(self, matrices):
        work, shape = matrices
        assert self.peak(["repr", "pca", "--in", str(work / "x.mat"), "--k", "2",
                          "--out", str(work / "pca.json"),
                          "--csv", str(work / "pca.csv")]) <= self.bound(shape, "pca")

    def test_cka_holds_one_centred_block_per_input(self, matrices):
        work, shape = matrices
        assert self.peak(["repr", "cka", "--x", str(work / "x.mat"),
                          "--y", str(work / "y.mat"),
                          "--out", str(work / "cka.json")]) <= self.bound(shape, "cka")

    def test_sweep_holds_at_most_two_layers(self, tmp_path):
        # before one layer was fitted at a time, all four were held at once
        n, tokens, dims = 200, 18, 256  # `planted_stack` writes 18 tokens a record
        preds = write_hidden_dir(tmp_path / "hidden", layers=(0, 1, 2, 3), n=n, dims=dims)
        layer = n * tokens * dims * 4
        features = n * (dims + 3) * 8
        assert self.peak(["probe", "sweep", "--hidden", str(tmp_path / "hidden"),
                          "--preds", str(preds), "--layers", "0,1,2,3",
                          "--out", str(tmp_path / "s.json"),
                          "--csv", str(tmp_path / "s.csv")]) <= 2 * layer + features


class TestSeedHandling:
    def test_uncal_seed_environment_variable_changes_nothing(self, tmp_path, monkeypatch):
        # it once overrode `--seed`; now `--seed` is the only way to set the seed
        preds = write_hidden_dir(tmp_path / "hidden")
        fit = ["--seed", "3", "probe", "fit", "--hidden", str(tmp_path / "hidden" / "layer_8.mat"),
               "--preds", str(preds), "--layer", "8", "--out"]
        assert main([*fit, str(tmp_path / "a.json")]) == 0
        monkeypatch.setenv("UNCAL_SEED", "999")
        assert main([*fit, str(tmp_path / "b.json")]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert json.loads((tmp_path / "a.json").read_text())["config"]["seed"] == 3

    @staticmethod
    def invocations(tmp_path) -> dict[str, tuple[list[str], list[str]]]:
        """name -> (argv with `{out}` for the output directory, output files)
        for every subcommand that draws no random number, and for the two
        that split qids by the seed (`probe sweep`, `probe fit`)."""
        spaces = tmp_path / "spaces.jsonl"
        write_spaces(spaces)
        preds = write_hidden_dir(tmp_path / "hidden")
        layer = str(tmp_path / "hidden" / "layer_8.mat")
        model = tmp_path / "probe.json"
        assert main(["probe", "fit", "--hidden", layer, "--preds", str(preds),
                     "--out", str(model)]) == 0
        x, y = str(tmp_path / "hidden" / "layer_0.mat"), layer
        pairs = _write_lines(tmp_path / "pairs.jsonl", [
            {"position": i, "base_probs": [0.5, 0.5], "calibrated_probs": [0.2 * i, 1 - 0.2 * i]}
            for i in range(3)])
        notes = _write_lines(tmp_path / "ann.jsonl", [
            {"position": i, "type": "ReasoningToken"} for i in range(3)])
        fixture = str(PREDS_FIXTURE)
        recal = ["--fit", fixture, "--apply", fixture, "--out", "{out}/o.jsonl",
                 "--model-out", "{out}/m.json"]
        return {
            "theory verify": (["theory", "verify", "--in", str(spaces),
                               "--out", "{out}/o.jsonl"], ["o.jsonl"]),
            "theory iterate": (["theory", "iterate", "--in", str(spaces),
                                "--out", "{out}/o.jsonl"], ["o.jsonl"]),
            "match": (["match", "--in", fixture, "--out", "{out}/o.jsonl"], ["o.jsonl"]),
            "calib": (["calib", "--in", fixture, "--out", "{out}/o.json",
                       "--csv", "{out}/o.csv"], ["o.json", "o.csv"]),
            "recal ts": (["recal", "ts", *recal], ["o.jsonl", "m.json"]),
            "recal ats": (["recal", "ats", *recal], ["o.jsonl", "m.json"]),
            "recal ptrue": (["recal", "ptrue", "--in", fixture, "--out", "{out}/o.jsonl"],
                            ["o.jsonl"]),
            "probe eval": (["probe", "eval", "--model", str(model), "--hidden", layer,
                            "--preds", str(preds), "--out", "{out}/o.json"], ["o.json"]),
            "rag": (["rag", "--policy", "conf:0.5", "--in", str(RAG_FIXTURE),
                     "--out", "{out}/o.json", "--csv", "{out}/o.csv"], ["o.json", "o.csv"]),
            "repr cka": (["repr", "cka", "--x", x, "--y", y, "--out", "{out}/o.json"],
                         ["o.json"]),
            "repr kl": (["repr", "kl", "--pairs", str(pairs), "--annotations", str(notes),
                         "--out", "{out}/o.json", "--csv", "{out}/o.csv"], ["o.json", "o.csv"]),
            "repr pca": (["repr", "pca", "--in", layer, "--k", "2", "--out", "{out}/o.json",
                          "--csv", "{out}/o.csv"], ["o.json", "o.csv"]),
            "repr drift": (["repr", "drift", "--base", x, "--cal", y, "--interest", "0,1",
                            "--baseline", "2,3", "--out", "{out}/o.json"], ["o.json"]),
            "probe sweep": (["probe", "sweep", "--hidden", str(tmp_path / "hidden"),
                             "--preds", str(preds), "--layers", "0,8", "--out", "{out}/o.json",
                             "--csv", "{out}/o.csv"], ["o.json", "o.csv"]),
            "probe fit": (["probe", "fit", "--hidden", layer, "--preds", str(preds),
                           "--out", "{out}/o.json"], ["o.json"]),
        }

    @pytest.mark.parametrize("name", [
        "theory verify", "theory iterate", "match", "calib", "recal ts", "recal ats",
        "recal ptrue", "probe eval", "rag", "repr cka", "repr kl", "repr pca", "repr drift",
    ])
    def test_seed_changes_no_byte_outside_the_probe_split(self, tmp_path, name):
        argv, outputs = self.invocations(tmp_path)[name]
        blobs = []
        for run, seed in (("a", "0"), ("b", "999")):
            run_dir = tmp_path / run
            run_dir.mkdir()
            assert main(["--seed", seed, *[a.replace("{out}", str(run_dir)) for a in argv]]) == 0
            blobs.append([(run_dir / o).read_bytes() for o in outputs])
        assert blobs[0] == blobs[1]

    @staticmethod
    def flag_dests(command: str) -> set[str]:
        """The dests of the flags of `command` (such as "repr kl"), read
        from the parser that `main` uses."""
        parser = cli._build_parser()
        for word in command.split():
            [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            parser = sub.choices[word]
        return {a.dest for a in parser._actions if a.option_strings and a.dest != "help"}

    # the commands whose outputs carry a `config` block, and the file that holds it
    CONFIG_FILES = {"theory verify": "o.jsonl", "theory iterate": "o.jsonl",
                    "calib": "o.json", "recal ts": "m.json", "recal ats": "m.json",
                    "probe eval": "o.json", "rag": "o.json", "repr cka": "o.json",
                    "repr kl": "o.json", "repr pca": "o.json", "repr drift": "o.json",
                    "probe sweep": "o.json", "probe fit": "o.json"}

    @pytest.mark.parametrize("name", sorted(CONFIG_FILES))
    def test_config_records_every_flag_but_the_outputs(self, tmp_path, name):
        argv, _ = self.invocations(tmp_path)[name]
        assert main([a.replace("{out}", str(tmp_path)) for a in argv]) == 0
        # a JSON Lines output carries the block on every line
        text = (tmp_path / self.CONFIG_FILES[name]).read_text()
        configs = [json.loads(line)["config"] for line in text.splitlines()]
        expected = self.flag_dests(name) - {"out", "csv", "model_out", "apply_path"}
        if name.startswith("probe ") and name != "probe eval":
            expected.add("seed")
        assert expected and configs and all(set(c) == expected for c in configs)


def test_float_serialization_round_trips():
    values = [0.1, 1 / 3, 2.0**-52, 0.55, 123456.789, -0.0]
    for v in values:
        text = jsonio.format_float(v)
        assert float(text) == (0.0 if v == 0.0 else v)
    with pytest.raises(ValueError):
        jsonio.format_float(float("nan"))


def test_write_jsonl_leaves_no_partial_file_and_keeps_modes(tmp_path):
    # a value no report may hold once left the lines before it on disk
    out = tmp_path / "o.jsonl"
    with pytest.raises(ValueError):
        jsonio.write_jsonl(out, [{"a": 1.0}, {"a": float("nan")}])
    assert list(tmp_path.iterdir()) == []
    jsonio.write_jsonl(out, [{"a": 1.0}])
    reference = tmp_path / "ref"
    reference.write_text("")
    assert out.stat().st_mode == reference.stat().st_mode  # as `open` makes a file
    out.chmod(0o640)
    with pytest.raises(ValueError):
        jsonio.write_jsonl(out, [{"a": 2.0}, {"a": float("inf")}])
    assert out.read_text() == '{"a":1}\n'
    jsonio.write_jsonl(out, [{"a": 2.0}])
    assert out.read_text() == '{"a":2}\n' and out.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o.jsonl", "ref"]
    link = tmp_path / "link.jsonl"
    link.symlink_to(out)
    jsonio.write_jsonl(link, [{"a": 3.0}])
    assert link.is_symlink() and out.read_text() == '{"a":3}\n'


_WRITERS = {
    "csv": lambda path, value: jsonio.write_csv(path, ["a"], [[1.0], [value]]),
    "report": lambda path, value: jsonio.write_report(path, {"a": [1.0, value]}),
}


@pytest.mark.parametrize("kind", sorted(_WRITERS))
def test_report_and_csv_writers_replace_their_file_atomically(tmp_path, kind):
    # as `write_jsonl` does (test above); a CSV row no report may hold once left
    # the header and the rows before it
    write = _WRITERS[kind]
    out = tmp_path / "out"
    out.write_text("old\n")
    out.chmod(0o640)
    with pytest.raises(ValueError):
        write(out, float("nan"))
    assert out.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    link = tmp_path / "link"
    link.symlink_to(out)
    write(link, 2.0)
    assert link.is_symlink() and out.read_bytes() != b"old\n"
    assert out.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "out"]


def _write_lines(path, objs):
    # json.dumps keeps 2.0 a float; the canonical writer would print it as 2
    path.write_text("".join(json.dumps(o) + "\n" for o in objs))
    return path


class TestCachedMatchThreshold:
    def test_calib_threshold_overrides_cached_token_f1(self, tmp_path):
        # token F1 of "big machine" against "big machine records" is 0.8
        records = [
            {"qid": f"q{i}", "gold_answers": ["big machine records"],
             "response_text": "Answer: " + ("big machine records" if i % 2 else "big machine"),
             "verbal_confidence": 0.7}
            for i in range(6)
        ]
        raw = _write_lines(tmp_path / "raw.jsonl", records)
        matched = tmp_path / "matched.jsonl"
        assert main(["match", "--in", str(raw), "--f1-threshold", "0.3",
                     "--out", str(matched)]) == 0
        accuracy = {}
        for name, path in (("raw", raw), ("matched", matched)):
            out = tmp_path / f"{name}.json"
            assert main(["calib", "--in", str(path), "--f1-threshold", "0.9",
                         "--out", str(out)]) == 0
            accuracy[name] = json.loads(out.read_text())["accuracy"]
        assert accuracy == {"raw": 0.5, "matched": 0.5}


class TestRejectionsReportedOnce:
    GOOD_PRED = {"qid": "g", "gold_answers": ["a"], "response_text": "Answer: a",
                 "verbal_confidence": 0.5}

    @staticmethod
    def rejections(err, path):
        lines = [line for line in err.splitlines() if str(path) in line]
        for line in lines:
            assert line.count(str(path)) == 1, line
        return lines

    def test_preds_and_rag(self, tmp_path, capsys):
        preds = _write_lines(tmp_path / "preds.jsonl", [
            self.GOOD_PRED, self.GOOD_PRED | {"verbal_confidence": 1.5}, self.GOOD_PRED,
        ])
        with open(preds, "a") as fh:
            fh.write("{broken\n")
        assert main(["calib", "--in", str(preds), "--out", str(tmp_path / "c.json")]) == 0
        assert self.rejections(capsys.readouterr().err, preds) == [
            f"{preds}:2: verbal_confidence outside [0,1]",
            f"{preds}:4: invalid JSON: Expecting property name enclosed in double quotes",
        ]
        good = {"qid": "r", "gold_answers": ["a"], "noret_answer": "a", "ret_answer": "b"}
        traces = _write_lines(tmp_path / "traces.jsonl",
                              [good, good | {"noret_emissions": -1}, good])
        assert main(["rag", "--policy", "always", "--in", str(traces),
                     "--out", str(tmp_path / "r.json")]) == 0
        assert self.rejections(capsys.readouterr().err, traces) == [
            f"{traces}:2: noret_emissions must be a nonnegative int",
        ]

    def test_spaces_and_kl_inputs(self, tmp_path, capsys):
        spaces = tmp_path / "spaces.jsonl"
        write_spaces(spaces, count=3)
        with open(spaces, "a") as fh:
            fh.write('{"trajectories": []}\n')
        assert main(["theory", "verify", "--in", str(spaces),
                     "--out", str(tmp_path / "v.jsonl")]) == 0
        assert self.rejections(capsys.readouterr().err, spaces) == [
            f"{spaces}:4: missing field 'gold_answer'",
        ]
        pair = {"position": 0, "base_probs": [0.5, 0.5], "calibrated_probs": [0.4, 0.6]}
        pairs = _write_lines(tmp_path / "pairs.jsonl",
                             [pair, pair | {"position": 1}, {"position": 2}])
        ann = _write_lines(tmp_path / "ann.jsonl", [
            {"position": 0, "type": "ReasoningToken"},
            {"position": 1, "type": "ReasoningToken"},
            {"type": "ReasoningToken"},
        ])
        assert main(["repr", "kl", "--pairs", str(pairs), "--annotations", str(ann),
                     "--out", str(tmp_path / "kl.json")]) == 0
        err = capsys.readouterr().err
        assert self.rejections(err, pairs) == [f"{pairs}:3: missing field 'base_probs'"]
        assert self.rejections(err, ann) == [f"{ann}:3: missing field 'position'"]


class TestCountsBeyondTheFloatRange:
    """A count is used as a float (a trace's emissions, a record's token
    count), so one too large for a float is refused on load; such a line
    once ended `rag` and `recal ats` with an OverflowError traceback."""

    HUGE = 10**400

    @staticmethod
    def with_line(fixture, path, change):
        lines = fixture.read_text().splitlines()
        path.write_text("\n".join(lines + [json.dumps(json.loads(lines[0]) | change)]) + "\n")
        return path, len(lines) + 1

    def test_rag_trace_emissions(self, tmp_path, capsys):
        path, line = self.with_line(RAG_FIXTURE, tmp_path / "t.jsonl",
                                    {"noret_emissions": self.HUGE})
        out = tmp_path / "r.json"
        assert main(["rag", "--policy", "always", "--in", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"{path}:{line}: noret_emissions exceeds 1.7976931348623157e+308"]
        assert json.loads(out.read_text())["overall"]["n"] == line - 1

    def test_prediction_token_count(self, tmp_path, capsys):
        path, line = self.with_line(PREDS_FIXTURE, tmp_path / "p.jsonl",
                                    {"response_token_count": self.HUGE})
        out = tmp_path / "o.jsonl"
        assert main(["recal", "ats", "--fit", str(path), "--apply", str(PREDS_FIXTURE),
                     "--out", str(out)]) == 0
        # the fixture's `Confidence: 1.7` is clamped
        assert [text for text in capsys.readouterr().err.splitlines()
                if text.startswith(f"{path}:")] == [
            f"{path}:{line}: response_token_count exceeds 1.7976931348623157e+308",
            f"{path}: clamped 1 confidence values outside [0,1]"]

    def test_the_largest_float_is_a_count(self):
        largest = int(sys.float_info.max)
        assert jsonio.read_table(jsonio.ROW_ID, {"qid": "q", "token_index": largest}) == {
            "qid": "q", "token_index": largest}
        with pytest.raises(ValueError, match="^token_index exceeds 1.7976931348623157e"):
            jsonio.read_table(jsonio.ROW_ID, {"qid": "q", "token_index": largest + 1})


class TestRagLoaderChecks:
    GOOD = {"qid": "r", "gold_answers": ["a"], "noret_answer": "a", "ret_answer": "b"}

    def load_one(self, tmp_path, **fields):
        """Rejections among three traces whose middle one carries `fields`."""
        path = _write_lines(tmp_path / "t.jsonl", [self.GOOD, self.GOOD | fields, self.GOOD])
        return jsonio.load_lines(path, jsonio.RAG_TRACES).errors

    @pytest.mark.parametrize("value", [True, "0.5", 1.5, -0.1])
    def test_noret_confidence_is_a_number_in_unit_interval(self, tmp_path, value):
        [(line, message)] = self.load_one(tmp_path, noret_confidence=value)
        assert line == 2 and "noret_confidence" in message

    @pytest.mark.parametrize("value", [[-3, 7], [0.5, True], [0.0], ["0.5"], 0.5])
    def test_noret_token_probs_are_numbers_in_open_unit_interval(self, tmp_path, value):
        [(line, message)] = self.load_one(tmp_path, noret_token_probs=value)
        assert line == 2 and "noret_token_probs" in message

    @pytest.mark.parametrize("value", [1.5, 2.0, "2", True, -1])
    def test_noret_emissions_is_a_nonnegative_int(self, tmp_path, value):
        [(line, message)] = self.load_one(tmp_path, noret_emissions=value)
        assert line == 2 and "noret_emissions" in message

    @pytest.mark.parametrize("field, value", [
        ("noret_probe_score", True), ("noret_probe_score", "0.7"),
        ("external_trigger", "false"), ("external_trigger", 0),
        ("noret_response_text", 3),
    ])
    def test_other_signals_type_checked(self, tmp_path, field, value):
        [(line, message)] = self.load_one(tmp_path, **{field: value})
        assert line == 2 and field in message

    def test_valid_signals_load(self, tmp_path):
        assert self.load_one(tmp_path, noret_confidence=1, noret_token_probs=[1, 0.25],
                             noret_emissions=2) == []


class TestPredictionLoaderChecks:
    GOOD = {"qid": "q", "gold_answers": ["5"], "response_text": "Answer: 5 <uncertain>"}

    @pytest.mark.parametrize("fields, named", [
        ({"extracted_answer": 5}, "extracted_answer"),
        ({"p_affirmative": True}, "p_affirmative"),
        ({"emissions": [{"char_position": 10.7}]}, "char_position"),
        ({"emissions": [{"char_position": 10, "token_index": "3"}]}, "token_index"),
        ({"emissions": [10]}, "emission"),
        ({"match": {"correct": "false", "rule": "ExactMatch", "f1": 1.0}}, "correct"),
        ({"match": {"correct": True, "rule": "Fuzzy", "f1": 1.0}}, "Fuzzy"),
        ({"match": {"correct": True, "rule": "TokenF1", "f1": 1.5}}, "f1"),
        ({"match": {"correct": True, "rule": "TokenF1"}}, "f1"),
    ])
    def test_rejected(self, tmp_path, fields, named):
        path = _write_lines(tmp_path / "p.jsonl", [self.GOOD, self.GOOD | fields, self.GOOD])
        [(line, message)] = jsonio.load_lines(path, jsonio.PREDICTIONS).errors
        assert line == 2 and named in message


class TestEmissionRules:
    """The two emission rules across a line's fields, which the prediction
    load checks after the field checks (`jsonio.PREDICTIONS.rule`), reported
    like any table rejection."""

    GOOD = {"qid": "g", "gold_answers": ["a"], "response_text": "Answer: a <uncertain>",
            "verbal_confidence": 0.5}

    @pytest.mark.parametrize("emissions, message", [
        ([{"char_position": 10}, {"char_position": 0}],
         "emissions must be sorted by char_position"),
        ([{"char_position": len(GOOD["response_text"])}],
         "emission position outside response text"),
    ])
    def test_reported_with_path_and_line(self, tmp_path, capsys, emissions, message):
        path = _write_lines(tmp_path / "p.jsonl",
                            [self.GOOD, self.GOOD | {"emissions": emissions}, self.GOOD])
        assert main(["calib", "--in", str(path), "--out", str(tmp_path / "c.json")]) == 0
        assert [line for line in capsys.readouterr().err.splitlines()
                if line.startswith(f"{path}:")] == [f"{path}:2: {message}"]


class TestTableRejections:
    """Values the loaders once coerced into plausible ones (a dataset named
    "None", a position 2.7 read as 2, booleans read as 1.0 and 0.0). Each line
    is now rejected as `path:line: message` naming the field, and the command
    goes on with the other lines."""

    @staticmethod
    def rejected(capsys, path) -> str:
        [line] = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith(f"{path}:")]
        assert line.startswith(f"{path}:2: ")
        return line

    @pytest.mark.parametrize("fields, named", [
        ({"dataset": None}, "dataset"), ({"question": 3}, "question"),
    ])
    def test_prediction(self, tmp_path, capsys, fields, named):
        good = {"qid": "g", "gold_answers": ["a"], "response_text": "Answer: a",
                "verbal_confidence": 0.5}
        path = _write_lines(tmp_path / "p.jsonl", [good, good | fields, good])
        assert main(["calib", "--in", str(path), "--out", str(tmp_path / "c.json")]) == 0
        assert named in self.rejected(capsys, path)

    @pytest.mark.parametrize("fields, named", [
        ({"dataset": None}, "dataset"), ({"dataset": 3}, "dataset"),
        ({"noret_probe_score": float("nan")}, "noret_probe_score"),
    ])
    def test_rag_trace(self, tmp_path, capsys, fields, named):
        good = {"qid": "r", "gold_answers": ["a"], "noret_answer": "b", "ret_answer": "a",
                "dataset": "nq", "noret_emissions": 1, "noret_probe_score": 0.9}
        path = _write_lines(tmp_path / "t.jsonl", [good, good | fields, good])
        out = tmp_path / "r.json"
        assert main(["rag", "--policy", "emit+probe:0.5", "--in", str(path),
                     "--out", str(out)]) == 0
        assert named in self.rejected(capsys, path)
        report = json.loads(out.read_text())
        assert list(report["per_dataset"]) == ["nq"] and report["overall"]["n"] == 2

    @pytest.mark.parametrize("field, value", [
        ("id", 1), ("answer", 7), ("confidence", "0.5"), ("base_prob", True),
    ])
    def test_space_trajectory(self, tmp_path, capsys, field, value):
        def space(first=None):
            trajectories = [{"id": "t0", "answer": "A", "confidence": 0.5, "base_prob": 1.0},
                            {"id": "t1", "answer": "B", "confidence": 0.5, "base_prob": 0.0}]
            trajectories[0].update(first or {})
            return {"gold_answer": "A", "trajectories": trajectories}

        path = _write_lines(tmp_path / "s.jsonl", [space(), space({field: value}), space()])
        assert main(["theory", "verify", "--in", str(path),
                     "--out", str(tmp_path / "v.jsonl")]) == 0
        assert field in self.rejected(capsys, path)

    @pytest.mark.parametrize("fields, named", [
        ({"position": 2.7}, "position"),
        ({"base_probs": [True, False]}, "base_probs"),
        ({"calibrated_probs": ["0.5", "0.5"]}, "calibrated_probs"),
        ({"base_probs": [float("nan"), 1.0]}, "base_probs"),
        ({"base_probs": [1.0]}, "equal-length"),  # ended the whole command at the parent
    ])
    def test_kl_pair(self, tmp_path, capsys, fields, named):
        pair = {"position": 0, "base_probs": [0.5, 0.5], "calibrated_probs": [0.4, 0.6]}
        pairs = _write_lines(tmp_path / "pairs.jsonl",
                             [pair, pair | {"position": 2} | fields, pair | {"position": 1}])
        ann = _write_lines(tmp_path / "ann.jsonl",
                           [{"position": k, "type": "ReasoningToken"} for k in range(3)])
        out = tmp_path / "kl.json"
        assert main(["repr", "kl", "--pairs", str(pairs), "--annotations", str(ann),
                     "--out", str(out)]) == 0
        assert named in self.rejected(capsys, pairs)
        assert json.loads(out.read_text())["by_type"]["ReasoningToken"]["count"] == 2

    @pytest.mark.parametrize("fields, named", [
        ({"position": 1.5}, "position"), ({"type": "Digit"}, "type"),
    ])
    def test_kl_annotation(self, tmp_path, capsys, fields, named):
        pair = {"position": 0, "base_probs": [0.5, 0.5], "calibrated_probs": [0.4, 0.6]}
        pairs = _write_lines(tmp_path / "pairs.jsonl", [pair, pair | {"position": 1}])
        note = {"position": 0, "type": "ReasoningToken"}
        ann = _write_lines(tmp_path / "ann.jsonl", [note, note | fields, note | {"position": 1}])
        assert main(["repr", "kl", "--pairs", str(pairs), "--annotations", str(ann),
                     "--out", str(tmp_path / "kl.json")]) == 0
        assert named in self.rejected(capsys, ann)


def test_kl_repeated_annotation_position_refused(tmp_path, capsys):
    # the second annotation of position 0 once silently replaced the first
    pairs = _write_lines(tmp_path / "pairs.jsonl", [
        {"position": 0, "base_probs": [0.5, 0.5], "calibrated_probs": [0.4, 0.6]}])
    ann = _write_lines(tmp_path / "ann.jsonl", [{"position": 0, "type": "ReasoningToken"},
                                                {"position": 0, "type": "Other"}])
    out = tmp_path / "kl.json"
    assert main(["repr", "kl", "--pairs", str(pairs), "--annotations", str(ann),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == "uncal: position 0 is annotated twice\n"
    assert not out.exists()


@pytest.mark.parametrize("epsilon", ["2", "1", "0", "-1", "nan", "inf", "x"])
def test_kl_epsilon_outside_the_unit_interval_is_refused_before_any_input(
        tmp_path, capsys, monkeypatch, epsilon):
    # `--epsilon 2` floored every probability, so every type read a mean KL
    # of 0; `--epsilon 0` ended in a NaN report once a calibrated prob was 0
    loads = count_calls(monkeypatch, jsonio, "load_lines")
    out = tmp_path / "kl.json"
    assert main(["repr", "kl", "--pairs", str(tmp_path / "pairs.jsonl"), "--annotations",
                 str(tmp_path / "ann.jsonl"), "--epsilon", epsilon, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "--epsilon" in err and "usage:" in err
    assert loads == [] and not out.exists()


def test_rag_csv_cells_read_back_through_the_csv_module(tmp_path):
    import csv

    names = ["x,y", 'say "no"\nthen', "cr\rhere", "plain"]
    good = {"qid": "r", "gold_answers": ["a"], "noret_answer": "a", "ret_answer": "b"}
    traces = _write_lines(tmp_path / "t.jsonl", [good | {"qid": f"r{i}", "dataset": name}
                                                 for i, name in enumerate(names)])
    table = tmp_path / "r.csv"
    assert main(["rag", "--policy", "always", "--in", str(traces), "--csv", str(table)]) == 0
    with open(table, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len({len(row) for row in rows}) == 1
    assert sorted(row[0] for row in rows[1:]) == sorted(names + ["overall"])


class TestNestedRejections:
    """A rejection inside a nested object says where in the line it is."""

    PRED = {"qid": "g", "gold_answers": ["a"], "response_text": "Answer: a <uncertain>",
            "verbal_confidence": 0.5}

    @staticmethod
    def space(**changes):
        trajectories = [{"id": f"t{i}", "answer": "AB"[i % 2], "confidence": 0.5,
                         "base_prob": 0.25} for i in range(4)]
        for i, fields in changes.items():
            trajectories[int(i[1:])] = fields
        return {"gold_answer": "A", "trajectories": trajectories}

    @pytest.mark.parametrize("fields, message", [
        ({"emissions": [{"char_position": 0, "x": 1}]}, "emissions[0]: unknown fields ['x']"),
        ({"emissions": [{"char_position": 0}, 5]}, "emissions[1] must be a JSON object"),
        ({"emissions": [{"char_position": 0}, {"token_index": 2}]},
         "emissions[1]: missing field 'char_position'"),
        ({"match": {"correct": True, "rule": "TokenF1"}}, "match: missing field 'f1'"),
        ({"match": {"correct": "yes", "rule": "TokenF1", "f1": 1.0}},
         "match: correct must be true or false"),
        ({"match": [1]}, "match must be a JSON object"),
    ])
    def test_calib(self, tmp_path, capsys, fields, message):
        path = _write_lines(tmp_path / "p.jsonl", [self.PRED, self.PRED | fields, self.PRED])
        assert main(["calib", "--in", str(path), "--out", str(tmp_path / "c.json")]) == 0
        assert capsys.readouterr().err == f"{path}:2: {message}\n"

    @pytest.mark.parametrize("changes, message", [
        ({"t2": {"id": "t2", "answer": "A", "confidence": 1.5, "base_prob": 0.25}},
         "trajectories[2]: confidence outside [0,1]"),
        ({"t1": {"answer": "B", "confidence": 0.5, "base_prob": 0.25}},
         "trajectories[1]: missing field 'id'"),
        ({"t3": {"id": "t3", "answer": "B", "confidence": 0.5, "base_prob": 0.25, "p": 1}},
         "trajectories[3]: unknown fields ['p']"),
        ({"t0": "t0"}, "trajectories[0] must be a JSON object"),
    ])
    def test_theory_verify(self, tmp_path, capsys, changes, message):
        path = _write_lines(tmp_path / "s.jsonl",
                            [self.space(), self.space(**changes), self.space()])
        out = tmp_path / "v.jsonl"
        assert main(["theory", "verify", "--in", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == f"{path}:2: {message}\n"
        assert len(out.read_text().splitlines()) == 2


@pytest.mark.parametrize("flags, message", [
    (["calib", "--in", "{missing}", "--bins", "0"],
     "bad --bins value '0': must be an integer >= 1"),
    (["calib", "--in", "{missing}", "--bins", "2.5"],
     "bad --bins value '2.5': must be an integer >= 1"),
    (["calib", "--in", "{missing}", "--nll-epsilon", "0.5"],
     "bad --nll-epsilon value '0.5': must be a number in (0,0.5)"),
    (["recal", "ats", "--fit", "{missing}", "--apply", "{missing}", "--out", "{missing}",
      "--l2", "-1"], "bad --l2 value '-1': must be a finite number >= 0"),
    (["probe", "sweep", "--hidden", "{missing}", "--preds", "{missing}", "--layers", "0",
      "--l2", "inf"], "bad --l2 value 'inf': must be a finite number >= 0"),
    (["probe", "fit", "--hidden", "{missing}", "--preds", "{missing}", "--out", "{missing}",
      "--window", "-1"], "bad --window value '-1': must be an integer >= 0"),
    (["probe", "fit", "--hidden", "{missing}", "--preds", "{missing}", "--out", "{missing}",
      "--span-tokens", "0"], "bad --span-tokens value '0': must be an integer >= 1"),
    (["theory", "iterate", "--in", "{missing}", "--steps", "0"],
     "bad --steps value '0': must be an integer >= 1"),
    (["repr", "pca", "--in", "{missing}", "--k", "0"],
     "bad --k value '0': must be an integer >= 1"),
])
def test_a_bad_flag_value_is_refused_before_any_input_is_read(
    tmp_path, monkeypatch, capsys, flags, message
):
    # given with a missing input, each exited 2 with `cannot read` once loaded
    reads = count_calls(monkeypatch, jsonio, "read_file")
    matrices = count_calls(monkeypatch, matio, "read_matrix")
    argv = [flag.format(missing=tmp_path / "missing") for flag in flags]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"uncal: {message}\nusage: uncal")
    assert reads == matrices == []


def _number_flags(parser, command=()):
    """(command words, flag) of each flag, in every subcommand of `parser`,
    whose values a `cli._number_flag` parser reads."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for word, sub in action.choices.items():
                yield from _number_flags(sub, (*command, word))
        elif getattr(action.type, "__qualname__", "").startswith("_number_flag."):
            yield command, action.option_strings[0]


_NUMBER_FLAGS = list(_number_flags(cli._build_parser()))


def test_the_walk_finds_every_range_flag():
    assert {flag for _, flag in _NUMBER_FLAGS} >= {"--eta", "--steps", "--f1-threshold",
                                                   "--bins", "--nll-epsilon", "--l2",
                                                   "--window", "--span-tokens", "--epsilon",
                                                   "--k"}


@pytest.mark.parametrize("command, flag", _NUMBER_FLAGS,
                         ids=[" ".join((*command, flag)) for command, flag in _NUMBER_FLAGS])
def test_every_number_flag_refuses_nan_before_anything_is_written(tmp_path, monkeypatch,
                                                                  capsys, command, flag):
    # the parser is the only check of a flag's range, and `_number_flag`
    # refuses nan whatever the range: a range flag added later is covered too
    monkeypatch.chdir(tmp_path)
    assert main([*command, flag, "nan"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"uncal: bad {flag} value 'nan'")
    assert list(tmp_path.iterdir()) == []


class TestFitFlagRanges:
    """Fit settings that used to produce garbage are refused with exit 1 and a
    message naming the setting; no output is written."""

    @pytest.fixture()
    def probe_inputs(self, tmp_path):
        preds = write_hidden_dir(tmp_path / "hidden", n=60)
        return tmp_path / "hidden", preds

    @pytest.mark.parametrize("flags, message", [
        (["--l2", "-1"], "bad --l2 value '-1': must be a finite number >= 0"),
        (["--l2", "nan"], "bad --l2 value 'nan': must be a finite number >= 0"),
        (["--l2", "inf"], "bad --l2 value 'inf': must be a finite number >= 0"),
        (["--window", "-1"], "bad --window value '-1': must be an integer >= 0"),
        (["--window", "-1", "--span-tokens", "3"],
         "bad --window value '-1': must be an integer >= 0"),
        (["--span-tokens", "0"], "bad --span-tokens value '0': must be an integer >= 1"),
    ])
    @pytest.mark.parametrize("command", ["sweep", "fit"])
    def test_probe(self, tmp_path, capsys, probe_inputs, command, flags, message):
        hidden, preds = probe_inputs
        out = tmp_path / "out.json"
        where = (["--hidden", str(hidden), "--layers", "0,8"] if command == "sweep"
                 else ["--hidden", str(hidden / "layer_8.mat")])
        assert main(["probe", command, *where, "--preds", str(preds),
                     *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"uncal: {message}\nusage: uncal")
        assert not out.exists()

    def test_window_refused_when_no_record_has_hidden_states(self, tmp_path, capsys,
                                                             probe_inputs):
        # the fixture's records share no qid with the layer file
        argv = ["probe", "fit", "--hidden", str(probe_inputs[0] / "layer_8.mat"),
                "--preds", str(PREDS_FIXTURE), "--out", str(tmp_path / "m.json")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "uncal: no emitted record has hidden states\n"
        assert main([*argv, "--window", "-1"]) == 1
        assert capsys.readouterr().err.startswith(
            "uncal: bad --window value '-1': must be an integer >= 0\n")

    @pytest.mark.parametrize("flags, message", [
        (["--l2", "-1"], "bad --l2 value '-1': must be a finite number >= 0"),
        (["--l2", "nan"], "bad --l2 value 'nan': must be a finite number >= 0"),
        (["--l2", "inf"], "bad --l2 value 'inf': must be a finite number >= 0"),
    ])
    def test_recal_ats(self, tmp_path, capsys, flags, message):
        out = tmp_path / "o.jsonl"
        assert main(["recal", "ats", "--fit", str(PREDS_FIXTURE),
                     "--apply", str(PREDS_FIXTURE), "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err.startswith(f"uncal: {message}\nusage: uncal")
        assert not out.exists()

    @pytest.mark.parametrize("config, message", [
        ({"window": -1}, "probe model config: window must be an integer >= 0"),
        ({"span_tokens": 0}, "probe model config: span_tokens must be an integer >= 1"),
    ])
    def test_probe_eval_reads_the_ranges_from_the_model(
        self, tmp_path, capsys, probe_inputs, config, message
    ):
        hidden, preds = probe_inputs
        layer = hidden / "layer_8.mat"
        model = tmp_path / "model.json"
        assert main(["probe", "fit", "--hidden", str(layer), "--preds", str(preds),
                     "--out", str(model)]) == 0
        obj = json.loads(model.read_text())
        obj["config"].update(config)
        model.write_text(json.dumps(obj))
        assert main(["probe", "eval", "--model", str(model), "--hidden", str(layer),
                     "--preds", str(preds), "--out", str(tmp_path / "e.json")]) == 1
        assert capsys.readouterr().err == f"uncal: {model}: {message}\n"


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_PROB = st.floats(0.0, 1.0)
_TOKEN_PROBS = st.lists(st.floats(0.0, 1.0, exclude_min=True), max_size=4)
_GOLDS = st.lists(_TEXT, min_size=1, max_size=3)


@st.composite
def _predictions(draw) -> dict:
    """A row of a prediction table, its fields as a load reads them."""
    text = draw(_TEXT)
    positions = sorted(draw(st.sets(st.integers(0, max(len(text) - 1, 0)), max_size=3)))
    return {
        "qid": draw(_TEXT), "gold_answers": draw(_GOLDS), "response_text": text,
        "dataset": draw(_TEXT), "question": draw(_TEXT),
        "extracted_answer": draw(st.none() | _TEXT),
        "verbal_confidence": draw(st.none() | _PROB),
        "emissions": [{"char_position": p, "token_index": draw(st.none() | st.integers(0, 99))}
                      for p in positions],
        "response_token_count": draw(st.integers(0, 10**6)),
        "token_probs": draw(st.none() | _TOKEN_PROBS),
        "p_affirmative": draw(st.none() | _PROB),
        "match": draw(st.none() | st.fixed_dictionaries({
            "correct": st.booleans(), "rule": st.sampled_from(MatchRule), "f1": _PROB})),
    }


_RAG_TRACES = st.fixed_dictionaries({
    "qid": _TEXT, "gold_answers": _GOLDS, "noret_answer": _TEXT, "ret_answer": _TEXT,
    "dataset": _TEXT, "noret_confidence": st.none() | _PROB,
    "noret_emissions": st.integers(0, 99),
    "noret_probe_score": st.none() | st.floats(allow_nan=False, allow_infinity=False),
    "noret_token_probs": st.none() | _TOKEN_PROBS,
    "noret_response_text": st.none() | _TEXT,
    "external_trigger": st.none() | st.booleans(),
})


def _reread(kind, line: str) -> dict:
    """The one row a load of `line` yields."""
    table, errors, _ = jsonio.read_lines([line], kind)
    assert errors == []
    return rows(table)[0]


@settings(max_examples=200, deadline=None)
@given(_predictions())
def test_prediction_writer_loader_round_trip(row):
    line = jsonio.encode(jsonio.PREDICTION, row)
    again = _reread(jsonio.PREDICTIONS, line)
    assert again == row
    assert jsonio.encode(jsonio.PREDICTION, again) == line


@st.composite
def _answered_predictions(draw) -> dict:
    """A `_predictions` row whose text may end in an answer line."""
    row = draw(_predictions())
    answer = draw(st.none() | st.sampled_from(["alpha", "Alpha.", "yes", "1920", ""]) | _TEXT)
    if answer is None:
        return row
    return {**row, "response_text": f"{row['response_text']}\nAnswer: {answer}"}


@settings(max_examples=100, deadline=None)
@given(st.lists(_answered_predictions(), min_size=1, max_size=5),
       st.sampled_from([0.0, 0.3, 1.0]))
def test_match_lines_equal_the_former_annotation(lines, threshold):
    # each line as `match` wrote it from a copy of the record with
    # `extracted_answer` and `match` filled in
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "preds.jsonl", Path(tmp) / "matched.jsonl"
        jsonio.write_jsonl(path, [jsonio.encode(jsonio.PREDICTION, row) for row in lines])
        assert main(["match", "--in", str(path), "--f1-threshold", str(threshold),
                     "--out", str(out)]) == 0
        want = [jsonio.encode(jsonio.PREDICTION,
                              record_row(oracle_annotate_record(r, threshold))) + "\n"
                for r in prediction_records(jsonio.load_lines(path, jsonio.PREDICTIONS).records)]
        assert out.read_text(encoding="utf-8") == "".join(want)


@settings(max_examples=200, deadline=None)
@given(_RAG_TRACES)
def test_rag_writer_loader_round_trip(row):
    line = jsonio.encode(jsonio.RAG_TRACE, row)
    again = jsonio.read_table(jsonio.RAG_TRACE, json.loads(line))
    assert again == row
    assert jsonio.encode(jsonio.RAG_TRACE, again) == line
    # a load keeps the minimum token probability and not the response text
    want = rows(oracle_trace_table([RagTraceRecord(**again)]))[0]
    assert _reread(jsonio.RAG_TRACES, line) == want


_SPACES = st.integers(0, 2**32 - 1).map(lambda seed: random_space(np.random.default_rng(seed)))


@settings(max_examples=100, deadline=None)
@given(_SPACES)
def test_space_writer_loader_round_trip(space):
    line = jsonio.encode(jsonio.SPACE, space)
    again, errors, _ = jsonio.read_lines([line], jsonio.SPACES)
    assert errors == [] and again == {"gold_answer": [space["gold_answer"]],
                                      "trajectories": [space["trajectories"]]}
    assert jsonio.encode(jsonio.SPACE, {key: column[0] for key, column in again.items()}) == line


def test_probe_model_writer_loader_round_trip(tmp_path):
    preds = write_hidden_dir(tmp_path / "hidden")
    out = tmp_path / "probe.json"
    assert main(["probe", "fit", "--hidden", str(tmp_path / "hidden" / "layer_8.mat"),
                 "--preds", str(preds), "--layer", "8", "--out", str(out)]) == 0
    text = out.read_text()
    model, _ = _load_probe_model(out)
    # the loader keeps the model; what it does not keep is given back in line form
    fields = jsonio.read_table(jsonio.PROBE_MODEL, json.loads(text))
    given = {key: fields[key] for key in ("schema", "config", "fit")}
    assert jsonio.encode(jsonio.PROBE_MODEL, {**vars(model), **given}) + "\n" == text


# each table with the class its rows make (for predictions, traces, emissions,
# spaces, trajectories and KL pairs and annotations, the record class their
# loads built before they yielded column tables): the table holds the class's fields, less those
# derived on reading, plus those given on writing
_TABLE_CLASSES = {
    "PREDICTION": PredictionRecord,
    "EMISSION": EmissionEvent,
    "MATCH": MatchResult,
    "RAG_TRACE": RagTraceRecord,
    "SPACE": TrajectorySpace,
    "TRAJECTORY": Trajectory,
    "KL_PAIR": TokenDistPair,
    "KL_ANNOTATION": TokenAnnotation,
    "PROBE_MODEL": probe.ProbeModel,
    "FIT": optim.Fit,
}
_DERIVED = {"TRAJECTORY": {"correct"}, "FIT": {"loss_trace"}}
_GIVEN = {"PROBE_MODEL": {"schema", "config"}}


@pytest.mark.parametrize("table", sorted(_TABLE_CLASSES))
def test_table_fields_are_the_class_fields(table):
    fields = {f.name for f in dataclasses.fields(_TABLE_CLASSES[table])}
    want = fields - _DERIVED.get(table, set()) | _GIVEN.get(table, set())
    assert set(getattr(jsonio, table)) == want


def test_encoder_refuses_a_field_the_mapping_lacks():
    model = vars(probe.ProbeModel(0, np.zeros(1), 0.0, 0.5, np.zeros(1), np.ones(1)))
    with pytest.raises(KeyError, match="schema"):
        jsonio.encode(jsonio.PROBE_MODEL, {**model, "config": None})
    line = jsonio.encode(jsonio.PROBE_MODEL, {**model, "schema": None, "config": None})
    assert json.loads(line) == {"layer": 0, "weights": [0.0], "bias": 0.0, "threshold": 0.5,
                    "feature_means": [0.0], "feature_stds": [1.0]}


# answers and confidences from small pools, so that ties, every match rule,
# unparsed confidences and empty bins all occur
_ANSWERS = st.sampled_from(["alpha", "Alpha.", "omega", "beta gamma", "gamma", "yes", ""])
_CONFIDENCES = st.sampled_from([0.0, 0.1, 0.5, 0.7, 0.9, 1.0]) | _PROB


@st.composite
def _scored_predictions(draw) -> list[dict]:
    records = []
    for i in range(draw(st.integers(1, 25))):
        conf = draw(st.none() | _CONFIDENCES)
        in_text = conf is not None and draw(st.booleans())
        text = ("hmm <uncertain>\n" if draw(st.booleans()) else "") + f"Answer: {draw(_ANSWERS)}"
        records.append(prediction(
            f"q{i}", ("alpha", "beta gamma"),
            text + (f"\nConfidence: {conf}" if in_text else ""),
            verbal_confidence=None if in_text else conf,
        ))
    return records


def _as_json(obj):
    """`obj` as a report reader sees it (tuples become lists)."""
    return json.loads(json.dumps(obj))


@settings(max_examples=60, deadline=None)
@given(_scored_predictions(), st.integers(1, 12))
def test_calib_cli_equals_api(records, bins):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "preds.jsonl", Path(tmp) / "calib.json"
        jsonio.write_jsonl(path, records)
        argv = ["calib", "--in", str(path), "--bins", str(bins), "--out", str(out)]
        batch = rewards.score_predictions(jsonio.load_lines(path, jsonio.PREDICTIONS).records)
        try:
            report = calib.calibration_report(batch, bins)
        except EmptyBatch:
            assert main(argv) == 1
            return
        assert main(argv) == 0
        got = json.loads(out.read_text())
    want = _as_json({**report, "error_taxonomy": calib.error_taxonomy(batch)})
    assert {key: got[key] for key in want} == want


_POLICIES = st.sampled_from(["always", "never", "emit", "external", "conf:0", "conf:0.5",
                             "emit+probe:0.5", "flare:0.3"])
_FULL_TRACES = st.lists(st.fixed_dictionaries({
    "qid": st.uuids().map(str), "gold_answers": st.just(["alpha", "beta gamma"]),
    "noret_answer": _ANSWERS, "ret_answer": _ANSWERS,
    "dataset": st.sampled_from(["", "d1", "d2"]), "noret_confidence": _CONFIDENCES,
    "noret_emissions": st.integers(0, 3), "noret_probe_score": _PROB,
    "noret_token_probs": _TOKEN_PROBS, "external_trigger": st.booleans(),
}), min_size=1, max_size=25)


@settings(max_examples=60, deadline=None)
@given(_FULL_TRACES, _POLICIES)
def test_rag_cli_equals_api(records, policy):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "traces.jsonl", Path(tmp) / "rag.json"
        jsonio.write_jsonl(path, records)
        assert main(["rag", "--policy", policy, "--in", str(path), "--out", str(out)]) == 0
        got = json.loads(out.read_text())
        loaded = jsonio.load_lines(path, jsonio.RAG_TRACES).records
    scored = ragctl.score_traces(loaded)
    fires = ragctl.decide(ragctl.parse_policy_spec(policy), scored)
    assert got["overall"] == _as_json(ragctl.trigger_report(scored, fires))
    assert got["per_dataset"] == _as_json(ragctl.trigger_reports_by_dataset(scored, fires))


class TestProbeScoring:
    @pytest.mark.parametrize("fault", ["truncated", "sidecar"])
    def test_sweep_fails_at_a_broken_last_layer_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys, fault
    ):
        # layers are loaded one at a time, so layer 0 is fitted before layer
        # 8's fault is found; the report is still all or nothing
        preds = write_hidden_dir(tmp_path / "hidden")
        layer = tmp_path / "hidden" / "layer_8.mat"
        if fault == "truncated":
            data = layer.read_bytes()
            layer.write_bytes(data[:-6])
            expected = len(data) - len(data.split(b"\n", 1)[0]) - 1
            message = f"{layer}: expected {expected} payload bytes, got {expected - 6}"
        else:
            sidecar = Path(str(layer) + ".ids.jsonl")
            sidecar.write_text("".join(sidecar.read_text().splitlines(True)[:-1]))
            message = f"{layer}: sidecar row count does not match matrix"
        fits = count_calls(monkeypatch, probe, "fit_probe")
        out, csv = tmp_path / "s.json", tmp_path / "s.csv"
        assert main(["probe", "sweep", "--hidden", str(tmp_path / "hidden"),
                     "--preds", str(preds), "--layers", "0,8",
                     "--out", str(out), "--csv", str(csv)]) == 2
        assert capsys.readouterr().err == f"uncal: {message}\n"
        assert len(fits) == 1
        assert not out.exists() and not csv.exists()

    def test_sweep_scores_each_record_once(self, tmp_path, monkeypatch):
        preds = write_hidden_dir(tmp_path / "hidden", layers=(0, 4, 8))
        scored = count_calls(monkeypatch, rewards, "score_predictions")
        matches = count_calls(monkeypatch, rewards, "match_answer")
        assert main(["probe", "sweep", "--hidden", str(tmp_path / "hidden"),
                     "--preds", str(preds), "--layers", "0,4,8",
                     "--out", str(tmp_path / "s.json")]) == 0
        qids = jsonio.load_lines(preds, jsonio.PREDICTIONS).records["qid"]
        assert [args[0]["qid"] for args in scored] == [qids] and len(matches) == len(qids)


class TestMissingFields:
    def test_ats_model_passed_to_probe_eval(self, tmp_path, capsys):
        preds = write_hidden_dir(tmp_path / "hidden")
        model = tmp_path / "ats.json"
        assert main(["recal", "ats", "--fit", str(PREDS_FIXTURE),
                     "--apply", str(PREDS_FIXTURE), "--out", str(tmp_path / "o.jsonl"),
                     "--model-out", str(model)]) == 0
        assert main(["probe", "eval", "--model", str(model),
                     "--hidden", str(tmp_path / "hidden" / "layer_8.mat"),
                     "--preds", str(preds)]) == 1
        err = capsys.readouterr().err
        assert str(model) in err and "'layer'" in err

    @staticmethod
    def eval_edited_model(tmp_path, edit) -> int:
        """Exit code of `probe eval` on a fitted probe model changed by
        `edit(model dict)`."""
        preds = write_hidden_dir(tmp_path / "hidden")
        layer = tmp_path / "hidden" / "layer_8.mat"
        model = tmp_path / "model.json"
        assert main(["probe", "fit", "--hidden", str(layer), "--preds", str(preds),
                     "--layer", "8", "--out", str(model)]) == 0
        obj = json.loads(model.read_text())
        edit(obj)
        model.write_text(json.dumps(obj))
        return main(["probe", "eval", "--model", str(model), "--hidden", str(layer),
                     "--preds", str(preds), "--out", str(tmp_path / "e.json")])

    @pytest.mark.parametrize("field, value", [("bias", None), ("layer", [1]),
                                              ("weights", "0.5"), ("threshold", True),
                                              ("config", {"window": None})])
    def test_wrongly_typed_probe_model_field(self, tmp_path, capsys, field, value):
        assert self.eval_edited_model(tmp_path, lambda obj: obj.update({field: value})) == 1
        err = capsys.readouterr().err
        assert str(tmp_path / "model.json") in err and f"probe model {field}" in err

    @pytest.mark.parametrize("edit, message", [
        (lambda obj: obj["config"].update(window=None),
         "probe model config: window must be an integer >= 0"),
        (lambda obj: obj["fit"].pop("converged"), "probe model fit: missing field 'converged'"),
        (lambda obj: obj.update(note="x"), "probe model unknown fields ['note']"),
        (lambda obj: obj.update(schema="uncal-ats-model-v3"),
         "probe model schema must be 'uncal-probe-model-v2'"),
    ])
    def test_probe_model_read_by_its_table(self, tmp_path, capsys, edit, message):
        assert self.eval_edited_model(tmp_path, edit) == 1
        assert capsys.readouterr().err == f"uncal: {tmp_path / 'model.json'}: {message}\n"
        assert not (tmp_path / "e.json").exists()

    @pytest.mark.parametrize("field", ["weights", "feature_means", "feature_stds"])
    def test_mis_sized_probe_model(self, tmp_path, capsys, field):
        # numpy broadcast a one-entry mean or std into a plausible report, and
        # a short weight list failed with its own `matmul` message
        assert self.eval_edited_model(
            tmp_path, lambda obj: obj.update({field: obj[field][:1]})) == 1
        obj = json.loads((tmp_path / "model.json").read_text())
        sizes = [len(obj[key]) for key in ("weights", "feature_means", "feature_stds")]
        assert sorted(sizes)[:2] == [1, 15]  # 12 hidden dims and 3 scalars
        assert capsys.readouterr().err == (
            "uncal: probe model has {} weights, {} feature means and {} feature stds "
            "for 15 features\n".format(*sizes)
        )
        assert not (tmp_path / "e.json").exists()

    @pytest.mark.parametrize("std", [0.0, -1.0])
    def test_non_positive_feature_std(self, tmp_path, capsys, std):
        # a negative std flips its feature's sign; a fit never writes one <= 0
        assert self.eval_edited_model(
            tmp_path, lambda obj: obj["feature_stds"].__setitem__(0, std)) == 1
        assert "probe model feature_stds must be a list of finite numbers > 0" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("field, value", [("bias", float("nan")),
                                              ("weights", [0.0, float("inf")])])
    def test_non_finite_probe_model_field(self, tmp_path, field, value):
        # refused on load; evaluating it would stall `probe.auroc` on NaN scores
        model = tmp_path / "model.json"
        obj = {"layer": 8, "weights": [0.0, 1.0], "bias": 0.0, "threshold": 0.5,
               "feature_means": [0.0, 0.0], "feature_stds": [1.0, 1.0]}
        obj[field] = value
        model.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=field):
            _load_probe_model(model)

    def test_probe_model_that_is_not_json_names_the_file(self, tmp_path):
        model = tmp_path / "model.json"
        model.write_text('{"layer": 8')
        with pytest.raises(ValueError) as refused:
            _load_probe_model(model)
        assert str(refused.value).startswith(f"{model}: probe model is not JSON: ")

    @pytest.mark.parametrize("text", ["[1, 2]", "3", "null", '"model"'])
    def test_probe_model_that_is_not_an_object(self, tmp_path, text):
        model = tmp_path / "model.json"
        model.write_text(text)
        with pytest.raises(ValueError) as refused:
            _load_probe_model(model)
        assert str(refused.value) == f"{model}: probe model must be a JSON object"

    def test_sidecar_row_without_qid(self, tmp_path, capsys):
        preds = write_hidden_dir(tmp_path / "hidden")
        layer = tmp_path / "hidden" / "layer_8.mat"
        sidecar = Path(str(layer) + ".ids.jsonl")
        rows = sidecar.read_text().splitlines()
        rows[3] = json.dumps({"token_index": 3})
        sidecar.write_text("\n".join(rows) + "\n")
        with pytest.raises(AlignmentError):
            _load_token_stack(layer)
        assert main(["probe", "fit", "--hidden", str(layer), "--preds", str(preds),
                     "--out", str(tmp_path / "m.json")]) == 1
        err = capsys.readouterr().err
        assert f"{sidecar}:4:" in err and "'qid'" in err

    @pytest.mark.parametrize("row, field", [
        ({"qid": 7, "token_index": 3}, "qid"),
        ({"qid": True, "token_index": 3}, "qid"),
        ({"qid": "p0000", "token_index": -1}, "token_index"),
        ({"qid": "p0000", "token_index": 3.0}, "token_index"),
        ({"qid": "p0000", "token_index": 3, "layer": 8}, "layer"),
    ])
    def test_sidecar_row_read_by_its_table(self, tmp_path, capsys, row, field):
        # read with str(), a qid 7 would align with the record whose qid is "7"
        preds = write_hidden_dir(tmp_path / "hidden")
        layer = tmp_path / "hidden" / "layer_8.mat"
        sidecar = Path(str(layer) + ".ids.jsonl")
        rows = sidecar.read_text().splitlines()
        rows[3] = json.dumps(row)
        sidecar.write_text("\n".join(rows) + "\n")
        assert main(["probe", "fit", "--hidden", str(layer), "--preds", str(preds),
                     "--out", str(tmp_path / "m.json")]) == 1
        err = capsys.readouterr().err
        assert f"{sidecar}:4:" in err and (f"'{field}'" in err or f"{field} must" in err)


class TestAtomicInPlaceMatch:
    def test_in_place_rewrite_annotates(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        shutil.copy(PREDS_FIXTURE, path)
        path.chmod(0o640)
        assert main(["match", "--in", str(path)]) == 0
        assert None not in jsonio.load_lines(path, jsonio.PREDICTIONS).records["match"]
        assert path.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["preds.jsonl"]

    @pytest.mark.parametrize("block", [1, 7, 256])
    def test_a_file_with_a_rejected_line_is_not_rewritten(self, tmp_path, monkeypatch, capsys,
                                                          block):
        # rewriting it would drop the rejected line; `--out` writes the accepted
        # ones. It is the last line, so smaller blocks are written before it is read
        monkeypatch.setattr(jsonio, "BLOCK_LINES", block)
        path = tmp_path / "ip.jsonl"
        path.write_bytes(PREDS_FIXTURE.read_bytes() + b'{"qid": "bad", "gold_answers": ["a"], '
                         b'"response_text": "x", "verbal_confidence": 3}\n')
        before = path.read_bytes()
        assert main(["match", "--in", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"{path}:21: verbal_confidence outside [0,1]",
            f"uncal: {path}: 1 of 21 lines rejected; the file is left as it was (give --out "
            "to write the accepted lines)"]
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ip.jsonl"]
        out = tmp_path / "out.jsonl"
        assert main(["match", "--in", str(path), "--out", str(out)]) == 0
        fixture = jsonio.load_lines(PREDS_FIXTURE, jsonio.PREDICTIONS).records
        assert jsonio.load_lines(out, jsonio.PREDICTIONS).records["qid"] == fixture["qid"]

    def test_failing_writer_leaves_input_intact(self, tmp_path, monkeypatch):
        path = tmp_path / "preds.jsonl"
        shutil.copy(PREDS_FIXTURE, path)
        before = path.read_bytes()
        lines = []
        original = jsonio.encode_lines

        def failing(table, columns):
            # the output's fifth line fails, once four are written
            for line in original(table, columns):
                if table is jsonio.PREDICTION:
                    if len(lines) == 4:
                        raise OSError("disk full")
                    lines.append(line)
                yield line

        monkeypatch.setattr(jsonio, "encode_lines", failing)
        assert main(["match", "--in", str(path)]) == 2
        assert len(lines) == 4
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["preds.jsonl"]

    @pytest.mark.parametrize("block", [2, 256])
    def test_failing_read_names_the_source(self, tmp_path, monkeypatch, capsys, block):
        # the sixth line cannot be read: with two-line blocks, once two
        # blocks are written to the temporary file
        monkeypatch.setattr(jsonio, "BLOCK_LINES", block)
        path, out = tmp_path / "preds.jsonl", tmp_path / "out.jsonl"
        shutil.copy(PREDS_FIXTURE, path)
        out.write_text("kept\n")
        opened = jsonio.open_hashed

        class FailingLines(contextlib.closing):
            def __iter__(self):
                for number, line in enumerate(self.thing, start=1):
                    if number == 6:
                        raise OSError(5, "Input/output error")
                    yield line

        def failing(source):
            fh, sha256 = opened(source)
            return FailingLines(fh), sha256

        monkeypatch.setattr(jsonio, "open_hashed", failing)
        assert main(["match", "--in", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"uncal: cannot read {path}: [Errno 5] Input/output error\n")
        assert out.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl", "preds.jsonl"]


@settings(max_examples=300, deadline=None)
@given(st.text(st.characters(blacklist_categories=("Cs",))))
@example("\x00\x1f\x7f  \"\\/")
@example("\U0001f600 non-BMP \U00010348")
def test_canonical_strings_match_json_dumps(text):
    expected = json.dumps(text, ensure_ascii=False)
    assert jsonio.dumps_canonical(text) == expected
    assert jsonio.dumps_canonical({text: text}) == "{" + expected + ":" + expected + "}"
