"""Loads that derive as they read: whatever `jsonio.BLOCK_LINES` is, what
a load derives a block at a time equals what the same derivation gives of
the whole table, and every command, the writers included, writes the same
bytes. A derived load, and a writer, hold a bounded number of bytes per
line."""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import shutil
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncal import cli, jsonio, probe, ragctl, recal, reprgeo, rewards
from uncal.cli import main

from test_cli import PREDS_FIXTURE, RAG_FIXTURE
from test_codec import _DISTRIBUTIONS, _line_mixes
from test_inputs import _plan_preds

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = [1, 3, 7, 256]


@contextlib.contextmanager
def _block_lines(count: int):
    """`jsonio.BLOCK_LINES` set to `count` (a Hypothesis test cannot take
    the function-scoped `monkeypatch`)."""
    saved, jsonio.BLOCK_LINES = jsonio.BLOCK_LINES, count
    try:
        yield
    finally:
        jsonio.BLOCK_LINES = saved


def _same(got, want) -> bool:
    """Are two derived values equal, arrays by dtype, shape and bytes (so
    NaN equals NaN) or, holding objects, by their items?"""
    if isinstance(want, np.ndarray):
        return (type(got) is np.ndarray and got.dtype == want.dtype and got.shape == want.shape
                and (got.tolist() == want.tolist() if want.dtype == object
                     else got.tobytes() == want.tobytes()))
    if hasattr(want, "__dataclass_fields__"):
        return type(got) is type(want) and all(
            _same(getattr(got, name), getattr(want, name)) for name in want.__dataclass_fields__)
    if isinstance(want, dict):
        return (type(got) is dict and list(got) == list(want)
                and all(_same(got[key], want[key]) for key in want))
    if isinstance(want, tuple):
        return (type(got) is tuple and len(got) == len(want)
                and all(map(_same, got, want)))
    return type(got) is type(want) and got == want


# a prediction line the load rule refuses: unsorted emissions, or one outside the text
_RULE_FAULTS = [
    json.dumps({"qid": "r", "gold_answers": ["a"], "response_text": "<uncertain> <uncertain>",
                "emissions": [{"char_position": 12}, {"char_position": 0}]}),
    json.dumps({"qid": "s", "gold_answers": ["a"], "response_text": "ab",
                "emissions": [{"char_position": 5}]}),
]
# prediction lines with answers, emissions with token indices, and cached matches
_PREDICTION = st.fixed_dictionaries(
    {"qid": st.sampled_from(["p", "q", "r"]),
     "gold_answers": st.sampled_from([["a"], ["a b", "c"], ["yes"], ["2001-02-03"]]),
     "response_text": st.sampled_from([
         "", "x", "<uncertain> a", "Answer: a\nConfidence: 0.4", "step\n\nAnswer: a b c",
         "Answer: no <uncertain>\nConfidence: 1.5", "Feb 3, 2001\nAnswer: February 3, 2001"])},
    optional={"verbal_confidence": st.floats(0, 1),
              "extracted_answer": st.sampled_from(["a", "c"]),
              "match": st.sampled_from([{"correct": True, "rule": "ExactMatch", "f1": 1.0},
                                        {"correct": False, "rule": "TokenF1", "f1": 0.4}]),
              "response_token_count": st.integers(0, 9)})


@st.composite
def _prediction_lines(draw):
    """Prediction lines that mix accepted lines with bad JSON, refused
    fields and refusals of the load rule."""
    lines = draw(_line_mixes("PREDICTIONS"))
    for _ in range(draw(st.integers(0, 12))):
        obj = draw(_PREDICTION)
        if "<uncertain>" in obj["response_text"] and draw(st.booleans()):
            obj["emissions"] = [{"char_position": obj["response_text"].index("<uncertain>"),
                                 "token_index": draw(st.integers(0, 3))}]
        lines.insert(draw(st.integers(0, len(lines))), json.dumps(obj))
    for fault in draw(st.lists(st.sampled_from(_RULE_FAULTS), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), fault)
    return lines


def _scored_features(columns):
    batch = rewards.score_predictions(columns, 0.3)
    return batch, recal.ats_features(columns, batch.confidence)


DERIVES = {
    "score_predictions": ("PREDICTIONS", lambda c: rewards.score_predictions(c, 0.3)),
    "score_predictions at 0.9": ("PREDICTIONS", lambda c: rewards.score_predictions(c, 0.9)),
    "probe.emitted": ("PREDICTIONS",
                      lambda c: probe.emitted(c, rewards.score_predictions(c, 0.3))),
    "ats features": ("PREDICTIONS", _scored_features),
    "score_traces": ("RAG_TRACES", lambda c: ragctl.score_traces(c, 0.3)),
}
_LINES = {"PREDICTIONS": _prediction_lines(), "RAG_TRACES": _line_mixes("RAG_TRACES")}


def _messages(errors: list) -> list[tuple[int, str]]:
    return [(line, str(refusal)) for line, refusal in errors]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(DERIVES)).flatmap(lambda name: st.tuples(
    st.just(name), _LINES[DERIVES[name][0]])), st.sampled_from(BLOCKS))
def test_a_derived_load_equals_the_derivation_of_the_whole_table(mix, block):
    name, lines = mix
    kind, derive = getattr(jsonio, DERIVES[name][0]), DERIVES[name][1]
    table, errors, total = jsonio.read_lines(lines, kind)
    with _block_lines(block):
        got, got_errors, got_total = jsonio._read_lines(lines, kind, derive)
    assert _same(got, derive(table))
    assert (_messages(got_errors), got_total) == (_messages(errors), total)


def _kl_lines(pairs) -> list[str]:
    """The KL pair lines of (base probs, calibrated probs) pairs, at positions 0, 1, ..."""
    return [json.dumps({"position": i, "base_probs": base, "calibrated_probs": calibrated})
            for i, (base, calibrated) in enumerate(pairs)]


# distributions of several lengths, some refused for their sums or lengths
_KL_DISTRIBUTIONS = st.sampled_from(_DISTRIBUTIONS + [[0.125] * 8, [0.0, 0.25, 0.75],
                                                      [0.5, 0.0, 0.5], [0.7, 0.2, 0.1]])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_KL_DISTRIBUTIONS, _KL_DISTRIBUTIONS), max_size=20),
       st.sampled_from(BLOCKS), st.sampled_from([1e-9, 1e-3]))
def test_kl_values_loaded_by_blocks_are_those_of_each_pair_alone(pairs, block, epsilon):
    # the refusals (as a load at the default block size gives them), and
    # each accepted pair's KL, whatever pairs share its block
    lines = _kl_lines(pairs)
    kind = jsonio.scored_kl_pairs(epsilon)
    with _block_lines(block):
        got, errors, total = jsonio.read_lines(lines, kind)
    _, want_errors, want_total = jsonio.read_lines(lines, jsonio.scored_kl_pairs(epsilon))
    assert (_messages(errors), total) == (_messages(want_errors), want_total)
    refused = {line for line, _ in errors}
    accepted = [(i, pair) for i, pair in enumerate(pairs) if i + 1 not in refused]
    assert got["position"] == [i for i, _ in accepted]
    assert got["kl"] == [float(reprgeo.kl_rows(np.array([base], dtype=float),
                                               np.array([calibrated], dtype=float),
                                               epsilon)[0]) for _, (base, calibrated) in accepted]


# ---------------------------------------------------------------------------
# Every command's bytes, whatever the block size
# ---------------------------------------------------------------------------


def _inputs(tmp_path: Path) -> dict[str, str]:
    """The bundled fixtures, a probe's hidden directory and its predictions
    (`_plan_preds`), the fixture's predictions with `p_affirmative` on two
    lines of three, and KL pairs of several lengths with their annotations,
    each file of ours with a rejected line."""
    preds = _plan_preds(tmp_path)
    (tmp_path / "ptrue.jsonl").write_text("".join(
        json.dumps(json.loads(line) | ({"p_affirmative": i / 20} if i % 3 else {})) + "\n"
        for i, line in enumerate(PREDS_FIXTURE.read_text().splitlines())) + '{"qid": 1}\n')
    rng = np.random.default_rng(4)
    pairs = [(rng.dirichlet(np.ones(n)).tolist(), rng.dirichlet(np.ones(n)).tolist())
             for n in rng.choice([1, 3, 8], size=40)]
    (tmp_path / "pairs.jsonl").write_text("\n".join(_kl_lines(pairs) + ["{"]) + "\n")
    types = [t.value for t in reprgeo.TokenType]
    (tmp_path / "ann.jsonl").write_text("".join(
        json.dumps({"position": i, "type": types[i % len(types)]}) + "\n" for i in range(40)))
    return {"preds": str(PREDS_FIXTURE), "traces": str(RAG_FIXTURE), "hidden": str(preds.parent),
            "hidden_preds": str(preds), "ptrue": str(tmp_path / "ptrue.jsonl"),
            "pairs": str(tmp_path / "pairs.jsonl"),
            "ann": str(tmp_path / "ann.jsonl")}


# a `match` first and a `calib` of the probe's predictions, so that later
# steps read a kept batch a block at a time; `inplace.jsonl` is a fresh copy
# of the bundled predictions each time the steps run
STEPS = [
    "match --in {preds} --out {out}/matched.jsonl",
    "match --in {out}/inplace.jsonl",
    "calib --in {preds} --out {out}/calib.json --csv {out}/calib.csv",
    "calib --in {out}/matched.jsonl --out {out}/calib_matched.json",
    "recal ts --fit {preds} --apply {hidden_preds} --out {out}/ts.jsonl --model-out {out}/ts.json",
    "recal ats --fit {preds} --apply {hidden_preds} --out {out}/ats.jsonl "
    "--model-out {out}/ats.json",
    "recal ats --fit {hidden_preds} --apply {hidden_preds} --out {out}/ats_same.jsonl",
    "recal ts --fit {hidden_preds} --apply {hidden_preds} --out {out}/ts_same.jsonl",
    "recal ptrue --in {ptrue} --out {out}/ptrue.jsonl",
    "calib --in {hidden_preds} --out {out}/calib_hidden.json",
    "probe sweep --hidden {hidden} --preds {hidden_preds} --layers 0,8 --out {out}/sweep.json",
    "probe fit --hidden {hidden}/layer_8.mat --preds {hidden_preds} --layer 8 "
    "--out {out}/model.json",
    "probe eval --model {out}/model.json --hidden {hidden}/layer_8.mat "
    "--preds {hidden_preds} --out {out}/eval.json",
    "rag --policy conf:0.5 --in {traces} --out {out}/rag.json --csv {out}/rag.csv",
    "rag --policy always --in {traces} --out {out}/rag_always.json",
    "repr kl --pairs {pairs} --annotations {ann} --out {out}/kl.json --csv {out}/kl.csv",
]


def _run_steps(argvs: list[list[str]], out: Path, plan: Path | None, capsys) -> tuple:
    """(stderr, files) of the steps run as one plan, or each alone with an
    empty cache."""
    shutil.copy(PREDS_FIXTURE, out / "inplace.jsonl")
    cli._CACHE.clear()
    if plan is not None:
        plan.write_text("".join(json.dumps({"argv": argv}) + "\n" for argv in argvs))
        assert main(["run", "--plan", str(plan)]) == 0
    else:
        for argv in argvs:
            cli._CACHE.clear()
            assert main(argv) == 0
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return capsys.readouterr().err, files


def test_every_command_writes_the_same_bytes_whatever_the_block_size(tmp_path, monkeypatch,
                                                                    capsys):
    files = _inputs(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    argvs = [step.format(**files, out=out).split() for step in STEPS]
    outcomes = {}
    for block in BLOCKS:
        monkeypatch.setattr(jsonio, "BLOCK_LINES", block)
        for plan in (tmp_path / "plan.jsonl", None):
            outcomes[block, plan is None] = _run_steps(argvs, out, plan, capsys)
    first = outcomes[BLOCKS[-1], False]
    assert f"{files['hidden_preds']}:" in first[0] and f"{files['pairs']}:41: " in first[0]
    assert f"{files['ptrue']}:21: " in first[0]
    assert len(first[1]) == 21 and first[1]["inplace.jsonl"] != PREDS_FIXTURE.read_bytes()
    for outcome in outcomes.values():
        assert outcome == first


# ---------------------------------------------------------------------------
# Memory: a cold command holds a bounded number of bytes per line
# ---------------------------------------------------------------------------

# traced peak bytes per line of a cold command at 8000 lines, with room
# above the 126 (`calib`), 420 (`rag`), 156 (`match`) and 158 (`recal
# ptrue`) measured on Python 3.11; a load of the whole table peaked at 1786,
# 1671, 1734 and 1130
PEAK_PER_LINE = {"calib": 160, "rag": 500, "match": 200, "recal ptrue": 200}
ARGV = {"calib": ["calib"], "rag": ["rag", "--policy", "conf:0.5"], "match": ["match"],
        "recal ptrue": ["recal", "ptrue"]}
WORKLOAD = {"calib": ("preds-raw", "preds.jsonl"), "rag": ("rag-traces", "traces.jsonl"),
            "match": ("preds-raw", "preds.jsonl"), "recal ptrue": ("preds-matched", "preds.jsonl")}


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """The function from (workload, records) to the directory of the inputs
    `perfbench/gen.py` writes for them at seed 1, each generated once per
    module."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import gen
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    made = {}

    def inputs(workload: str, records: int) -> Path:
        if (workload, records) not in made:
            out = tmp_path_factory.mktemp(f"{workload}-{records}")
            gen.GENERATORS[workload](out, random.Random(f"{workload}:1"), {"records": records})
            made[workload, records] = out
        return made[workload, records]

    return inputs


def _peak_per_line(argv: list[str], lines: int) -> float:
    """The traced peak of one cold `main(argv)` above what was held before it, per line."""
    cli._CACHE.clear()
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert main(argv) == 0
            return (tracemalloc.get_traced_memory()[1] - before) / lines
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("command", sorted(ARGV))
def test_a_cold_command_peaks_at_a_bounded_size_per_line(tmp_path, generated, command):
    workload, name = WORKLOAD[command]
    out = str(tmp_path / "out")
    warm = generated(workload, 50) / name  # imports and compiled patterns
    _peak_per_line([*ARGV[command], "--in", str(warm), "--out", out], 50)
    peaks = {records: _peak_per_line([*ARGV[command], "--in", str(
        generated(workload, records) / name), "--out", out], records)
        for records in (8000, 16000)}
    assert peaks[8000] <= PEAK_PER_LINE[command]
    assert peaks[16000] <= peaks[8000]
