from __future__ import annotations

import json
import math

# before numpy, as the `uncal` command imports it: importing `uncal` pins one
# BLAS thread, which a numpy already loaded would not take up
from uncal import cli, jsonio, ragctl, recal  # isort: skip
from uncal.errors import UncalError  # isort: skip

import numpy as np
import pytest


def load(kind: jsonio.LineKind, lines) -> dict:
    """The column table a load of the line objects `lines` yields; a refused
    line fails the test."""
    accepted, errors, _ = jsonio.read_lines(map(json.dumps, lines), kind)
    assert errors == [], errors
    return accepted


def predictions(lines) -> dict:
    """The column table a load of the prediction line objects `lines` yields."""
    return load(jsonio.PREDICTIONS, lines)


def traces(lines) -> dict:
    """The column table a load of the trace line objects `lines` yields."""
    return load(jsonio.RAG_TRACES, lines)


def fit_ats(table: dict, batch, l2: float = recal.DEFAULT_ATS_L2) -> recal.AtsModel:
    """`recal.fit_ats` of the prediction table `table`, whose scores are `batch`."""
    return recal.fit_ats(recal.ats_features(table, batch.confidence), batch, l2)


def prediction(qid: str, gold_answers, response_text: str, **fields) -> dict:
    """A prediction line object; `fields` gives its optional fields."""
    return {"qid": qid, "gold_answers": list(gold_answers), "response_text": response_text,
            **fields}


def trace(qid: str, gold_answers, noret_answer: str, ret_answer: str, **fields) -> dict:
    """A trace line object; `fields` gives its optional fields."""
    return {"qid": qid, "gold_answers": list(gold_answers), "noret_answer": noret_answer,
            "ret_answer": ret_answer, **fields}


def emission(char_position: int, token_index: int | None = None) -> dict:
    """An emission of a prediction line."""
    return {"char_position": char_position, "token_index": token_index}


def rows(table: dict) -> list[dict]:
    """The rows of a column table, each a dict from field to value."""
    return [dict(zip(table, row)) for row in zip(*table.values())]


def make_record(
    qid: str,
    confidence: float | None,
    correct: bool,
    dataset: str = "synth",
    emissions_text: str = "",
    token_probs=None,
) -> dict:
    """Prediction line whose correctness is controlled by whether the answer
    line matches the gold answer; `predictions` loads a list of them."""
    answer = "alpha" if correct else "omega"
    body = emissions_text + ("\n" if emissions_text else "")
    text = f"{body}Answer: {answer}"
    return prediction(qid, ("alpha",), text, dataset=dataset, verbal_confidence=confidence,
                      token_probs=token_probs)


def random_batch(rng: np.random.Generator, n: int, with_ties: bool = False):
    """Random (table, (conf, correct, qid) rows) for metric cross-checks."""
    lines = []
    rows = []
    for i in range(n):
        conf = float(rng.uniform(0.0, 1.0))
        if with_ties:
            conf = round(conf, 1)
        correct = bool(rng.random() < conf * 0.8 + 0.1)
        qid = f"q{i:04d}"
        lines.append(make_record(qid, conf, correct))
        rows.append((conf, correct, qid))
    return predictions(lines), rows


def random_rag_batch(rng: np.random.Generator, n: int) -> dict:
    lines = []
    for i in range(n):
        noret_ok = bool(rng.random() < 0.5)
        ret_ok = bool(rng.random() < 0.7)
        lines.append(trace(
            f"r{i:04d}", ("alpha",), "alpha" if noret_ok else "omega",
            "alpha" if ret_ok else "omega",
            dataset=str(rng.choice(["d1", "d2"])),
            noret_confidence=float(rng.uniform(0.0, 0.999)),
            noret_emissions=int(rng.integers(0, 3)),
            noret_probe_score=float(rng.uniform(0.0, 1.0)),
            noret_token_probs=[float(p) for p in rng.uniform(0.05, 1.0, size=4)],
        ))
    return traces(lines)


def run_policy(policy, traces):
    """One policy's trigger report over `traces`: one scoring pass, one
    decision pass, as `uncal rag` runs it."""
    scored = ragctl.score_traces(traces)
    return ragctl.trigger_report(scored, ragctl.decide(policy, scored))


def sweep_threshold(kind, records, grid):
    """One report per grid point for a thresholded policy family; the records
    are scored once for the whole grid."""
    policies = [ragctl.ControllerPolicy(kind, value) for value in grid]
    if not policies:
        raise ValueError("grid must be non-empty")
    scored = ragctl.score_traces(records)
    return [(policy.threshold, ragctl.trigger_report(scored, ragctl.decide(policy, scored)))
            for policy in policies]


_ALPHABET = ("A", "B", "C")


def random_space(rng: np.random.Generator, max_trajectories: int = 20) -> dict:
    """A small random `jsonio.SPACE` line mapping: 2..max trajectories,
    Dirichlet(1) probabilities, uniform confidences, answers over a 3-symbol
    alphabet, gold drawn from the answers actually present."""
    n = int(rng.integers(2, max_trajectories + 1))
    probs = rng.dirichlet(np.ones(n))
    answers = [str(rng.choice(_ALPHABET)) for _ in range(n)]
    gold = str(rng.choice(sorted(set(answers))))
    confidences = [float(rng.uniform(0.0, 1.0)) for _ in range(n)]
    # fsum of the Dirichlet draw can sit a hair off 1.0; renormalize exactly
    total = math.fsum(float(p) for p in probs)
    return {"gold_answer": gold,
            "trajectories": [{"id": f"t{i}", "answer": answers[i], "confidence": confidences[i],
                              "base_prob": float(probs[i]) / total} for i in range(n)]}


def planted_stack(
    rng: np.random.Generator,
    layers=(0, 8, 16),
    signal_layer=8,
    n=600,
    dims=12,
    tokens=18,
    separation=3.0,
):
    """(prediction table, per-layer token-aligned hidden states) where
    exactly one layer carries a label-separable direction on the tokens
    around the emission."""
    lines = []
    stacks = {layer: {} for layer in layers}
    for i in range(n):
        wrong = bool(rng.random() < 0.5)
        qid = f"p{i:04d}"
        emit_tok = int(rng.integers(2, tokens - 2))
        prefix = "w " * emit_tok
        text = (
            prefix + "<uncertain> more\nAnswer: " + ("omega" if wrong else "alpha")
        )
        lines.append(prediction(qid, ("alpha",), text,
                                emissions=[emission(len(prefix), emit_tok)],
                                response_token_count=tokens))
        for layer in layers:
            mat = rng.normal(0.0, 1.0, size=(tokens, dims))
            if layer == signal_layer and wrong:
                lo = max(0, emit_tok - 1)
                hi = min(tokens, emit_tok + 2)
                mat[lo:hi, 0] += separation
            stacks[layer][qid] = mat
    return predictions(lines), stacks


def token_stack(stack: dict) -> tuple[np.ndarray, dict]:
    """The layer `cli._load_token_stack` reads for the qid -> (tokens x dims)
    matrices `stack`: their rows stacked qid after qid, and each qid's slice."""
    rows, start = {}, 0
    for qid, values in stack.items():
        rows[qid] = slice(start, start + len(values))
        start += len(values)
    return np.concatenate(list(stack.values())), rows


def token_stacks(stacks: dict) -> dict:
    """`token_stack` of each layer's matrices of `stacks`, by layer."""
    return {layer: token_stack(stack) for layer, stack in stacks.items()}


def outcome(run):
    """What `run()` returns, or the type and message of the `UncalError` it
    raises."""
    try:
        return run()
    except UncalError as exc:
        return type(exc), str(exc)


def count_calls(monkeypatch, module, name) -> list:
    """Replace `module.name` for the test with a wrapper that records the
    arguments of each call in the returned list."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture(autouse=True)
def fresh_input_cache():
    """Each test starts, as a fresh process does, with no cached inputs."""
    cli._CACHE.clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
