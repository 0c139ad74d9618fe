from __future__ import annotations

import numpy as np
import pytest

from uncal import cli, ragctl
from uncal.errors import UncalError
from uncal.ragctl import RagTraceRecord
from uncal.rewards import PredictionRecord, scan_emissions


def make_record(
    qid: str,
    confidence: float | None,
    correct: bool,
    dataset: str = "synth",
    emissions_text: str = "",
    token_probs=None,
) -> PredictionRecord:
    """Record whose correctness is controlled by whether the answer line
    matches the gold answer."""
    answer = "alpha" if correct else "omega"
    body = emissions_text + ("\n" if emissions_text else "")
    text = f"{body}Answer: {answer}"
    return PredictionRecord(
        qid=qid,
        dataset=dataset,
        gold_answers=("alpha",),
        response_text=text,
        verbal_confidence=confidence,
        emissions=tuple(scan_emissions(text)),
        response_token_count=len(text.split()),
        token_probs=token_probs,
    )


def random_batch(rng: np.random.Generator, n: int, with_ties: bool = False):
    """Random (records, (conf, correct, qid) rows) for metric cross-checks."""
    records = []
    rows = []
    for i in range(n):
        conf = float(rng.uniform(0.0, 1.0))
        if with_ties:
            conf = round(conf, 1)
        correct = bool(rng.random() < conf * 0.8 + 0.1)
        qid = f"q{i:04d}"
        records.append(make_record(qid, conf, correct))
        rows.append((conf, correct, qid))
    return records, rows


def random_rag_batch(rng: np.random.Generator, n: int):
    records = []
    for i in range(n):
        noret_ok = bool(rng.random() < 0.5)
        ret_ok = bool(rng.random() < 0.7)
        records.append(
            RagTraceRecord(
                qid=f"r{i:04d}",
                dataset=str(rng.choice(["d1", "d2"])),
                gold_answers=("alpha",),
                noret_answer="alpha" if noret_ok else "omega",
                ret_answer="alpha" if ret_ok else "omega",
                noret_confidence=float(rng.uniform(0.0, 0.999)),
                noret_emissions=int(rng.integers(0, 3)),
                noret_probe_score=float(rng.uniform(0.0, 1.0)),
                noret_token_probs=tuple(
                    float(p) for p in rng.uniform(0.05, 1.0, size=4)
                ),
            )
        )
    return records


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


def planted_stack(
    rng: np.random.Generator,
    layers=(0, 8, 16),
    signal_layer=8,
    n=600,
    dims=12,
    tokens=18,
    separation=3.0,
):
    """Per-layer token-aligned hidden states where exactly one layer carries
    a label-separable direction on the tokens around the emission."""
    from uncal.rewards import EmissionEvent

    records = []
    stacks = {layer: {} for layer in layers}
    for i in range(n):
        wrong = bool(rng.random() < 0.5)
        qid = f"p{i:04d}"
        emit_tok = int(rng.integers(2, tokens - 2))
        prefix = "w " * emit_tok
        text = (
            prefix + "<uncertain> more\nAnswer: " + ("omega" if wrong else "alpha")
        )
        records.append(
            PredictionRecord(
                qid=qid,
                gold_answers=("alpha",),
                response_text=text,
                emissions=(
                    EmissionEvent(char_position=len(prefix), token_index=emit_tok),
                ),
                response_token_count=tokens,
            )
        )
        for layer in layers:
            mat = rng.normal(0.0, 1.0, size=(tokens, dims))
            if layer == signal_layer and wrong:
                lo = max(0, emit_tok - 1)
                hi = min(tokens, emit_tok + 2)
                mat[lo:hi, 0] += separation
            stacks[layer][qid] = mat
    return records, stacks


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
