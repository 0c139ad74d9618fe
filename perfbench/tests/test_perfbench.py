"""Tests of the benchmark itself: generator, checks, tracer, smoke runs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402
import session  # noqa: E402
import tracer  # noqa: E402


def _tree(path: Path) -> dict[str, bytes]:
    return {str(p.relative_to(path)): p.read_bytes() for p in sorted(path.rglob("*"))
            if p.is_file()}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    gen.generate(workload, 7, tmp_path / "a", "tiny")
    gen.generate(workload, 7, tmp_path / "b", "tiny")
    gen.generate(workload, 8, tmp_path / "c", "tiny")
    first = _tree(tmp_path / "a")
    assert first == _tree(tmp_path / "b")
    assert first != _tree(tmp_path / "c")


def _session_args(work: Path, workload: str, trace: int = 0) -> Namespace:
    return Namespace(src=str(ROOT / "src"), work=str(work), workload=workload,
                     seconds=0.0, trace=trace, spans=None)


def _run_session(args: Namespace) -> dict:
    cwd = os.getcwd()
    try:
        return session.run(args)
    finally:
        os.chdir(cwd)


def test_planted_wrong_answer_counts_as_failed(tmp_path):
    work = tmp_path / "w"
    gen.generate("preds-raw", 3, work, "tiny")
    lines = (work / "preds.jsonl").read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        record = json.loads(line)
        answer = re.search(r"^Answer: (.*)$", record["response_text"], re.MULTILINE)
        if answer and answer.group(1) in record["gold_answers"]:
            # the truth still says correct; the answer no longer is
            record["response_text"] = record["response_text"].replace(
                answer.group(0), "Answer: Zuzuzu Qoqoqo")
            lines[i] = json.dumps(record, sort_keys=True)
            break
    else:
        pytest.fail("no planted exact answer to break")
    (work / "preds.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")

    result = _run_session(_session_args(work, "preds-raw"))
    metrics = run.end_to_end(result)
    assert any(f.startswith("match --in") for f in result["failures"])
    assert any(f.startswith("calib --in") for f in result["failures"])
    assert metrics["ops_failed_ratio"]["value"] > 0.0


def test_session_spans_self_time_and_outermost():
    # root(0..10) > a(1..6) > b(2..3); root > c(7..9); b is an `a`-family span
    spans = [["cli.x", 0.0, 10.0, -1, 0], ["m.a", 1.0, 6.0, 0, 0],
             ["m.a", 2.0, 3.0, 1, 0], ["n.c", 7.0, 9.0, 0, 0]]
    view = tracer.SessionSpans(spans)
    assert view.self_time == [3.0, 4.0, 1.0, 2.0]
    assert view.outermost(lambda s: s[0] == "m.a") == [1]
    assert view.inclusive(lambda s: s[0] == "m.a") == 5.0
    assert view.layer_self("m") == 5.0
    assert sum(view.self_time) == view.duration[0]


def test_traced_session_counts_repeat(tmp_path):
    work = tmp_path / "w"
    gen.generate("preds-raw", 4, work, "tiny")
    result = _run_session(_session_args(work, "preds-raw", trace=1))
    assert result["failures"] == []
    assert result["counts_repeat"]
    assert result["self_times"]["max_command_gap_s"] < 1e-9
    assert result["self_times"]["min_span_self_s"] >= 0.0
    assert result["layers"]["rewards.match_calls"] > 0


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_tiny_smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
