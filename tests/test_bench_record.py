"""`tools/bench_record.py`: a BENCH record from `perfbench/run.py` result files."""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_record  # noqa: E402

ENVIRONMENT = {"blas": "openblas", "blas_threads": "1", "blas_version": "0.3", "machine": "x86_64",
               "nproc": 2, "numpy": "2.0", "python": "3.11.7", "src_uncal_lines": 3800,
               "src_uncal_code_lines": 3100}


def _run(tree: Path, workload: str, seed: int, session_s: float, outputs: dict) -> None:
    """The result file `perfbench/run.py` leaves for one untraced full-size run."""
    results = tree / "perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    metrics = {"session_s": session_s, "setup_s": 0.25, "peak_rss_mib": 42.0 + seed}
    (results / f"{workload}-seed{seed}-trace0-full.json").write_text(json.dumps({
        "environment": ENVIRONMENT, "failures": [],
        "metrics": {name: {"value": value} for name, value in metrics.items()},
        "session": {"attempted": 10, "output_sha256": outputs},
    }))


def test_a_record_of_two_trees(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    parent, change = tmp_path / "parent", tmp_path / "change"
    outputs = {"calib --in preds.jsonl": {"calib.json": "ab"}}
    for seed, before, after in ((1, 0.13, 0.10), (2, 0.12, 0.11), (3, 0.10, 0.12)):
        _run(parent, "preds-raw", seed, before, outputs)
        _run(change, "preds-raw", seed, after, outputs if seed < 3 else {})
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--parent", str(parent), "--change", str(change),
                              "--runs", "preds-raw=1,2,3", "--record", "a test",
                              "--out", str(out)]) == 0
    got = json.loads(out.read_text())["workloads"]["preds-raw"]
    assert got["session_s_lower_at_change_in_pairs"] == "2/3"
    assert got["same_outputs"] is False
    assert got["parent"]["session_s"] == {"median": 0.12, "iqr": 0.015, "min": 0.1, "max": 0.13}
    assert got["change"]["per_run"]["3"] == {"session_s": 0.12, "setup_s": 0.25,
                                             "peak_rss_mib": 45.0}
    digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    assert got["parent"]["outputs_sha256"] == {"1": digest, "2": digest, "3": digest}
    assert got["change"]["src_uncal_lines"] == 3800
    assert got["change"]["bytecode_cached"] is False
    assert got["change"]["all_correct"] and got["change"]["attempted_operations"] == 30


def test_a_bad_runs_value_is_refused(tmp_path):
    with pytest.raises(SystemExit):
        bench_record.main(["--parent", ".", "--change", ".", "--runs", "preds-raw=1,x",
                           "--record", "r", "--out", str(tmp_path / "o.json")])
