"""Assemble a `BENCH_<pr>.json` record from `perfbench/run.py` result files.

    python3 tools/bench_record.py --parent PARENT_TREE --change CHANGE_TREE \
        --runs preds-raw=1,2,3,4,5 --runs mechanism=1,7 \
        --record "parent abc1234 against this change" --out BENCH_29.json

PARENT_TREE and CHANGE_TREE are the roots of two checkouts, each of which has
run `python3 perfbench/run.py --workload W --seed S --seconds T` (untraced, at
the full size) for every workload W and seed S named by `--runs`. Each run
leaves `perfbench/results/W-seedS-trace0-full.json` in its tree; this script
reads those files and nothing else, so it runs in the environment the runs
ran in (the bytecode flag below is read from it).

Per workload and side the record holds the median, interquartile range (75th
minus 25th percentile, linearly interpolated), min and max over the runs of
each end-to-end metric of BENCHMARK.json, each run's values, each run's
output digest (the sha256 `run.py` prints over every output file's hash),
the environment, the `src/uncal` line counts and whether bytecode was cached.
Per workload it also says whether the two sides wrote the same outputs at
every seed and in how many seed pairs the change's `session_s` was lower.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[1]
ENVIRONMENT_KEYS = ("blas", "blas_threads", "blas_version", "machine", "nproc", "numpy",
                    "python")


def _seeds(text: str) -> tuple[str, list[int]]:
    """A `--runs` value, WORKLOAD=SEED,SEED,..., as (workload, seeds)."""
    workload, _, seeds = text.partition("=")
    try:
        return workload, [int(seed) for seed in seeds.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad --runs value {text!r}") from None


def _spread(values: list[float]) -> dict:
    """Median, IQR, min and max of `values`, rounded to 6 decimals."""
    q1, _, q3 = quantiles(values, n=4, method="inclusive") if len(values) > 1 else (0, 0, 0)
    return {name: round(value, 6) for name, value in (
        ("median", median(values)), ("iqr", q3 - q1), ("min", min(values)),
        ("max", max(values)))}


def _digest(run: dict) -> str:
    """The digest `perfbench/run.py` prints over the hashes of every output file."""
    hashes = run["session"]["output_sha256"]
    return hashlib.sha256(json.dumps(hashes, sort_keys=True).encode()).hexdigest()


def _bytecode_cached(tree: Path) -> bool:
    """Could the runs' fresh interpreters read `uncal` as cached bytecode? Yes
    where the tree holds compiled modules, or where this environment lets an
    import write them."""
    tag = sys.implementation.cache_tag
    compiled = any((tree / "src" / "uncal" / "__pycache__").glob(f"*.{tag}.pyc"))
    return compiled or not os.environ.get("PYTHONDONTWRITEBYTECODE")


def side(tree: Path, workload: str, seeds: list[int], metrics: list[str]) -> dict:
    """What the runs of one checkout `tree` at `seeds` measured on `workload`."""
    runs = {}
    for seed in seeds:
        path = tree / "perfbench" / "results" / f"{workload}-seed{seed}-trace0-full.json"
        runs[seed] = json.loads(path.read_text(encoding="utf-8"))
    environment = runs[seeds[0]]["environment"]
    per_run = {str(seed): {name: round(run["metrics"][name]["value"], 6) for name in metrics}
               for seed, run in runs.items()}
    return {
        "runs": len(runs),
        "seeds": seeds,
        **{name: _spread([run[name] for run in per_run.values()]) for name in metrics},
        "per_run": per_run,
        "outputs_sha256": {str(seed): _digest(run) for seed, run in runs.items()},
        "all_correct": not any(run["failures"] for run in runs.values()),
        "attempted_operations": sum(run["session"]["attempted"] for run in runs.values()),
        "failed_operations": sum(len(run["failures"]) for run in runs.values()),
        "environment": {key: environment[key] for key in ENVIRONMENT_KEYS},
        "src_uncal_lines": environment["src_uncal_lines"],
        "src_uncal_code_lines": environment["src_uncal_code_lines"],
        "bytecode_cached": _bytecode_cached(tree),
    }


def record(parent: Path, change: Path, runs: dict[str, list[int]], note: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [metric["name"] for metric in spec["end_to_end"]]
    workloads = {}
    for workload, seeds in runs.items():
        sides = {name: side(tree, workload, seeds, metrics)
                 for name, tree in (("parent", parent), ("change", change))}
        before, after = sides["parent"], sides["change"]
        lower = sum(after["per_run"][seed]["session_s"] < run["session_s"]
                    for seed, run in before["per_run"].items())
        workloads[workload] = {
            **sides,
            "same_outputs": before["outputs_sha256"] == after["outputs_sha256"],
            "session_s_lower_at_change_in_pairs": f"{lower}/{len(seeds)}",
        }
    return {
        "record": note,
        "command": "python3 perfbench/run.py --workload <workload> --seed <seed> "
                   "--seconds <seconds>",
        "method": "one run per seed and side; each run's metric is perfbench's own median "
                  "over its sessions (session_s, setup_s: speed-normalised seconds) or the "
                  "session process's peak RSS; median, iqr (75th minus 25th percentile, "
                  "linear interpolation), min and max are taken over the runs",
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="root of the parent tree")
    parser.add_argument("--change", type=Path, required=True, help="root of the changed tree")
    parser.add_argument("--runs", type=_seeds, action="append", required=True,
                        help="WORKLOAD=SEED,SEED,...; repeat for each workload")
    parser.add_argument("--record", required=True, help="what the record compares")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    payload = record(args.parent, args.change, dict(args.runs), args.record)
    args.out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
