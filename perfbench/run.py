"""uncal benchmark: one workload run, end to end or traced.

    python3 perfbench/run.py --workload preds-raw --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; `uncal` is imported from its `src/`. The run
generates the workload's inputs from `--seed` (perfbench/gen.py) and starts
one process (perfbench/session.py) that times a fresh interpreter importing
`uncal.cli` (setup_s), then runs the workload's session of `uncal`
subcommands through `uncal.cli.main` for `--seconds`, checking every output
against the planted facts. `--trace 1` alternates untraced sessions with
sessions traced at every module boundary (perfbench/tracer.py) and reports
the per-layer metrics instead of the end-to-end ones.

Times are reported in seconds at a fixed reference speed: each sample is
divided by the slowdown factor a speed probe measured just before it
(perfbench/speed.py), because the speed of a shared machine drifts over
minutes. The raw wall times are printed too (`*_wall_s`), with the median
slowdown.

Output: a table of every metric with its unit and sample count, then, as the
last line, one JSON object with `correct`, `attempted`, `failed` and the
metrics listed in BENCHMARK.json. The full record of the run (environment,
samples, output hashes, failures) goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from workloads import COMMAND_METRICS  # noqa: E402

# the session is one single-threaded process, so BLAS gets one thread too
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_LIMIT_S = 170.0  # the whole run must end within 180 s


def _summary(values: list[float], unit: str) -> dict:
    return {"value": median(values), "unit": unit, "samples": len(values),
            "min": min(values), "max": max(values)}


def _scaled(samples: list[dict], key: str) -> list[float]:
    return [s[key] / s["slowdown"] for s in samples]


def run_session(args, work: Path, spans_path: Path, env: dict, budget: float) -> dict:
    result_path = work / "session.json"
    cmd = [sys.executable, str(HERE / "session.py"), "--src", str(ROOT / "src"),
           "--work", str(work), "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result", str(result_path)]
    if args.trace:
        cmd += ["--spans", str(spans_path)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=budget)
    if proc.returncode != 0:
        raise RuntimeError(f"session process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def end_to_end(result: dict) -> dict:
    sessions = result["sessions"]
    metrics = {
        "setup_s": _summary(_scaled(result["setup"], "setup_s"), "s"),
        "session_s": _summary(_scaled(sessions, "session_s"), "s"),
        "peak_rss_mib": {"value": result["peak_rss_kib"] / 1024.0, "unit": "MiB",
                         "samples": 1},
        "ops_failed_ratio": {"value": len(result["failures"]) / result["attempted"],
                             "unit": "ratio", "samples": result["attempted"]},
    }
    for name in COMMAND_METRICS:
        values = [s["commands"][name] / s["slowdown"] for s in sessions
                  if name in s["commands"]]
        if values:
            metrics[name] = _summary(values, "s")
    metrics["setup_wall_s"] = _summary([s["setup_s"] for s in result["setup"]], "s")
    metrics["session_wall_s"] = _summary([s["session_s"] for s in sessions], "s")
    metrics["slowdown"] = _summary([s["slowdown"] for s in sessions], "x")
    return metrics


def per_layer(result: dict, units: dict) -> dict:
    metrics = {name: {"value": value, "unit": units.get(name, "")}
               for name, value in result["layers"].items()}
    overhead = (median(_scaled(result["traced_sessions"], "session_s"))
                - median(_scaled(result["sessions"], "session_s")))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def print_table(title: str, metrics: dict) -> None:
    print(title)
    print(f"  {'metric':40s} {'value':>14s}  {'unit':12s} samples")
    for name, m in metrics.items():
        value = m["value"]
        text = f"{value:14.6g}" if isinstance(value, float) else f"{value:14d}"
        print(f"  {name:40s} {text}  {m['unit']:12s} {m.get('samples', '')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(gen.SIZES), default="full",
                        help="input size class; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "uncal" / "__init__.py").is_file():
        print(f"perfbench: no uncal source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_ENV)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    work = HERE / ".work" / f"{tag}-{os.getpid()}"
    try:
        truth = gen.generate(args.workload, args.seed, work, args.size)
        budget = RUN_LIMIT_S - (time.perf_counter() - started)
        result = run_session(args, work, results / f"{tag}.spans.jsonl.gz", env, budget)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = result["failures"]
    if args.trace:
        metrics = per_layer(result, units)
        print_table(f"{args.workload} seed {args.seed}: per-layer metrics from "
                    f"{len(result['traced_sessions'])} traced sessions "
                    f"(counts repeat: {result['counts_repeat']})", metrics)
        summary = result["self_times"]
        print(f"  self time by layer (s): {summary['layer_self_s']}")
        print(f"  largest gap between a command's span and its self times: "
              f"{summary['max_command_gap_s']:.3g} s")
    else:
        metrics = end_to_end(result)
        print_table(f"{args.workload} seed {args.seed}: end-to-end metrics, "
                    f"{len(result['sessions'])} sessions after one warm-up", metrics)
    env_info = result["environment"]
    print(f"  environment: {json.dumps(env_info, sort_keys=True)}")
    digest = hashlib.sha256(json.dumps(result["output_sha256"], sort_keys=True).encode())
    print(f"  outputs sha256 (all commands, per-file hashes in perfbench/results): "
          f"{digest.hexdigest()}")
    for failure in failures:
        print(f"  FAILED {failure}")

    missing = [name for name in units if name not in metrics]
    if missing:
        print(f"perfbench: metrics listed in BENCHMARK.json were not produced: {missing}",
              file=sys.stderr)
        return 1
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "truth": truth,
              "environment": env_info, "metrics": metrics, "failures": failures,
              "session": result}
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")
    print(json.dumps({
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name]["value"], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
