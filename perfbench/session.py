"""One workload run inside a single process: the only process that loads `uncal`.

First times a fresh interpreter importing `uncal.cli` (the set-up time).
Then runs the workload's session through `uncal.cli.main` once to warm up,
and again and again until `--seconds` have passed (and at least MIN_SESSIONS
times), timing each invocation.
Every timed sample (an import, a session) follows a speed probe
(perfbench/speed.py) whose slowdown factor is stored with it. Every
invocation is checked: exit code 0, and the outputs of the first session must
pass the workload's checks; later sessions must reproduce those outputs byte
for byte. With `--trace 1` untraced and traced sessions alternate, so the
tracing overhead is measured in the same run. The result, including this
process's peak resident memory, goes to `--result` as JSON.

    python3 perfbench/session.py --src SRC --work DIR --workload NAME \
        --seconds S --trace 0|1 --result FILE [--spans FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

SETUP_RUNS = 11
MIN_SESSIONS = 3  # timed sessions per run, however short --seconds is


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Runner:
    def __init__(self, cli_main, steps, truth, work: Path):
        self.main = cli_main
        self.steps = steps
        self.truth = truth
        self.work = work
        self.hashes: list[dict | None] = [None] * len(steps)  # from the checked session
        self.attempted = 0
        self.failures: list[str] = []

    def invoke(self, k: int, tracer=None) -> float:
        """Run step k once; return its wall time. Failures are recorded."""
        step = self.steps[k]
        self.attempted += 1
        for name in step.outputs:  # a step that writes nothing must not pass on old files
            (self.work / name).unlink(missing_ok=True)
        sink = io.StringIO()
        gc.collect()
        scope = tracer.command(f"cli.{step.argv[0]}") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), scope:
                code = self.main(list(step.argv))
        except Exception:  # a crash is a failed invocation, not a failed benchmark
            code = f"exception\n{traceback.format_exc()}"
        elapsed = time.perf_counter() - start
        label = " ".join(step.argv[:2])
        if code != 0:
            self.failures.append(f"{label}: exit {code}: {sink.getvalue()[-500:]}")
            return elapsed
        missing = [name for name in step.outputs if not (self.work / name).is_file()]
        if missing:
            self.failures.append(f"{label}: missing outputs {missing}")
            return elapsed
        hashes = {name: _sha256(self.work / name) for name in step.outputs}
        if self.hashes[k] is None:
            failure = step.check(self.work, self.truth)
            if failure:
                self.failures.append(f"{label}: {failure}")
            else:
                self.hashes[k] = hashes
        elif hashes != self.hashes[k]:
            self.failures.append(f"{label}: output differs from the first session")
        return elapsed

    def session(self, probe, tracer=None) -> dict:
        """One timed session; its times come with the slowdown measured before it.
        The session's time is the sum of its invocations' times, so the
        harness's own work between them (gc, output checks) is left out."""
        slowdown = probe.slowdown()
        per_metric: dict[str, float] = {}
        for k, step in enumerate(self.steps):
            per_metric[step.metric] = per_metric.get(step.metric, 0.0) + self.invoke(k, tracer)
        return {"session_s": sum(per_metric.values()), "commands": per_metric,
                "slowdown": slowdown}


def measure_setup(src: Path, probe, runs: int) -> list[dict]:
    """Wall time of a fresh interpreter importing uncal.cli (numpy included)."""
    env = dict(os.environ, PYTHONPATH=str(src))
    samples = []
    for _ in range(runs):
        slowdown = probe.slowdown()
        start = time.perf_counter()
        # no timeout: with one, wait() polls in 50 ms steps and quantizes the time
        code = subprocess.Popen([sys.executable, "-c", "import uncal.cli"], env=env).wait()
        samples.append({"setup_s": time.perf_counter() - start, "slowdown": slowdown})
        if code != 0:
            raise RuntimeError(f"importing uncal.cli exited {code}")
    return samples


def _environment(src: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines = code = 0
    for path in sorted((src / "uncal").glob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            lines += 1
            stripped = line.strip()
            code += bool(stripped) and not stripped.startswith("#")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "src_uncal_lines": lines,
        "src_uncal_code_lines": code,
    }


def run(args) -> dict:
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import uncal.cli
    import speed
    import workloads

    if not Path(uncal.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"uncal imported from {uncal.cli.__file__}, not from {src}")
    work = Path(args.work)
    truth = json.loads((work / "truth.json").read_text(encoding="utf-8"))
    steps = workloads.session(args.workload, truth)
    os.chdir(work)
    runner = Runner(uncal.cli.main, steps, truth, Path("."))
    probe = speed.SpeedProbe()
    setup = [] if args.trace else measure_setup(src, probe, SETUP_RUNS)

    runner.session(probe)  # warm-up: checked, not timed
    plain: list[dict] = []
    traced: list[dict] = []
    layer_metrics: list[dict] = []
    summary = spans = None
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    deadline = time.perf_counter() + args.seconds
    while True:
        plain.append(runner.session(probe))
        if tracer is not None:
            tracer.reset()
            with tracer.install():
                traced.append(runner.session(probe, tracer))
            layer_metrics.append(tracing.analyze(tracer.spans, tracer.notes, steps,
                                                 traced[-1]["slowdown"]))
            if summary is None:
                summary = tracing.self_time_summary(tracer.spans)
                spans = tracer.spans
        if time.perf_counter() >= deadline and len(plain) >= MIN_SESSIONS:
            break
    result = {
        "environment": _environment(src),
        "attempted": runner.attempted,
        "failures": runner.failures,
        "setup": setup,
        "sessions": plain,
        "output_sha256": {" ".join(s.argv[:3]): h for s, h in zip(steps, runner.hashes)},
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["traced_sessions"] = traced
        result["layers"] = tracing.combine(layer_metrics)
        result["counts_repeat"] = tracing.counts_repeat(layer_metrics)
        result["self_times"] = summary
        if args.spans:
            tracing.dump_spans(args.spans, spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    result = run(args)
    Path(args.result).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
