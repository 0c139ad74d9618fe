"""Time and measure `uncal` commands on generated inputs of a given size.

    python3 tools/scale.py --records 100000 [--src SRC [--src SRC ...]] \
        [--work DIR] [--commands calib-raw,rag] [--repeat 3]

The inputs come from the benchmark's own generators (`perfbench/gen.py`,
imported, not changed): the preds-raw, preds-matched and rag-traces
workloads at `--records` records, with seed 1. Each command then runs in a
fresh `python -m uncal.cli` process with `SRC` (default: this checkout's
`src`) on its `PYTHONPATH`. Given several `--src`, each command runs for
each of them in turn, the first to run rotating from one repetition to the
next, so that checkouts compare on the same inputs and a drift in machine
speed reaches each alike. For each `SRC` and command the script prints its
wall seconds, the process's max RSS in MiB (`wait4`'s `ru_maxrss`) and the
sha256 over the files it wrote; with `--repeat`, the medians of the runs,
whose digests must agree. A process starts with the peak RSS of the one it
was forked from, so the inputs are generated in a process of their own,
outputs are hashed a chunk at a time, and this one stays far smaller than
any `uncal` command.
"""

from __future__ import annotations

import argparse
import hashlib
import multiprocessing
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
SEED = 1  # the generators' seed, as in `perfbench/run.py --seed 1`

# command -> (workload of its inputs, argv with {in} the input directory and
# {out} the output directory); the `recal` commands fit on one half of the
# records and apply to the other
COMMANDS = {
    "match": ("preds-raw", "match --in {in}/preds.jsonl --out {out}/matched.jsonl"),
    "calib-raw": ("preds-raw", "calib --in {in}/preds.jsonl --out {out}/calib.json"),
    "recal-ts": ("preds-raw", "recal ts --fit {in}/fit.jsonl --apply {in}/apply.jsonl "
                              "--out {out}/ts.jsonl --model-out {out}/ts.json"),
    "recal-ats": ("preds-raw", "recal ats --fit {in}/fit.jsonl --apply {in}/apply.jsonl "
                               "--out {out}/ats.jsonl --model-out {out}/ats.json"),
    "calib-matched": ("preds-matched", "calib --in {in}/preds.jsonl --out {out}/calib.json"),
    "rag": ("rag-traces", "rag --policy conf:0.5 --in {in}/traces.jsonl --out {out}/rag.json"),
}


def _generate(out: Path, workload: str, records: int) -> None:
    """Write the workload's inputs into `out`, with its generator at `SEED`."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen

    gen.GENERATORS[workload](out, random.Random(f"{workload}:{SEED}"), {"records": records})


def generate(work: Path, workload: str, records: int) -> Path:
    """The directory of the workload's inputs at `records` records, written
    once per (workload, records) under `work`, by a fresh process."""
    out = work / f"{workload}-{records}-seed{SEED}"
    if not (out / ".done").exists():
        out.mkdir(parents=True, exist_ok=True)
        proc = multiprocessing.get_context("spawn").Process(
            target=_generate, args=(out, workload, records))
        proc.start()
        proc.join()
        if proc.exitcode:
            raise RuntimeError(f"generating {workload} failed")
        (out / ".done").touch()
    return out


def run_once(src: Path, argv: list[str], out: Path) -> tuple[float, float, str]:
    """(wall seconds, max RSS MiB, sha256 over the written files) of one run
    of `uncal argv` in a fresh process; a failing command raises."""
    out.mkdir(parents=True, exist_ok=True)
    for old in out.iterdir():
        old.unlink()
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "uncal.cli", *argv], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise RuntimeError(f"uncal {' '.join(argv)} exited {proc.returncode}")
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\0" + _file_sha256(path))
    return wall, usage.ru_maxrss / 1024, digest.hexdigest()


def _file_sha256(path: Path) -> bytes:
    """The sha256 of a file, read a chunk at a time: reading an output whole
    would raise the peak RSS that later commands start with."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):
            digest.update(chunk)
    return digest.digest()


def measure(srcs: list[Path], work: Path, records: int, names: list[str],
            repeat: int) -> dict[Path, list[dict]]:
    """For each of `srcs`, one row per command of `names`: its medians over
    `repeat` runs, the runs of each command alternating between `srcs`."""
    rows = {src: [] for src in srcs}
    for name in names:
        workload, template = COMMANDS[name]
        inputs = generate(work, workload, records)
        argv = template.format(**{"in": inputs, "out": work / "out"}).split()
        runs = {src: [] for src in srcs}
        for k in range(repeat):
            for src in srcs[k % len(srcs):] + srcs[:k % len(srcs)]:
                runs[src].append(run_once(src, argv, work / "out"))
        for src, done in runs.items():
            digests = {digest for _, _, digest in done}
            if len(digests) > 1:
                raise RuntimeError(f"{name}: runs wrote different bytes")
            rows[src].append({"command": name, "records": records,
                              "wall_s": median(wall for wall, _, _ in done),
                              "max_rss_mib": median(rss for _, rss, _ in done),
                              "sha256": digests.pop()})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, required=True)
    parser.add_argument("--src", type=Path, action="append",
                        help="a src directory whose uncal runs (default: this checkout's)")
    parser.add_argument("--work", type=Path, default=None,
                        help="where inputs are generated and outputs written (default: a "
                             "temporary directory)")
    parser.add_argument("--commands", default=",".join(COMMANDS),
                        help=f"comma-separated, of {', '.join(COMMANDS)}")
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args(argv)
    names = args.commands.split(",")
    unknown = sorted(set(names) - COMMANDS.keys())
    if unknown:
        parser.error(f"unknown commands {unknown}")
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        srcs = [src.resolve() for src in args.src or [ROOT / "src"]]
        tables = measure(srcs, work, args.records, names, args.repeat)
    for src, rows in tables.items():
        print(f"src: {src}")
        print(f"{'command':<14} {'records':>8} {'wall_s':>8} {'max_rss_mib':>12}  sha256")
        for row in rows:
            print(f"{row['command']:<14} {row['records']:>8} {row['wall_s']:>8.3f} "
                  f"{row['max_rss_mib']:>12.1f}  {row['sha256']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
