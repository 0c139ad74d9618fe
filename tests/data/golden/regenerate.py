"""Regenerate the golden output bytes of every benchmark session.

For each workload of `perfbench/gen.py`, generates its inputs at `--size
tiny` with seed 1, runs its session (`perfbench/workloads.py`) through
`uncal.cli.main`, checks each step's outputs against the planted facts, and
writes every output file to `<out>/<workload>/`; `--out` defaults to this
directory. `<out>/versions.json` records the numpy version, the BLAS library
and version, and the machine the bytes came from. `tests/test_golden.py` runs
this script into a temporary directory and compares the two trees where
those versions match.

    PYTHONPATH=src python tests/data/golden/regenerate.py [--out DIR]

It imports `uncal` before numpy, so the package's one-BLAS-thread pin holds:
at two threads `repr drift` writes other last digits.

The perfbench modules are imported, never changed. Regenerate after any change
that is meant to change output bytes, or to `perfbench/gen.py`, and list every
changed file in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import uncal.cli  # before numpy: the package pins one BLAS thread

HERE = Path(__file__).resolve().parent
PERFBENCH = HERE.parents[2] / "perfbench"
SEED = 1
SIZE = "tiny"
VERSIONS = "versions.json"

sys.dont_write_bytecode = True  # leave no cache files in perfbench/
sys.path.insert(0, str(PERFBENCH))
import gen  # noqa: E402
import workloads  # noqa: E402


def versions() -> dict:
    """The numpy version, BLAS library and version, and machine of this interpreter."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "machine": platform.machine()}


def session_outputs(workload: str, work: Path) -> dict[str, bytes]:
    """Generate `workload` into the empty directory `work`, run its session
    there, and return every output file's bytes by name. A step that exits
    non-zero or fails its planted check raises `RuntimeError`."""
    truth = gen.generate(workload, SEED, work, SIZE)
    outputs = {}
    cwd = os.getcwd()
    os.chdir(work)  # a step's paths are relative to the workload's directory
    try:
        for step in workloads.session(workload, truth):
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = uncal.cli.main(list(step.argv))
            failure = (f"exit {code}: {sink.getvalue()}" if code != 0
                       else step.check(Path("."), truth))
            if failure is not None:
                raise RuntimeError(f"{workload}: {' '.join(step.argv)}: {failure}")
            outputs.update((name, Path(name).read_bytes()) for name in step.outputs)
    finally:
        os.chdir(cwd)
    return outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=HERE)
    out = parser.parse_args(argv).out
    for workload in gen.WORKLOADS:
        with tempfile.TemporaryDirectory() as work:
            outputs = session_outputs(workload, Path(work))
        target = out / workload
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for name, data in outputs.items():
            (target / name).write_bytes(data)
        print(f"{workload}: {len(outputs)} files, {sum(map(len, outputs.values()))} bytes")
    (out / VERSIONS).write_text(json.dumps(versions(), indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
