"""Every benchmark session's output bytes, pinned.

`tests/data/golden/regenerate.py` generates each workload of
`perfbench/gen.py` at `--size tiny` with seed 1 and runs its session through
`uncal.cli.main`, with each step's planted check. Here it runs once, into a
temporary directory, and every output file must equal the committed bytes
under `tests/data/golden/<workload>/`. It runs the script as it is run to
write the bytes, in its own interpreter with an empty cache of derived inputs;
like this one (see `conftest.py`), that interpreter imports `uncal` before
numpy, so its BLAS runs the one thread the `uncal` command runs. The last
bits of a float can depend on the numpy build, so where numpy, its BLAS or the
machine differ from those the bytes came from (`versions.json`), the test
skips.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uncal

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


def _subdirectories(path: Path) -> list[str]:
    return sorted(p.name for p in path.iterdir() if p.is_dir())


def _files(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in path.iterdir()}


WORKLOADS = _subdirectories(GOLDEN)


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory) -> Path:
    """The directory `regenerate.py --out` wrote, with the `uncal` under test."""
    out = tmp_path_factory.mktemp("golden")
    src = str(Path(uncal.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, str(GOLDEN / "regenerate.py"), "--out", str(out)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return out


def test_every_workload_has_golden_bytes(regenerated):
    assert _subdirectories(regenerated) == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_session_outputs_equal_the_golden_bytes(regenerated, workload):
    recorded = json.loads((GOLDEN / "versions.json").read_text(encoding="utf-8"))
    running = json.loads((regenerated / "versions.json").read_text(encoding="utf-8"))
    if running != recorded:
        pytest.skip(f"golden bytes come from {recorded}; this interpreter has {running}")
    outputs, golden = _files(regenerated / workload), _files(GOLDEN / workload)
    assert sorted(outputs) == sorted(golden)
    changed = [name for name in sorted(golden) if outputs[name] != golden[name]]
    assert changed == [], f"{workload}: outputs differ from the golden bytes"
