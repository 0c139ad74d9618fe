"""`tools/scale.py`: each command on generated inputs, in a fresh process."""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import scale  # noqa: E402


def test_every_command_at_200_records(tmp_path, capsys):
    assert scale.main(["--records", "200", "--work", str(tmp_path), "--repeat", "2"]) == 0
    src, header, *rows = capsys.readouterr().out.splitlines()
    assert src == f"src: {scale.ROOT / 'src'}"
    assert header.split() == ["command", "records", "wall_s", "max_rss_mib", "sha256"]
    assert [row.split()[0] for row in rows] == list(scale.COMMANDS)
    for row in rows:
        _, records, wall, rss, digest = row.split()
        assert records == "200" and float(wall) > 0 and float(rss) > 0
        assert len(digest) == 64 and int(digest, 16) >= 0
    # the inputs are generated once, and the same inputs give the same bytes
    generated = sorted(p.name for p in tmp_path.iterdir() if p.name != "out")
    assert generated == ["preds-matched-200-seed1", "preds-raw-200-seed1", "rag-traces-200-seed1"]
    # the last command's plan ran one `rag` step per policy of the workload
    assert list(scale.COMMANDS)[-1] == "rag-plan"
    wrote = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert wrote == ["plan.jsonl"] + [f"rag_{k}.{ext}" for k in range(4) for ext in ("csv", "json")]
    # two checkouts' runs of a command alternate, each printed as its own table
    other = tmp_path / "other"
    shutil.copytree(scale.ROOT / "src" / "uncal", other / "uncal")
    assert scale.main(["--records", "200", "--work", str(tmp_path), "--commands", "rag",
                       "--src", str(scale.ROOT / "src"), "--src", str(other)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [lines[0], lines[3]] == [f"src: {scale.ROOT / 'src'}", f"src: {other}"]
    digests = {row.split()[0]: row.split()[-1] for row in rows}
    assert lines[2].split()[-1] == lines[5].split()[-1] == digests["rag"]


def test_an_unknown_command_is_refused(tmp_path):
    with pytest.raises(SystemExit):
        scale.main(["--records", "200", "--work", str(tmp_path), "--commands", "calib,nope"])
