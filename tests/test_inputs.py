"""The per-process cache of derived inputs and `uncal run --plan`.

A command reads what it derives from an input file (`match`'s verdicts,
scored columns, the probe's emitted rows, a sidecar's row order) from
`cli._CACHE` when an earlier command in the same process read the same
bytes. Every test here compares a command's stdout, stderr, exit code and
files with the same command run with an empty cache, or in a fresh
interpreter.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import uncal
from uncal import cli, jsonio, matio, ragctl, rewards
from uncal.cli import main

from conftest import count_calls
from test_cli import PREDS_FIXTURE, RAG_FIXTURE, write_hidden_dir

SRC = str(Path(uncal.__file__).parents[1])
GOOD_PRED = {"qid": "g", "gold_answers": ["a"], "response_text": "Answer: a",
             "verbal_confidence": 0.5}
GOOD_TRACE = {"qid": "r", "gold_answers": ["a"], "noret_answer": "a", "ret_answer": "b",
              "noret_confidence": 0.4}


def _lines(path: Path, objs, tail: str = "") -> Path:
    path.write_text("".join(json.dumps(o) + "\n" for o in objs) + tail, encoding="utf-8")
    return path


def _with_rejections(tmp_path: Path) -> dict[str, Path]:
    """A prediction file and a trace file that each hold rejected lines."""
    preds = _lines(tmp_path / "preds_bad.jsonl",
                   [GOOD_PRED, GOOD_PRED | {"verbal_confidence": 1.5},
                    GOOD_PRED | {"qid": "h", "response_text": "Answer: b"}],
                   "{broken\n")
    traces = _lines(tmp_path / "traces_bad.jsonl",
                    [GOOD_TRACE, GOOD_TRACE | {"noret_emissions": -1},
                     GOOD_TRACE | {"qid": "s", "noret_confidence": 0.9}])
    return {"preds": preds, "traces": traces}


def _argv(template: list[str], out: Path) -> list[str]:
    return [arg.replace("{out}", str(out)) for arg in template]


def _outcome(code, stdout: str, stderr: str, out: Path) -> tuple:
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return code, stdout, stderr, files


def _here(template, out: Path, capsys) -> tuple:
    out.mkdir()
    code = main(_argv(template, out))
    stdout, stderr = capsys.readouterr()
    return _outcome(code, stdout, stderr, out)


def _fresh(template, out: Path, cwd: Path) -> tuple:
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get(
        "PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "uncal.cli", *_argv(template, out)],
                          cwd=cwd, env=env, capture_output=True, encoding="utf-8",
                          timeout=300)
    return _outcome(proc.returncode, proc.stdout, proc.stderr, out)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


COMMANDS = {
    "calib": ["calib", "--in", "{preds}", "--out", "{out}/c.json", "--csv", "{out}/c.csv"],
    "calib-stdout": ["calib", "--in", "{preds}", "--f1-threshold", "0.9"],
    "rag": ["rag", "--policy", "conf:0.5", "--in", "{traces}", "--out", "{out}/r.json",
            "--csv", "{out}/r.csv"],
    "rag-stdout": ["rag", "--policy", "always", "--in", "{traces}"],
}


class TestColdWarmFresh:
    @pytest.mark.parametrize("inputs", ["fixtures", "rejections"])
    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_twice_in_process_and_once_fresh(self, tmp_path, capsys, name, inputs):
        files = ({"preds": PREDS_FIXTURE, "traces": RAG_FIXTURE} if inputs == "fixtures"
                 else _with_rejections(tmp_path))
        template = [arg.format(**files, out="{out}") for arg in COMMANDS[name]]
        cold = _here(template, tmp_path / "cold", capsys)
        warm = _here(template, tmp_path / "warm", capsys)
        fresh = _fresh(template, tmp_path / "fresh", tmp_path)
        assert cold[0] == 0
        assert cold == warm == fresh
        if inputs == "rejections":
            assert f"{files['preds' if name.startswith('calib') else 'traces']}:2: " in cold[2]

    def test_probe_commands(self, tmp_path, capsys):
        preds = write_hidden_dir(tmp_path / "hidden")
        layer = str(tmp_path / "hidden" / "layer_8.mat")
        templates = [
            ["probe", "sweep", "--hidden", str(tmp_path / "hidden"), "--preds", str(preds),
             "--layers", "0,8", "--out", "{out}/s.json"],
            ["probe", "fit", "--hidden", layer, "--preds", str(preds), "--layer", "8",
             "--out", "{out}/m.json"],
        ]
        for k, template in enumerate(templates):
            cold = _here(template, tmp_path / f"cold{k}", capsys)
            warm = _here(template, tmp_path / f"warm{k}", capsys)
            fresh = _fresh(template, tmp_path / f"fresh{k}", tmp_path)
            assert cold[0] == 0 and cold == warm == fresh

    def test_rejections_name_the_path_each_caller_gave(self, tmp_path, capsys, monkeypatch):
        preds = _with_rejections(tmp_path)["preds"]
        monkeypatch.chdir(tmp_path)
        errors = []
        for path in (str(preds), preds.name):
            assert main(["calib", "--in", path]) == 0
            errors.append(capsys.readouterr().err)
        assert errors[1] == errors[0].replace(str(preds), preds.name)
        assert errors[1].splitlines() == [
            "preds_bad.jsonl:2: verbal_confidence outside [0,1]",
            "preds_bad.jsonl:4: invalid JSON: Expecting property name enclosed in double quotes",
        ]


def _calib(path, *flags) -> dict:
    out = path.parent / "calib_out.json"
    assert main(["calib", "--in", str(path), *flags, "--out", str(out)]) == 0
    return json.loads(out.read_text())


def _calib_alone(path, *flags) -> dict:
    cli._CACHE.clear()
    return _calib(path, *flags)


class TestContentKey:
    def test_in_place_match_then_calib_reads_the_new_bytes(self, tmp_path, monkeypatch):
        path = tmp_path / "preds.jsonl"
        path.write_bytes(PREDS_FIXTURE.read_bytes())
        _calib(path)
        before = _sha256(path)
        loads = count_calls(monkeypatch, jsonio, "load_lines")
        assert main(["match", "--in", str(path)]) == 0
        assert _sha256(path) != before
        # the verdicts are kept under the bytes `match` read, not those it wrote
        assert list(cli._CACHE) == [(("verdicts", rewards.DEFAULT_F1_THRESHOLD), before)]
        matches = count_calls(monkeypatch, rewards, "match_answer")
        got = _calib(path)
        assert len(loads) == 2  # match's load, and calib's of the new bytes
        assert matches == []  # every row of the new bytes has its match block
        assert [key[1] for key in cli._CACHE] == [_sha256(path)]
        assert got == _calib_alone(path)

    def test_calib_after_match_matches_nothing(self, tmp_path, monkeypatch):
        # `match` keeps the verdicts of the bytes it read; `calib` scores
        # each block with its rows of them, and keeps the batch
        path = tmp_path / "preds.jsonl"
        path.write_bytes(PREDS_FIXTURE.read_bytes())
        assert main(["match", "--in", str(path), "--out", str(tmp_path / "m.jsonl")]) == 0
        monkeypatch.setattr(jsonio, "BLOCK_LINES", 3)
        loads = count_calls(monkeypatch, jsonio, "load_lines")
        matches = count_calls(monkeypatch, rewards, "match_answer")
        got = _calib(path)
        assert [args[0] for args in loads] == [str(path)] and matches == []
        assert {key[0][0] for key in cli._CACHE} == {"verdicts", "calib"}
        assert got == _calib_alone(path)

    def test_same_size_and_mtime_rewrite_is_read_again(self, tmp_path):
        path = _lines(tmp_path / "preds.jsonl", [GOOD_PRED | {"qid": f"q{i}"} for i in range(4)])
        first = _calib(path)
        stat = path.stat()
        path.write_text(path.read_text().replace('"verbal_confidence": 0.5',
                                                 '"verbal_confidence": 0.9', 1))
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_size == stat.st_size
        assert path.stat().st_mtime_ns == stat.st_mtime_ns
        second = _calib(path)
        assert second != first
        assert second == _calib_alone(path)

    def test_the_f1_threshold_is_part_of_the_key(self, tmp_path):
        path = _lines(tmp_path / "preds.jsonl", [
            GOOD_PRED | {"qid": f"q{i}", "gold_answers": ["big machine records"],
                         "response_text": "Answer: big machine"} for i in range(3)])
        reports = {t: _calib(path, "--f1-threshold", t) for t in ("0.3", "0.9")}
        assert reports["0.3"]["accuracy"] == 1.0 and reports["0.9"]["accuracy"] == 0.0
        assert len(cli._CACHE) == 1  # each `main` keeps only what it read
        for threshold, report in reports.items():
            assert report == _calib_alone(path, "--f1-threshold", threshold)

    def test_an_entry_is_kept_under_the_bytes_its_load_parsed(self, tmp_path, monkeypatch):
        # the file changes between the lookup's digest and the load: the
        # entry must not be kept under the digest of the bytes before
        path = _lines(tmp_path / "preds.jsonl", [GOOD_PRED])
        old, new = path.read_text(), path.read_text().replace("0.5", "0.8")
        _calib(_lines(tmp_path / "other.jsonl", [GOOD_PRED | {"qid": "o"}]))  # one to look up
        lookup = cli._sha256

        def digest_then_edit(p):
            digest = lookup(p)
            path.write_text(new)
            return digest

        monkeypatch.setattr(cli, "_sha256", digest_then_edit)
        assert _calib(path)["mean_confidence"] == 0.8
        monkeypatch.setattr(cli, "_sha256", lookup)
        path.write_text(old)
        assert _calib(path)["mean_confidence"] == 0.5

    def test_a_kept_batch_is_not_read_for_other_bytes(self, tmp_path, monkeypatch):
        # `recal ats` reads the batch kept for its fit file a block at a time:
        # where the file changes between the lookup's digest and the load, the
        # batch of the bytes before must not score the bytes the load parsed
        path = _lines(tmp_path / "fit.jsonl", [
            GOOD_PRED | {"qid": f"q{i}", "verbal_confidence": 0.1 + 0.2 * (i % 4),
                         "response_text": f"Answer: {'ab'[i % 3 == 0]}"} for i in range(12)])
        old = path.read_text()
        new = old.replace('"response_text": "Answer: b"', '"response_text": "Answer: a"', 1)
        argv = ["recal", "ats", "--fit", str(path), "--apply", str(PREDS_FIXTURE),
                "--out", str(tmp_path / "o.jsonl"), "--model-out", str(tmp_path / "m.json")]
        path.write_text(new)
        cli._CACHE.clear()
        assert main(argv) == 0
        want = (tmp_path / "m.json").read_bytes()
        path.write_text(old)
        _calib_alone(path)  # keeps the batch of the old bytes
        lookup = cli._sha256

        def digest_then_edit(p):
            digest = lookup(p)
            path.write_text(new)
            return digest

        monkeypatch.setattr(cli, "_sha256", digest_then_edit)
        assert main(argv) == 0
        assert (tmp_path / "m.json").read_bytes() == want

    def test_a_kept_batch_read_a_block_at_a_time_stays_as_it_is(self, tmp_path, monkeypatch):
        # `probe` takes each block's rows of the batch kept for its
        # predictions: it scores no row, and the kept batch is not rebuilt
        preds = write_hidden_dir(tmp_path / "hidden")
        cli._CACHE.clear()
        batch = cli._scored(preds, rewards.DEFAULT_F1_THRESHOLD)
        monkeypatch.setattr(jsonio, "BLOCK_LINES", 7)
        scored = count_calls(monkeypatch, rewards, "score_predictions")
        layer = str(tmp_path / "hidden" / "layer_8.mat")
        assert main(["probe", "fit", "--hidden", layer, "--preds", str(preds), "--layer", "8",
                     "--out", str(tmp_path / "m.json")]) == 0
        assert scored == []
        assert cli._CACHE[("calib", rewards.DEFAULT_F1_THRESHOLD), _sha256(preds)][0] is batch

    def test_a_kept_batch_is_not_read_for_a_file_that_gained_lines(self, tmp_path, monkeypatch):
        # the probe's predictions gain a line between the lookup's digest and
        # the load: the blocks past the kept batch's end are scored, and the
        # file is loaded again, as if nothing had been kept
        preds = write_hidden_dir(tmp_path / "hidden")
        old = preds.read_text()
        new = old + json.dumps(GOOD_PRED | {"qid": "extra"}) + "\n"
        argv = ["probe", "fit", "--hidden", str(tmp_path / "hidden" / "layer_8.mat"),
                "--preds", str(preds), "--layer", "8", "--out", str(tmp_path / "m.json")]
        preds.write_text(new)
        cli._CACHE.clear()
        assert main(argv) == 0
        want = (tmp_path / "m.json").read_bytes()
        lookup = cli._sha256

        def digest_then_edit(p):
            digest = lookup(p)
            preds.write_text(new)
            return digest

        for block in (256, 7):
            monkeypatch.setattr(jsonio, "BLOCK_LINES", block)
            monkeypatch.setattr(cli, "_sha256", lookup)
            preds.write_text(old)
            cli._CACHE.clear()
            cli._scored(preds, rewards.DEFAULT_F1_THRESHOLD)  # keeps the old bytes' batch
            monkeypatch.setattr(cli, "_sha256", digest_then_edit)
            assert main(argv) == 0
            assert (tmp_path / "m.json").read_bytes() == want


class TestMemoryRule:
    def test_main_keeps_only_the_entries_it_read(self, tmp_path):
        out = tmp_path / "o.json"
        assert main(["calib", "--in", str(PREDS_FIXTURE), "--out", str(out)]) == 0
        assert [key[0] for key in cli._CACHE] == [("calib", rewards.DEFAULT_F1_THRESHOLD)]
        assert main(["rag", "--policy", "always", "--in", str(RAG_FIXTURE),
                     "--out", str(out)]) == 0
        assert [key for key in cli._CACHE] == [(("rag", rewards.DEFAULT_F1_THRESHOLD),
                                                _sha256(RAG_FIXTURE))]
        # most fixture traces lack an external trigger: MissingSignal after the read
        assert main(["rag", "--policy", "external", "--in", str(RAG_FIXTURE)]) == 1
        assert len(cli._CACHE) == 1  # a failing command that read the entry keeps it
        assert main(["repr", "kl", "--pairs", str(tmp_path / "none.jsonl"),
                     "--annotations", str(tmp_path / "none.jsonl")]) == 2
        assert cli._CACHE == {}

    def test_cached_arrays_are_read_only(self, tmp_path):
        preds = write_hidden_dir(tmp_path / "hidden")
        out = str(tmp_path / "o.json")
        assert main(["run", "--plan", str(_plan(tmp_path / "plan.jsonl", [
            ["calib", "--in", str(PREDS_FIXTURE), "--out", out],
            ["rag", "--policy", "always", "--in", str(RAG_FIXTURE), "--out", out],
        ]))]) == 0
        scored = next(iter(cli._CACHE.values()))[0]
        assert isinstance(scored, ragctl.ScoredTraces)
        arrays = [scored.qid, scored.dataset, *scored.signals.values()]
        arrays += [getattr(m, f) for m in (scored.noret, scored.ret)
                   for f in ("correct", "rule", "f1")]
        assert main(["match", "--in", str(PREDS_FIXTURE), "--out", out]) == 0
        (verdicts, _), = cli._CACHE.values()
        arrays.append(verdicts)
        assert main(["calib", "--in", str(PREDS_FIXTURE), "--out", out]) == 0
        batch = cli._CACHE[("calib", rewards.DEFAULT_F1_THRESHOLD),
                           _sha256(PREDS_FIXTURE)][0]
        arrays += [batch.confidence, batch.correct, batch.marked]
        assert main(["probe", "sweep", "--hidden", str(tmp_path / "hidden"), "--preds",
                     str(preds), "--layers", "0,8", "--out", out]) == 0
        entries = {key[0]: value for key, (value, _) in cli._CACHE.items()}
        # the probe's rows, the batch they were scored from, and the sidecar's order
        assert entries.keys() == {"probe", ("calib", rewards.DEFAULT_F1_THRESHOLD), "rows"}
        count, order, fault = entries["rows"]
        arrays += [rows for rows in order.values() if isinstance(rows, np.ndarray)]
        assert count > 0 and fault is None
        arrays += [entries["probe"]["scalars"], entries["probe"]["wrong"]]
        batch = entries[("calib", rewards.DEFAULT_F1_THRESHOLD)]
        arrays += [batch.confidence, batch.correct, batch.marked]
        assert all(not a.flags.writeable for a in arrays)
        with pytest.raises(ValueError, match="read-only"):
            scored.noret.correct[0] = not scored.noret.correct[0]

    def test_probe_layers_with_equal_sidecars_share_one_parse(self, tmp_path, monkeypatch):
        preds = write_hidden_dir(tmp_path / "hidden", layers=(0, 4, 8))
        reads = count_calls(monkeypatch, matio, "read_row_ids")
        layer = str(tmp_path / "hidden" / "layer_4.mat")
        assert main(["run", "--plan", str(_plan(tmp_path / "plan.jsonl", [
            ["probe", "sweep", "--hidden", str(tmp_path / "hidden"), "--preds", str(preds),
             "--layers", "0,4,8", "--out", str(tmp_path / "s.json")],
            ["probe", "fit", "--hidden", layer, "--preds", str(preds), "--layer", "4",
             "--out", str(tmp_path / "m.json")],
            ["probe", "eval", "--model", str(tmp_path / "m.json"), "--hidden", layer,
             "--preds", str(preds), "--out", str(tmp_path / "e.json")],
        ]))]) == 0
        assert len(reads) == 1


def test_probe_commands_on_one_predictions_file_parse_it_once(tmp_path, monkeypatch, capsys):
    # a rejected line, reported by every command that reads the file
    preds = write_hidden_dir(tmp_path / "hidden")
    with open(preds, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(GOOD_PRED | {"verbal_confidence": 1.5}) + "\n")
    rejected = len(preds.read_text().splitlines())
    layer = str(tmp_path / "hidden" / "layer_8.mat")
    steps = [
        ["probe", "sweep", "--hidden", str(tmp_path / "hidden"), "--preds", str(preds),
         "--layers", "0,8", "--out", "{out}/s.json"],
        ["probe", "fit", "--hidden", layer, "--preds", str(preds), "--layer", "8",
         "--out", "{out}/m.json"],
        ["probe", "eval", "--model", "{out}/m.json", "--hidden", layer, "--preds", str(preds),
         "--out", "{out}/e.json"],
    ]
    alone = tmp_path / "alone"
    alone.mkdir()
    for argv in steps:
        cli._CACHE.clear()
        assert main(_argv(argv, alone)) == 0
    want = capsys.readouterr()
    planned = tmp_path / "planned"
    planned.mkdir()
    cli._CACHE.clear()
    loads = count_calls(monkeypatch, jsonio, "load_lines")
    assert main(["run", "--plan", str(_plan(tmp_path / "plan.jsonl",
                                            [_argv(argv, planned) for argv in steps]))]) == 0
    assert [args[0] for args in loads] == [str(preds)]
    got = capsys.readouterr()
    assert (got.out, got.err) == (want.out, want.err)
    assert got.err.count(f"{preds}:{rejected}: ") == 3
    # the model's path, in the eval report's config, names its directory
    assert ({name: data.replace(str(planned).encode(), b"{out}")
             for name, data in _outcome(0, "", "", planned)[3].items()}
            == {name: data.replace(str(alone).encode(), b"{out}")
                for name, data in _outcome(0, "", "", alone)[3].items()})
    # other bytes: derived again, under their own digest
    preds.write_text(preds.read_text().replace('"qid":"p', '"qid":"x'), encoding="utf-8")
    assert main(_argv(steps[1], planned)) == 1  # no qid of the file has hidden states
    assert len(loads) == 2
    assert "no emitted record has hidden states" in capsys.readouterr().err


def _plan_preds(tmp_path: Path) -> Path:
    """The predictions of a probe's hidden directory, each with a stated
    confidence, the first with a cached match block, and one rejected line."""
    preds = write_hidden_dir(tmp_path / "hidden")
    rng = np.random.default_rng(5)
    lines = [json.loads(line) | {"verbal_confidence": round(float(rng.uniform(0.05, 0.95)), 3)}
             for line in preds.read_text(encoding="utf-8").splitlines()]
    lines[0]["match"] = {"correct": True, "rule": "ExactMatch", "f1": 1.0}
    return _lines(preds, lines, json.dumps(GOOD_PRED | {"verbal_confidence": 1.5}) + "\n")


class TestOneScoringPerFile:
    def test_a_plan_matches_each_row_once_per_bytes_and_threshold(self, tmp_path, capsys,
                                                                   monkeypatch):
        preds = _plan_preds(tmp_path)
        steps = [
            ["match", "--in", str(preds), "--out", "{out}/m.jsonl"],
            ["calib", "--in", str(preds), "--out", "{out}/c.json", "--csv", "{out}/c.csv"],
            ["recal", "ts", "--fit", str(preds), "--apply", str(PREDS_FIXTURE),
             "--out", "{out}/ts.jsonl", "--model-out", "{out}/ts.json"],
            ["recal", "ats", "--fit", str(preds), "--apply", str(preds),
             "--out", "{out}/ats.jsonl", "--model-out", "{out}/ats.json"],
            ["probe", "sweep", "--hidden", str(tmp_path / "hidden"), "--preds", str(preds),
             "--layers", "0,8", "--out", "{out}/s.json"],
            ["calib", "--in", str(preds), "--f1-threshold", "0.9"],
        ]
        alone = tmp_path / "alone"
        alone.mkdir()
        codes = []
        for argv in steps:
            cli._CACHE.clear()
            codes.append(main(_argv(argv, alone)))
        assert codes == [0] * len(steps)
        want = capsys.readouterr()
        planned = tmp_path / "planned"
        planned.mkdir()
        cli._CACHE.clear()
        matches = count_calls(monkeypatch, rewards, "match_answer")
        assert main(["run", "--plan", str(_plan(tmp_path / "plan.jsonl",
                                                [_argv(argv, planned) for argv in steps]))]) == 0
        got = capsys.readouterr()
        assert (got.out, got.err) == (want.out, want.err)
        rejected = f"{preds}:{len(preds.read_text().splitlines())}: "
        assert got.err.count(rejected) == len(steps)  # once per step, `ats` included
        assert _outcome(0, "", "", planned)[3] == _outcome(0, "", "", alone)[3]
        # `match` matches every row at 0.3, and nothing after it matches a row
        # at 0.3 again; at 0.9 `calib` matches each row without a cached block
        rows = len(preds.read_text().splitlines()) - 1
        thresholds = [args[2] for args in matches]
        assert thresholds.count(0.3) == rows
        assert thresholds.count(0.9) == rows - 1
        assert len(thresholds) == 2 * rows - 1

    @pytest.mark.parametrize("kind", ["ts", "ats"])
    def test_a_lone_recal_loads_each_of_its_files_once(self, tmp_path, monkeypatch, kind):
        preds = _plan_preds(tmp_path)
        loads = count_calls(monkeypatch, jsonio, "load_lines")
        for apply in (PREDS_FIXTURE, preds):
            cli._CACHE.clear()
            assert main(["recal", kind, "--fit", str(preds), "--apply", str(apply),
                         "--out", str(tmp_path / "o.jsonl")]) == 0
        assert [args[0] for args in loads] == [str(preds), str(PREDS_FIXTURE), str(preds)]

    def test_the_kept_verdicts_hold_no_table(self, tmp_path):
        path = _lines(tmp_path / "preds.jsonl", [
            GOOD_PRED | {"qid": f"q{i}", "response_text": f"Answer: a {i}"} for i in range(2000)])
        argv = ["match", "--in", str(path), "--out", str(tmp_path / "m.jsonl")]
        assert main(argv) == 0  # compiles and caches what any first call would
        cli._CACHE.clear()
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            assert main(argv) == 0
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 64 * 2000
        (key, (verdicts, errors)), = cli._CACHE.items()
        assert key == (("verdicts", rewards.DEFAULT_F1_THRESHOLD), _sha256(path))
        assert verdicts.dtype == bool and verdicts.shape == (2000,) and errors == []


def _fifo_feed(path: Path, data: bytes) -> threading.Thread:
    def write():
        with open(path, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    return writer


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("command, source", [
    (["rag", "--policy", "conf:0.5"], RAG_FIXTURE),
    (["calib"], PREDS_FIXTURE),
])
def test_a_pipe_is_read_once_and_never_kept(tmp_path, capsys, monkeypatch, command, source):
    out = tmp_path / "o.json"
    fifo = tmp_path / "in.fifo"

    def report() -> dict:  # the report, but for the input path in its config
        got = json.loads(out.read_text())
        return got | {"config": got["config"] | {"input": str(fifo)}}

    os.mkfifo(fifo)
    for _ in range(2):
        # the regular file's entry is kept, so the pipe's call looks it up
        assert main([*command, "--in", str(source), "--out", str(out)]) == 0
        want = report()
        assert len(cli._CACHE) == 1
        writer = _fifo_feed(fifo, source.read_bytes())
        loads = count_calls(monkeypatch, jsonio, "load_lines")
        codes = []
        # in a thread, so that a second read of the drained pipe fails the
        # test instead of blocking it
        runner = threading.Thread(target=lambda: codes.append(
            main([*command, "--in", str(fifo), "--out", str(out)])), daemon=True)
        runner.start()
        runner.join(20)
        writer.join(20)
        monkeypatch.undo()
        assert codes == [0] and not writer.is_alive()
        assert len(loads) == 1
        assert report() == want
        assert cli._CACHE == {}


@pytest.mark.parametrize("command", [
    ["match"], ["calib"], ["rag", "--policy", "always"],
    ["recal", "ts", "--fit", "{in}", "--apply", "{in}", "--out", "{out}"],
    ["recal", "ats", "--fit", "{in}", "--apply", "{in}", "--out", "{out}"],
])
@pytest.mark.parametrize("threshold", ["7", "-0.1", "nan", "inf", "x"])
def test_f1_threshold_refused_before_any_input_is_read(tmp_path, capsys, monkeypatch,
                                                       command, threshold):
    # `calib --f1-threshold 7` once exited 0, recording 7 in its config,
    # when no record had an answer to match
    loads = count_calls(monkeypatch, jsonio, "load_lines")
    given = tmp_path / "preds.jsonl"
    given.write_bytes(PREDS_FIXTURE.read_bytes())
    out = tmp_path / "o.jsonl"
    argv = [arg.format(**{"in": given, "out": out}) for arg in command]
    if command[0] != "recal":
        argv += ["--in", str(given), "--out", str(out)]
    assert main([*argv, "--f1-threshold", threshold]) == 1
    err = capsys.readouterr().err
    assert f"bad --f1-threshold value {threshold!r}" in err and "usage:" in err
    assert loads == [] and not out.exists()


@pytest.mark.parametrize("threshold", ["0", "1", "0.25"])
def test_f1_threshold_in_the_unit_interval_is_recorded(tmp_path, threshold):
    out = tmp_path / "o.json"
    assert main(["calib", "--in", str(PREDS_FIXTURE), "--f1-threshold", threshold,
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["f1_threshold"] == float(threshold)


# ---------------------------------------------------------------------------
# uncal run --plan
# ---------------------------------------------------------------------------


def _plan(path: Path, steps: list[list[str]]) -> Path:
    return _lines(path, [{"argv": argv} for argv in steps])


def _rag_step(policy: str, out: Path) -> list[str]:
    return ["rag", "--policy", policy, "--in", str(RAG_FIXTURE),
            "--out", str(out / f"{policy.replace(':', '_')}.json"),
            "--csv", str(out / f"{policy.replace(':', '_')}.csv")]


POLICIES = ("always", "never", "emit", "conf:0.5")


class TestRun:
    def test_a_four_policy_plan_loads_and_scores_once(self, tmp_path, monkeypatch):
        out = tmp_path / "plan"
        out.mkdir()
        plan = _plan(tmp_path / "plan.jsonl", [_rag_step(p, out) for p in POLICIES])
        loads = count_calls(monkeypatch, jsonio, "load_lines")
        scores = count_calls(monkeypatch, ragctl, "score_traces")
        assert main(["run", "--plan", str(plan)]) == 0
        assert len(loads) == 1 and len(scores) == 1
        monkeypatch.undo()
        alone = tmp_path / "alone"
        alone.mkdir()
        for policy in POLICIES:
            cli._CACHE.clear()
            assert main(_rag_step(policy, alone)) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in alone.iterdir())
        for p in out.iterdir():
            assert p.read_bytes() == (alone / p.name).read_bytes()

    def test_steps_write_what_they_write_alone(self, tmp_path, capsys):
        files = _with_rejections(tmp_path)
        steps = [
            ["calib", "--in", str(files["preds"])],
            ["calib", "--in", str(files["preds"]), "--bins", "3"],
            ["match", "--in", str(files["preds"]), "--out", str(tmp_path / "m.jsonl")],
            ["rag", "--policy", "conf:0.5", "--in", str(files["traces"])],
        ]
        assert main(["run", "--plan", str(_plan(tmp_path / "plan.jsonl", steps))]) == 0
        planned = capsys.readouterr()
        alone_out, alone_err = "", ""
        for argv in steps:
            cli._CACHE.clear()
            assert main(argv) == 0
            got = capsys.readouterr()
            alone_out, alone_err = alone_out + got.out, alone_err + got.err
        assert (planned.out, planned.err) == (alone_out, alone_err)
        assert planned.err.count(f"{files['preds']}:2: ") == 3

    def test_the_first_failing_step_stops_the_plan(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        plan = _plan(tmp_path / "plan.jsonl", [
            ["rag", "--policy", "always", "--in", str(tmp_path / "missing.jsonl")],
            ["calib", "--in", str(PREDS_FIXTURE), "--out", str(out)],
        ])
        assert main(["run", "--plan", str(plan)]) == 2
        assert capsys.readouterr().err.startswith("uncal: cannot read ")
        assert not out.exists()

    def test_a_refused_plan_runs_no_step(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        calib = ["calib", "--in", str(PREDS_FIXTURE), "--out", str(out)]
        plan = tmp_path / "plan.jsonl"
        plan.write_text("\n".join([
            json.dumps({"argv": calib}),
            json.dumps({"argv": ["run", "--plan", str(plan)]}),
            "{broken",
            json.dumps({"argv": []}),
            json.dumps({"argv": "calib"}),
            json.dumps({"argv": calib, "cwd": "."}),
            json.dumps({"argv": ["calib", "--bins", "x", "--in", "p"]}),
            json.dumps({"argv": ["--seed", "2", "run", "--plan", "p"]}),
            json.dumps({"argv": ["calib", "--help"]}),
            json.dumps({"argv": ["probe"]}),
            "",
        ]))
        assert main(["run", "--plan", str(plan)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"{plan}:2: a plan step may not run a plan",
            f"{plan}:3: invalid JSON: Expecting property name enclosed in double quotes",
            f"{plan}:4: argv must be a non-empty list of strings",
            f"{plan}:5: argv must be a non-empty list of strings",
            f"{plan}:6: unknown fields ['cwd']",
            f"{plan}:7: bad --bins value 'x': must be an integer >= 1",
            f"{plan}:8: a plan step may not run a plan",
            f"{plan}:9: a help request is not a plan step",
            f"{plan}:10: argv names no command",
            f"uncal: {plan}: 9 of 10 plan lines refused; no step was run",
        ]
        assert not out.exists()

    def test_seed_belongs_to_each_step(self, tmp_path, capsys):
        plan = _plan(tmp_path / "plan.jsonl", [])
        assert main(["run", "--plan", str(plan)]) == 0
        assert main(["--seed", "3", "run", "--plan", str(plan)]) == 1
        assert "--seed is given in each plan step" in capsys.readouterr().err

    def test_a_missing_plan_exits_two(self, tmp_path, capsys):
        assert main(["run", "--plan", str(tmp_path / "none.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err
