"""The four researcher sessions and the checks that judge their outputs.

A session is a fixed list of `uncal` invocations, each run through
`uncal.cli.main` with paths relative to the workload's input directory. Each
invocation belongs to one end-to-end metric; a metric's value for a session
is the summed time of its invocations. Every check compares an output with
the facts `gen.py` planted, never with another `uncal` computation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from gen import RAG_POLICIES

Check = Callable[[Path, dict], "str | None"]


@dataclass(frozen=True)
class Step:
    metric: str  # end-to-end metric the invocation's time adds to
    argv: tuple[str, ...]
    outputs: tuple[str, ...]  # files hashed and compared across sessions
    records: int  # records in the invocation's main input
    check: Check


# every per-command timing, in report order; a workload reports those of its
# own steps (rag_s sums all policies, theory_s verify + iterate, probe_fit_eval_s
# fit + eval, repr_s cka + pca + drift + kl)
COMMAND_METRICS = (
    "match_s", "calib_s", "recal_ts_s", "recal_ats_s", "recal_ptrue_s", "rag_s",
    "theory_s", "probe_sweep_s", "probe_fit_eval_s", "repr_s",
)


def _json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _lines(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def _expect(pairs) -> str | None:
    """First mismatch among (label, got, want) triples, or None."""
    for label, got, want in pairs:
        if got != want:
            return f"{label}: got {got!r}, planted {want!r}"
    return None


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_match(out: str, planted: dict) -> Check:
    def check(work: Path, truth: dict) -> str | None:
        rows = _lines(work / out)
        return _expect([
            ("match records", len(rows), planted["n"]),
            ("match correct", sum(1 for r in rows if r["match"]["correct"]), planted["correct"]),
        ])
    return check


def check_calib(out: str, planted: dict) -> Check:
    def check(work: Path, truth: dict) -> str | None:
        report = _json(work / out)
        n = planted["n"]
        return _expect([
            ("calib n", report["n"], n),
            ("calib accuracy", report["accuracy"], planted["correct"] / n),
            ("calib parse_rate", report["parse_rate"], planted["with_confidence"] / n),
        ])
    return check


def check_recal(out: str, planted_apply: dict, model: str | None = None) -> Check:
    """Every valid apply record comes back; a TS model's temperature is within
    1% of the one the planted fit records imply (gen.ts_temperature), which
    itself sits near the planted distortion."""

    def check(work: Path, truth: dict) -> str | None:
        failure = _expect([("recal records", len(_lines(work / out)), planted_apply["n"])])
        if failure or model is None:
            return failure
        temperature = _json(work / model)["temperature"]
        want = truth["fit"]["ts_temperature"]
        if abs(temperature - want) > 0.01 * want:
            return (f"recal ts temperature {temperature}, planted fit records imply {want} "
                    f"(distortion {truth['temperature']})")
        return None
    return check


def check_rag(out: str, policy: str) -> Check:
    def check(work: Path, truth: dict) -> str | None:
        report = _json(work / out)
        planted = truth["policies"][policy]
        pairs = []
        groups = [("overall", report["overall"], planted["overall"])]
        groups += [(name, report["per_dataset"].get(name, {}), want)
                   for name, want in planted["per_dataset"].items()]
        for name, got, want in groups:
            pairs += [
                (f"rag {policy} {name} n", got.get("n"), want["n"]),
                (f"rag {policy} {name} triggered", got.get("triggered"), want["triggered"]),
                (f"rag {policy} {name} final_em", got.get("final_em"), want["em"] / want["n"]),
            ]
        return _expect(pairs)
    return check


def check_theory_verify(work: Path, truth: dict) -> str | None:
    rows = _lines(work / "verify.jsonl")
    ok = [r for r in rows if r["status"] == "ok"]
    if len(rows) != truth["spaces"] or not ok:
        return f"theory verify: {len(rows)} lines, {len(ok)} ok, {truth['spaces']} spaces"
    broken = [r["index"] for r in ok if r["holds"] is not True]
    return f"theory verify: bound fails on spaces {broken[:5]}" if broken else None


def check_theory_iterate(work: Path, truth: dict) -> str | None:
    rows = _lines(work / "iterate.jsonl")
    return _expect([
        ("theory iterate spaces", len(rows), truth["spaces"]),
        ("theory iterate steps", {len(r["steps"]) for r in rows}, {10}),
    ])


def check_probe_sweep(work: Path, truth: dict) -> str | None:
    rows = _json(work / "sweep.json")["rows"]
    best = max(rows, key=lambda r: r["auroc"])["layer"]
    return _expect([("probe sweep best layer", best, truth["probe"]["planted_layer"])])


def check_probe_eval(work: Path, truth: dict) -> str | None:
    report = _json(work / "probe_eval.json")
    failure = _expect([("probe eval n", report["n"], truth["probe"]["records"])])
    if failure is None and report["auroc"] < 0.9:
        failure = f"probe eval AUROC {report['auroc']} on the planted layer is below 0.9"
    return failure


def check_exists(*names: str) -> Check:
    def check(work: Path, truth: dict) -> str | None:
        missing = [n for n in names if not (work / n).is_file()]
        return f"missing outputs {missing}" if missing else None
    return check


def check_cka(work: Path, truth: dict) -> str | None:
    report = _json(work / "cka.json")
    if report["rows"] != truth["matrix_rows"] or not 0.0 <= report["cka"] <= 1.0:
        return f"repr cka: rows {report['rows']}, cka {report['cka']}"
    return None


def check_pca(work: Path, truth: dict) -> str | None:
    ratios = _json(work / "pca.json")["explained_variance_ratio"]
    if len(ratios) != 2 or not 1.0 >= ratios[0] >= ratios[1] >= 0.0:
        return f"repr pca: explained variance ratios {ratios}"
    return None


def check_drift(work: Path, truth: dict) -> str | None:
    # two independent standard-normal layers: ||a - b|| / ||a|| ~ sqrt(2)
    drift = _json(work / "drift.json")["relative_frobenius_drift"]
    if abs(drift - math.sqrt(2.0)) > 0.05 * math.sqrt(2.0):
        return f"repr drift {drift} is not near sqrt(2)"
    return None


def check_kl(work: Path, truth: dict) -> str | None:
    rows = _json(work / "kl.json")["by_type"]
    return _expect([("repr kl positions", sum(r["count"] for r in rows.values()),
                     truth["kl_pairs"])])


# ---------------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------------


def _recal_steps(truth: dict, kinds) -> list[Step]:
    steps = []
    for kind in kinds:
        out = f"recal_{kind}.jsonl"
        model = f"{kind}_model.json"
        steps.append(Step(
            f"recal_{kind}_s",
            ("recal", kind, "--fit", "fit.jsonl", "--apply", "apply.jsonl",
             "--out", out, "--model-out", model),
            (out, model),
            truth["fit"]["n"],
            check_recal(out, truth["apply"], model if kind == "ts" else None),
        ))
    return steps


def _preds_raw(truth: dict) -> list[Step]:
    preds = truth["preds"]
    return [
        Step("match_s", ("match", "--in", "preds.jsonl", "--out", "matched.jsonl"),
             ("matched.jsonl",), preds["n"], check_match("matched.jsonl", preds)),
        Step("calib_s", ("calib", "--in", "preds.jsonl", "--out", "calib.json",
                         "--csv", "calib.csv"),
             ("calib.json", "calib.csv"), preds["n"], check_calib("calib.json", preds)),
        *_recal_steps(truth, ("ts", "ats")),
    ]


def _preds_matched(truth: dict) -> list[Step]:
    preds = truth["preds"]
    return [
        Step("calib_s", ("calib", "--in", "preds.jsonl", "--out", "calib.json",
                         "--csv", "calib.csv"),
             ("calib.json", "calib.csv"), preds["n"], check_calib("calib.json", preds)),
        *_recal_steps(truth, ("ts",)),
        Step("recal_ptrue_s", ("recal", "ptrue", "--in", "preds.jsonl", "--out", "ptrue.jsonl"),
             ("ptrue.jsonl",), preds["n"], check_recal("ptrue.jsonl", preds)),
    ]


def _rag_traces(truth: dict) -> list[Step]:
    steps = []
    for policy in RAG_POLICIES:
        tag = policy.replace(":", "_").replace("+", "_")
        out, csv = f"rag_{tag}.json", f"rag_{tag}.csv"
        steps.append(Step(
            "rag_s",
            ("rag", "--policy", policy, "--in", "traces.jsonl", "--out", out, "--csv", csv),
            (out, csv), truth["n"], check_rag(out, policy),
        ))
    return steps


def _mechanism(truth: dict) -> list[Step]:
    planted = truth["probe"]["planted_layer"]
    layers = ",".join(str(k) for k in range(truth["probe"]["layers"]))
    layer_file = f"hidden/layer_{planted}.mat"
    other = (planted + 1) % truth["probe"]["layers"]
    probe_n = truth["probe"]["records"]
    rows = truth["matrix_rows"]
    return [
        Step("theory_s", ("theory", "verify", "--in", "spaces.jsonl", "--eta", "1.0",
                          "--out", "verify.jsonl"),
             ("verify.jsonl",), truth["spaces"], check_theory_verify),
        Step("theory_s", ("theory", "iterate", "--in", "spaces.jsonl", "--eta", "0.5",
                          "--steps", "10", "--out", "iterate.jsonl"),
             ("iterate.jsonl",), truth["spaces"], check_theory_iterate),
        Step("probe_sweep_s", ("probe", "sweep", "--hidden", "hidden",
                               "--preds", "probe_preds.jsonl", "--layers", layers,
                               "--out", "sweep.json", "--csv", "sweep.csv"),
             ("sweep.json", "sweep.csv"), probe_n, check_probe_sweep),
        Step("probe_fit_eval_s", ("probe", "fit", "--hidden", layer_file,
                                  "--preds", "probe_preds.jsonl", "--layer", str(planted),
                                  "--out", "probe_model.json"),
             ("probe_model.json",), probe_n, check_exists("probe_model.json")),
        Step("probe_fit_eval_s", ("probe", "eval", "--model", "probe_model.json",
                                  "--hidden", layer_file, "--preds", "probe_preds.jsonl",
                                  "--out", "probe_eval.json"),
             ("probe_eval.json",), probe_n, check_probe_eval),
        Step("repr_s", ("repr", "cka", "--x", "hidden/layer_0.mat",
                        "--y", "hidden/layer_1.mat", "--out", "cka.json"),
             ("cka.json",), rows, check_cka),
        Step("repr_s", ("repr", "pca", "--in", layer_file, "--k", "2",
                        "--out", "pca.json", "--csv", "pca.csv"),
             ("pca.json", "pca.csv"), rows, check_pca),
        Step("repr_s", ("repr", "drift", "--base", layer_file,
                        "--cal", f"hidden/layer_{other}.mat",
                        "--interest", "0,1,2,3", "--baseline", "10,11,12,13",
                        "--out", "drift.json"),
             ("drift.json",), rows, check_drift),
        Step("repr_s", ("repr", "kl", "--pairs", "kl_pairs.jsonl",
                        "--annotations", "kl_ann.jsonl", "--out", "kl.json", "--csv", "kl.csv"),
             ("kl.json", "kl.csv"), truth["kl_pairs"], check_kl),
    ]


SESSIONS = {
    "preds-raw": _preds_raw,
    "preds-matched": _preds_matched,
    "rag-traces": _rag_traces,
    "mechanism": _mechanism,
}


def session(workload: str, truth: dict) -> list[Step]:
    return SESSIONS[workload](truth)
