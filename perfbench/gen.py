"""Seeded input generator for the uncal benchmark.

Writes every input a workload needs into one directory, together with
`truth.json`: the facts planted by construction (record counts, which answers
are correct, which signals trigger, which probe layer carries the signal).
The checks compare `uncal`'s reports against that file.

The generator never imports `uncal`. JSON Lines go through `json`, matrices
through numpy in the `UNCAL-MAT v1` layout, so the inputs stay the same when
the code under test changes. Correctness is decided here, from how each answer
was built, never by calling `uncal.rewards`. The same seed gives the same
bytes.

    python3 perfbench/gen.py --workload preds-raw --seed 1 --out DIR [--size tiny]
"""

from __future__ import annotations

import argparse
import json
import math
import random
from pathlib import Path

import numpy as np

DATASETS = ("hotpotqa", "nq", "triviaqa", "strategyqa")
MONTHS = (
    "January", "February", "March", "April", "May", "June",
    "July", "August", "September", "October", "November", "December",
)
YES_FORMS = ("yes", "Yes", "True", "correct")
NO_FORMS = ("no", "No", "False", "incorrect")
# words the matcher treats specially; generated words must avoid them
_RESERVED = (
    {"a", "an", "the", "yes", "no", "true", "false", "correct", "incorrect",
     "answer", "confidence", "uncertain", "step"}
    | {m.lower() for m in MONTHS}
    | {m.lower()[:3] for m in MONTHS}
)
_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"

PLANTED_TEMPERATURE = 2.0  # stated logit = true logit * T, so a TS fit recovers ~T
CONFIDENCE_SHARE = 0.93  # the rest of the responses have no Confidence: line
F1_THRESHOLD = 0.3  # uncal's default; the planted F1 answers sit on either side

# records, or the workload's input sizes, per size class
SIZES = {
    "full": {
        "preds-raw": {"records": 1000},
        "preds-matched": {"records": 5000},
        "rag-traces": {"records": 2000},
        "mechanism": {"spaces": 100, "probe_records": 400, "tokens": 12,
                      "dims": 256, "layers": 4, "kl_pairs": 500, "vocab": 64},
    },
    "tiny": {
        "preds-raw": {"records": 120},
        "preds-matched": {"records": 400},
        "rag-traces": {"records": 120},
        "mechanism": {"spaces": 30, "probe_records": 160, "tokens": 24,
                      "dims": 16, "layers": 4, "kl_pairs": 50, "vocab": 16},
    },
}
WORKLOADS = tuple(SIZES["full"])


def _sigmoid(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


class Words:
    """Pseudo-words built from consonant-vowel syllables, so no generated
    word is an article, a yes/no word, a month name or a digit."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def word(self) -> str:
        while True:
            w = "".join(
                self.rng.choice(_CONSONANTS) + self.rng.choice(_VOWELS)
                for _ in range(self.rng.randint(2, 3))
            )
            if w not in _RESERVED:
                return w

    def distinct(self, n: int, avoid=()) -> list[str]:
        out: list[str] = []
        while len(out) < n:
            w = self.word()
            if w not in out and w not in avoid:
                out.append(w)
        return out

    def sentence(self, n: int) -> str:
        return " ".join(self.word() for _ in range(n))


# ---------------------------------------------------------------------------
# Answers: gold list, predicted answer, and the planted match outcome
# ---------------------------------------------------------------------------


def _date_forms(rng: random.Random):
    year = rng.randint(1900, 2020)
    month = rng.randint(1, 12)
    day = rng.randint(1, 28)
    iso = f"{year:04d}-{month:02d}-{day:02d}"
    named = rng.choice(
        (f"{MONTHS[month - 1]} {day}, {year}", f"{day} {MONTHS[month - 1]} {year}")
    )
    return (year, month, day), iso, named


def make_answer(rng: random.Random, words: Words, correct: bool) -> dict:
    """One question's gold answers and a predicted answer whose outcome is
    known by construction.

    Returns gold, pred (None when the response has no answer line), correct,
    em (correct by normalized exact match), rule and f1 as `uncal match`
    should report them.
    """
    if correct:
        kind = rng.choices(("exact", "yesno", "date", "f1"), (40, 15, 15, 30))[0]
    else:
        kind = rng.choices(
            ("exact", "yesno", "date", "f1", "none"), (35, 15, 15, 25, 10)
        )[0]
    if kind == "exact":
        name = [w.capitalize() for w in words.distinct(rng.randint(1, 3))]
        alias = [w.capitalize() for w in words.distinct(2, avoid={w.lower() for w in name})]
        gold = [" ".join(name), " ".join(alias)]
        if correct:
            surface = rng.choice((name, alias))
            pred = " ".join(surface)
            if rng.random() < 0.3:
                pred = "The " + pred
            if rng.random() < 0.3:
                pred = pred.upper() + "."
            return _outcome(gold, pred, True, True, "ExactMatch", 1.0)
        other = words.distinct(2, avoid={w.lower() for w in name + alias})
        return _outcome(gold, " ".join(w.capitalize() for w in other), False, False,
                        "TokenF1", 0.0)
    if kind == "yesno":
        positive = rng.random() < 0.5
        gold = ["yes" if positive else "no"]
        same, other = (YES_FORMS, NO_FORMS) if positive else (NO_FORMS, YES_FORMS)
        if correct:
            pred = rng.choice(same)
            exact = pred.lower() == gold[0]
            return _outcome(gold, pred, True, exact, "ExactMatch" if exact else "YesNo", 1.0)
        return _outcome(gold, rng.choice(other), False, False, "TokenF1", 0.0)
    if kind == "date":
        ymd, iso, named = _date_forms(rng)
        gold_iso = rng.random() < 0.5
        gold = [iso if gold_iso else named]
        if correct:
            # the other surface form: agrees as a date, differs as text
            return _outcome(gold, named if gold_iso else iso, True, False, "Date", 1.0)
        while True:
            wrong, w_iso, w_named = _date_forms(rng)
            if wrong[:2] != ymd[:2]:
                break
        # opposite surface form again, so no token overlap rescues it by F1
        return _outcome(gold, w_named if gold_iso else w_iso, False, False, "TokenF1", 0.0)
    if kind == "f1":
        gold_tokens = words.distinct(4)
        extra = words.distinct(3, avoid=set(gold_tokens))
        if correct:
            pred_tokens = gold_tokens[:2] + extra[:1]  # overlap 2 of 3 vs 4
        else:
            pred_tokens = gold_tokens[:1] + extra[:3]  # overlap 1 of 4 vs 4
        overlap = 2 if correct else 1
        p = overlap / len(pred_tokens)
        r = overlap / len(gold_tokens)
        f1 = 2.0 * p * r / (p + r)
        assert (f1 >= F1_THRESHOLD) == correct
        return _outcome([" ".join(gold_tokens)], " ".join(pred_tokens), correct, False,
                        "TokenF1", f1)
    gold = [" ".join(w.capitalize() for w in words.distinct(2))]
    return _outcome(gold, None, False, False, "TokenF1", 0.0)


def _outcome(gold, pred, correct, em, rule, f1) -> dict:
    return {"gold": gold, "pred": pred, "correct": correct, "em": em, "rule": rule, "f1": f1}


def _response_text(rng, words, pred, conf_text, uncertain) -> str:
    lines = []
    for step in range(rng.randint(1, 4)):
        body = words.sentence(rng.randint(3, 8))
        lines.append(f"Step {step + 1}: {body}.")
    if uncertain:
        i = rng.randrange(len(lines))
        lines[i] = lines[i][:-1] + " <uncertain> " + words.sentence(2) + "."
    if pred is not None:
        lines.append(f"Answer: {pred}")
    if conf_text is not None:
        lines.append(f"Confidence: {conf_text}")
    return "\n".join(lines)


def _prediction(rng, words, index):
    """One raw prediction record plus its planted facts."""
    q = _sigmoid(rng.gauss(0.3, 1.5))
    correct = rng.random() < q
    ans = make_answer(rng, words, correct)
    stated = _sigmoid(_logit(q) * PLANTED_TEMPERATURE)
    conf = min(max(round(stated, 2), 0.01), 0.99)
    has_conf = rng.random() < CONFIDENCE_SHARE
    uncertain = rng.random() < (0.45 if not correct else 0.2)
    text = _response_text(rng, words, ans["pred"], f"{conf:.2f}" if has_conf else None,
                          uncertain)
    record = {
        "qid": f"q{index:06d}",
        "dataset": DATASETS[index % len(DATASETS)],
        "question": words.sentence(6).capitalize() + "?",
        "gold_answers": ans["gold"],
        "response_text": text,
        "response_token_count": len(text.split()),
    }
    fact = {"correct": correct, "conf": conf if has_conf else None, "ans": ans,
            "p_affirmative": round(min(max(q + rng.gauss(0.0, 0.1), 0.0), 1.0), 4)}
    return record, fact


def _write_jsonl(path: Path, objs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def _write_mat(path: Path, values: np.ndarray) -> None:
    rows, dims = values.shape
    with open(path, "wb") as fh:
        fh.write(f"UNCAL-MAT v1 rows={rows} dims={dims} dtype=f32le\n".encode("ascii"))
        fh.write(np.ascontiguousarray(values, dtype="<f4").tobytes())


def ts_temperature(pairs) -> float:
    """Temperature T minimizing the Bernoulli NLL of sigmoid(logit(c) / T)
    over planted (confidence, correct) pairs, by golden-section search over
    log T in [-5, 5]. Rounding and clipping the stated confidences move it
    away from PLANTED_TEMPERATURE, so the check compares against this."""
    logits = [_logit(c) for c, _ in pairs]
    outcomes = [y for _, y in pairs]

    def nll(log_t: float) -> float:
        t = math.exp(log_t)
        total = 0.0
        for z, y in zip(logits, outcomes):
            p = min(max(_sigmoid(z / t), 1e-12), 1.0 - 1e-12)
            total -= math.log(p if y else 1.0 - p)
        return total

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = -5.0, 5.0
    while hi - lo > 1e-7:
        x1 = hi - inv_phi * (hi - lo)
        x2 = lo + inv_phi * (hi - lo)
        if nll(x1) <= nll(x2):
            hi = x2
        else:
            lo = x1
    return math.exp((lo + hi) / 2.0)


def _pred_truth(facts, fit: bool = False) -> dict:
    pairs = [(f["conf"], f["correct"]) for f in facts if f["conf"] is not None]
    truth = {
        "n": len(facts),
        "correct": sum(1 for f in facts if f["correct"]),
        "with_confidence": len(pairs),
    }
    if fit:
        truth["ts_temperature"] = ts_temperature(pairs)
    return truth


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def gen_preds_raw(out: Path, rng: random.Random, size: dict) -> dict:
    words = Words(rng)
    pairs = [_prediction(rng, words, i) for i in range(size["records"])]
    records = [r for r, _ in pairs]
    facts = [f for _, f in pairs]
    half = len(records) // 2
    _write_jsonl(out / "preds.jsonl", records)
    _write_jsonl(out / "fit.jsonl", records[:half])
    _write_jsonl(out / "apply.jsonl", records[half:])
    return {
        "preds": _pred_truth(facts),
        "fit": _pred_truth(facts[:half], fit=True),
        "apply": _pred_truth(facts[half:]),
        "temperature": PLANTED_TEMPERATURE,
    }


def _matched(record: dict, fact: dict) -> dict:
    out = dict(record)
    ans = fact["ans"]
    out["match"] = {"correct": ans["correct"], "rule": ans["rule"], "f1": ans["f1"]}
    if fact["conf"] is not None:
        out["verbal_confidence"] = fact["conf"]
    out["p_affirmative"] = fact["p_affirmative"]
    return out


def gen_preds_matched(out: Path, rng: random.Random, size: dict) -> dict:
    """Pre-matched records; one line in 200 is invalid and must be rejected."""
    words = Words(rng)
    lines = []
    facts = []  # None marks a line the loader must reject
    for i in range(size["records"]):
        record, fact = _prediction(rng, words, i)
        line = _matched(record, fact)
        if i % 200 == 199:
            line["verbal_confidence"] = 1.5  # outside [0,1]
            fact = None
        lines.append(line)
        facts.append(fact)
    half = len(lines) // 2
    _write_jsonl(out / "preds.jsonl", lines)
    _write_jsonl(out / "fit.jsonl", lines[:half])
    _write_jsonl(out / "apply.jsonl", lines[half:])

    def truth(part, fit=False):
        valid = [f for f in part if f is not None]
        return _pred_truth(valid, fit) | {"rejected": len(part) - len(valid)}

    return {
        "preds": truth(facts),
        "fit": truth(facts[:half], fit=True),
        "apply": truth(facts[half:]),
        "temperature": PLANTED_TEMPERATURE,
    }


RAG_POLICIES = ("conf:0.5", "emit+probe:0.5", "flare:0.3", "external")


def gen_rag_traces(out: Path, rng: random.Random, size: dict) -> dict:
    words = Words(rng)
    records = []
    fires = {p: [] for p in RAG_POLICIES}
    noret_em = []
    ret_em = []
    for i in range(size["records"]):
        q = _sigmoid(rng.gauss(0.0, 1.5))
        noret = make_answer(rng, words, rng.random() < q)
        ret = _answer_for(rng, words, noret["gold"], rng.random() < 0.75)
        wrong = not noret["correct"]
        conf = min(max(round(_sigmoid(_logit(q) * PLANTED_TEMPERATURE + rng.gauss(0, 0.5)), 2),
                       0.0), 1.0)
        emissions = rng.choice((1, 1, 2, 3)) if rng.random() < (0.6 if wrong else 0.25) else 0
        probe_score = round(min(max(rng.gauss(0.65 if wrong else 0.35, 0.2), 0.0), 1.0), 4)
        low_token = rng.random() < (0.7 if wrong else 0.35)
        token_probs = [round(rng.uniform(0.3, 1.0), 4) for _ in range(rng.randint(28, 36))]
        if low_token:
            token_probs[rng.randrange(len(token_probs))] = round(rng.uniform(0.01, 0.29), 4)
        external = rng.random() < (0.65 if wrong else 0.35)
        text = _response_text(rng, words, noret["pred"], None, emissions > 0)
        records.append({
            "qid": f"r{i:06d}",
            "dataset": DATASETS[i % len(DATASETS)],
            "gold_answers": noret["gold"],
            "noret_answer": noret["pred"] if noret["pred"] is not None else "",
            "ret_answer": ret["pred"],
            "noret_confidence": conf,
            "noret_emissions": emissions,
            "noret_probe_score": probe_score,
            "noret_token_probs": token_probs,
            "noret_response_text": text,
            "external_trigger": external,
        })
        fires["conf:0.5"].append(conf < 0.5)
        fires["emit+probe:0.5"].append(emissions >= 1 and probe_score >= 0.5)
        fires["flare:0.3"].append(min(token_probs) < 0.3)
        fires["external"].append(external)
        noret_em.append(noret["em"])
        ret_em.append(ret["em"])
    _write_jsonl(out / "traces.jsonl", records)
    datasets = [r["dataset"] for r in records]
    policies = {}
    for policy, flags in fires.items():
        per = {}
        for name in sorted(set(datasets)):
            idx = [k for k, d in enumerate(datasets) if d == name]
            per[name] = _rag_counts([flags[k] for k in idx], [noret_em[k] for k in idx],
                                    [ret_em[k] for k in idx])
        policies[policy] = {"overall": _rag_counts(flags, noret_em, ret_em),
                            "per_dataset": per}
    return {"n": len(records), "policies": policies}


def _rag_counts(flags, noret_em, ret_em) -> dict:
    em = sum(1 for f, a, b in zip(flags, noret_em, ret_em) if (b if f else a))
    return {"n": len(flags), "triggered": sum(flags), "em": em}


def _answer_for(rng, words, gold, correct) -> dict:
    """A retrieval answer for an existing gold list: a gold surface form when
    correct, otherwise words disjoint from every gold token."""
    if correct:
        pred = rng.choice(gold)
        return _outcome(gold, pred, True, True, "ExactMatch", 1.0)
    gold_tokens = {t.lower() for g in gold for t in g.replace("-", " ").split()}
    pred = " ".join(w.capitalize() for w in words.distinct(2, avoid=gold_tokens))
    return _outcome(gold, pred, False, False, "TokenF1", 0.0)


def gen_mechanism(out: Path, rng: random.Random, size: dict) -> dict:
    nrng = np.random.default_rng(rng.getrandbits(63))
    words = Words(rng)
    _write_jsonl(out / "spaces.jsonl", [_space(nrng) for _ in range(size["spaces"])])

    # probe records: every record emits, so every record has hidden states
    n, tokens, dims, layers = (size["probe_records"], size["tokens"], size["dims"],
                               size["layers"])
    planted_layer = int(nrng.integers(0, layers))
    preds = []
    labels = np.zeros(n)
    firsts = np.zeros(n, dtype=int)
    for i in range(n):
        wrong = bool(nrng.random() < 0.5)
        labels[i] = 1.0 if wrong else 0.0
        first = int(nrng.integers(2, tokens - 2))
        firsts[i] = first
        text = " ".join(words.word() for _ in range(tokens))
        char_pos = len(" ".join(text.split()[:first])) + 1
        preds.append({
            "qid": f"m{i:05d}",
            "dataset": DATASETS[i % len(DATASETS)],
            "gold_answers": ["Kavo"],
            "response_text": text,
            "response_token_count": tokens,
            "emissions": [{"char_position": char_pos, "token_index": first}],
            "match": {"correct": not wrong, "rule": "TokenF1" if wrong else "ExactMatch",
                      "f1": 0.0 if wrong else 1.0},
        })
    _write_jsonl(out / "probe_preds.jsonl", preds)
    hidden = out / "hidden"
    hidden.mkdir()
    direction = nrng.standard_normal(dims)
    direction /= np.linalg.norm(direction)
    sidecar = [{"qid": p["qid"], "token_index": t} for p in preds for t in range(tokens)]
    for layer in range(layers):
        values = nrng.standard_normal((n * tokens, dims)).astype(np.float32)
        if layer == planted_layer:
            for i in range(n):
                lo = i * tokens + max(0, firsts[i] - 2)
                hi = i * tokens + min(tokens, firsts[i] + 3)
                values[lo:hi] += (1.5 * (2.0 * labels[i] - 1.0) * direction).astype(np.float32)
        _write_mat(hidden / f"layer_{layer}.mat", values)
        _write_jsonl(hidden / f"layer_{layer}.mat.ids.jsonl", sidecar)

    # token-distribution pairs and their annotations for `repr kl`
    types = ("ConfidenceDigit", "StructuralLabel", "ReasoningToken", "UncertaintyToken",
             "NearbyContext", "Other")
    pairs = []
    anns = []
    for pos in range(size["kl_pairs"]):
        base = nrng.dirichlet(np.ones(size["vocab"]))
        cal = nrng.dirichlet(np.ones(size["vocab"]))
        pairs.append({"position": pos, "base_probs": base.tolist(),
                      "calibrated_probs": cal.tolist()})
        anns.append({"position": pos, "type": types[int(nrng.integers(0, len(types)))]})
    _write_jsonl(out / "kl_pairs.jsonl", pairs)
    _write_jsonl(out / "kl_ann.jsonl", anns)
    return {
        "spaces": size["spaces"],
        "probe": {"records": n, "layers": layers, "planted_layer": planted_layer,
                  "wrong": int(labels.sum())},
        "kl_pairs": size["kl_pairs"],
        "matrix_rows": n * tokens,
    }


def _space(nrng: np.random.Generator) -> dict:
    k = int(nrng.integers(3, 13))
    probs = nrng.dirichlet(np.ones(k))
    probs = probs / math.fsum(probs)
    answers = [str(nrng.choice(("A", "B", "C"))) for _ in range(k)]
    gold = str(nrng.choice(sorted(set(answers))))
    return {
        "gold_answer": gold,
        "trajectories": [
            {"id": f"t{j}", "answer": answers[j],
             "confidence": round(float(nrng.uniform(0.0, 1.0)), 4),
             "base_prob": float(probs[j])}
            for j in range(k)
        ],
    }


GENERATORS = {
    "preds-raw": gen_preds_raw,
    "preds-matched": gen_preds_matched,
    "rag-traces": gen_rag_traces,
    "mechanism": gen_mechanism,
}


def generate(workload: str, seed: int, out, size: str = "full") -> dict:
    """Write the workload's inputs and `truth.json` into `out`; return the truth."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    truth = GENERATORS[workload](out, rng, SIZES[size][workload])
    truth = {"workload": workload, "seed": seed, "size": size, **truth}
    (out / "truth.json").write_text(json.dumps(truth, sort_keys=True, indent=1) + "\n",
                                    encoding="utf-8")
    return truth


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out, args.size)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
