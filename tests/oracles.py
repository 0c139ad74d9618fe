"""Independent brute-force reimplementations of every metric under test.

These deliberately avoid the library's code paths (no shared helpers, no
cumulative-sum tricks): plain loops and recounts, so that agreement with the
package is evidence rather than tautology. The last section keeps former
implementations that faster or simpler ones replaced, which the new ones
must match exactly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cache


def oracle_ece(pairs, num_bins):
    """pairs: (confidence, correct). Equal-width bins, direct recount."""
    n = len(pairs)
    total = 0.0
    for b in range(num_bins):
        lo = b / num_bins
        hi = (b + 1) / num_bins
        if b == num_bins - 1:
            members = [(c, y) for c, y in pairs if lo <= c <= hi]
        else:
            members = [(c, y) for c, y in pairs if lo <= c < hi]
        if not members:
            continue
        conf = sum(c for c, _ in members) / len(members)
        acc = sum(1 for _, y in members if y) / len(members)
        total += len(members) / n * abs(acc - conf)
    return total


def oracle_brier(pairs):
    return sum((c - (1 if y else 0)) ** 2 for c, y in pairs) / len(pairs)


def oracle_nll(pairs, epsilon):
    total = 0.0
    for c, y in pairs:
        p = c if y else 1 - c
        if p < epsilon:
            p = epsilon
        if p > 1 - epsilon:
            p = 1 - epsilon
        total -= math.log(p)
    return total / len(pairs)


def oracle_ausc(rows):
    """rows: (confidence, correct, qid). Selective-accuracy area, recounted
    from scratch at every distinct confidence."""
    ordered = sorted(rows, key=lambda t: (-t[0], t[2]))
    n = len(ordered)
    distinct = sorted({c for c, _, _ in rows}, reverse=True)
    points = []
    for threshold in distinct:
        prefix = [t for t in ordered if t[0] >= threshold]
        coverage = len(prefix) / n
        accuracy = sum(1 for _, y, _ in prefix if y) / len(prefix)
        points.append((coverage, accuracy))
    if len(points) == 1:
        return points[0][1]
    area = 0.0
    for (c0, a0), (c1, a1) in zip(points, points[1:]):
        area += (c1 - c0) * (a0 + a1) / 2.0
    return area / (points[-1][0] - points[0][0])


def oracle_auroc(scores, labels):
    """Pairwise comparison count with half credit for ties."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def oracle_auprc(scores, labels):
    """Step integration with a full recount at each distinct threshold."""
    n_pos = sum(1 for y in labels if y == 1)
    thresholds = sorted(set(scores), reverse=True)
    area = 0.0
    prev_recall = 0.0
    for t in thresholds:
        tp = sum(1 for s, y in zip(scores, labels) if s >= t and y == 1)
        predicted = sum(1 for s in scores if s >= t)
        recall = tp / n_pos
        precision = tp / predicted
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def oracle_trigger_counts(decisions, noret_correct, final_correct):
    """Recount of a trigger report's integer cells from per-record outcomes."""
    n = len(decisions)
    triggered = sum(1 for d in decisions if d)
    wrong = sum(1 for ok in noret_correct if not ok)
    trig_and_wrong = sum(
        1 for d, ok in zip(decisions, noret_correct) if d and not ok
    )
    untouched_correct = sum(
        1 for d, ok in zip(decisions, noret_correct) if not d and ok
    )
    final_wrong_in_trig = sum(
        1 for d, ok in zip(decisions, final_correct) if d and not ok
    )
    return {
        "n": n,
        "triggered": triggered,
        "noret_wrong": wrong,
        "triggered_and_wrong": trig_and_wrong,
        "untouched_correct": untouched_correct,
        "final_wrong_in_triggered": final_wrong_in_trig,
    }


def oracle_logistic_gd(phi, y, l2, step=0.1, iters=2000):
    """Objective reached by plain full-batch gradient descent from zero on
    L2-regularized logistic regression over standardized features `phi`
    (bias unpenalized): the probe's original fixed-step fit, kept as a
    brute-force reference for the Newton-CG minimizer."""
    import numpy as np

    n, d = phi.shape
    w = np.zeros(d)
    b = 0.0
    for _ in range(iters):
        p = 1.0 / (1.0 + np.exp(-(phi @ w + b)))
        w = w - step * (phi.T @ (p - y) / n + 2.0 * l2 * w)
        b = b - step * float(np.mean(p - y))
    z = phi @ w + b
    return float(np.mean(np.logaddexp(0.0, z) - y * z)) + l2 * float(w @ w)


def oracle_pca(x, k):
    """PCA from the SVD of the centred matrix, never forming a covariance:
    the ratios s_i^2 / sum(s^2) and the projections on the top-k right
    singular vectors (each column's sign is arbitrary)."""
    import numpy as np

    values = np.asarray(x, dtype=float)
    centered = values - values.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    power = s**2
    return power[:k] / power.sum(), centered @ vt[:k].T


def oracle_tune_threshold(scores, labels):
    """The first candidate with the best trigger F1 of `score >= theta`, the
    candidates being 0 and the midpoints of consecutive distinct scores in
    ascending order, each recounted over every row."""
    distinct = sorted(set(scores))
    candidates = [0.0] + [(a + b) / 2.0 for a, b in zip(distinct, distinct[1:])]
    best_theta = None
    best_f1 = -1.0
    for theta in candidates:
        tp = sum(1 for s, y in zip(scores, labels) if s >= theta and y == 1)
        fp = sum(1 for s, y in zip(scores, labels) if s >= theta and y == 0)
        fn = sum(1 for s, y in zip(scores, labels) if s < theta and y == 1)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        if f1 > best_f1:
            best_theta = theta
            best_f1 = f1
    return best_theta


# ---------------------------------------------------------------------------
# Former implementations, kept as references for the ones that replaced
# them: each must give the same result, bit for bit.
# ---------------------------------------------------------------------------


def oracle_csv_text(header, rows) -> str:
    """The text `jsonio.write_csv` wrote when it formatted each cell on its
    own, row by row."""
    from itertools import chain

    from uncal.jsonio import format_float

    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return format_float(value)
        text = str(value)
        if frozenset(',"\r\n').isdisjoint(text):
            return text
        return '"' + text.replace('"', '""') + '"'

    return "".join(",".join(map(cell, row)) + "\n" for row in chain([header], rows))


def oracle_to_dict(table: dict, fields) -> dict:
    """The line object of the mapping `fields` as the field-dict writer
    built it, before lines were encoded straight to text: `dumps_canonical`
    of it is the line. Each table field takes `fields[key]`; None values are
    left out; a nested object (a mapping) is written by the table its reader
    exposes, an enum member by its value, a numpy array by `tolist()` and a
    tuple as a list."""
    import enum

    import numpy as np

    def line_value(read, value):
        nested = getattr(read, "table", None)
        if nested is not None:
            if isinstance(value, (tuple, list)):
                return [oracle_to_dict(nested, item) for item in value]
            return oracle_to_dict(nested, value)
        if isinstance(value, enum.Enum):
            return value.value
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, tuple):
            return list(value)
        return value

    out = {}
    for key, (read, _) in table.items():
        value = fields[key]
        if type(value) not in (str, int, float, bool) and value is not None:
            value = line_value(read, value)
        if value is not None:
            out[key] = value
    return out


def oracle_match_answer(pred, golds, f1_threshold=0.3):
    """`rewards.match_answer` as it was when it normalized each answer once
    per rule that read it, with its token F1 and yes/no helpers. The
    normalization, date parsing and result types are the library's own."""
    from collections import Counter

    from uncal.rewards import (
        MatchResult,
        MatchRule,
        _dates_agree,
        normalize_answer,
        parse_date,
    )

    def token_f1(pred: str, gold: str) -> float:
        pred_tokens = normalize_answer(pred).split()
        gold_tokens = normalize_answer(gold).split()
        if not pred_tokens and not gold_tokens:
            return 1.0
        if not pred_tokens or not gold_tokens:
            return 0.0
        overlap = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
        if overlap == 0:
            return 0.0
        precision = overlap / len(pred_tokens)
        recall = overlap / len(gold_tokens)
        return 2.0 * precision * recall / (precision + recall)

    _YES_WORDS = {"yes", "true", "correct"}
    _NO_WORDS = {"no", "false", "incorrect"}

    def _canonical_yesno(text: str):
        norm = normalize_answer(text)
        if norm in _YES_WORDS:
            return "yes"
        if norm in _NO_WORDS:
            return "no"
        return None

    if not golds:
        raise ValueError("golds must be non-empty")
    norm_pred = normalize_answer(pred)
    if any(norm_pred == normalize_answer(g) for g in golds):
        return MatchResult(True, MatchRule.EXACT_MATCH, 1.0)
    pred_yn = _canonical_yesno(pred)
    if pred_yn is not None:
        for g in golds:
            if _canonical_yesno(g) == pred_yn:
                return MatchResult(True, MatchRule.YES_NO, 1.0)
    pred_date = parse_date(pred)
    if pred_date is not None:
        for g in golds:
            gold_date = parse_date(g)
            if gold_date is not None and _dates_agree(pred_date, gold_date):
                return MatchResult(True, MatchRule.DATE, 1.0)
    best_f1 = max(token_f1(pred, g) for g in golds)
    return MatchResult(best_f1 >= f1_threshold, MatchRule.TOKEN_F1, best_f1)


def oracle_decide(policy, record) -> bool:
    """`ragctl.decide` as it was when it decided one record at a time."""
    from uncal.errors import MissingSignal
    from uncal.ragctl import PolicyKind

    kind = policy.kind
    if kind is PolicyKind.ALWAYS:
        return True
    if kind is PolicyKind.NEVER:
        return False
    if kind is PolicyKind.CONFIDENCE_THRESHOLD:
        if record.noret_confidence is None:
            raise MissingSignal(f"record {record.qid!r} has no confidence")
        return record.noret_confidence < policy.threshold
    if kind is PolicyKind.EMISSION_ONLY:
        return record.noret_emissions >= 1
    if kind is PolicyKind.EMISSION_PLUS_PROBE:
        if record.noret_emissions < 1:
            return False
        if record.noret_probe_score is None:
            raise MissingSignal(f"record {record.qid!r} has no probe score")
        return record.noret_probe_score >= policy.threshold
    if kind is PolicyKind.TOKEN_PROB_WINDOW:
        if record.noret_token_probs is None:
            raise MissingSignal(f"record {record.qid!r} has no token probabilities")
        return any(p < policy.threshold for p in record.noret_token_probs)
    if kind is PolicyKind.EXTERNAL:
        if record.external_trigger is None:
            raise MissingSignal(f"record {record.qid!r} has no external trigger column")
        return record.external_trigger
    raise ValueError(f"unhandled policy kind {kind}")


def oracle_trigger_reports(records, policy, f1_threshold=0.3):
    """(overall report, per-dataset reports) of `policy` over `records` as
    `uncal rag` built them when each record was decided by `oracle_decide`,
    each answer matched into a `MatchResult` and the reports tallied by a
    per-record loop over the members of each dataset."""
    from uncal.errors import EmptyBatch
    from uncal.rewards import GoldSet, MatchRule, match_answer

    fires = [oracle_decide(policy, r) for r in records]
    noret = [match_answer(r.noret_answer, GoldSet(r.gold_answers), f1_threshold)
             for r in records]
    ret = [match_answer(r.ret_answer, GoldSet(r.gold_answers), f1_threshold)
           for r in records]

    def tally(members):
        n = len(members)
        if not n:
            raise EmptyBatch("no trace records")
        triggered = 0
        noret_wrong = 0
        triggered_and_wrong = 0
        final_wrong_in_triggered = 0
        untouched_correct = 0
        em_sum = 0
        f1_sum = 0.0
        for i in members:
            fire = fires[i]
            noret_match = noret[i]
            final_match = ret[i] if fire else noret_match
            em_sum += 1 if (final_match.correct
                            and final_match.rule is MatchRule.EXACT_MATCH) else 0
            f1_sum += final_match.f1
            if fire:
                triggered += 1
                if not final_match.correct:
                    final_wrong_in_triggered += 1
            else:
                if noret_match.correct:
                    untouched_correct += 1
            if not noret_match.correct:
                noret_wrong += 1
                if fire:
                    triggered_and_wrong += 1
        untouched = n - triggered
        return {
            "n": n,
            "triggered": triggered,
            "noret_wrong": noret_wrong,
            "triggered_and_wrong": triggered_and_wrong,
            "trigger_rate": triggered / n,
            "final_em": em_sum / n,
            "final_f1": f1_sum / n,
            "trigger_precision": triggered_and_wrong / triggered if triggered else None,
            "trigger_recall": triggered_and_wrong / noret_wrong if noret_wrong else None,
            "untouched_accuracy": untouched_correct / untouched if untouched else None,
            "wrong_within_triggered": (final_wrong_in_triggered / triggered
                                       if triggered else None),
        }

    overall = tally(range(len(records)))
    members: dict[str, list[int]] = {}
    for i, r in enumerate(records):
        members.setdefault(r.dataset, []).append(i)
    return overall, {name: tally(members[name]) for name in sorted(members)}


def oracle_calibration_report(confidence, correct, num_bins, nll_epsilon):
    """`calib.calibration_report` as it was over per-record tuples
    (`confidence` None where none parsed), with list-filled bins."""
    from uncal.errors import EmptyBatch
    from uncal.probe import ranked

    n = len(correct)
    if not n:
        raise EmptyBatch("no records")
    rows = [(c, ok) for c, ok in zip(confidence, correct) if c is not None]
    if not rows:
        raise EmptyBatch("no records with parseable confidence")

    def fill_bins():
        bins = [[] for _ in range(num_bins)]
        for conf, ok in rows:
            idx = min(int(conf * num_bins), num_bins - 1)
            bins[idx].append((conf, ok))
        return bins

    calib_bins = []
    for i, members in enumerate(fill_bins()):
        if members:
            mean_conf = math.fsum(c for c, _ in members) / len(members)
            acc = sum(1 for _, y in members if y) / len(members)
        else:
            mean_conf = 0.0
            acc = 0.0
        calib_bins.append({"lo": i / num_bins, "hi": (i + 1) / num_bins,
                           "count": len(members), "mean_conf": mean_conf, "accuracy": acc})

    nll = 0.0
    for conf, ok in rows:
        p = conf if ok else 1.0 - conf
        nll += -math.log(min(max(p, nll_epsilon), 1.0 - nll_epsilon))

    _, count, hits = ranked([c for c, _ in rows], [ok for _, ok in rows])
    seen = count[::-1].cumsum()
    coverage = (seen / len(rows)).tolist()
    accuracy_at = (hits[::-1].cumsum() / seen).tolist()
    if len(coverage) == 1:
        ausc = accuracy_at[0]
    else:
        area = 0.0
        for c0, c1, a0, a1 in zip(coverage, coverage[1:], accuracy_at, accuracy_at[1:]):
            area += (c1 - c0) * (a0 + a1) / 2.0
        ausc = area / (coverage[-1] - coverage[0])

    accuracy = sum(1 for ok in correct if ok) / n
    mean_conf = math.fsum(c for c, _ in rows) / len(rows)
    return {
        "n": n,
        "accuracy": accuracy,
        "mean_confidence": mean_conf,
        "overconfidence_gap": mean_conf - accuracy,
        "ece": sum((b["count"] / len(rows)) * abs(b["accuracy"] - b["mean_conf"])
                   for b in calib_bins),
        "brier": math.fsum((c - (1.0 if y else 0.0)) ** 2 for c, y in rows) / len(rows),
        "nll": nll / len(rows),
        "parse_rate": len(rows) / n,
        "ausc": ausc,
        "bins": calib_bins,
    }


def oracle_error_taxonomy(confidence, correct, marked):
    """`calib.error_taxonomy` as it was over per-record tuples, counting
    each class with its own pass over the wrong answers."""
    from uncal.calib import EPISTEMIC_THRESHOLD, ERROR_BANDS, STRICT_THRESHOLD
    from uncal.errors import EmptyBatch

    if not len(correct):
        raise EmptyBatch("no records")
    wrong = [(c, m) for c, ok, m in zip(confidence, correct, marked)
             if c is not None and not ok]
    total_wrong = len(wrong)
    epistemic = sum(1 for c, _ in wrong if c > EPISTEMIC_THRESHOLD)
    strict = sum(1 for c, _ in wrong if c > STRICT_THRESHOLD)
    bands = []
    for label, lo, hi in ERROR_BANDS:
        if lo == 0.0:
            count = sum(1 for c, _ in wrong if c <= hi)
        else:
            count = sum(1 for c, _ in wrong if lo < c <= hi)
        fraction = count / total_wrong if total_wrong else 0.0
        bands.append({"label": label, "count": count, "fraction": fraction})
    with_emit = sum(1 for c, e in wrong if c > EPISTEMIC_THRESHOLD and e)
    return {
        "total_wrong": total_wrong,
        "epistemic": epistemic,
        "aleatoric": total_wrong - epistemic,
        "strict_epistemic": strict,
        "bands": bands,
        "epistemic_with_emit": with_emit,
        "epistemic_without_emit": epistemic - with_emit,
    }


def _former_logit(c: float) -> float:
    """`recal._logit`: the logit of one confidence clamped away from 0 and 1."""
    from uncal.recal import CONF_CLAMP

    c = min(max(c, CONF_CLAMP), 1.0 - CONF_CLAMP)
    return math.log(c / (1.0 - c))


def oracle_apply_ts(model, confidence: float) -> float:
    """`recal.apply_ts` as it was when it mapped one confidence."""
    import numpy as np

    from uncal.optim import sigmoid

    return float(sigmoid(np.array(_former_logit(confidence) / model.temperature)))


def oracle_ts_nll(model, table, f1_threshold=0.3) -> float:
    """`recal.ts_nll`: the Bernoulli NLL of a fixed temperature on the rows of
    a prediction table a fit reads (those whose confidence is not NaN)."""
    import numpy as np

    from uncal.optim import sigmoid
    from uncal.recal import _bernoulli_nll
    from uncal.rewards import score_predictions

    batch = score_predictions(table, f1_threshold)
    usable = ~np.isnan(batch.confidence)
    logits = np.array([_former_logit(c) for c in batch.confidence[usable].tolist()])
    outcomes = batch.correct[usable].astype(float)
    return _bernoulli_nll(sigmoid(logits / model.temperature), outcomes)


def oracle_fit_global_ts(batch):
    """`recal.fit_global_ts` as it was before it used `optim.minimize`:
    golden-section search over log T in [-5, 5] to 1e-6, on the records of
    `batch` whose confidence is not NaN (the NLL is convex in 1/T, so
    unimodal in log T), falling back to T = 1 where that is no worse."""
    import numpy as np

    from uncal.optim import sigmoid
    from uncal.recal import TsModel, _bernoulli_nll

    usable = ~np.isnan(batch.confidence)
    logits = np.array([_former_logit(c) for c in batch.confidence[usable].tolist()])
    outcomes = batch.correct[usable].astype(float)

    def objective(log_t):
        return _bernoulli_nll(sigmoid(logits / math.exp(log_t)), outcomes)

    lo, hi = -5.0, 5.0
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    while hi - lo > 1e-6:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = objective(x2)
    log_t = (lo + hi) / 2.0
    if objective(0.0) < objective(log_t):
        log_t = 0.0
    return TsModel(temperature=math.exp(log_t), fit_nll=objective(log_t))


def oracle_apply_ats(model, record) -> float:
    """`recal.apply_ats` as it was when it mapped one record, whose
    confidence parses: its features as one tuple, its temperature by a
    4-term dot product. The column form sums that product in another order,
    so it matches this one only up to the rounding of the order (not bit for
    bit; see `test_recal._ats_tolerance`). The token count is the one
    loaded: an explicit 0 is no longer replaced by the whitespace count."""
    import numpy as np

    from uncal.optim import sigmoid
    from uncal.recal import ATS_TEMPERATURE_FLOOR, _softplus
    from uncal.rewards import extract_answer_line, reasoning_depth

    conf = oracle_record_confidence(record)
    length = record.response_token_count
    answer = record.extracted_answer
    if answer is None:
        answer = extract_answer_line(record.response_text) or ""
    features = (_former_logit(conf), float(length), float(len(answer)),
                float(reasoning_depth(record.response_text)))
    raw = np.array(features)
    phi = (raw - np.array(model.feature_means)) / np.array(model.feature_stds)
    u = float(phi @ np.array(model.weights)) + model.bias
    t = float(_softplus(np.array(u))) + ATS_TEMPERATURE_FLOOR
    return float(sigmoid(np.array(_former_logit(conf) / t)))


def oracle_annotate_record(record, f1_threshold=0.3):
    """`rewards.annotate_record`: a copy of the record with `extracted_answer`
    and `match` filled in, built by `dataclasses.replace`."""
    from dataclasses import replace

    from uncal.rewards import extract_answer_line

    answer = record.extracted_answer
    if answer is None:
        answer = extract_answer_line(record.response_text)
    return replace(record, extracted_answer=answer,
                   match=oracle_match_record(record, f1_threshold))


def oracle_step_auprc(ranking) -> float:
    """`probe.auprc` as it was when it added the area of each threshold in a
    Python loop, in curve order."""
    import numpy as np

    _, rows, pos = ranking
    n_pos = int(pos.sum())
    tp = np.cumsum(pos[::-1])
    recall = tp / n_pos
    area = 0.0
    for step, precision in zip(np.diff(recall, prepend=0.0).tolist(),
                               (tp / np.cumsum(rows[::-1])).tolist()):
        area += step * precision
    return area


def oracle_kl(p, q, epsilon=1e-9) -> float:
    """`reprgeo.kl` of one pair, as it was before a block of pairs was one
    2-D expression: the sum of the terms of its positive base probabilities."""
    import numpy as np

    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    q_floor = np.maximum(q, epsilon)
    mask = p > 0.0
    value = float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q_floor[mask]))))
    return max(value, 0.0)


def oracle_linear_cka(x, y) -> float:
    """`reprgeo.linear_cka` as it was when it centred a float64 copy of each
    whole input in place and built each product from the whole copies."""
    import numpy as np

    from uncal.errors import ShapeError, UndefinedSimilarity

    xc = np.array(x, dtype=float)
    yc = np.array(y, dtype=float)
    if xc.ndim != 2 or yc.ndim != 2:
        raise ShapeError("expected a 2-dimensional matrix")
    if xc.shape[0] != yc.shape[0]:
        raise ShapeError("matrices must have the same number of rows")
    if xc.shape[0] < 2:
        raise ShapeError("need at least two rows")
    xc -= xc.mean(axis=0)
    yc -= yc.mean(axis=0)
    cross = float(np.linalg.norm(yc.T @ xc, "fro") ** 2)
    norm_x = float(np.linalg.norm(xc.T @ xc, "fro"))
    norm_y = float(np.linalg.norm(yc.T @ yc, "fro"))
    if norm_x == 0.0 or norm_y == 0.0:
        raise UndefinedSimilarity("a zero-variance matrix has no geometry to compare")
    return cross / (norm_x * norm_y)


def oracle_pca_project(x, k: int):
    """`reprgeo.pca_project` as it was when it centred a second float64 copy
    of the input instead of the first one in place."""
    import numpy as np

    from uncal.errors import ShapeError, UndefinedSimilarity
    from uncal.reprgeo import PcaResult

    values = np.asarray(x, dtype=float)
    if values.ndim != 2:
        raise ShapeError("expected a 2-dimensional matrix")
    n, d = values.shape
    if k < 1:
        raise ShapeError(f"k={k} must be at least 1")
    if k > d:
        raise ShapeError(f"k={k} exceeds dims={d}")
    if n <= k:
        raise ShapeError(f"need more rows than components, got rows={n}, k={k}")
    centered = values - values.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    total_var = float(np.trace(cov))
    if total_var == 0.0:
        raise UndefinedSimilarity("zero-variance matrix has no principal directions")
    eigenvalues, vectors = np.linalg.eigh(cov)  # ascending
    comp = vectors[:, ::-1][:, :k].T
    peaks = comp[np.arange(k), np.argmax(np.abs(comp), axis=1)]
    comp = comp * np.sign(peaks)[:, None]
    ratios = np.maximum(eigenvalues[::-1][:k], 0.0) / total_var
    return PcaResult(
        projection=centered @ comp.T,
        explained_variance_ratio=ratios,
        components=comp,
    )


def oracle_frobenius_drift(w_base, w_cal) -> float:
    """`reprgeo.frobenius_drift` as it was when it converted both matrices
    whole to float64 and subtracted them into a third."""
    import numpy as np

    from uncal.errors import ShapeError, UndefinedSimilarity

    base = np.asarray(w_base, dtype=float)
    cal = np.asarray(w_cal, dtype=float)
    if base.shape != cal.shape:
        raise ShapeError("weight matrices must have the same shape")
    base_norm = float(np.linalg.norm(base))
    if base_norm == 0.0:
        raise UndefinedSimilarity("zero base norm makes relative drift undefined")
    return float(np.linalg.norm(cal - base)) / base_norm


def oracle_embedding_drift_report(rows_of_interest, baseline_rows, w_base, w_cal):
    """`reprgeo.embedding_drift_report` as it was when it converted both
    matrices whole to float64, not just the rows it names."""
    import numpy as np

    from uncal.errors import ShapeError, UndefinedSimilarity

    base = np.asarray(w_base, dtype=float)
    cal = np.asarray(w_cal, dtype=float)
    if base.shape != cal.shape:
        raise ShapeError("weight matrices must have the same shape")
    interest = list(rows_of_interest)
    baseline = list(baseline_rows)
    if not interest or not baseline:
        raise ValueError("row sets must be non-empty")
    if set(interest) & set(baseline):
        raise ValueError("row sets must be disjoint")
    for i in interest + baseline:
        if not 0 <= i < base.shape[0]:
            raise ValueError(f"row index {i} outside 0..{base.shape[0] - 1}")

    def row_drift(indices):
        drifts = []
        for i in indices:
            norm = float(np.linalg.norm(base[i]))
            if norm == 0.0:
                raise UndefinedSimilarity(f"row {i} of the base matrix has zero norm")
            drifts.append(float(np.linalg.norm(cal[i] - base[i])) / norm)
        return float(np.mean(drifts))

    interest_mean = row_drift(interest)
    baseline_mean = row_drift(baseline)
    if baseline_mean > 0.0:
        ratio = interest_mean / baseline_mean
    elif interest_mean > 0.0:
        ratio = math.inf
    else:
        ratio = None
    return {
        "interest_mean_drift": interest_mean,
        "baseline_mean_drift": baseline_mean,
        "ratio": ratio,
    }


def oracle_read_table(name: str, obj) -> dict:
    """`jsonio.read_table` of the table `jsonio.<name>` as it was when each
    field had a per-value reader that returned the value or raised its
    message, and `read_table` called them field by field. The readers test
    their value element by element here, sharing no check with the library."""
    return _former_read_table(_former_tables()[name], obj)


def _former_read_table(table: dict, obj) -> dict:
    from uncal.jsonio import REQUIRED

    if type(obj) is not dict:
        raise ValueError("line must be a JSON object")
    out = {}
    absent = 0
    for key, (read, default) in table.items():
        value = obj.get(key)
        if value is not None or (default is not None and key in obj):
            out[key] = read(key, value)
        elif default is REQUIRED:
            raise ValueError(f"missing field {key!r}")
        else:
            out[key] = default
            absent += key not in obj
    if len(obj) > len(table) - absent:
        raise ValueError(f"unknown fields {sorted(obj.keys() - table.keys())}")
    return out


@cache
def _former_tables() -> dict[str, dict]:
    """The tables by their `jsonio` names, each field with its former reader."""
    import sys

    from uncal.jsonio import REQUIRED
    from uncal.probe import DEFAULT_SPAN_TOKENS, DEFAULT_WINDOW
    from uncal.reprgeo import TokenType
    from uncal.rewards import MatchRule

    def reader(accepts, what):
        def read(name, value):
            if not accepts(value):
                raise ValueError(f"{name} must be {what}")
            return value
        return read

    def numbers(low_ok, high):
        return lambda v: type(v) is list and all(
            type(x) in (int, float) and low_ok(x) and x <= high for x in v)

    big = sys.float_info.max

    def read_probability(name, value):
        if type(value) not in (int, float):
            raise ValueError(f"{name} must be a number")
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} outside [0,1]")
        return value

    def read_enum(kind):
        members = {member.value: member for member in kind}

        def read(name, value):
            if type(value) is not str or value not in members:
                raise ValueError(f"{name} must be one of {sorted(members)}, got {value!r}")
            return members[value]
        return read

    def nested(table, name, value):
        if type(value) is not dict:
            raise ValueError(f"{name} must be a JSON object")
        try:
            return _former_read_table(table, value)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None

    def read_object(table, build):
        return lambda name, value: build(**nested(table, name, value))

    def read_objects(table, build):
        def read(name, value):
            if type(value) is not list:
                raise ValueError(f"{name} must be a list of JSON objects")
            # a list since nested objects are read as dicts (they were a tuple of records)
            return [build(**nested(table, f"{name}[{i}]", v)) for i, v in enumerate(value)]
        return read

    string = reader(lambda v: type(v) is str, "a string")
    integer = reader(lambda v: type(v) is int, "an integer")

    def at_least(low):  # a change since: a model's window and span take the flags' ranges
        return reader(lambda v: type(v) is int and v >= low, f"an integer >= {low}")

    boolean = reader(lambda v: type(v) is bool, "true or false")
    strings = reader(lambda v: type(v) is list and v and all(type(s) is str for s in v),
                     "a non-empty list of strings")
    number = reader(lambda v: type(v) in (int, float) and -big <= v <= big, "a finite number")
    finite = reader(numbers(lambda x: -big <= x, big), "a list of finite numbers")
    probabilities = reader(numbers(lambda x: 0.0 <= x, 1.0), "numbers in [0,1]")
    token_probs = reader(numbers(lambda x: 0.0 < x, 1.0), "numbers in (0,1]")
    positive = reader(numbers(lambda x: 0.0 < x, big), "a list of finite numbers > 0")

    def count(name, value):
        if type(value) is not int or value < 0:
            raise ValueError(f"{name} must be a nonnegative int")
        if value > big:  # the one change since: a count must convert to a float
            raise ValueError(f"{name} exceeds {big!r}")
        return value

    t = {"EMISSION": {"char_position": (count, REQUIRED), "token_index": (count, None)}}
    t["MATCH"] = {"correct": (boolean, REQUIRED), "rule": (read_enum(MatchRule), REQUIRED),
                  "f1": (read_probability, REQUIRED)}
    t["PREDICTION"] = {
        "qid": (string, REQUIRED), "dataset": (string, ""), "question": (string, ""),
        "gold_answers": (strings, REQUIRED), "response_text": (string, REQUIRED),
        "extracted_answer": (string, None), "verbal_confidence": (read_probability, None),
        "emissions": (read_objects(t["EMISSION"], dict), None),
        "response_token_count": (count, None), "token_probs": (token_probs, None),
        "p_affirmative": (read_probability, None),
        "match": (read_object(t["MATCH"], dict), None),
    }
    t["RAG_TRACE"] = {
        "qid": (string, REQUIRED), "dataset": (string, ""), "gold_answers": (strings, REQUIRED),
        "noret_answer": (string, REQUIRED), "ret_answer": (string, REQUIRED),
        "noret_confidence": (read_probability, None), "noret_emissions": (count, 0),
        "noret_probe_score": (number, None), "noret_token_probs": (token_probs, None),
        "noret_response_text": (string, None), "external_trigger": (boolean, None),
    }
    t["TRAJECTORY"] = {"id": (string, REQUIRED), "answer": (string, REQUIRED),
                       "confidence": (read_probability, REQUIRED),
                       "base_prob": (read_probability, REQUIRED)}
    t["SPACE"] = {"gold_answer": (string, REQUIRED),
                  "trajectories": (read_objects(t["TRAJECTORY"], dict), REQUIRED)}
    t["KL_PAIR"] = {"position": (count, REQUIRED), "base_probs": (probabilities, REQUIRED),
                    "calibrated_probs": (probabilities, REQUIRED)}
    t["KL_ANNOTATION"] = {"position": (count, REQUIRED), "type": (read_enum(TokenType), REQUIRED)}
    t["ROW_ID"] = {"qid": (string, REQUIRED), "token_index": (count, None)}
    t["PLAN_STEP"] = {"argv": (strings, REQUIRED)}
    t["FIT"] = {"converged": (boolean, REQUIRED), "grad_norm": (number, REQUIRED),
                "iterations": (count, REQUIRED)}
    t["PROBE_MODEL_CONFIG"] = {
        "hidden": (string, None), "preds": (string, None), "layer": (integer, None),
        "window": (at_least(0), DEFAULT_WINDOW), "span_tokens": (at_least(1), DEFAULT_SPAN_TOKENS),
        "l2": (number, None), "seed": (integer, None),
    }
    t["PROBE_MODEL"] = {
        "layer": (integer, REQUIRED), "weights": (finite, REQUIRED), "bias": (number, REQUIRED),
        "threshold": (number, REQUIRED), "feature_means": (finite, REQUIRED),
        "feature_stds": (positive, REQUIRED), "fit": (read_object(t["FIT"], dict), None),
        "config": (read_object(t["PROBE_MODEL_CONFIG"], dict), None),
        "schema": (reader(lambda v: v == "uncal-probe-model-v2", "'uncal-probe-model-v2'"),
                   None),
    }
    return t


# ---------------------------------------------------------------------------
# The record classes that prediction and trace loads built before they
# yielded column tables, and the per-record rules that read them
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmissionEvent:
    """One occurrence of the uncertainty marker inside a response."""

    char_position: int
    token_index: int | None = None


@dataclass(frozen=True)
class PredictionRecord:
    """`rewards.PredictionRecord`: one recorded model response plus the
    signals evaluation needs. `emissions` must be sorted by character
    position and lie inside the response text."""

    qid: str
    gold_answers: tuple[str, ...]
    response_text: str
    dataset: str = ""
    question: str = ""
    extracted_answer: str | None = None
    verbal_confidence: float | None = None
    emissions: tuple[EmissionEvent, ...] = ()
    response_token_count: int = 0
    token_probs: tuple[float, ...] | None = None
    p_affirmative: float | None = None
    match: object = None  # a `rewards.MatchResult`

    def __post_init__(self):
        object.__setattr__(self, "gold_answers", tuple(self.gold_answers))
        object.__setattr__(self, "emissions", tuple(self.emissions))
        if self.token_probs is not None:
            object.__setattr__(self, "token_probs", tuple(self.token_probs))
        positions = [e.char_position for e in self.emissions]
        if positions != sorted(positions):
            raise ValueError("emissions must be sorted by char_position")
        for e in self.emissions:
            if not 0 <= e.char_position < max(len(self.response_text), 1):
                raise ValueError("emission position outside response text")


@dataclass(frozen=True)
class RagTraceRecord:
    """`ragctl.RagTraceRecord`: paired no-retrieval / with-retrieval outcomes
    plus trigger signals."""

    qid: str
    gold_answers: tuple[str, ...]
    noret_answer: str
    ret_answer: str
    dataset: str = ""
    noret_confidence: float | None = None
    noret_emissions: int = 0
    noret_probe_score: float | None = None
    noret_token_probs: tuple[float, ...] | None = None
    noret_response_text: str | None = None
    external_trigger: bool | None = None

    def __post_init__(self):
        object.__setattr__(self, "gold_answers", tuple(self.gold_answers))
        if self.noret_token_probs is not None:
            object.__setattr__(self, "noret_token_probs", tuple(self.noret_token_probs))


def _table_rows(table: dict) -> list[dict]:
    return [dict(zip(table, row)) for row in zip(*table.values())]


def prediction_records(table: dict) -> list[PredictionRecord]:
    """The record of each row of a prediction table, as the loader built it:
    where a row gives no emissions, those found by scanning its text for the
    marker, and where it gives no token count, its whitespace tokens."""
    from uncal.rewards import UNCERTAIN_MARKER, MatchResult

    records = []
    for row in _table_rows(table):
        match, text = row.pop("match"), row["response_text"]
        events = row["emissions"]
        if events is None:
            events = [{"char_position": m.start()}
                      for m in re.finditer(re.escape(UNCERTAIN_MARKER), text)]
        if row["response_token_count"] is None:
            row["response_token_count"] = len(text.split())
        records.append(PredictionRecord(
            **row | {"emissions": tuple(EmissionEvent(**e) for e in events)},
            match=None if match is None else MatchResult(**match)))
    return records


def trace_records(lines: list[dict]) -> list[RagTraceRecord]:
    """The record of each trace line object, as the loader built it when it
    kept every field of a line."""
    from uncal import jsonio

    return [RagTraceRecord(**jsonio.read_table(jsonio.RAG_TRACE, obj)) for obj in lines]


def oracle_trace_table(records: list[RagTraceRecord]) -> dict:
    """The column table a trace load yields for `records`: each field's
    column, with the minimum token probability of each (+inf for an empty
    list, None for none) in place of the list, and no response text."""
    table = {key: [getattr(r, key) for r in records] for key in (
        "qid", "dataset", "noret_answer", "ret_answer", "noret_confidence",
        "noret_emissions", "noret_probe_score", "external_trigger")}
    table["gold_answers"] = [list(r.gold_answers) for r in records]
    table["noret_min_token_prob"] = [None if r.noret_token_probs is None
                                     else min(r.noret_token_probs, default=math.inf)
                                     for r in records]
    return table


# ---------------------------------------------------------------------------
# The record classes that KL pair and annotation loads built before they
# yielded column tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TokenAnnotation:
    """`reprgeo.TokenAnnotation`: the token type at one position."""

    position: int
    type: object  # a `reprgeo.TokenType`


@dataclass(frozen=True)
class TokenDistPair:
    """`reprgeo.TokenDistPair`: base and calibrated next-token distributions
    at one position: two equal-length vectors, each summing to 1 within 1e-6."""

    position: int
    base_probs: object
    calibrated_probs: object

    def __post_init__(self):
        import numpy as np

        from uncal.errors import ShapeError

        base = np.asarray(self.base_probs, dtype=float)
        cal = np.asarray(self.calibrated_probs, dtype=float)
        if base.shape != cal.shape or base.ndim != 1:
            raise ShapeError("distribution pair must be two equal-length vectors")
        for name, v in (("base", base), ("calibrated", cal)):
            if abs(float(np.sum(v)) - 1.0) > 1e-6:
                raise ValueError(f"{name} distribution does not sum to 1")


def oracle_record_answer(record):
    """`rewards.record_answer`: the explicit `extracted_answer` when present,
    otherwise the last `Answer:` line of the response (None if neither)."""
    from uncal.rewards import extract_answer_line

    answer = record.extracted_answer
    return extract_answer_line(record.response_text) if answer is None else answer


def oracle_match_record(record, f1_threshold=0.3):
    """`rewards.match_record`: correctness of a record's answer; a record
    without any extractable answer is incorrect with F1 = 0."""
    from uncal.rewards import GoldSet, MatchResult, MatchRule, match_answer

    answer = oracle_record_answer(record)
    if answer is None:
        return MatchResult(False, MatchRule.TOKEN_F1, 0.0)
    return match_answer(answer, GoldSet(record.gold_answers), f1_threshold)


def oracle_record_correct(record, f1_threshold=0.3) -> bool:
    """`rewards.record_correct`: a cached `match` decides without rematching
    but never overrides the threshold (a cached TokenF1 result is correct
    exactly when its F1 reaches it and the record has an answer)."""
    from uncal.rewards import MatchRule

    cached = record.match
    if cached is None:
        return oracle_match_record(record, f1_threshold).correct
    if cached.rule is not MatchRule.TOKEN_F1:
        return cached.correct
    if cached.f1 < f1_threshold:
        return False
    return oracle_record_answer(record) is not None


def oracle_record_confidence(record):
    """`rewards.record_confidence`: the explicit field when present,
    otherwise parsed from the response text."""
    from uncal.rewards import extract_confidence

    if record.verbal_confidence is not None:
        return record.verbal_confidence
    return extract_confidence(record.response_text)


def oracle_score_predictions(records, f1_threshold=0.3):
    """`rewards.score_predictions` over records: (confidence, correct,
    marked) columns, built one record at a time."""
    import numpy as np

    from uncal.rewards import UNCERTAIN_MARKER

    return (np.array([oracle_record_confidence(r) for r in records], dtype=float),
            np.array([oracle_record_correct(r, f1_threshold) for r in records], dtype=bool),
            np.array([UNCERTAIN_MARKER in r.response_text for r in records], dtype=bool))


def oracle_score_traces(records, f1_threshold=0.3):
    """`ragctl.score_traces` over records: (noret matches, ret matches,
    {kind: signal column}), each answer matched against a fresh gold set and
    each signal read from the record's attributes."""
    import numpy as np

    from uncal.ragctl import PolicyKind
    from uncal.rewards import GoldSet, match_answer

    noret = [match_answer(r.noret_answer, GoldSet(r.gold_answers), f1_threshold)
             for r in records]
    ret = [match_answer(r.ret_answer, GoldSet(r.gold_answers), f1_threshold) for r in records]
    signals = {
        PolicyKind.CONFIDENCE_THRESHOLD: [r.noret_confidence for r in records],
        PolicyKind.EMISSION_ONLY: [r.noret_emissions for r in records],
        PolicyKind.EMISSION_PLUS_PROBE: [r.noret_probe_score if r.noret_emissions >= 1
                                         else -math.inf for r in records],
        PolicyKind.TOKEN_PROB_WINDOW: [None if r.noret_token_probs is None
                                       else min(r.noret_token_probs, default=math.inf)
                                       for r in records],
        PolicyKind.EXTERNAL: [r.external_trigger for r in records],
    }
    return noret, ret, {kind: np.array(column, dtype=float) for kind, column in signals.items()}


def oracle_reasoning_depth(response_text: str) -> int:
    """`rewards.reasoning_depth` as it was, matching each line with the
    pattern's text rather than a compiled pattern."""
    import re

    lines = response_text.splitlines()
    last_answer = None
    for i, line in enumerate(lines):
        if re.match(r"^[ \t]*answer[ \t]*:", line, re.IGNORECASE):
            last_answer = i
    upto = last_answer if last_answer is not None else len(lines)
    return sum(1 for line in lines[:upto] if line.strip())


def oracle_ats_row(record) -> tuple[float, float, float]:
    """`recal._ats_row`: a record's response length in tokens (its count as
    loaded, an explicit 0 included), answer length and reasoning depth."""
    from uncal.rewards import reasoning_depth

    return (float(record.response_token_count), float(len(oracle_record_answer(record) or "")),
            float(reasoning_depth(record.response_text)))


def oracle_build_features(token_hidden, record, window, span_token_count):
    """`probe.build_features` of one record: the mean hidden vector over the
    window around its first emitted token, then its token count, emission
    count and first-emit fraction (None, read as 0, for an empty text)."""
    import numpy as np

    first = record.emissions[0].token_index
    hidden = np.asarray(token_hidden)
    lo = max(0, first - window)
    hi = min(hidden.shape[0], first + span_token_count + window)
    span_mean = np.asarray(hidden[lo:hi], dtype=float).mean(axis=0)
    fraction = (record.emissions[0].char_position / len(record.response_text)
                if record.response_text else None)
    scalars = (float(record.response_token_count), float(len(record.emissions)),
               float(fraction if fraction is not None else 0.0))
    return np.concatenate([span_mean, scalars])


def oracle_examples(records, correct, stack, window, span_token_count):
    """`probe.examples` over records: (features, wrong labels, qids) of each
    emitted record with hidden states in `stack`."""
    import numpy as np

    rows, wrong, qids = [], [], []
    for record, ok in zip(records, correct):
        if record.emissions and record.qid in stack:
            rows.append(oracle_build_features(stack[record.qid], record, window,
                                              span_token_count))
            wrong.append(0 if ok else 1)
            qids.append(record.qid)
    return np.stack(rows), np.asarray(wrong, dtype=int), qids


def record_row(record: PredictionRecord) -> dict:
    """The row of a prediction table that holds `record`."""
    return {**vars(record), "gold_answers": list(record.gold_answers),
            "emissions": [vars(e) for e in record.emissions],
            "token_probs": None if record.token_probs is None else list(record.token_probs),
            "match": None if record.match is None else vars(record.match)}


# ---------------------------------------------------------------------------
# The per-space trajectory classes, tilt and bound check that `trajspace`
# had before it tilted every space of a file as one flat batch
# ---------------------------------------------------------------------------


class OracleOverflow(Exception):
    """`NumericOverflow` as the per-space tilt raised it, without a space index."""


class _HypothesisViolated(Exception):
    pass


class _DegenerateRatio(Exception):
    pass


@dataclass(frozen=True)
class Trajectory:
    """One reasoning trajectory: answer, stated confidence, base probability."""

    id: str
    answer: str
    confidence: float
    base_prob: float
    correct: bool


@dataclass(frozen=True)
class TrajectorySpace:
    """A normalized finite distribution over trajectories for one input:
    at least one trajectory, unique ids, base probabilities whose `fsum` is
    within 1e-12 of 1, and each `correct` flag equal to `answer == gold_answer`."""

    trajectories: tuple[Trajectory, ...]
    gold_answer: str

    def __post_init__(self):
        object.__setattr__(self, "trajectories", tuple(self.trajectories))
        ids = [t.id for t in self.trajectories]
        if not ids or len(set(ids)) != len(ids):
            raise ValueError("a space needs at least one trajectory, with unique ids")
        if abs(math.fsum(t.base_prob for t in self.trajectories) - 1.0) > 1e-12:
            raise ValueError("base probabilities must sum to 1")
        for t in self.trajectories:
            if t.correct != (t.answer == self.gold_answer):
                raise ValueError(f"trajectory {t.id}: correct flag disagrees with gold answer")

    def probs(self):
        import numpy as np

        return np.array([t.base_prob for t in self.trajectories], dtype=float)

    def with_probs(self, probs) -> "TrajectorySpace":
        """Copy of this space with replaced base probabilities."""
        return TrajectorySpace(tuple(Trajectory(t.id, t.answer, t.confidence, float(p), t.correct)
                                     for t, p in zip(self.trajectories, probs)),
                               self.gold_answer)


def space_from_line(line: dict) -> TrajectorySpace:
    """The space of a `jsonio.SPACE` line mapping."""
    gold = line["gold_answer"]
    return TrajectorySpace(tuple(Trajectory(**t, correct=t["answer"] == gold)
                                 for t in line["trajectories"]), gold)


def oracle_reward(traj: Trajectory) -> float:
    """The signed verbal confidence: +confidence if correct, -confidence if not."""
    value = traj.confidence if traj.correct else -traj.confidence
    return value + 0.0  # canonicalize -0.0


def oracle_space_rewards(space: TrajectorySpace):
    import numpy as np

    return np.array([oracle_reward(t) for t in space.trajectories], dtype=float)


def oracle_tilt(space: TrajectorySpace, eta: float) -> TrajectorySpace:
    """Reweight the space by exp(eta * reward) and renormalize, in log space."""
    import numpy as np

    scaled = eta * oracle_space_rewards(space)
    if np.max(np.abs(scaled)) > 700.0:
        raise OracleOverflow("|eta * reward| exceeds 700.0; tilted weights not representable")
    if np.max(scaled) - np.min(scaled) > 700.0:
        raise OracleOverflow("eta * reward spread exceeds 700.0; support would be lost")
    p = space.probs()
    positive = p > 0.0
    logw = np.full_like(p, -np.inf)
    logw[positive] = np.log(p[positive]) + scaled[positive]
    peak = np.max(logw[positive])
    lse = peak + math.log(math.fsum(np.exp(logw[positive] - peak)))
    out = np.zeros_like(p)
    out[positive] = np.exp(logw[positive] - lse)
    out /= math.fsum(out)
    if (positive & (out == 0.0)).any():
        raise OracleOverflow("a positive probability tilts to 0; support would be lost")
    return space.with_probs(out)


def oracle_answer_mass(space: TrajectorySpace, answer: str) -> float:
    return math.fsum(t.base_prob for t in space.trajectories if t.answer == answer)


def oracle_confidence_weighted_score(space: TrajectorySpace, answer: str) -> float:
    return math.fsum(t.base_prob * t.confidence for t in space.trajectories
                     if t.answer == answer)


def oracle_answer_margin(space: TrajectorySpace) -> float:
    """Confidence-weighted score of the gold answer minus the best competitor's,
    the gold score itself where no answer competes."""
    gold_score = oracle_confidence_weighted_score(space, space.gold_answer)
    competitors = {t.answer for t in space.trajectories} - {space.gold_answer}
    if not competitors:
        return gold_score
    return gold_score - max(oracle_confidence_weighted_score(space, y) for y in competitors)


def oracle_summarize(space: TrajectorySpace) -> dict:
    wrong_mass = math.fsum(t.base_prob for t in space.trajectories if not t.correct)
    mean_wrong = None
    if wrong_mass > 0.0:
        mean_wrong = math.fsum(t.base_prob * t.confidence for t in space.trajectories
                               if not t.correct) / wrong_mass
    return {"gold_mass": oracle_answer_mass(space, space.gold_answer),
            "margin": oracle_answer_margin(space), "mean_wrong_confidence": mean_wrong}


def oracle_iterate_tilt(space: TrajectorySpace, eta: float, steps: int) -> list[dict]:
    """The summary after each of `steps` tilts, with its step number."""
    out = []
    for step in range(1, steps + 1):
        space = oracle_tilt(space, eta)
        out.append({"step": step, **oracle_summarize(space)})
    return out


def _oracle_mass_ratio_bound(space, eta, correct, competing) -> dict:
    correct_rewards = [oracle_reward(t) for t in space.trajectories
                       if t.answer == correct and t.base_prob > 0.0]
    competing_rewards = [oracle_reward(t) for t in space.trajectories
                         if t.answer == competing and t.base_prob > 0.0]
    if not correct_rewards or not competing_rewards:
        raise _DegenerateRatio
    a, b = min(correct_rewards), max(competing_rewards)
    if a <= b:
        raise _HypothesisViolated
    m_correct = oracle_answer_mass(space, correct)
    m_competing = oracle_answer_mass(space, competing)
    tilted = oracle_tilt(space, eta)
    lhs = oracle_answer_mass(tilted, correct) / oracle_answer_mass(tilted, competing)
    rhs = math.exp(eta * (a - b)) * m_correct / m_competing
    support_before = {t.id for t in space.trajectories if t.base_prob > 0.0}
    support_after = {t.id for t in tilted.trajectories if t.base_prob > 0.0}
    return {"a": a, "b": b, "lhs": lhs, "rhs": rhs, "holds": lhs >= rhs - 1e-10,
            "support_preserved": support_before == support_after}


def oracle_verify(space: TrajectorySpace, eta: float) -> dict:
    """The fields of the space's `uncal theory verify` line, less its index,
    config and gold answer: the gold answer against the competitor of most
    mass (the lesser answer on a tie)."""
    competitors = sorted({t.answer for t in space.trajectories if t.answer != space.gold_answer},
                         key=lambda y: (-oracle_answer_mass(space, y), y))
    if not competitors:
        return {"status": "no_competitor"}
    line = {"competing": competitors[0]}
    try:
        check = _oracle_mass_ratio_bound(space, eta, space.gold_answer, competitors[0])
    except _HypothesisViolated:
        return {**line, "status": "hypothesis_violated"}
    except _DegenerateRatio:
        return {**line, "status": "degenerate_ratio"}
    return {**line, "status": "ok", **check}
