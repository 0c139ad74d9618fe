"""Calibration metrics and the wrong-answer taxonomy over prediction records.

Every metric reads one `ScoredBatch` (`rewards.score_predictions`): each
record's confidence and correctness are computed once, however many metrics a
report holds. `calibration_report` computes every metric of a batch and
`error_taxonomy` splits its wrong answers, each into the plain dict the
`calib` report writes; there is no single-metric entry point. Bins, bands
and the taxonomy's classes are masks over the batch's columns, counted;
sums of confidences stay Python arithmetic (`math.fsum` over `tolist()`),
so every float is the one a per-record loop would give.

Records without a parseable confidence (NaN) are excluded from confidence
metrics but still count toward accuracy and the parse rate. The bin count
and NLL floor come checked from the `cli` parser (`--bins` >= 1,
`--nll-epsilon` in (0, 0.5)); nothing here checks them again. All aggregations
are pure and deterministic; per-dataset partitions can be computed
independently and merged.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EmptyBatch
from .probe import ranked
from .rewards import ScoredBatch

DEFAULT_ECE_BINS = 10
DEFAULT_NLL_EPSILON = 1e-6

# a wrong answer is epistemic above this confidence, strictly so above the next
EPISTEMIC_THRESHOLD = 0.5
STRICT_THRESHOLD = 0.7

# fixed confidence bands for wrong answers, highest first: (lo, hi] except
# the last band which includes 0
ERROR_BANDS = (
    ("c>0.7", 0.7, 1.0),
    ("0.5<c<=0.7", 0.5, 0.7),
    ("0.3<c<=0.5", 0.3, 0.5),
    ("0.1<c<=0.3", 0.1, 0.3),
    ("c<=0.1", 0.0, 0.1),
)


def _count(mask) -> int:
    return int(np.count_nonzero(mask))


def _calib_bins(conf, correct, num_bins):
    index = np.minimum((conf * num_bins).astype(int), num_bins - 1)
    out = []
    for i in range(num_bins):
        members = index == i
        count = _count(members)
        if count:
            mean_conf = math.fsum(conf[members].tolist()) / count
            acc = _count(correct[members]) / count
        else:
            mean_conf = 0.0
            acc = 0.0
        out.append({"lo": i / num_bins, "hi": (i + 1) / num_bins, "count": count,
                    "mean_conf": mean_conf, "accuracy": acc})
    return out


def _ece(bins, n):
    """Expected calibration error over the `_calib_bins` of `n` rows."""
    return sum((b["count"] / n) * abs(b["accuracy"] - b["mean_conf"]) for b in bins)


def _brier(confs, oks):
    """Mean squared gap between confidence and the 0/1 outcome."""
    return math.fsum((c - (1.0 if y else 0.0)) ** 2 for c, y in zip(confs, oks)) / len(confs)


def _nll(confs, oks, epsilon):
    """Mean negative log-likelihood of the outcome under the stated confidence,
    with confidences clamped to [epsilon, 1 - epsilon] to stay finite."""
    total = 0.0
    for conf, correct in zip(confs, oks):
        p = conf if correct else 1.0 - conf
        total += -math.log(min(max(p, epsilon), 1.0 - epsilon))
    return total / len(confs)


def _ausc(conf, correct):
    """Area under the selective accuracy vs. coverage curve.

    Records enter coverage by confidence descending, tied confidences
    together (`probe.ranked`), so the curve has one point per distinct
    confidence. The trapezoidal area between the first point and full
    coverage is normalized by that coverage span; a batch with a single
    distinct confidence degenerates to its accuracy. Grouping ties makes the
    value invariant to duplicating every record.
    """
    _, count, hits = ranked(conf, correct)
    seen = count[::-1].cumsum()
    coverage = (seen / len(conf)).tolist()
    accuracy = (hits[::-1].cumsum() / seen).tolist()
    if len(coverage) == 1:
        return accuracy[0]
    area = 0.0
    for c0, c1, a0, a1 in zip(coverage, coverage[1:], accuracy, accuracy[1:]):
        area += (c1 - c0) * (a0 + a1) / 2.0
    return area / (coverage[-1] - coverage[0])


def calibration_report(
    batch: ScoredBatch,
    num_bins: int = DEFAULT_ECE_BINS,
    nll_epsilon: float = DEFAULT_NLL_EPSILON,
) -> dict:
    """Every calibration metric of one scored batch, over `num_bins` >= 1
    bins, with NLL confidences clamped by `nll_epsilon` in (0, 0.5), as the
    dict a report holds. `bins` has one dict per equal-width bin, ascending;
    an empty bin reads 0.0 for both means."""
    n = len(batch)
    if not n:
        raise EmptyBatch("no records")
    usable = ~np.isnan(batch.confidence)
    conf, correct = batch.confidence[usable], batch.correct[usable]
    if not len(conf):
        raise EmptyBatch("no records with parseable confidence")
    accuracy = _count(batch.correct) / n
    confs, oks = conf.tolist(), correct.tolist()
    mean_conf = math.fsum(confs) / len(confs)
    bins = _calib_bins(conf, correct, num_bins)
    return {
        "n": n,
        "accuracy": accuracy,
        "mean_confidence": mean_conf,
        "overconfidence_gap": mean_conf - accuracy,
        "ece": _ece(bins, len(confs)),
        "brier": _brier(confs, oks),
        "nll": _nll(confs, oks, nll_epsilon),
        "parse_rate": len(confs) / n,
        "ausc": _ausc(conf, correct),
        "bins": bins,
    }


def error_taxonomy(batch: ScoredBatch) -> dict:
    """Decompose wrong answers by stated confidence, as the dict a report
    holds. `bands` has one dict per `ERROR_BANDS` entry, in its order; a
    band's fraction of no wrong answers reads 0.0.

    Epistemic errors are wrong answers above `EPISTEMIC_THRESHOLD`; aleatoric
    ones sit at or below it. Strict epistemic errors sit above
    `STRICT_THRESHOLD`. Only records with a parseable confidence
    participate. The emission split uses whether the response text contains
    the uncertainty marker, not the record's emission events.
    """
    if not len(batch):
        raise EmptyBatch("no records")
    wrong = ~np.isnan(batch.confidence) & ~batch.correct
    conf, marked = batch.confidence[wrong], batch.marked[wrong]
    total_wrong = len(conf)
    above = conf > EPISTEMIC_THRESHOLD
    epistemic = _count(above)
    bands = []
    for label, lo, hi in ERROR_BANDS:
        count = _count(conf <= hi if lo == 0.0 else (lo < conf) & (conf <= hi))
        fraction = count / total_wrong if total_wrong else 0.0
        bands.append({"label": label, "count": count, "fraction": fraction})
    with_emit = _count(above & marked)
    return {
        "total_wrong": total_wrong,
        "epistemic": epistemic,
        "aleatoric": total_wrong - epistemic,
        "strict_epistemic": _count(conf > STRICT_THRESHOLD),
        "bands": bands,
        "epistemic_with_emit": with_emit,
        "epistemic_without_emit": epistemic - with_emit,
    }
