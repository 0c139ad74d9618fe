"""Span-aware linear wrongness probe over hidden states at emission points.

Features pool the hidden vectors around the first emitted uncertainty span
and append three scalar response features; `build_features` refuses a window
below 0 and a span below 1 token. The probe itself is L2-regularized logistic
regression fit by the shared Newton-CG minimizer (`optim`, which refuses a
negative or non-finite penalty), with the decision threshold tuned for trigger
F1 on held-out data. Every fit and score takes a feature matrix, one row per
example. The positive class is "final answer is wrong", i.e. "trigger
retrieval".
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from . import optim
from .errors import AlignmentError, DegenerateFit, NotEmitted, ShapeError, UndefinedMetric
from .rewards import PredictionRecord, ScoredBatch, first_emit_fraction, score_predictions

DEFAULT_WINDOW = 4
DEFAULT_SPAN_TOKENS = 1
DEFAULT_L2 = 1e-2
TRAIN_FRACTION = 0.8
MIN_FIT_EXAMPLES = 10


def _sigmoid(x):
    return np.exp(-np.logaddexp(0.0, -x))


def build_features(
    token_hidden: np.ndarray,
    record: PredictionRecord,
    window: int = DEFAULT_WINDOW,
    span_token_count: int = DEFAULT_SPAN_TOKENS,
) -> np.ndarray:
    """Feature vector of one emitted record: the mean of its hidden vectors
    over [first_emit - window, first_emit + span + window), then its token
    count, emission count and first-emit fraction.

    `token_hidden` is the (tokens x dims) matrix for this record's response;
    the range is clipped to the sequence bounds. `window` must be at least 0
    and `span_token_count` at least 1, so the range always holds the first
    emitted token.
    """
    if window < 0:
        raise ValueError(f"window={window} must be at least 0")
    if span_token_count < 1:
        raise ValueError(f"span_tokens={span_token_count} must be at least 1")
    if not record.emissions:
        raise NotEmitted(f"record {record.qid!r} has no emission")
    hidden = np.asarray(token_hidden, dtype=float)
    if hidden.ndim != 2 or hidden.shape[0] == 0:
        raise AlignmentError(f"record {record.qid!r}: empty or malformed hidden states")
    first = record.emissions[0].token_index
    if first is None:
        raise AlignmentError(f"record {record.qid!r}: first emission has no token index")
    n_tokens = hidden.shape[0]
    if not 0 <= first < n_tokens:
        raise AlignmentError(
            f"record {record.qid!r}: emission token {first} outside 0..{n_tokens - 1}"
        )
    lo = max(0, first - window)
    hi = min(n_tokens, first + span_token_count + window)
    span_mean = hidden[lo:hi].mean(axis=0)
    fraction = first_emit_fraction(record)
    scalars = (
        float(record.response_token_count),
        float(len(record.emissions)),
        float(fraction if fraction is not None else 0.0),
    )
    return np.concatenate([span_mean, scalars])


def examples(
    records: Sequence[PredictionRecord],
    batch: ScoredBatch,
    stack: Mapping[str, np.ndarray],
    window: int = DEFAULT_WINDOW,
    span_token_count: int = DEFAULT_SPAN_TOKENS,
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """(features, wrong labels, qids) of the probe's examples, in record order.

    `batch` is `rewards.score_predictions(records)`; `stack` maps qid ->
    (tokens x dims) hidden matrix. An example is an emitted record with hidden
    states in `stack`; its label is 1 where the batch scored it wrong.
    """
    rows = []
    wrong = []
    qids = []
    for record, correct in zip(records, batch.correct, strict=True):
        if not record.emissions or record.qid not in stack:
            continue
        rows.append(build_features(stack[record.qid], record, window, span_token_count))
        wrong.append(0 if correct else 1)
        qids.append(record.qid)
    if not rows:
        raise AlignmentError("no emitted record has hidden states")
    return np.stack(rows), np.asarray(wrong, dtype=int), qids


@dataclass(frozen=True)
class ProbeModel:
    layer: int
    weights: np.ndarray
    bias: float
    threshold: float
    feature_means: np.ndarray
    feature_stds: np.ndarray
    fit: optim.Fit | None = None

    def scores(self, x: np.ndarray) -> np.ndarray:
        """Predicted probability that each example (row of `x`) is wrong.
        The weights, means and stds must each have one entry per feature, or
        numpy would broadcast a short one into a plausible score."""
        sizes = (len(self.weights), len(self.feature_means), len(self.feature_stds))
        if sizes != (x.shape[1],) * 3:
            raise ShapeError(
                "probe model has {} weights, {} feature means and {} feature stds "
                "for {} features".format(*sizes, x.shape[1])
            )
        phi = (x - self.feature_means) / self.feature_stds
        return _sigmoid(phi @ self.weights + self.bias)


def fit_probe(
    x: np.ndarray,
    labels: Sequence[int],
    l2: float = DEFAULT_L2,
    layer: int = -1,
) -> ProbeModel:
    """L2-regularized logistic regression from zero on the feature rows `x`,
    standardized on the fit set, minimized by `optim.minimize` (Newton-CG).

    The threshold is left at 0.5 until tuned. `fit` records the objective per
    iteration, which never increases, and whether the fit converged.
    """
    y = np.asarray(labels, dtype=float)
    if x.shape[0] != y.shape[0]:
        raise ValueError("features and labels must align")
    if x.shape[0] < MIN_FIT_EXAMPLES:
        raise DegenerateFit(f"need at least {MIN_FIT_EXAMPLES} examples")
    if len(set(y.tolist())) < 2:
        raise DegenerateFit("both classes must be present")
    means = x.mean(axis=0)
    stds = x.std(axis=0)
    if np.all(stds == 0.0):
        raise DegenerateFit("every feature is constant; nothing to fit")
    stds = np.where(stds == 0.0, 1.0, stds)
    phi = (x - means) / stds

    def logistic(u):
        p = _sigmoid(u)
        # mean logistic loss, computed stably via logaddexp
        return float(np.mean(np.logaddexp(0.0, u) - y * u)), p - y, p * (1.0 - p)

    theta, fit = optim.minimize(logistic, phi, np.zeros(phi.shape[1] + 1), l2)
    return ProbeModel(
        layer=layer,
        weights=theta[:-1],
        bias=float(theta[-1]),
        threshold=0.5,
        feature_means=means,
        feature_stds=stds,
        fit=fit,
    )


def auroc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Area under the ROC curve via the rank-sum statistic with midranks for
    ties."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetric("AUROC needs both classes")
    if not np.all(np.isfinite(s)):
        # the tie loop below never advances past a NaN (NaN != NaN)
        raise UndefinedMetric("AUROC needs finite scores")
    order = np.argsort(s, kind="mergesort")
    ranks = np.empty(len(s), dtype=float)
    sorted_scores = s[order]
    i = 0
    while i < len(s):
        j = i
        while j < len(s) and sorted_scores[j] == sorted_scores[i]:
            j += 1
        # midrank for the tie block [i, j)
        ranks[order[i:j]] = (i + j + 1) / 2.0
        i = j
    rank_sum = float(np.sum(ranks[y == 1]))
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def auprc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Area under the precision-recall curve by step integration over
    distinct score thresholds (descending)."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    n_pos = int(np.sum(y == 1))
    if n_pos == 0 or int(np.sum(y == 0)) == 0:
        raise UndefinedMetric("AUPRC needs both classes")
    if not np.all(np.isfinite(s)):
        raise UndefinedMetric("AUPRC needs finite scores")
    order = np.argsort(-s, kind="mergesort")
    s_sorted = s[order]
    y_sorted = y[order]
    area = 0.0
    prev_recall = 0.0
    tp = 0
    seen = 0
    i = 0
    n = len(s)
    while i < n:
        j = i
        while j < n and s_sorted[j] == s_sorted[i]:
            tp += int(y_sorted[j])
            seen += 1
            j += 1
        recall = tp / n_pos
        precision = tp / seen
        area += (recall - prev_recall) * precision
        prev_recall = recall
        i = j
    return area


def trigger_prf(
    scores: Sequence[float], labels: Sequence[int], threshold: float
) -> tuple[float, float, float]:
    """Precision, recall, F1 of `score >= threshold` against wrong labels."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    predicted = s >= threshold
    tp = int(np.sum(predicted & (y == 1)))
    fp = int(np.sum(predicted & (y == 0)))
    fn = int(np.sum(~predicted & (y == 1)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def tune_threshold(
    model: ProbeModel,
    dev_x: np.ndarray,
    dev_labels: Sequence[int],
) -> ProbeModel:
    """Pick the threshold maximizing trigger F1 on the dev set.

    Candidates are the midpoints between consecutive distinct dev scores plus
    the all-trigger boundary at 0. Ties break toward the lower threshold
    (higher recall).
    """
    y = np.asarray(dev_labels, dtype=int)
    if len(set(y.tolist())) < 2:
        raise UndefinedMetric("threshold tuning needs both classes on dev")
    scores = model.scores(dev_x)
    distinct = np.unique(scores)
    candidates = [0.0] + [
        float((a + b) / 2.0) for a, b in zip(distinct, distinct[1:])
    ]
    best_threshold = 0.0
    best_f1 = -1.0
    for theta in candidates:
        _, _, f1 = trigger_prf(scores, y, theta)
        if f1 > best_f1 or (f1 == best_f1 and theta < best_threshold):
            best_f1 = f1
            best_threshold = theta
    return replace(model, threshold=best_threshold)


def split_by_qid(qids: Sequence[str], seed: int = 0):
    """Deterministic train/dev split by hashing qids (stable across runs):
    about `TRAIN_FRACTION` of them train. The only consumer of `--seed`."""
    cut = int(round(TRAIN_FRACTION * 100))
    train_idx = []
    dev_idx = []
    for i, qid in enumerate(qids):
        digest = hashlib.md5(f"{seed}:{qid}".encode("utf-8")).hexdigest()
        if int(digest, 16) % 100 < cut:
            train_idx.append(i)
        else:
            dev_idx.append(i)
    return train_idx, dev_idx


@dataclass(frozen=True)
class LayerSweepRow:
    layer: int
    auroc: float
    auprc: float
    precision: float
    recall: float
    f1: float
    n_train: int
    n_dev: int


def layer_sweep(
    stacks: Mapping[int, Mapping[str, np.ndarray]],
    records: Sequence[PredictionRecord],
    layers: Sequence[int],
    window: int = DEFAULT_WINDOW,
    span_token_count: int = DEFAULT_SPAN_TOKENS,
    l2: float = DEFAULT_L2,
    seed: int = 0,
) -> list[LayerSweepRow]:
    """Full fit + threshold tuning per layer on a fixed qid-hash split.

    `stacks` maps layer -> qid -> (tokens x dims) hidden matrix. The records
    are scored once for every layer; see `examples` for which take part. Rows
    come back sorted by layer index.
    """
    batch = score_predictions(records)
    rows = []
    for layer in sorted(layers):
        x, y, qids = examples(records, batch, stacks[layer], window, span_token_count)
        train_idx, dev_idx = split_by_qid(qids, seed)
        model = fit_probe(x[train_idx], y[train_idx], l2=l2, layer=layer)
        model = tune_threshold(model, x[dev_idx], y[dev_idx])
        dev_scores = model.scores(x[dev_idx])
        precision, recall, f1 = trigger_prf(dev_scores, y[dev_idx], model.threshold)
        rows.append(
            LayerSweepRow(
                layer=layer,
                auroc=auroc(dev_scores, y[dev_idx]),
                auprc=auprc(dev_scores, y[dev_idx]),
                precision=precision,
                recall=recall,
                f1=f1,
                n_train=len(train_idx),
                n_dev=len(dev_idx),
            )
        )
    return rows
