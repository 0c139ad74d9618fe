"""Span-aware linear wrongness probe over hidden states at emission points.

Features pool the hidden vectors around the first emitted uncertainty span
of each emitted row of a prediction table (`jsonio.PREDICTIONS`) and append
three scalar response features. A table's rows give the probe only what
`emitted` takes of them, once per file, a block of lines at a time as `cli`
loads it (a row's inputs read that row alone), and a layer is one (rows x dims)
matrix with each qid's rows in token order; `examples` pools every window of
a layer in one float64 matrix of an example per row. The window (>= 0
tokens), span (>= 1 token) and penalty (finite, >= 0) come checked: from the
`cli` parser, or from a probe model's config by `jsonio.PROBE_MODEL_CONFIG`.
The probe itself is L2-regularized logistic regression fit by the shared
Newton-CG minimizer (`optim`), with the decision threshold tuned for
trigger F1 on held-out data. Every fit and score takes a feature matrix,
one row per example. The positive class is "final answer is wrong", i.e.
"trigger retrieval"; the labels come from a `rewards.ScoredBatch` the
caller has scored. `evaluate` and `layer_sweep` return the plain dicts that
the `probe eval` and `probe sweep` reports write.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import optim
from .errors import AlignmentError, DegenerateFit, ShapeError, UndefinedMetric
from .rewards import ScoredBatch, scan_emissions, token_counts

DEFAULT_WINDOW = 4
DEFAULT_SPAN_TOKENS = 1
DEFAULT_L2 = 1e-2
TRAIN_FRACTION = 0.8
MIN_FIT_EXAMPLES = 10


def emitted(table: dict, batch: ScoredBatch) -> dict:
    """The probe's inputs from the emitted rows of the prediction table
    `table`, whose scores `batch` holds, in row order: each row's `qid`, the
    `token_index` of its first emission (None where it has none), its
    `scalars` (`rewards.token_counts`, emission count and first-emit
    fraction: the first emission's character position over the response
    length, 0 for an empty response) as one float64 row, and its `wrong`
    label, 1 where the batch scored it wrong. A row's emissions are its
    line's, else those `scan_emissions` finds in its text. `examples` reads
    nothing else of a table."""
    texts = table["response_text"]
    emissions = [scan_emissions(text) if events is None else events
                 for events, text in zip(table["emissions"], texts, strict=True)]
    rows = [i for i, (events, _) in enumerate(zip(emissions, batch.correct, strict=True))
            if events]
    return {
        "qid": [table["qid"][i] for i in rows],
        "token_index": [emissions[i][0]["token_index"] for i in rows],
        "scalars": np.array([
            (float(count), float(len(emissions[i])),
             emissions[i][0]["char_position"] / len(texts[i]) if texts[i] else 0.0)
            for i, count in zip(rows, token_counts(table, rows))], dtype=float).reshape(-1, 3),
        "wrong": (~batch.correct[rows]).astype(int),
    }


TokenStack = tuple[np.ndarray, Mapping[str, "slice | np.ndarray"]]  # what `cli` loads per layer


def _window_rows(qids, firsts, rows_of, window: int, span_token_count: int):
    """The matrix rows of each example's window, one row of the returned
    (examples x widest window) index array per example, and each window's
    length. An example's window is [first - window, first + span + window)
    clipped to its qid's tokens; its entries past its length repeat its
    last row. The first example whose first emission has no token index, or
    one outside its tokens, is refused."""
    tokens = np.empty(len(qids), dtype=np.intp)
    starts = np.zeros(len(qids), dtype=np.intp)
    scattered = []  # (example, row indices) of each qid whose rows are no slice
    for i, (qid, first) in enumerate(zip(qids, firsts)):
        rows = rows_of[qid]
        if type(rows) is slice:
            tokens[i], starts[i] = rows.stop - rows.start, rows.start
        else:
            tokens[i] = len(rows)
            scattered.append((i, rows))
        if first is None:
            raise AlignmentError(f"record {qid!r}: first emission has no token index")
        if not 0 <= first < tokens[i]:
            raise AlignmentError(
                f"record {qid!r}: emission token {first} outside 0..{tokens[i] - 1}"
            )
    # a reach beyond the longest sequence clips as that sequence's length does
    longest = int(tokens.max())
    first = np.array(firsts, dtype=np.intp)
    lo = np.maximum(first - min(window, longest), 0)
    hi = np.minimum(first + min(span_token_count, longest) + min(window, longest), tokens)
    lengths = hi - lo
    offsets = np.minimum(lo[:, None] + np.arange(lengths.max()), hi[:, None] - 1)
    offsets += starts[:, None]
    for i, rows in scattered:
        offsets[i] = rows[offsets[i]]
    return offsets, lengths


def examples(
    inputs: dict,
    stack: TokenStack,
    window: int = DEFAULT_WINDOW,
    span_token_count: int = DEFAULT_SPAN_TOKENS,
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """(features, wrong labels, qids) of the probe's examples, in row order.

    `inputs` are the `emitted` rows of a prediction table; `stack` is a
    layer's (rows x dims) hidden matrix with each qid's rows in token order
    (a slice of the matrix, or an array of row indices). An example is an
    emitted row whose qid has rows. Its features are the mean of its hidden
    vectors over [first_emit - window, first_emit + span + window), clipped
    to its tokens (with `window` >= 0 and `span_token_count` >= 1 it always
    holds the first emitted token), then its three `scalars`.

    The windows are pooled in one (examples x dims) float64 accumulator: it
    starts as each window's first hidden vector, and each further offset
    adds, in one gather, the vector at that offset of every window that
    long, before each sum is divided by its window's length. That is the
    order `np.mean(axis=0)` sums a window of two or more dims in, so the
    features are its bits (with one dim, numpy sums a window pairwise, and
    the last bits may differ); only the windows' rows are ever converted to
    float64, one offset at a time.
    """
    matrix, rows_of = stack
    keep = [i for i, qid in enumerate(inputs["qid"]) if qid in rows_of]
    if not keep:
        raise AlignmentError("no emitted record has hidden states")
    qids = [inputs["qid"][i] for i in keep]
    rows, lengths = _window_rows(qids, [inputs["token_index"][i] for i in keep], rows_of,
                                 window, span_token_count)
    pooled = matrix[rows[:, 0]].astype(float)
    for k in range(1, rows.shape[1]):
        np.add(pooled, matrix[rows[:, k]], out=pooled, where=(lengths > k)[:, None])
    pooled /= lengths[:, None]
    return np.hstack([pooled, inputs["scalars"][keep]]), inputs["wrong"][keep], qids


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
        """Predicted probability that each example (row of `x`) is wrong,
        from that row alone (`optim.linear`). The weights, means and stds
        must each have one entry per feature, or numpy would broadcast a
        short one into a plausible score."""
        sizes = (len(self.weights), len(self.feature_means), len(self.feature_stds))
        if sizes != (x.shape[1],) * 3:
            raise ShapeError(
                "probe model has {} weights, {} feature means and {} feature stds "
                "for {} features".format(*sizes, x.shape[1])
            )
        phi = (x - self.feature_means) / self.feature_stds
        return optim.sigmoid(optim.linear(phi, self.weights, self.bias))


def fit_probe(
    x: np.ndarray,
    labels: Sequence[int],
    l2: float = DEFAULT_L2,
    layer: int = -1,
) -> ProbeModel:
    """L2-regularized logistic regression from zero on the feature rows `x`,
    one label each (as `examples` returns them), standardized on the fit set
    (`optim.standardize`), minimized by `optim.minimize` (Newton-CG).

    The threshold is left at 0.5 until tuned. `fit` records the objective per
    iteration, which never increases, and whether the fit converged.
    """
    y = np.asarray(labels, dtype=float)
    if x.shape[0] < MIN_FIT_EXAMPLES:
        raise DegenerateFit(f"need at least {MIN_FIT_EXAMPLES} examples")
    if len(set(y.tolist())) < 2:
        raise DegenerateFit("both classes must be present")
    phi, means, stds = optim.standardize(x)
    if not phi.any():
        raise DegenerateFit("every feature is constant; nothing to fit")

    def logistic(u):
        p = optim.sigmoid(u)
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


Ranking = tuple[np.ndarray, np.ndarray, np.ndarray]  # what `ranked` returns


def ranked(scores, flags) -> Ranking:
    """The distinct values of `scores` ascending, with the number of rows and
    of flagged rows (`flags` 1 or true) at each. Every metric and threshold
    over a score vector reads its one ranking, so tied scores always move
    together. A non-finite score is refused: it has no place in the order."""
    s = np.asarray(scores, dtype=float)
    if not np.all(np.isfinite(s)):
        raise UndefinedMetric("scores must be finite")
    distinct, group = np.unique(s, return_inverse=True)
    rows = np.bincount(group, minlength=len(distinct))
    flagged = np.bincount(group, weights=flags, minlength=len(distinct)).astype(int)
    return distinct, rows, flagged


def auroc(ranking: Ranking) -> float:
    """Area under the ROC curve: the Mann-Whitney U of the positives (a
    negative with the same score counts one half) over n_pos * n_neg."""
    _, rows, pos = ranking
    neg = rows - pos
    n_pos = int(pos.sum())
    n_neg = int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetric("AUROC needs both classes")
    # 2U: each positive scores 2 per negative below it and 1 per negative tied
    twice_u = int(pos @ (2 * np.cumsum(neg) - neg))
    return twice_u / 2.0 / (n_pos * n_neg)


def auprc(ranking: Ranking) -> float:
    """Area under the precision-recall curve by step integration over
    distinct score thresholds (descending)."""
    _, rows, pos = ranking
    n_pos = int(pos.sum())
    if n_pos == 0 or n_pos == int(rows.sum()):
        raise UndefinedMetric("AUPRC needs both classes")
    tp = np.cumsum(pos[::-1])
    steps = np.diff(tp / n_pos, prepend=0.0)
    # one term per threshold, added in curve order (the float sum depends on it)
    return float(np.cumsum(steps * (tp / np.cumsum(rows[::-1])))[-1])


def _trigger_curve(distinct, rows, wrong, thresholds):
    """Precision, recall and F1 arrays of `score >= t` against the wrong
    labels, one entry per threshold t, from the counts `ranked` returns. A
    threshold equal to a score fires that score's rows."""
    below = np.searchsorted(distinct, thresholds, "left")  # distinct scores < t
    n_wrong = wrong.sum()
    tp = n_wrong - np.concatenate(([0], np.cumsum(wrong)))[below]
    fired = rows.sum() - np.concatenate(([0], np.cumsum(rows)))[below]
    precision = np.divide(tp, fired, out=np.zeros(len(tp)), where=fired > 0)
    recall = np.divide(tp, n_wrong, out=np.zeros(len(tp)), where=n_wrong > 0)
    f1 = np.divide(2 * precision * recall, precision + recall,
                   out=np.zeros(len(tp)), where=tp > 0)
    return precision, recall, f1


def trigger_prf(ranking: Ranking, threshold: float) -> tuple[float, float, float]:
    """Precision, recall, F1 of `score >= threshold` against wrong labels."""
    curve = _trigger_curve(*ranking, [threshold])
    return tuple(float(values[0]) for values in curve)


def tune_threshold(model: ProbeModel, dev: Ranking) -> ProbeModel:
    """Pick the threshold maximizing trigger F1 on the dev set: the model's
    scores of the dev rows, ranked with their wrong labels.

    Candidates are the midpoints between consecutive distinct dev scores plus
    the all-trigger boundary at 0. Ties break toward the lower threshold
    (higher recall).
    """
    distinct, rows, wrong = dev
    if not 0 < wrong.sum() < rows.sum():
        raise UndefinedMetric("threshold tuning needs both classes on dev")
    candidates = np.concatenate(([0.0], (distinct[:-1] + distinct[1:]) / 2.0))
    _, _, f1 = _trigger_curve(distinct, rows, wrong, candidates)
    # candidates ascend, so the first best F1 is the lowest threshold
    return replace(model, threshold=float(candidates[np.argmax(f1)]))


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


def fit_on_split(x: np.ndarray, labels: np.ndarray, split: tuple[list[int], list[int]],
                 l2: float, layer: int):
    """Fit on the train rows of the qid split `split` (`split_by_qid` of the
    examples' qids) and tune the threshold on its dev rows. Returns the
    model, the ranking of its dev scores, and the numbers of train and dev
    rows."""
    train_idx, dev_idx = split
    model = fit_probe(x[train_idx], labels[train_idx], l2=l2, layer=layer)
    dev = ranked(model.scores(x[dev_idx]), labels[dev_idx])
    return tune_threshold(model, dev), dev, len(train_idx), len(dev_idx)


def evaluate(ranking: Ranking, threshold: float) -> dict:
    """How a model's scores rank the wrong rows, and how its threshold
    triggers: the `auroc` and `auprc` of its ranked scores, and the trigger
    `precision`, `recall` and `f1` of its `threshold`, against the wrong
    labels."""
    precision, recall, f1 = trigger_prf(ranking, threshold)
    return {"auroc": auroc(ranking), "auprc": auprc(ranking), "precision": precision,
            "recall": recall, "f1": f1}


def layer_sweep(
    stacks: Iterable[tuple[int, TokenStack]],
    inputs: dict,
    window: int = DEFAULT_WINDOW,
    span_token_count: int = DEFAULT_SPAN_TOKENS,
    l2: float = DEFAULT_L2,
    seed: int = 0,
) -> list[dict]:
    """Full fit + threshold tuning per layer on a fixed qid-hash split: per
    layer, the `evaluate` dict of its model on the dev rows, with its
    `layer` and the split's sizes `n_train` and `n_dev`.

    `stacks` yields (layer, hidden matrix and each qid's rows) pairs, such
    as a dict's `items()`. Each layer is fitted before the next pair is
    drawn, so a generator that loads its layers lazily holds about two at a
    time; a layer that fails to load or fit then fails after the layers
    before it have been fitted. `inputs` are the `emitted` rows of the
    prediction table that every layer reads; see `examples` for which rows
    take part. Rows come back sorted by layer index. The qid split is a
    function of the examples' qids and `seed` alone, so a layer with the
    qids of the layer before it reuses that layer's split.
    """
    rows, split_qids = [], None
    for layer, stack in stacks:
        x, y, qids = examples(inputs, stack, window, span_token_count)
        if qids != split_qids:
            split, split_qids = split_by_qid(qids, seed), qids
        model, dev, n_train, n_dev = fit_on_split(x, y, split, l2, layer)
        rows.append({"layer": layer, **evaluate(dev, model.threshold),
                     "n_train": n_train, "n_dev": n_dev})
        del stack  # free this layer before `stacks` loads the next
    return sorted(rows, key=lambda row: row["layer"])
