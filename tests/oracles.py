"""Independent brute-force reimplementations of every metric under test.

These deliberately avoid the library's code paths (no shared helpers, no
cumulative-sum tricks): plain loops and recounts, so that agreement with the
package is evidence rather than tautology.
"""

from __future__ import annotations

import math


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
