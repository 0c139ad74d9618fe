"""Exact exponential-tilting simulator over finite trajectory distributions.

A trajectory space is a finite distribution over reasoning trajectories for a
single input, each trajectory carrying a final answer, a stated confidence,
and a base probability. Tilting reweights the distribution by
exp(eta * reward) and renormalizes. The reward is the one calibration
training optimizes, the signed verbal confidence: +confidence for a correct
trajectory, -confidence for a wrong one. Every derived quantity here (answer
masses, mass-ratio bounds, confidence-weighted margins) can be computed
exactly on these finite spaces, which is what makes brute-force verification
possible.

Every space of a file is one `SpaceBatch`: flat columns over all
trajectories, each space a contiguous run of them, with no per-space
objects. `tilt` reweights the whole batch in one pass, and every sum over a
space or a group of its trajectories is a `math.fsum`, which is correctly
rounded, so a space's numbers do not depend on its neighbours or on the
order of its trajectories. All operations are pure: a tilt returns a fresh
batch. `jsonio.TRAJECTORY` checks each trajectory's confidence and base
probability on load, and `space_refusal`, the `jsonio.SPACES` rule, the
invariants across a space's trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import pairwise
from typing import Sequence

import numpy as np

from .errors import NumericOverflow

# exp() overflows float64 a little above 709; linear exposure of the tilted
# probabilities additionally requires the reward spread to stay representable.
_EXP_LIMIT = 700.0

_PROB_SUM_TOL = 1e-12


def space_refusal(ids: Sequence[str], base_probs: Sequence[float]) -> str | None:
    """Why trajectories with these ids and base probabilities make no space, or None:
    at least one trajectory, unique ids, and an `fsum` within 1e-12 of 1, in that order."""
    if not ids:
        return "a trajectory space needs at least one trajectory"
    if len(set(ids)) != len(ids):
        return "trajectory ids must be unique"
    total = math.fsum(base_probs)
    if abs(total - 1.0) > _PROB_SUM_TOL:
        return f"base probabilities must sum to 1, got {total!r}"
    return None


@dataclass(frozen=True)
class SpaceBatch:
    """Every space of a file as flat columns over its trajectories.

    A space's trajectories are contiguous and grouped by answer: first those
    of the gold answer (a group that may be empty), then one group per
    competing answer, in answer order. `reward` is the signed verbal
    confidence, with -0.0 made 0.0. `groups` holds the first index of every
    group of every space, then the trajectory count, so group g is
    `groups[g]:groups[g + 1]`; `first_group` holds each space's gold group,
    then the group count, so the groups of space i are
    `first_group[i]:first_group[i + 1]`.
    """

    base_prob: np.ndarray
    confidence: np.ndarray
    reward: np.ndarray
    starts: np.ndarray  # per space: its first trajectory
    sizes: np.ndarray  # per space: its trajectory count
    gold_answer: list[str]  # per space
    groups: list[int]
    group_answer: list[str]  # per group
    first_group: list[int]


def space_batch(table: dict[str, list]) -> SpaceBatch:
    """The batch of the spaces of a `jsonio.SPACES` table, in line order."""
    base_prob, confidence, correct = [], [], []
    groups, group_answer, first_group, starts = [], [], [], []
    for trajectories, gold in zip(table["trajectories"], table["gold_answer"]):
        starts.append(len(base_prob))
        first_group.append(len(groups))
        groups.append(len(base_prob))
        group_answer.append(gold)
        for t in sorted(trajectories, key=lambda t: (t["answer"] != gold, t["answer"])):
            if t["answer"] != group_answer[-1]:
                groups.append(len(base_prob))
                group_answer.append(t["answer"])
            base_prob.append(t["base_prob"])
            confidence.append(t["confidence"])
            correct.append(t["answer"] == gold)
    first_group.append(len(groups))
    groups.append(len(base_prob))
    confidence = np.array(confidence, dtype=float)
    starts = np.array(starts, dtype=np.intp)
    return SpaceBatch(
        base_prob=np.array(base_prob, dtype=float),
        confidence=confidence,
        reward=np.where(correct, confidence, -confidence) + 0.0,
        starts=starts,
        sizes=np.diff(np.append(starts, len(base_prob))),
        gold_answer=list(table["gold_answer"]),
        groups=groups,
        group_answer=group_answer,
        first_group=first_group,
    )


def _fsums(values: list[float], bounds: list[int]) -> list[float]:
    """The `fsum` of `values` over each run `bounds[k]:bounds[k + 1]`."""
    return [math.fsum(values[a:b]) for a, b in pairwise(bounds)]


def tilt(batch: SpaceBatch, eta: float, checked: np.ndarray | None = None) -> SpaceBatch:
    """Reweight every space by exp(eta * reward), eta > 0, and renormalize it.

    Computed in log space so that large eta * reward values do not overflow
    before normalization; the output is exposed as linear probabilities and
    preserves the support of the input exactly (zero stays zero, positive
    stays positive). The first space in batch order, among the `checked`
    ones (default: all), whose eta * reward or its spread exceeds the limit,
    or in which a positive probability tilts to exactly 0, raises
    NumericOverflow naming its index.
    """
    starts, sizes = batch.starts, batch.sizes
    scaled = eta * batch.reward
    over = np.maximum.reduceat(np.abs(scaled), starts) > _EXP_LIMIT
    # the log of a probability 0 is -inf; an `over` space may overflow, and is refused below
    with np.errstate(divide="ignore", over="ignore"):
        spread = (np.maximum.reduceat(scaled, starts) - np.minimum.reduceat(scaled, starts)
                  > _EXP_LIMIT)
        logw = np.log(batch.base_prob) + scaled
        peak = np.maximum.reduceat(logw, starts)
        spaces = [*starts.tolist(), len(logw)]
        shifted = _fsums(np.exp(logw - np.repeat(peak, sizes)).tolist(), spaces)
        lse = [top + math.log(total) for top, total in zip(peak.tolist(), shifted)]
        out = np.exp(logw - np.repeat(lse, sizes))
        out /= np.repeat(_fsums(out.tolist(), spaces), sizes)
    # a tiny probability far below its space's peak underflows to 0
    lost = np.logical_or.reduceat((batch.base_prob > 0.0) & (out == 0.0), starts)
    refused = over | spread | lost
    if checked is not None:
        refused &= checked
    if refused.any():
        space = int(np.argmax(refused))
        if over[space]:
            raise NumericOverflow(f"space {space}: |eta * reward| exceeds {_EXP_LIMIT}; "
                                  "tilted weights not representable")
        if spread[space]:
            raise NumericOverflow(f"space {space}: eta * reward spread exceeds {_EXP_LIMIT}; "
                                  "support would be lost")
        raise NumericOverflow(f"space {space}: a positive probability tilts to 0; "
                              "support would be lost")
    return replace(batch, base_prob=out)


def verify_bounds(batch: SpaceBatch, eta: float) -> list[dict]:
    """Per space, the check that tilting at eta amplifies M(gold)/M(competing)
    by at least exp(eta*(a-b)), M an answer's mass.

    The competing answer is the wrong one of most mass, the lesser answer
    on a tie. a is the minimum reward among positive-probability gold
    trajectories, b the maximum among competing ones: the lowest gold
    confidence and minus the lowest competing confidence, so a > b fails
    only when both are 0. A space's `status` is `no_competitor` (no wrong
    answer), `degenerate_ratio` (either side has no positive mass),
    `hypothesis_violated` (a <= b), or `ok`. An `ok` space also carries a,
    b, `lhs` (the post-tilt mass ratio), `rhs` (exp(eta*(a-b)) times the
    pre-tilt one), `holds` (lhs >= rhs - 1e-10) and `support_preserved`,
    always true: a tilt that loses support raises. Only `ok` spaces are
    checked, so only they can overflow.
    """
    p, reward = batch.base_prob.tolist(), batch.reward.tolist()
    groups = batch.groups
    mass = _fsums(p, groups)
    checks, pending = [], []  # pending: (space, gold group, competing group) of each ok space
    for space, (gold, end) in enumerate(pairwise(batch.first_group)):
        if end == gold + 1:
            checks.append({"status": "no_competitor"})
            continue
        rival = min(range(gold + 1, end), key=lambda g: (-mass[g], batch.group_answer[g]))
        checks.append({"competing": batch.group_answer[rival]})
        a, b = ([r for r, q in zip(reward[groups[g]:groups[g + 1]], p[groups[g]:groups[g + 1]])
                 if q > 0.0] for g in (gold, rival))
        if not a or not b:
            checks[-1]["status"] = "degenerate_ratio"
        elif min(a) <= max(b):
            checks[-1]["status"] = "hypothesis_violated"
        else:
            checks[-1].update(status="ok", a=min(a), b=max(b))
            pending.append((space, gold, rival))
    ok = np.zeros(len(checks), dtype=bool)
    ok[[space for space, _, _ in pending]] = True
    tilted = tilt(batch, eta, ok)
    tilted_mass = _fsums(tilted.base_prob.tolist(), groups)
    for space, gold, rival in pending:
        check = checks[space]
        lhs = tilted_mass[gold] / tilted_mass[rival]
        rhs = math.exp(eta * (check["a"] - check["b"])) * mass[gold] / mass[rival]
        check.update(lhs=lhs, rhs=rhs, holds=lhs >= rhs - 1e-10, support_preserved=True)
    return checks


def summarize(batch: SpaceBatch) -> list[dict]:
    """Per space: the gold answer's mass, the confidence-weighted score of
    the gold answer minus that of the best competitor (the gold score itself
    where none competes), and the mean confidence of the wrong trajectories
    by mass (None where they have no mass)."""
    p = batch.base_prob.tolist()
    weighted = (batch.base_prob * batch.confidence).tolist()
    mass, score = _fsums(p, batch.groups), _fsums(weighted, batch.groups)
    summaries = []
    for gold, end in pairwise(batch.first_group):
        wrong = slice(batch.groups[gold + 1], batch.groups[end])
        wrong_mass = math.fsum(p[wrong])
        rivals = score[gold + 1:end]
        summaries.append({
            "gold_mass": mass[gold],
            "margin": score[gold] - max(rivals) if rivals else score[gold],
            "mean_wrong_confidence": (math.fsum(weighted[wrong]) / wrong_mass
                                      if wrong_mass > 0.0 else None),
        })
    return summaries


def iterate_tilt(batch: SpaceBatch, eta: float, steps: int) -> list[list[dict]]:
    """Per space, its `summarize` after each of `steps` (at least 1) tilts
    at eta, each with its step number.

    Because exponential tilts compose additively in eta, k steps at eta equal
    one step at k*eta; the per-step trace exists to expose the trajectory of
    the gold-answer mass and margin.
    """
    traces = [[] for _ in batch.gold_answer]
    for step in range(1, steps + 1):
        batch = tilt(batch, eta)
        for trace, summary in zip(traces, summarize(batch)):
            trace.append({"step": step, **summary})
    return traces
