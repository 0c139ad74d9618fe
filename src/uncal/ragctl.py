"""Adaptive-retrieval controller simulation over paired-outcome traces.

Each trace carries a no-retrieval answer, the uncertainty signals a
controller might consume, and the answer the model produced when retrieval
was forced; a trace load yields them as one column table (`jsonio.RAG_TRACES`:
a dict from field to list, in line order). Of a trace's token probabilities
the table holds only their minimum (`noret_min_token_prob`), the one value
the flare signal reads; its response text is checked on load but not kept.
A policy decides per trace whether to retrieve; the simulator then scores
the resulting final answers and the trigger decisions against the
pre-retrieval failures.

Scoring and deciding are separate passes, and there is no one-call run that
hides them. `score_traces` matches both answers of every trace once (against
one `rewards.GoldSet`) and reads the table into numpy columns: per answer its
verdict, rule and F1, and one float column per controller signal. A trace's
columns read that trace alone, so `cli` scores a trace file a block of lines
at a time as it loads, and the blocks' `ScoredTraces`, joined, are those of
the whole table, which is never held. `decide`
compares one signal column with a threshold, giving one bool per trace. A
report is a plain dict of counts of masks over those columns
(`trigger_report`, `trigger_reports_by_dataset`), so one scoring serves the
overall report, every dataset and every point of a threshold sweep.

Policies: always, never, emit (any emission), conf:T (confidence below T),
emit+probe:T (an emission and a probe score of at least T), flare:T (some
token probability below T, after FLARE) and external (a recorded trigger).
A trace lacking the signal of the policy fails the batch. A signal's value
is checked once, on load, by `jsonio.RAG_TRACE` (a confidence in [0,1], a
finite probe score, token probabilities in (0,1]).

Every thresholded policy is `ControllerPolicy(kind, threshold)`. Boundary
semantics: confidence triggering is strict (confidence < T), so T = 0
reproduces Never and T just above the highest confidence reproduces Always.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyBatch, MissingSignal
from .rewards import DEFAULT_F1_THRESHOLD, GoldSet, MatchResult, MatchRule, match_answer


class PolicyKind(enum.Enum):
    ALWAYS = "always"
    NEVER = "never"
    CONFIDENCE_THRESHOLD = "conf"
    EMISSION_ONLY = "emit"
    EMISSION_PLUS_PROBE = "emit+probe"
    TOKEN_PROB_WINDOW = "flare"
    EXTERNAL = "external"


# each signalled kind: the name of its signal, whether it fires strictly
# below the threshold (else at or above it), its fixed threshold (None: the
# policy's own) and its column of a trace table (None where a trace lacks it)
_SIGNALS = {
    PolicyKind.CONFIDENCE_THRESHOLD: ("confidence", True, None, lambda t: t["noret_confidence"]),
    PolicyKind.EMISSION_ONLY: ("emission count", False, 1.0, lambda t: t["noret_emissions"]),
    # a trace without an emission reads -inf: it never fires, needs no probe score
    PolicyKind.EMISSION_PLUS_PROBE: ("probe score", False, None, lambda t: [
        score if count >= 1 else -math.inf
        for score, count in zip(t["noret_probe_score"], t["noret_emissions"])]),
    # some token probability below T is the lowest one below T; none reads +inf
    PolicyKind.TOKEN_PROB_WINDOW: ("token probabilities", True, None,
                                   lambda t: t["noret_min_token_prob"]),
    PolicyKind.EXTERNAL: ("external trigger column", False, 1.0, lambda t: t["external_trigger"]),
}


@dataclass(frozen=True)
class ControllerPolicy:
    """A policy kind, with a threshold in [0,1] exactly when the kind has one."""

    kind: PolicyKind
    threshold: float | None = None

    def __post_init__(self):
        thresholded = self.kind in _SIGNALS and _SIGNALS[self.kind][2] is None
        if (self.threshold is None) == thresholded:
            raise ValueError(
                f"policy {self.kind.value!r} {'needs a' if thresholded else 'takes no'} threshold"
            )
        if self.threshold is not None and not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0,1]")


@dataclass(frozen=True, eq=False)
class MatchColumns:
    """One answer of every trace as matched: verdict (bool), deciding rule
    (`MatchRule` objects) and token F1 (float64), in record order."""

    correct: np.ndarray
    rule: np.ndarray
    f1: np.ndarray

    @classmethod
    def of(cls, matches: Sequence[MatchResult]) -> MatchColumns:
        return cls(np.array([m.correct for m in matches], dtype=bool),
                   np.array([m.rule for m in matches], dtype=object),
                   np.array([m.f1 for m in matches], dtype=float))


@dataclass(frozen=True, eq=False)
class ScoredTraces:
    """Both answers of every trace matched once, and one float64 column per
    signalled kind (NaN where a trace lacks the signal), in record order."""

    qid: np.ndarray
    dataset: np.ndarray
    noret: MatchColumns
    ret: MatchColumns
    signals: dict[PolicyKind, np.ndarray]


def score_traces(table: dict, f1_threshold: float = DEFAULT_F1_THRESHOLD) -> ScoredTraces:
    """Match each trace's no-retrieval and with-retrieval answers once against
    its gold set, all built first (an unchanged answer reuses the no-retrieval
    match), and read each controller signal into its column."""
    golds = list(map(GoldSet, table["gold_answers"]))
    noret_answers, ret_answers = table["noret_answer"], table["ret_answer"]
    noret = [match_answer(a, g, f1_threshold) for a, g in zip(noret_answers, golds)]
    ret = [m if r == a else match_answer(r, g, f1_threshold)
           for r, a, g, m in zip(ret_answers, noret_answers, golds, noret)]
    return ScoredTraces(
        qid=np.array(table["qid"], dtype=object),
        dataset=np.array(table["dataset"], dtype=object),
        noret=MatchColumns.of(noret),
        ret=MatchColumns.of(ret),
        signals={kind: np.array(signal(table), dtype=float)
                 for kind, (_, _, _, signal) in _SIGNALS.items()},
    )


def decide(policy: ControllerPolicy, scored: ScoredTraces) -> np.ndarray:
    """The policy's retrieval decision for every scored record, as one bool
    column: the kind's signal column compared with its threshold. A record
    lacking that signal fails the batch, naming the first such record."""
    if policy.kind not in _SIGNALS:  # always, never
        return np.full(len(scored.qid), policy.kind is PolicyKind.ALWAYS)
    name, below, fixed, _ = _SIGNALS[policy.kind]
    signal = scored.signals[policy.kind]
    missing = np.isnan(signal)
    if missing.any():
        raise MissingSignal(f"record {scored.qid[np.argmax(missing)]!r} has no {name}")
    threshold = policy.threshold if fixed is None else fixed
    return signal < threshold if below else signal >= threshold


def _count(mask) -> int:
    return int(np.count_nonzero(mask))


def _tally(scored: ScoredTraces, fires, members) -> dict:
    """Accounting of one policy over the records `members` selects (a slice
    or a mask), from `decide`'s one decision per scored record.

    Precision and recall take the no-retrieval answer's wrongness as
    reference (the pre-intervention failure set), so `trigger_recall` is also
    the share of no-retrieval failures the policy covers;
    `wrong_within_triggered` instead looks at the final answers of triggered
    records, i.e. how much failure survives retrieval. Undefined cells (zero
    denominators) are None.
    """
    fire = np.asarray(fires, dtype=bool)[members]
    n = len(fire)
    if not n:
        raise EmptyBatch("no trace records")
    noret, ret = scored.noret, scored.ret
    noret_ok, ret_ok = noret.correct[members], ret.correct[members]
    final_ok = np.where(fire, ret_ok, noret_ok)
    final_rule = np.where(fire, ret.rule[members], noret.rule[members])
    f1_sum = 0.0
    for f1 in np.where(fire, ret.f1[members], noret.f1[members]).tolist():
        f1_sum += f1  # left to right in record order, not pairwise
    triggered = _count(fire)
    noret_wrong = _count(~noret_ok)
    triggered_and_wrong = _count(fire & ~noret_ok)
    untouched = n - triggered
    return {
        "n": n,
        "triggered": triggered,
        "noret_wrong": noret_wrong,
        "triggered_and_wrong": triggered_and_wrong,
        "trigger_rate": triggered / n,
        "final_em": _count(final_ok & (final_rule == MatchRule.EXACT_MATCH)) / n,
        "final_f1": f1_sum / n,
        "trigger_precision": triggered_and_wrong / triggered if triggered else None,
        "trigger_recall": triggered_and_wrong / noret_wrong if noret_wrong else None,
        "untouched_accuracy": _count(~fire & noret_ok) / untouched if untouched else None,
        "wrong_within_triggered": _count(fire & ~ret_ok) / triggered if triggered else None,
    }


def trigger_report(scored: ScoredTraces, fires) -> dict:
    """`_tally`'s accounting of one set of decisions over the whole scored batch."""
    return _tally(scored, fires, slice(None))


def trigger_reports_by_dataset(scored: ScoredTraces, fires) -> dict[str, dict]:
    """`_tally`'s accounting per dataset (sorted by dataset name), for
    table-shaped output."""
    names, code = np.unique(scored.dataset, return_inverse=True)
    return {name: _tally(scored, fires, code == k) for k, name in enumerate(names)}


def parse_policy_spec(spec: str) -> ControllerPolicy:
    """Parse CLI policy strings: always | never | emit | external | conf:T |
    emit+probe:T | flare:T."""
    head, sep, rest = spec.strip().lower().partition(":")
    try:
        return ControllerPolicy(PolicyKind(head), float(rest) if sep else None)
    except ValueError as exc:
        raise ValueError(f"policy spec {spec!r}: {exc}") from None
