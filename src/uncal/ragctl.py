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
verdict, whether it is an exact match, and F1, one float column per controller signal, and each
trace's dataset. A trace's columns read that trace alone, so `cli` scores a
trace file a block of lines at a time as it loads; the blocks' joined
`ScoredTraces` are those of the whole table, which is never held, and
`grouped` sorts their dataset names once. `decide` compares one signal
column with a threshold, giving one bool per trace. A report is a plain
dict of `np.bincount`s over those columns, so one scoring serves the
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
from dataclasses import dataclass, replace
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
    """One answer of every trace as matched: verdict (bool), whether an
    exact match decided it (bool; such a verdict is always correct) and
    token F1 (float64), in record order."""

    correct: np.ndarray
    exact: np.ndarray
    f1: np.ndarray

    @classmethod
    def of(cls, matches: Sequence[MatchResult]) -> MatchColumns:
        return cls(np.array([m.correct for m in matches], dtype=bool),
                   np.array([m.rule is MatchRule.EXACT_MATCH for m in matches], dtype=bool),
                   np.array([m.f1 for m in matches], dtype=float))


@dataclass(frozen=True, eq=False)
class ScoredTraces:
    """Every trace's two answers matched once, signals (a float64 column per
    kind, NaN where a trace lacks it) and dataset, in record order: its name
    in `datasets`, or once `grouped` its `code` into the sorted names there."""

    qid: np.ndarray
    datasets: np.ndarray
    noret: MatchColumns
    ret: MatchColumns
    signals: dict[PolicyKind, np.ndarray]
    code: np.ndarray | None = None


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
        datasets=np.array(table["dataset"], dtype=object),
        noret=MatchColumns.of(noret),
        ret=MatchColumns.of(ret),
        signals={kind: np.array(signal(table), dtype=float)
                 for kind, (_, _, _, signal) in _SIGNALS.items()},
    )


def grouped(scored: ScoredTraces) -> ScoredTraces:
    """`scored` whole, its names sorted once: `datasets` distinct, a `code` per trace."""
    datasets, code = np.unique(scored.datasets, return_inverse=True)
    return replace(scored, datasets=datasets, code=code)


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


def _reports(scored: ScoredTraces, fires, code: np.ndarray, bins: int) -> list[dict]:
    """Accounting of `decide`'s decisions per group k < `bins` (the records
    whose `code` is k), in one pass: each count a bincount of `code` weighted
    by a bool column (a float sum of ones, exact), each F1 sum one weighted by
    F1, added in record order (left to right, not pairwise). Precision and
    recall take the no-retrieval failures as reference, so `trigger_recall`
    is the share of them covered; `wrong_within_triggered` is the failure
    that survives retrieval among triggered records. Zero denominators give None."""
    fire = np.asarray(fires, dtype=bool)
    noret_ok, ret_ok = scored.noret.correct, scored.ret.correct
    final_em = fire & scored.ret.exact | ~fire & scored.noret.exact
    counts = [np.bincount(code, mask, bins).astype(np.intp).tolist() for mask in (None, fire,
              ~noret_ok, fire & ~noret_ok, final_em, ~fire & noret_ok, fire & ~ret_ok)]
    if 0 in counts[0]:
        raise EmptyBatch("no trace records")
    f1_sums = np.bincount(code, np.where(fire, scored.ret.f1, scored.noret.f1), bins).tolist()
    return [{
        "n": n,
        "triggered": triggered,
        "noret_wrong": noret_wrong,
        "triggered_and_wrong": triggered_and_wrong,
        "trigger_rate": triggered / n,
        "final_em": em / n,
        "final_f1": f1_sum / n,
        "trigger_precision": triggered_and_wrong / triggered if triggered else None,
        "trigger_recall": triggered_and_wrong / noret_wrong if noret_wrong else None,
        "untouched_accuracy": untouched_ok / (n - triggered) if n - triggered else None,
        "wrong_within_triggered": wrong_after / triggered if triggered else None,
    } for n, triggered, noret_wrong, triggered_and_wrong, em, untouched_ok, wrong_after, f1_sum
        in zip(*counts, f1_sums)]


def trigger_report(scored: ScoredTraces, fires) -> dict:
    """`_reports`' accounting of one set of decisions, every record in one bin."""
    return _reports(scored, fires, np.zeros(len(scored.qid), dtype=np.intp), 1)[0]


def trigger_reports_by_dataset(scored: ScoredTraces, fires) -> dict[str, dict]:
    """`_reports`' accounting per dataset (sorted by name) of a `grouped` scoring."""
    return dict(zip(scored.datasets.tolist(),
                    _reports(scored, fires, scored.code, len(scored.datasets))))


def parse_policy_spec(spec: str) -> ControllerPolicy:
    """Parse CLI policy strings: always | never | emit | external | conf:T |
    emit+probe:T | flare:T."""
    head, sep, rest = spec.strip().lower().partition(":")
    try:
        return ControllerPolicy(PolicyKind(head), float(rest) if sep else None)
    except ValueError as exc:
        raise ValueError(f"policy spec {spec!r}: {exc}") from None
