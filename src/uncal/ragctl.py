"""Adaptive-retrieval controller simulation over paired-outcome traces.

Each trace record carries a no-retrieval answer, the uncertainty signals a
controller might consume, and the answer the model produced when retrieval
was forced. A policy decides per record whether to retrieve; the simulator
then scores the resulting final answers and the trigger decisions against the
pre-retrieval failures.

Scoring and deciding are separate passes, and there is no one-call run that
hides them. `score_traces` matches both answers of every trace once;
`decide_all` turns a policy into one boolean per record. A `TriggerReport` is
then a count over those two passes (`trigger_report`,
`trigger_reports_by_dataset`), so one scoring serves the overall report,
every dataset and every point of a threshold sweep. Both answers of a trace
are matched against its gold answers as one `rewards.GoldSet`, prepared once.

Policies: always, never, emit (any emission), conf:T (confidence below T),
emit+probe:T (an emission and a probe score of at least T), flare:T (some
token probability below T, after FLARE) and external (a recorded trigger).

Every thresholded policy is `ControllerPolicy(kind, threshold)`. Boundary
semantics: confidence triggering is strict (confidence < T), so T = 0
reproduces Never and T just above the highest confidence reproduces Always.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from .errors import EmptyBatch, MissingSignal
from .rewards import DEFAULT_F1_THRESHOLD, GoldSet, MatchResult, MatchRule, match_answer


@dataclass(frozen=True)
class RagTraceRecord:
    """Paired no-retrieval / with-retrieval outcomes plus trigger signals."""

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
        if not self.gold_answers:
            raise ValueError("gold_answers must be non-empty")
        object.__setattr__(self, "gold_answers", tuple(self.gold_answers))
        if self.noret_token_probs is not None:
            object.__setattr__(self, "noret_token_probs", tuple(self.noret_token_probs))
        if self.noret_confidence is not None and not 0.0 <= self.noret_confidence <= 1.0:
            raise ValueError("noret_confidence must lie in [0,1]")
        if self.noret_emissions < 0:
            raise ValueError("noret_emissions must be nonnegative")


class PolicyKind(enum.Enum):
    ALWAYS = "always"
    NEVER = "never"
    CONFIDENCE_THRESHOLD = "conf"
    EMISSION_ONLY = "emit"
    EMISSION_PLUS_PROBE = "emit+probe"
    TOKEN_PROB_WINDOW = "flare"
    EXTERNAL = "external"


# the kinds that trigger on a score compared with a threshold
_THRESHOLDED = frozenset({
    PolicyKind.CONFIDENCE_THRESHOLD,
    PolicyKind.EMISSION_PLUS_PROBE,
    PolicyKind.TOKEN_PROB_WINDOW,
})


@dataclass(frozen=True)
class ControllerPolicy:
    """A policy kind, with a threshold in [0,1] exactly when the kind has one."""

    kind: PolicyKind
    threshold: float | None = None

    def __post_init__(self):
        thresholded = self.kind in _THRESHOLDED
        if (self.threshold is None) == thresholded:
            raise ValueError(
                f"policy {self.kind.value!r} {'needs a' if thresholded else 'takes no'} threshold"
            )
        if self.threshold is not None and not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0,1]")


def decide(policy: ControllerPolicy, record: RagTraceRecord) -> bool:
    """Does this policy trigger retrieval for this record?"""
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


@dataclass(frozen=True)
class TriggerReport:
    """Accounting of one policy over one batch.

    Precision and recall take the no-retrieval answer's wrongness as
    reference (the pre-intervention failure set), so `trigger_recall` is also
    the share of no-retrieval failures the policy covers;
    `wrong_within_triggered` instead looks at the final answers of triggered
    records, i.e. how much failure survives retrieval. Undefined cells (zero
    denominators) are None.
    """

    n: int
    triggered: int
    noret_wrong: int
    triggered_and_wrong: int
    trigger_rate: float
    final_em: float
    final_f1: float
    trigger_precision: float | None
    trigger_recall: float | None
    untouched_accuracy: float | None
    wrong_within_triggered: float | None


@dataclass(frozen=True)
class ScoredTraces:
    """Both answers of every trace matched once, in record order."""

    noret: tuple[MatchResult, ...]
    ret: tuple[MatchResult, ...]
    dataset: tuple[str, ...]


def score_traces(
    records: Sequence[RagTraceRecord], f1_threshold: float = DEFAULT_F1_THRESHOLD
) -> ScoredTraces:
    """Match each trace's no-retrieval and with-retrieval answers once against
    its gold set, all built first; an unchanged answer reuses the no-retrieval match."""
    records = list(records)
    golds = [GoldSet(r.gold_answers) for r in records]
    noret = tuple(match_answer(r.noret_answer, g, f1_threshold)
                  for r, g in zip(records, golds))
    return ScoredTraces(
        noret=noret,
        ret=tuple(m if r.ret_answer == r.noret_answer
                  else match_answer(r.ret_answer, g, f1_threshold)
                  for r, g, m in zip(records, golds, noret)),
        dataset=tuple(r.dataset for r in records),
    )


def decide_all(policy: ControllerPolicy, records: Sequence[RagTraceRecord]) -> list[bool]:
    """The policy's retrieval decision for every record, in record order."""
    return [decide(policy, r) for r in records]


def _tally(
    scored: ScoredTraces, fires: Sequence[bool], members: Sequence[int]
) -> TriggerReport:
    """Report over the records `members` (indices in record order)."""
    if len(fires) != len(scored.noret):
        raise ValueError("need exactly one decision per scored record")
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
        noret_match = scored.noret[i]
        final_match = scored.ret[i] if fire else noret_match
        em_sum += 1 if (final_match.correct and final_match.rule is MatchRule.EXACT_MATCH) else 0
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
    return TriggerReport(
        n=n,
        triggered=triggered,
        noret_wrong=noret_wrong,
        triggered_and_wrong=triggered_and_wrong,
        trigger_rate=triggered / n,
        final_em=em_sum / n,
        final_f1=f1_sum / n,
        trigger_precision=triggered_and_wrong / triggered if triggered else None,
        trigger_recall=triggered_and_wrong / noret_wrong if noret_wrong else None,
        untouched_accuracy=untouched_correct / untouched if untouched else None,
        wrong_within_triggered=final_wrong_in_triggered / triggered if triggered else None,
    )


def trigger_report(scored: ScoredTraces, fires: Sequence[bool]) -> TriggerReport:
    """Accounting of one set of decisions over the whole scored batch."""
    return _tally(scored, fires, range(len(fires)))


def trigger_reports_by_dataset(
    scored: ScoredTraces, fires: Sequence[bool]
) -> dict[str, TriggerReport]:
    """Per-dataset reports (sorted by dataset name), for table-shaped output."""
    members: dict[str, list[int]] = {}
    for i, name in enumerate(scored.dataset):
        members.setdefault(name, []).append(i)
    return {name: _tally(scored, fires, members[name]) for name in sorted(members)}


def sweep_threshold(
    kind: PolicyKind,
    records: Sequence[RagTraceRecord],
    grid: Sequence[float],
    f1_threshold: float = DEFAULT_F1_THRESHOLD,
) -> list[tuple[float, TriggerReport]]:
    """One report per grid point for a thresholded policy family; the records
    are scored once for the whole grid."""
    policies = [ControllerPolicy(kind, value) for value in grid]
    if not policies:
        raise ValueError("grid must be non-empty")
    records = list(records)
    scored = score_traces(records, f1_threshold)
    return [(policy.threshold, trigger_report(scored, decide_all(policy, records)))
            for policy in policies]


def parse_policy_spec(spec: str) -> ControllerPolicy:
    """Parse CLI policy strings: always | never | emit | external | conf:T |
    emit+probe:T | flare:T."""
    head, sep, rest = spec.strip().lower().partition(":")
    try:
        return ControllerPolicy(PolicyKind(head), float(rest) if sep else None)
    except ValueError as exc:
        raise ValueError(f"policy spec {spec!r}: {exc}") from None
