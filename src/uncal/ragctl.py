"""Adaptive-retrieval controller simulation over paired-outcome traces.

Each trace record carries a no-retrieval answer, the uncertainty signals a
controller might consume, and the answer the model produced when retrieval
was forced. A policy decides per record whether to retrieve; the simulator
then scores the resulting final answers and the trigger decisions against the
pre-retrieval failures.

Scoring and deciding are separate passes. `score_traces` matches both answers
of every trace once; `decide_all` turns a policy into one boolean per record.
A `TriggerReport` is then a count over those two passes (`trigger_report`,
`trigger_reports_by_dataset`), so one scoring serves the overall report,
every dataset and every point of a threshold sweep.

Boundary semantics: confidence triggering is strict (confidence < tau), so
tau = 0 reproduces Never and tau just above the highest confidence reproduces
Always.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyBatch, MissingSignal
from .probe import ProbeModel, fit_probe
from .rewards import (
    DEFAULT_F1_THRESHOLD,
    MatchResult,
    MatchRule,
    match_answer,
    reasoning_depth,
)

HEDGING_LEXICON = (
    "not sure",
    "i think",
    "perhaps",
    "probably",
    "i believe",
    "couldn't find",
    "don't have",
)


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
    FEATURE_CLASSIFIER = "clf"
    EXTERNAL = "external"


@dataclass(frozen=True)
class ControllerPolicy:
    kind: PolicyKind
    tau: float | None = None
    theta: float | None = None
    tau_p: float | None = None
    window: int = 1
    model: ProbeModel | None = None

    def __post_init__(self):
        for name in ("tau", "theta", "tau_p"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0,1]")
        if self.window < 1:
            raise ValueError("window must be >= 1")

    @staticmethod
    def always() -> "ControllerPolicy":
        return ControllerPolicy(PolicyKind.ALWAYS)

    @staticmethod
    def never() -> "ControllerPolicy":
        return ControllerPolicy(PolicyKind.NEVER)

    @staticmethod
    def confidence_threshold(tau: float) -> "ControllerPolicy":
        return ControllerPolicy(PolicyKind.CONFIDENCE_THRESHOLD, tau=tau)

    @staticmethod
    def emission_only() -> "ControllerPolicy":
        return ControllerPolicy(PolicyKind.EMISSION_ONLY)

    @staticmethod
    def emission_plus_probe(theta: float) -> "ControllerPolicy":
        return ControllerPolicy(PolicyKind.EMISSION_PLUS_PROBE, theta=theta)

    @staticmethod
    def token_prob_window(tau_p: float, window: int = 1) -> "ControllerPolicy":
        return ControllerPolicy(PolicyKind.TOKEN_PROB_WINDOW, tau_p=tau_p, window=window)

    @staticmethod
    def feature_classifier(model: ProbeModel) -> "ControllerPolicy":
        return ControllerPolicy(PolicyKind.FEATURE_CLASSIFIER, model=model)

    @staticmethod
    def external() -> "ControllerPolicy":
        return ControllerPolicy(PolicyKind.EXTERNAL)


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
        return record.noret_confidence < policy.tau
    if kind is PolicyKind.EMISSION_ONLY:
        return record.noret_emissions >= 1
    if kind is PolicyKind.EMISSION_PLUS_PROBE:
        if record.noret_emissions < 1:
            return False
        if record.noret_probe_score is None:
            raise MissingSignal(f"record {record.qid!r} has no probe score")
        return record.noret_probe_score >= policy.theta
    if kind is PolicyKind.TOKEN_PROB_WINDOW:
        if record.noret_token_probs is None:
            raise MissingSignal(f"record {record.qid!r} has no token probabilities")
        # any window containing a token below tau_p triggers; equivalent to
        # the minimum token probability falling below tau_p
        return any(p < policy.tau_p for p in record.noret_token_probs)
    if kind is PolicyKind.FEATURE_CLASSIFIER:
        if policy.model is None:
            raise MissingSignal("feature-classifier policy has no fitted model")
        return bool(policy.model.decide(classifier_features(record).reshape(1, -1))[0])
    if kind is PolicyKind.EXTERNAL:
        if record.external_trigger is None:
            raise MissingSignal(f"record {record.qid!r} has no external trigger column")
        return record.external_trigger
    raise ValueError(f"unhandled policy kind {kind}")


def hedging_cue_count(text: str) -> int:
    """Total occurrences of the hedging phrases, case-insensitive."""
    lowered = text.lower()
    return sum(lowered.count(phrase) for phrase in HEDGING_LEXICON)


def classifier_features(record: RagTraceRecord) -> np.ndarray:
    """Surface features: response length (chars), reasoning-line count,
    hedging-cue count, emission-present flag."""
    text = record.noret_response_text
    if text is None:
        raise MissingSignal(f"record {record.qid!r} has no response text")
    return np.array(
        [
            float(len(text)),
            float(reasoning_depth(text)),
            float(hedging_cue_count(text)),
            1.0 if record.noret_emissions >= 1 else 0.0,
        ]
    )


def fit_feature_classifier(
    records: Sequence[RagTraceRecord],
    labels: Sequence[int],
    l2: float = 1e-2,
) -> ProbeModel:
    """Logistic regression over the surface features (reuses the probe fitter)."""
    x = np.stack([classifier_features(r) for r in records])
    return fit_probe(x, labels, l2=l2)


@dataclass(frozen=True)
class TriggerReport:
    """Accounting of one policy over one batch.

    Precision, recall, and coverage take the no-retrieval answer's wrongness
    as reference (the pre-intervention failure set); `wrong_within_triggered`
    instead looks at the final answers of triggered records, i.e. how much
    failure survives retrieval. Undefined cells (zero denominators) are None.
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
    global_wrong_coverage: float | None


@dataclass(frozen=True)
class ScoredTraces:
    """Both answers of every trace matched once, in record order."""

    noret: tuple[MatchResult, ...]
    ret: tuple[MatchResult, ...]
    dataset: tuple[str, ...]


def score_traces(
    records: Sequence[RagTraceRecord], f1_threshold: float = DEFAULT_F1_THRESHOLD
) -> ScoredTraces:
    """Match each trace's no-retrieval and with-retrieval answers once."""
    records = list(records)
    return ScoredTraces(
        noret=tuple(match_answer(r.noret_answer, r.gold_answers, f1_threshold)
                    for r in records),
        ret=tuple(match_answer(r.ret_answer, r.gold_answers, f1_threshold)
                  for r in records),
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
        global_wrong_coverage=triggered_and_wrong / noret_wrong if noret_wrong else None,
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


def simulate(
    policy: ControllerPolicy,
    records: Sequence[RagTraceRecord],
    f1_threshold: float = DEFAULT_F1_THRESHOLD,
) -> TriggerReport:
    """Run the one-shot retrieval protocol: answer, maybe retrieve, rescore."""
    records = list(records)
    fires = decide_all(policy, records)
    return trigger_report(score_traces(records, f1_threshold), fires)


def simulate_by_dataset(
    policy: ControllerPolicy,
    records: Sequence[RagTraceRecord],
    f1_threshold: float = DEFAULT_F1_THRESHOLD,
) -> dict[str, TriggerReport]:
    """Per-dataset reports (sorted by dataset name), for table-shaped output."""
    records = list(records)
    fires = decide_all(policy, records)
    return trigger_reports_by_dataset(score_traces(records, f1_threshold), fires)


def sweep_threshold(
    kind: PolicyKind,
    records: Sequence[RagTraceRecord],
    grid: Sequence[float],
    window: int = 1,
    f1_threshold: float = DEFAULT_F1_THRESHOLD,
) -> list[tuple[float, TriggerReport]]:
    """One report per grid point for a thresholded policy family; the records
    are scored once for the whole grid."""
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be non-empty")
    policies = []
    for value in grid:
        if kind is PolicyKind.CONFIDENCE_THRESHOLD:
            policies.append(ControllerPolicy.confidence_threshold(value))
        elif kind is PolicyKind.EMISSION_PLUS_PROBE:
            policies.append(ControllerPolicy.emission_plus_probe(value))
        elif kind is PolicyKind.TOKEN_PROB_WINDOW:
            policies.append(ControllerPolicy.token_prob_window(value, window))
        else:
            raise ValueError(f"policy family {kind} has no threshold to sweep")
    records = list(records)
    scored = score_traces(records, f1_threshold)
    return [
        (value, trigger_report(scored, decide_all(policy, records)))
        for value, policy in zip(grid, policies)
    ]


def parse_policy_spec(spec: str, model: ProbeModel | None = None) -> ControllerPolicy:
    """Parse CLI policy strings: always | never | emit | conf:T | emit+probe:T
    | flare:T[:W] | external | clf."""
    text = spec.strip().lower()
    if text == "always":
        return ControllerPolicy.always()
    if text == "never":
        return ControllerPolicy.never()
    if text == "emit":
        return ControllerPolicy.emission_only()
    if text == "external":
        return ControllerPolicy.external()
    if text == "clf":
        if model is None:
            raise ValueError("clf policy needs a fitted classifier model")
        return ControllerPolicy.feature_classifier(model)
    if ":" in text:
        head, _, rest = text.partition(":")
        if head == "conf":
            return ControllerPolicy.confidence_threshold(float(rest))
        if head == "emit+probe":
            return ControllerPolicy.emission_plus_probe(float(rest))
        if head == "flare":
            parts = rest.split(":")
            window = int(parts[1]) if len(parts) > 1 else 1
            return ControllerPolicy.token_prob_window(float(parts[0]), window)
    raise ValueError(f"unrecognized policy spec {spec!r}")
