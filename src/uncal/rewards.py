"""Answer extraction, normalization, correctness matching, and batch scoring.

Operates on recorded model responses, as the column table a prediction load
yields (`jsonio.PREDICTIONS`: a dict from field to list, in line order).
Matching follows the usual QA recipe: normalized exact match first, then
yes/no canonicalization, then calendar-date agreement, then a token-F1
fallback against the best of a row's gold answers, prepared once per row
(`GoldSet`). Each fact of a row has one rule, read over a table's columns: its
answer is `answers` (the explicit field, else the last `Answer:` line) and
its confidence `confidences`. `score_predictions` turns a table into three
numpy columns (confidence, NaN where none parses; correctness; marker flag),
so each row is matched at most once however many metrics read the batch.
Each row's scores read that row alone, so a file scored a block of lines at
a time as it loads (as `cli` scores one) gives, its blocks' batches joined,
the batch of its whole table.
Applying a recalibration reads that column and matches nothing. No command
computes a training reward from a row: the one reward the toolkit models,
the signed verbal confidence, is applied to trajectories by `trajspace`.

`jsonio.PREDICTION` is the one check of each field's value (non-empty
`gold_answers`, confidences in [0,1]), and the load's check across fields
refuses emissions that are unsorted or outside the text. The F1 threshold
is in [0,1], as the `cli` parser's `--f1-threshold` refusal leaves it;
matching does not check it again.
"""

from __future__ import annotations

import enum
import re
import string
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

UNCERTAIN_MARKER = "<uncertain>"

DEFAULT_F1_THRESHOLD = 0.3

# a stated confidence's label, where an answer line's answer ends
_CONFIDENCE_LABEL_RE = re.compile(r"confidence[ \t]*:", re.IGNORECASE)
# an answer line's label, at the start of one line of `str.splitlines`: a line
# ends at "\n", "\r", "\f", U+2028 and the others that method breaks at
_ANSWER_LABEL_RE = re.compile(r"[ \t]*answer[ \t]*:", re.IGNORECASE)
_CONFIDENCE_RE = re.compile(
    _CONFIDENCE_LABEL_RE.pattern + r"[ \t]*([-+]?\d+(?:\.\d+)?)", re.IGNORECASE
)
_ARTICLES = ("a", "an", "the")
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)

_YES_NO = {**dict.fromkeys(("yes", "true", "correct"), "yes"),
           **dict.fromkeys(("no", "false", "incorrect"), "no")}

_MONTHS = {
    name: i + 1
    for i, name in enumerate(
        [
            "january", "february", "march", "april", "may", "june",
            "july", "august", "september", "october", "november", "december",
        ]
    )
}
_MONTHS.update({name[:3]: num for name, num in _MONTHS.items()})

_DIGIT_RE = re.compile(r"\d")
_ISO_DATE_RE = re.compile(r"^(\d{4})(?:-(\d{1,2})(?:-(\d{1,2}))?)?$")
_MDY_RE = re.compile(r"^([a-z]+)\s+(?:(\d{1,2})(?:st|nd|rd|th)?\s*,?\s+)?(\d{4})$")
_DMY_RE = re.compile(r"^(\d{1,2})(?:st|nd|rd|th)?\s+([a-z]+),?\s+(\d{4})$")


class MatchRule(enum.Enum):
    EXACT_MATCH = "ExactMatch"
    YES_NO = "YesNo"
    DATE = "Date"
    TOKEN_F1 = "TokenF1"


@dataclass(frozen=True)
class MatchResult:
    correct: bool
    rule: MatchRule
    f1: float


def _last_answer_line(lines: list[str]) -> tuple[int, str] | None:
    """The index of the last of `lines` that opens with an answer label, and
    the rest of that line after the label; None where no line does."""
    for i in range(len(lines) - 1, -1, -1):
        if label := _ANSWER_LABEL_RE.match(lines[i]):
            return i, lines[i][label.end():]
    return None


def extract_answer_line(response_text: str) -> str | None:
    """Payload of the last `Answer:` line, or None if no such line exists.
    Lines are those of `str.splitlines`, as `reasoning_depth` reads them.

    A trailing `Confidence: x` on the same line, with any spaces or tabs
    before its colon (as `extract_confidence` reads it), is not part of the
    answer and is stripped.
    """
    found = _last_answer_line(response_text.splitlines())
    if found is None:
        return None
    return _CONFIDENCE_LABEL_RE.split(found[1], maxsplit=1)[0].strip()


def extract_confidence(response_text: str) -> float | None:
    """The last `Confidence:` value, clamped to [0,1].

    Absence of a parseable value is None; that absence is what the
    parse-rate metric counts.
    """
    matches = _CONFIDENCE_RE.findall(response_text)
    if not matches:
        return None
    return min(max(float(matches[-1]), 0.0), 1.0)


def normalize_answer(text: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace, drop a leading article."""
    text = text.lower().translate(_PUNCT_TABLE)
    tokens = text.split()
    if tokens and tokens[0] in _ARTICLES:
        tokens = tokens[1:]
    return " ".join(tokens)


def token_bag(normalized: str) -> tuple[int, set[str], Counter | None]:
    """(token count, token set, Counter only if some token repeats) of an answer."""
    tokens = normalized.split()
    distinct = set(tokens)
    return len(tokens), distinct, Counter(tokens) if len(distinct) < len(tokens) else None


def token_f1(pred: tuple, gold: tuple) -> float:
    """Multiset F1 of two `token_bag`s; both empty counts as 1.0, exactly one
    empty as 0.0. Where one side repeats no token, the sets' overlap is exact."""
    (pred_n, pred_set, pred_counts), (gold_n, gold_set, gold_counts) = pred, gold
    if not pred_n or not gold_n:
        return 1.0 if pred_n == gold_n else 0.0
    overlap = (len(pred_set & gold_set) if pred_counts is None or gold_counts is None
               else sum((pred_counts & gold_counts).values()))
    if overlap == 0:
        return 0.0
    precision = overlap / pred_n
    recall = overlap / gold_n
    return 2.0 * precision * recall / (precision + recall)


def parse_date(text: str) -> tuple[int, int | None, int | None] | None:
    """Parse YYYY / YYYY-MM / YYYY-MM-DD / month-name forms to (y, m, d)."""
    cleaned = text.strip().strip(".").strip().lower()
    if not _DIGIT_RE.search(cleaned):  # every form holds a four-digit year
        return None
    m = _ISO_DATE_RE.match(cleaned)
    if m:
        year = int(m.group(1))
        month = int(m.group(2)) if m.group(2) else None
        day = int(m.group(3)) if m.group(3) else None
    else:
        m = _MDY_RE.match(cleaned)
        if m:
            month_name, day_s, year_s = m.group(1), m.group(2), m.group(3)
        else:
            m = _DMY_RE.match(cleaned)
            if not m:
                return None
            day_s, month_name, year_s = m.group(1), m.group(2), m.group(3)
        if month_name not in _MONTHS:
            return None
        year = int(year_s)
        month = _MONTHS[month_name]
        day = int(day_s) if day_s else None
    if month is not None and not 1 <= month <= 12:
        return None
    if day is not None and not 1 <= day <= 31:
        return None
    return year, month, day


def _dates_agree(a: tuple[int, int | None, int | None], b) -> bool:
    """Do all components present on both sides agree?"""
    return all(x is None or y is None or x == y for x, y in zip(a, b))


class GoldSet:
    """A row's gold answers prepared once for matching: the normalized
    strings, the yes/no values among them and, once the token-F1 rule first
    asks, each one's token bag. It is built from a row's `gold_answers`,
    which the loader has checked are non-empty."""

    __slots__ = ("answers", "normalized", "yes_no", "_bags")

    def __init__(self, golds: Sequence[str]):
        self.answers = tuple(golds)
        self.normalized = tuple(map(normalize_answer, golds))
        self.yes_no = {_YES_NO[g] for g in self.normalized if g in _YES_NO}
        self._bags = None

    @property
    def bags(self) -> tuple:
        """Each normalized gold's `token_bag`, built on first use: exact
        match, yes/no and dates decide many records without one."""
        if self._bags is None:
            self._bags = tuple(map(token_bag, self.normalized))
        return self._bags


# the verdicts of the rules that fire only on a match, shared by every call
_EXACT_MATCH, _YES_NO_MATCH, _DATE_MATCH = (MatchResult(True, MatchRule(rule), 1.0)
                                            for rule in ("ExactMatch", "YesNo", "Date"))


def match_answer(
    pred: str, golds: GoldSet, f1_threshold: float = DEFAULT_F1_THRESHOLD
) -> MatchResult:
    """Match a predicted answer against a row's gold answers.

    Rules fire in order: normalized exact match, yes/no canonicalization,
    calendar-date agreement, token-F1 >= threshold. The first rule that fires
    wins; if none fires the result is incorrect with the best token F1.
    """
    norm_pred = normalize_answer(pred)
    if norm_pred in golds.normalized:
        return _EXACT_MATCH
    if _YES_NO.get(norm_pred) in golds.yes_no:
        return _YES_NO_MATCH
    pred_date = parse_date(pred)
    if pred_date is not None and any(
        d is not None and _dates_agree(pred_date, d) for d in map(parse_date, golds.answers)
    ):
        return _DATE_MATCH
    pred_bag = token_bag(norm_pred)
    best_f1 = max(token_f1(pred_bag, g) for g in golds.bags)
    return MatchResult(best_f1 >= f1_threshold, MatchRule.TOKEN_F1, best_f1)


# the verdict on a row with no answer to match
_NO_ANSWER = MatchResult(False, MatchRule.TOKEN_F1, 0.0)


def answers(table: dict, rows: Iterable[int]) -> list[str | None]:
    """The answer of each of the `rows` (indices) of a prediction table: the
    row's `extracted_answer` where given, otherwise the last `Answer:` line
    of its response (None if neither)."""
    given, texts = table["extracted_answer"], table["response_text"]
    return [extract_answer_line(texts[i]) if given[i] is None else given[i] for i in rows]


def match_answers(
    preds: Sequence[str | None], gold_answers: Sequence[Sequence[str]], f1_threshold: float
) -> list[MatchResult]:
    """`match_answer` of each answer against its row's gold answers, whose
    `GoldSet`s are all built first; a row without an answer is incorrect
    with F1 = 0."""
    golds = list(map(GoldSet, gold_answers))
    return [_NO_ANSWER if pred is None else match_answer(pred, gold, f1_threshold)
            for pred, gold in zip(preds, golds)]


def _cached_correct(cached: dict, f1_threshold: float) -> bool | None:
    """The verdict of a cached `match` block at `f1_threshold`, or None where
    it holds only if the row has an answer. A cache never overrides the
    threshold: ExactMatch, YesNo and Date verdicts do not depend on it, and
    a cached TokenF1 result is correct exactly when its F1 reaches it (and
    the row has an answer)."""
    if cached["rule"] is not MatchRule.TOKEN_F1:
        return cached["correct"]
    return None if cached["f1"] >= f1_threshold else False


def scan_emissions(response_text: str) -> list[dict]:
    """All non-overlapping occurrences of the uncertainty marker, left to
    right, as the emissions a prediction line gives (`jsonio.EMISSION`)."""
    events = []
    start = 0
    while True:
        idx = response_text.find(UNCERTAIN_MARKER, start)
        if idx == -1:
            return events
        events.append({"char_position": idx, "token_index": None})
        start = idx + len(UNCERTAIN_MARKER)


def confidences(table: dict) -> np.ndarray:
    """Each row's stated confidence as a float64 column: the explicit
    `verbal_confidence` where given, otherwise parsed from the response
    text, NaN where none parses."""
    return np.array([extract_confidence(text) if conf is None else conf
                     for conf, text in zip(table["verbal_confidence"], table["response_text"])],
                    dtype=float)


@dataclass(frozen=True, eq=False)
class ScoredBatch:
    """One verdict per row of a prediction table, as columns in row order.

    `confidence` (float64) is NaN where no confidence parses; `correct` and
    `marked` are bool, and `marked` says whether the response text contains
    the uncertainty marker (what a rescan with `scan_emissions` would find).
    """

    confidence: np.ndarray
    correct: np.ndarray
    marked: np.ndarray

    def __len__(self) -> int:
        return len(self.correct)


def score_predictions(table: dict, f1_threshold: float = DEFAULT_F1_THRESHOLD,
                      verdicts: np.ndarray | None = None) -> ScoredBatch:
    """Score every row once: one confidence and one correctness verdict per
    row. A cached `match` block decides without rematching (`_cached_correct`).
    A row without one takes its verdict from `verdicts`, where given: one
    bool per row of the table, each row's `match_answers` verdict at
    `f1_threshold`, as `uncal match` computes them for every row. Otherwise
    its answer is matched against its gold answers here."""
    cached, golds = table["match"], table["gold_answers"]
    unmatched = [i for i, block in enumerate(cached) if block is None]
    correct = [None if block is None else _cached_correct(block, f1_threshold)
               for block in cached]
    if verdicts is None:
        verdicts = [match.correct for match in match_answers(
            answers(table, unmatched), [golds[i] for i in unmatched], f1_threshold)]
    else:
        verdicts = verdicts[unmatched].tolist()
    for i, verdict in zip(unmatched, verdicts):
        correct[i] = verdict
    pending = [i for i, verdict in enumerate(correct) if verdict is None]
    for i, answer in zip(pending, answers(table, pending)):
        correct[i] = answer is not None
    return ScoredBatch(
        confidence=confidences(table),
        correct=np.array(correct, dtype=bool),
        marked=np.array([UNCERTAIN_MARKER in text for text in table["response_text"]],
                        dtype=bool),
    )


def reasoning_depth(response_text: str) -> int:
    """Number of nonempty lines before the last answer line (all nonempty
    lines when no answer line exists), with lines and answer lines as
    `extract_answer_line` reads them."""
    lines = response_text.splitlines()
    found = _last_answer_line(lines)
    upto = len(lines) if found is None else found[0]
    return sum(1 for line in lines[:upto] if line.strip())
