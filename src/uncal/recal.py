"""Post-hoc recalibration: global and adaptive temperature scaling.

Confidences are clamped away from {0, 1} before the logit transform so that
grid-valued traces (0.05, 0.9, ...) and the occasional hard 0/1 survive the
mapping. Both fitters are deterministic: global scaling uses golden-section
search over log-temperature, adaptive scaling uses the shared Newton-CG
minimizer (`optim`) from a fixed initialization. Both fit the records of one
`rewards.ScoredBatch` whose confidence column is not NaN.

Global scaling does not go through `optim`: fitting one temperature there
means the ATS form without features, whose softplus keeps the temperature
above the 0.05 floor. Golden-section search over log T in [-5, 5] reaches
below it: on the 10k records that `test_recal.py` draws at T = 0.03 it finds
0.0297 (NLL 0.542), where the floored fit stops at 0.050 (NLL 0.562).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import optim
from .errors import DegenerateFit
from .rewards import (
    DEFAULT_F1_THRESHOLD,
    PredictionRecord,
    ScoredBatch,
    extract_answer_line,
    reasoning_depth,
    record_confidence,
    score_predictions,
)

CONF_CLAMP = 1e-4
LOG_T_RANGE = (-5.0, 5.0)
GOLDEN_TOL = 1e-6
ATS_TEMPERATURE_FLOOR = 0.05
DEFAULT_ATS_L2 = 1e-3


def _clamp_conf(c: float) -> float:
    return min(max(c, CONF_CLAMP), 1.0 - CONF_CLAMP)


def _logit(c: float) -> float:
    c = _clamp_conf(c)
    return math.log(c / (1.0 - c))


def _sigmoid(x):
    # exp(-logaddexp(0, -x)): stable in both tails
    return np.exp(-np.logaddexp(0.0, -x))


def _softplus(x):
    return np.logaddexp(0.0, x)


def _softplus_inv(y: float) -> float:
    return math.log(math.expm1(y))


def _fit_rows(batch: ScoredBatch):
    """(logits, outcomes) arrays of the records usable in a temperature fit:
    those whose confidence is not NaN."""
    usable = ~np.isnan(batch.confidence)
    conf, correct = batch.confidence[usable], batch.correct[usable]
    if len(conf) < 2:
        raise DegenerateFit("need at least two records with parseable confidence")
    if correct.all() or not correct.any():
        raise DegenerateFit("both outcome classes must be present")
    if ((conf == 0.0) | (conf == 1.0)).all():
        raise DegenerateFit("all confidences sit at 0 or 1; no usable spread")
    return np.array([_logit(c) for c in conf.tolist()]), correct.astype(float)


def _bernoulli_nll(probs: np.ndarray, outcomes: np.ndarray) -> float:
    p = np.clip(probs, 1e-12, 1.0 - 1e-12)
    return float(-np.mean(outcomes * np.log(p) + (1.0 - outcomes) * np.log(1.0 - p)))


@dataclass(frozen=True)
class TsModel:
    """Single scalar temperature applied in logit space."""

    temperature: float
    fit_nll: float = float("nan")

    def __post_init__(self):
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")


def fit_global_ts(
    records: Sequence[PredictionRecord], f1_threshold: float = DEFAULT_F1_THRESHOLD
) -> TsModel:
    """Fit the temperature minimizing Bernoulli NLL of sigmoid(logit(c)/T).

    Golden-section search over log T in [-5, 5] to 1e-6; the NLL is convex in
    1/T, so the search is over a unimodal function. If the numerical optimum
    is not at least as good as T = 1 (possible only by the search tolerance),
    T = 1 is returned.
    """
    logits, outcomes = _fit_rows(score_predictions(records, f1_threshold))

    def objective(log_t):
        return _bernoulli_nll(_sigmoid(logits / math.exp(log_t)), outcomes)

    lo, hi = LOG_T_RANGE
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1 = objective(x1)
    f2 = objective(x2)
    while hi - lo > GOLDEN_TOL:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = objective(x2)
    log_t = (lo + hi) / 2.0
    best = objective(log_t)
    if objective(0.0) < best:
        log_t, best = 0.0, objective(0.0)
    return TsModel(temperature=math.exp(log_t), fit_nll=best)


def apply_ts(model: TsModel, confidence: float) -> float:
    """sigmoid(logit(c)/T); strictly monotone in c, so rank order survives."""
    return float(_sigmoid(np.array(_logit(confidence) / model.temperature)))


def ts_nll(
    model: TsModel,
    records: Sequence[PredictionRecord],
    f1_threshold: float = DEFAULT_F1_THRESHOLD,
) -> float:
    logits, outcomes = _fit_rows(score_predictions(records, f1_threshold))
    return _bernoulli_nll(_sigmoid(logits / model.temperature), outcomes)


# ---------------------------------------------------------------------------
# Adaptive temperature scaling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AtsModel:
    """Per-example temperature softplus(w . f + b) + floor over standardized
    features (confidence logit, response length, answer length, reasoning
    depth)."""

    weights: tuple[float, float, float, float]
    bias: float
    l2: float
    feature_means: tuple[float, float, float, float]
    feature_stds: tuple[float, float, float, float]
    fit_nll: float = float("nan")
    fit: optim.Fit | None = None


def ats_features(record: PredictionRecord) -> tuple[float, float, float, float]:
    """Raw (unstandardized) feature vector for one record.

    Response length counts tokens (the record's token count, or whitespace
    tokens when absent); answer length counts characters of the extracted
    answer; reasoning depth counts nonempty lines before the answer line.
    """
    return _ats_row(record, _confidence(record))


def _confidence(record: PredictionRecord) -> float:
    conf = record_confidence(record)
    if conf is None:
        raise DegenerateFit(f"record {record.qid!r} has no parseable confidence")
    return conf


def _ats_row(record: PredictionRecord, conf: float) -> tuple[float, float, float, float]:
    length = record.response_token_count
    if length <= 0:
        length = len(record.response_text.split())
    answer = record.extracted_answer
    if answer is None:
        answer = extract_answer_line(record.response_text) or ""
    return (
        _logit(conf),
        float(length),
        float(len(answer)),
        float(reasoning_depth(record.response_text)),
    )


def _ats_design(records, batch: ScoredBatch):
    """(features, logits, outcomes) of the records usable in the fit; the
    batch is `score_predictions(records)`."""
    logits, outcomes = _fit_rows(batch)
    features = [_ats_row(r, c) for r, c in zip(records, batch.confidence.tolist())
                if not math.isnan(c)]
    return np.array(features), logits, outcomes


def _standardize(features):
    means = features.mean(axis=0)
    stds = features.std(axis=0)
    stds = np.where(stds == 0.0, 1.0, stds)
    return (features - means) / stds, means, stds


def fit_ats(
    records: Sequence[PredictionRecord],
    l2: float = DEFAULT_ATS_L2,
    f1_threshold: float = DEFAULT_F1_THRESHOLD,
) -> AtsModel:
    """Fit adaptive temperature scaling with `optim.minimize` (Newton-CG).

    The fit starts from w = 0 and the bias that makes the initial temperature
    exactly 1 (the identity mapping); the line search never lets the
    objective rise above that start. `fit_nll` is the unpenalized NLL at the
    result, computed as for global scaling.
    """
    records = list(records)
    features, logits, outcomes = _ats_design(
        records, score_predictions(records, f1_threshold)
    )
    phi, means, stds = _standardize(features)

    def nll(u):
        s = _sigmoid(u)  # dT/du
        t = _softplus(u) + ATS_TEMPERATURE_FLOOR
        z = logits / t
        p = _sigmoid(z)
        dz = -logits * s / t**2
        d2z = -logits * s * ((1.0 - s) / t**2 - 2.0 * s / t**3)
        loss = float(np.mean(np.logaddexp(0.0, z) - outcomes * z))
        return loss, (p - outcomes) * dz, p * (1.0 - p) * dz**2 + (p - outcomes) * d2z

    start = np.zeros(phi.shape[1] + 1)
    start[-1] = _softplus_inv(1.0 - ATS_TEMPERATURE_FLOOR)
    theta, fit = optim.minimize(nll, phi, start, l2)
    t = _softplus(phi @ theta[:-1] + theta[-1]) + ATS_TEMPERATURE_FLOOR
    return AtsModel(
        weights=tuple(float(v) for v in theta[:-1]),
        bias=float(theta[-1]),
        l2=l2,
        feature_means=tuple(float(v) for v in means),
        feature_stds=tuple(float(v) for v in stds),
        fit_nll=_bernoulli_nll(_sigmoid(logits / t), outcomes),
        fit=fit,
    )


def ats_temperature(model: AtsModel, record: PredictionRecord) -> float:
    return _temperature(model, ats_features(record))


def _temperature(model: AtsModel, features) -> float:
    raw = np.array(features)
    phi = (raw - np.array(model.feature_means)) / np.array(model.feature_stds)
    u = float(phi @ np.array(model.weights)) + model.bias
    return float(_softplus(np.array(u))) + ATS_TEMPERATURE_FLOOR


def apply_ats(model: AtsModel, record: PredictionRecord) -> float:
    """Recalibrated confidence sigmoid(logit(c)/T_record)."""
    conf = _confidence(record)
    t = _temperature(model, _ats_row(record, conf))
    return float(_sigmoid(np.array(_logit(conf) / t)))
