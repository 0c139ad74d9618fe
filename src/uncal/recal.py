"""Post-hoc recalibration: global and adaptive temperature scaling.

Confidences are clamped away from {0, 1} before the logit transform so that
grid-valued traces (0.05, 0.9, ...) and the occasional hard 0/1 survive the
mapping. Both fitters are deterministic: global scaling uses golden-section
search over log-temperature, adaptive scaling uses the shared Newton-CG
minimizer (`optim`) from a fixed initialization. Both fit the records of one
`rewards.ScoredBatch` whose confidence column is not NaN.

Applying a model maps a confidence column (`rewards.confidences`) to a new
one and matches nothing: `apply_ts` reads the column alone, `apply_ats` also
the features of the records whose confidence is not NaN. A NaN confidence
maps to NaN.

Global scaling does not go through `optim`: fitting one temperature there
means the ATS form without features, whose softplus keeps the temperature
above the 0.05 floor. Golden-section search over log T in [-5, 5] reaches
below it: on the 10k records that `test_recal.py` draws at T = 0.03 it finds
0.0297 (NLL 0.542), where the floored fit stops at 0.050 (NLL 0.562).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import optim
from .errors import DegenerateFit
from .rewards import (
    DEFAULT_F1_THRESHOLD,
    PredictionRecord,
    ScoredBatch,
    reasoning_depth,
    record_answer,
    score_predictions,
)

CONF_CLAMP = 1e-4
LOG_T_RANGE = (-5.0, 5.0)
GOLDEN_TOL = 1e-6
ATS_TEMPERATURE_FLOOR = 0.05
DEFAULT_ATS_L2 = 1e-3


def _logits(confidence: np.ndarray) -> np.ndarray:
    """The logit of each confidence clamped to [CONF_CLAMP, 1 - CONF_CLAMP]."""
    clamped = np.clip(confidence, CONF_CLAMP, 1.0 - CONF_CLAMP)
    return np.array([math.log(c / (1.0 - c)) for c in clamped.tolist()])


def _sigmoid(x):
    # exp(-logaddexp(0, -x)): stable in both tails
    return np.exp(-np.logaddexp(0.0, -x))


def _softplus(x):
    return np.logaddexp(0.0, x)


def _softplus_inv(y: float) -> float:
    return math.log(math.expm1(y))


def _fit_rows(batch: ScoredBatch):
    """(usable, logits, outcomes): the mask of the records usable in a
    temperature fit (those whose confidence is not NaN), with their logits
    and outcomes."""
    usable = ~np.isnan(batch.confidence)
    conf, correct = batch.confidence[usable], batch.correct[usable]
    if len(conf) < 2:
        raise DegenerateFit("need at least two records with parseable confidence")
    if correct.all() or not correct.any():
        raise DegenerateFit("both outcome classes must be present")
    if ((conf == 0.0) | (conf == 1.0)).all():
        raise DegenerateFit("all confidences sit at 0 or 1; no usable spread")
    return usable, _logits(conf), correct.astype(float)


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
    _, logits, outcomes = _fit_rows(score_predictions(records, f1_threshold))

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


def apply_ts(model: TsModel, confidence: np.ndarray) -> np.ndarray:
    """sigmoid(logit(c)/T) of each confidence c, NaN where c is NaN; strictly
    monotone in c, so rank order survives."""
    usable = ~np.isnan(confidence)
    out = np.full(len(confidence), np.nan)
    out[usable] = _sigmoid(_logits(confidence[usable]) / model.temperature)
    return out


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


def _ats_row(record: PredictionRecord) -> tuple[float, float, float]:
    length = record.response_token_count
    if length <= 0:
        length = len(record.response_text.split())
    return (
        float(length),
        float(len(record_answer(record) or "")),
        float(reasoning_depth(record.response_text)),
    )


def _feature_rows(records, usable: np.ndarray, logits: np.ndarray) -> np.ndarray:
    """Raw (unstandardized) feature rows of the `usable` records, whose
    confidence logits are `logits`: the logit; response length in tokens
    (the record's token count, or whitespace tokens when absent); answer
    length in characters of `rewards.record_answer`; and reasoning depth,
    the nonempty lines before the answer line."""
    rows = [_ats_row(r) for r, ok in zip(records, usable.tolist()) if ok]
    return np.column_stack([logits, np.reshape(rows, (-1, 3))])


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
    usable, logits, outcomes = _fit_rows(score_predictions(records, f1_threshold))
    phi, means, stds = _standardize(_feature_rows(records, usable, logits))

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
    model = AtsModel(
        weights=tuple(float(v) for v in theta[:-1]),
        bias=float(theta[-1]),
        l2=l2,
        feature_means=tuple(float(v) for v in means),
        feature_stds=tuple(float(v) for v in stds),
        fit=fit,
    )
    t = _temperatures(model, phi)
    return replace(model, fit_nll=_bernoulli_nll(_sigmoid(logits / t), outcomes))


def _temperatures(model: AtsModel, phi: np.ndarray) -> np.ndarray:
    """The temperature softplus(phi @ w + b) + floor of each standardized
    feature row of `phi`, by row (`optim.linear`)."""
    return _softplus(optim.linear(phi, model.weights, model.bias)) + ATS_TEMPERATURE_FLOOR


def apply_ats(
    model: AtsModel, records: Sequence[PredictionRecord], confidence: np.ndarray
) -> np.ndarray:
    """sigmoid(logit(c)/T) of each record's confidence c, T being the
    record's own temperature, NaN where c is NaN; `confidence` is
    `rewards.confidences(records)`."""
    usable = ~np.isnan(confidence)
    logits = _logits(confidence[usable])
    phi = (_feature_rows(records, usable, logits) - model.feature_means) / model.feature_stds
    out = np.full(len(confidence), np.nan)
    out[usable] = _sigmoid(logits / _temperatures(model, phi))
    return out
