"""Post-hoc recalibration: global and adaptive temperature scaling.

Confidences are clamped away from {0, 1} before the logit transform so that
grid-valued traces (0.05, 0.9, ...) and the occasional hard 0/1 survive the
mapping. Both fitters are deterministic and share the Newton-CG minimizer
(`optim`), each from the identity mapping (T = 1): global scaling over
u = log(1/T), adaptive scaling over the weights of its features. Each fits
the rows of one `rewards.ScoredBatch` (the caller scores them) whose
confidence column is not NaN; adaptive scaling also reads their
`ats_features`, three raw columns of the prediction table
(`jsonio.PREDICTIONS`) the batch scored, which a caller may derive a block
of lines at a time.

Applying a model maps a confidence column (`rewards.confidences`) to a new
one and matches nothing: `apply_ts` reads the column alone, `apply_ats` also
the features of the rows whose confidence is not NaN. A NaN confidence maps
to NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
import numpy as np

from . import optim
from .errors import DegenerateFit
from .rewards import ScoredBatch, answers, reasoning_depth, token_counts

CONF_CLAMP = 1e-4
ATS_TEMPERATURE_FLOOR = 0.05
DEFAULT_ATS_L2 = 1e-3


def _logits(confidence: np.ndarray) -> np.ndarray:
    """The logit of each confidence clamped to [CONF_CLAMP, 1 - CONF_CLAMP]."""
    clamped = np.clip(confidence, CONF_CLAMP, 1.0 - CONF_CLAMP)
    return np.array([math.log(c / (1.0 - c)) for c in clamped.tolist()])


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
    fit: optim.Fit | None = None

    def __post_init__(self):
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")


def fit_global_ts(batch: ScoredBatch) -> TsModel:
    """Fit the temperature minimizing Bernoulli NLL of sigmoid(logit(c)/T)
    with `optim.minimize` over u = log(1/T), from u = 0 (T = 1).

    Each row's loss is softplus(a) - y a with a = logit * e^u. The line
    search never lets the NLL rise above that of T = 1. A batch whose
    correct records all have logits above 0 and wrong ones below has no
    finite best T: the NLL falls toward 0 as T does. There the fit stops,
    converged, at the small positive T where the gradient first falls below
    `optim.GRAD_TOL`, with an NLL below that of T = 1.
    """
    _, logits, outcomes = _fit_rows(batch)

    def nll(u):
        a = logits * np.exp(u)
        p = optim.sigmoid(a)
        loss = float(np.mean(_softplus(a) - outcomes * a))
        h = p * (1.0 - p) * a**2 + (p - outcomes) * a
        # every row shares u, so a step reads only the rows' mean curvature;
        # where it is positive each row gets the mean, which the minimizer's
        # clip at 0 per row would inflate (at T = 103 on the bundled fixture
        # the fit then crept on for 100 iterations without converging)
        curvature = float(h.mean())
        return loss, (p - outcomes) * a, np.full(len(a), curvature) if curvature > 0.0 else h

    theta, fit = optim.minimize(nll, np.empty((len(logits), 0)), np.zeros(1), 0.0)
    t = math.exp(-theta[0])
    fit_nll = _bernoulli_nll(optim.sigmoid(logits / t), outcomes)
    return TsModel(temperature=t, fit_nll=fit_nll, fit=fit)


def apply_ts(model: TsModel, confidence: np.ndarray) -> np.ndarray:
    """sigmoid(logit(c)/T) of each confidence c, NaN where c is NaN; strictly
    monotone in c, so rank order survives."""
    usable = ~np.isnan(confidence)
    out = np.full(len(confidence), np.nan)
    out[usable] = optim.sigmoid(_logits(confidence[usable]) / model.temperature)
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


def ats_features(table: dict, confidence: np.ndarray) -> np.ndarray:
    """Raw (unstandardized) features, one row each, of the rows of a
    prediction table whose confidence is not NaN in `confidence` (one entry
    per row): response length in tokens (`rewards.token_counts`), answer
    length in characters of `rewards.answers`, and reasoning depth, the
    nonempty lines before the answer line. A fit and an apply put each
    row's confidence logit before them."""
    texts = table["response_text"]
    rows = np.flatnonzero(~np.isnan(confidence)).tolist()
    features = [(float(count), float(len(answer or "")), float(reasoning_depth(texts[i])))
                for i, count, answer in zip(rows, token_counts(table, rows), answers(table, rows))]
    return np.reshape(features, (-1, 3))


def fit_ats(features: np.ndarray, batch: ScoredBatch, l2: float = DEFAULT_ATS_L2) -> AtsModel:
    """Fit adaptive temperature scaling of the rows of a prediction table,
    whose scores are `batch` and whose `ats_features` are `features`, with
    `optim.minimize` (Newton-CG) over features standardized on the fit set
    (`optim.standardize`).

    The fit starts from w = 0 and the bias that makes the initial temperature
    exactly 1 (the identity mapping); the line search never lets the
    objective rise above that start. `fit_nll` is the unpenalized NLL at the
    result, computed as for global scaling.
    """
    _, logits, outcomes = _fit_rows(batch)
    phi, means, stds = optim.standardize(np.column_stack([logits, features]))

    def nll(u):
        s = optim.sigmoid(u)  # dT/du
        t = _softplus(u) + ATS_TEMPERATURE_FLOOR
        z = logits / t
        p = optim.sigmoid(z)
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
    return replace(model, fit_nll=_bernoulli_nll(optim.sigmoid(logits / t), outcomes))


def _temperatures(model: AtsModel, phi: np.ndarray) -> np.ndarray:
    """The temperature softplus(phi @ w + b) + floor of each standardized
    feature row of `phi`, by row (`optim.linear`)."""
    return _softplus(optim.linear(phi, model.weights, model.bias)) + ATS_TEMPERATURE_FLOOR


def apply_ats(model: AtsModel, table: dict, confidence: np.ndarray) -> np.ndarray:
    """sigmoid(logit(c)/T) of each row's confidence c, T being the row's own
    temperature, NaN where c is NaN; `confidence` is
    `rewards.confidences(table)[0]`."""
    usable = ~np.isnan(confidence)
    logits = _logits(confidence[usable])
    phi = ((np.column_stack([logits, ats_features(table, confidence)]) - model.feature_means)
           / model.feature_stds)
    out = np.full(len(confidence), np.nan)
    out[usable] = optim.sigmoid(logits / _temperatures(model, phi))
    return out
