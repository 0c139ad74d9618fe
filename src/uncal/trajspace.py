"""Exact exponential-tilting simulator over finite trajectory distributions.

A TrajectorySpace is a finite distribution over reasoning trajectories for a
single input, each trajectory carrying a final answer, a stated confidence,
and a base probability. Tilting reweights the distribution by
exp(eta * reward) and renormalizes. The reward is the one calibration
training optimizes, the signed verbal confidence: +confidence for a correct
trajectory, -confidence for a wrong one. Every derived quantity here (log-odds
shifts, answer masses, mass-ratio bounds, confidence-weighted margins) can be
computed exactly on these finite spaces, which is what makes brute-force
verification possible.

All operations are pure: they never mutate their inputs and return fresh
spaces, so concurrent use over distinct spaces is safe. `jsonio.TRAJECTORY`
checks each trajectory's confidence and base probability on load, and
`space_refusal` the invariants across a space's trajectories: the
`jsonio.SPACES` rule on load, and `TrajectorySpace` at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateRatio, HypothesisViolated, InvalidStep, NumericOverflow

# exp() overflows float64 a little above 709; linear exposure of the tilted
# probabilities additionally requires the reward spread to stay representable.
_EXP_LIMIT = 700.0

_PROB_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Trajectory:
    """One reasoning trajectory: answer, stated confidence, base probability,
    each in [0,1] as `jsonio.TRAJECTORY` reads them."""

    id: str
    answer: str
    confidence: float
    base_prob: float
    correct: bool


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
class TrajectorySpace:
    """A normalized finite distribution over trajectories for one input.

    Invariants enforced at construction: those of `space_refusal`, and each
    trajectory's `correct` flag agrees with `answer == gold_answer`.
    """

    trajectories: tuple[Trajectory, ...]
    gold_answer: str

    def __post_init__(self):
        object.__setattr__(self, "trajectories", tuple(self.trajectories))
        refusal = space_refusal([t.id for t in self.trajectories],
                                [t.base_prob for t in self.trajectories])
        if refusal is not None:
            raise ValueError(refusal)
        for t in self.trajectories:
            if t.correct != (t.answer == self.gold_answer):
                raise ValueError(
                    f"trajectory {t.id}: correct flag disagrees with gold answer"
                )

    def __len__(self) -> int:
        return len(self.trajectories)

    def probs(self) -> np.ndarray:
        return np.array([t.base_prob for t in self.trajectories], dtype=float)

    def with_probs(self, probs: Sequence[float]) -> "TrajectorySpace":
        """Copy of this space with replaced base probabilities."""
        if len(probs) != len(self.trajectories):
            raise ValueError("probability vector length mismatch")
        new = tuple(
            Trajectory(t.id, t.answer, t.confidence, float(p), t.correct)
            for t, p in zip(self.trajectories, probs)
        )
        return TrajectorySpace(new, self.gold_answer)


def reward(traj: Trajectory) -> float:
    """The signed verbal confidence: +confidence if correct, -confidence if not."""
    value = traj.confidence if traj.correct else -traj.confidence
    return value + 0.0  # canonicalize -0.0


def space_rewards(space: TrajectorySpace) -> np.ndarray:
    return np.array([reward(t) for t in space.trajectories], dtype=float)


def tilt(space: TrajectorySpace, eta: float) -> TrajectorySpace:
    """Reweight the space by exp(eta * reward) and renormalize.

    Computed in log space so that large eta * reward values do not overflow
    before normalization; the output is exposed as linear probabilities and
    preserves the support of the input exactly (zero stays zero, positive
    stays positive).
    """
    if not eta > 0.0:  # NaN too
        raise InvalidStep(f"eta must be strictly positive, got {eta}")
    r = space_rewards(space)
    scaled = eta * r
    if np.max(np.abs(scaled)) > _EXP_LIMIT:
        raise NumericOverflow(
            f"|eta * reward| exceeds {_EXP_LIMIT}; tilted weights not representable"
        )
    if np.max(scaled) - np.min(scaled) > _EXP_LIMIT:
        # a spread beyond exp(700) would silently underflow small survivors
        # to zero, violating support preservation
        raise NumericOverflow(
            f"eta * reward spread exceeds {_EXP_LIMIT}; support would be lost"
        )
    p = space.probs()
    positive = p > 0.0
    logw = np.full_like(p, -np.inf)
    logw[positive] = np.log(p[positive]) + scaled[positive]
    peak = np.max(logw[positive])
    lse = peak + math.log(math.fsum(np.exp(logw[positive] - peak)))
    out = np.zeros_like(p)
    out[positive] = np.exp(logw[positive] - lse)
    out /= math.fsum(out)
    return space.with_probs(out)


def answer_mass(space: TrajectorySpace, answer: str) -> float:
    """Total probability of trajectories producing the given answer."""
    return math.fsum(t.base_prob for t in space.trajectories if t.answer == answer)


@dataclass(frozen=True)
class BoundCheck:
    """Result of a mass-ratio bound verification.

    lhs is the post-tilt mass ratio M'(favored)/M'(competing); rhs is the
    guaranteed floor exp(eta*(a-b)) times the pre-tilt ratio. `holds` uses an
    absolute slack of 1e-10. `support_preserved` records that the set of
    positive-probability trajectories is unchanged by the tilt.
    """

    a: float
    b: float
    lhs: float
    rhs: float
    holds: bool
    support_preserved: bool


def verify_mass_ratio_bound(
    space: TrajectorySpace,
    eta: float,
    correct: str,
    competing: str,
) -> BoundCheck:
    """Check that tilting amplifies M(correct)/M(competing) by >= exp(eta*(a-b)).

    a is the minimum reward among (positive-probability) trajectories that
    produce `correct`; b is the maximum among those producing `competing`.
    For the gold answer against a wrong one, a is the lowest gold confidence
    and b minus the lowest competing confidence, so a > b fails only when
    both are 0. The bound applies only when a > b; otherwise
    HypothesisViolated is raised.
    """
    correct_rewards = [
        reward(t)
        for t in space.trajectories
        if t.answer == correct and t.base_prob > 0.0
    ]
    competing_rewards = [
        reward(t)
        for t in space.trajectories
        if t.answer == competing and t.base_prob > 0.0
    ]
    if not correct_rewards or not competing_rewards:
        raise DegenerateRatio("both answers need positive mass for a ratio bound")
    a, b = min(correct_rewards), max(competing_rewards)
    if a <= b:
        raise HypothesisViolated(
            f"need min correct reward > max competing reward, got a={a} <= b={b}"
        )
    m_correct = answer_mass(space, correct)
    m_competing = answer_mass(space, competing)
    tilted = tilt(space, eta)
    lhs = answer_mass(tilted, correct) / answer_mass(tilted, competing)
    rhs = math.exp(eta * (a - b)) * m_correct / m_competing
    support_before = {t.id for t in space.trajectories if t.base_prob > 0.0}
    support_after = {t.id for t in tilted.trajectories if t.base_prob > 0.0}
    return BoundCheck(
        a=a,
        b=b,
        lhs=lhs,
        rhs=rhs,
        holds=lhs >= rhs - 1e-10,
        support_preserved=support_before == support_after,
    )


def confidence_weighted_score(space: TrajectorySpace, answer: str) -> float:
    """Sum of base_prob * confidence over trajectories with the given answer."""
    return math.fsum(
        t.base_prob * t.confidence for t in space.trajectories if t.answer == answer
    )


def answer_margin(space: TrajectorySpace) -> float:
    """Confidence-weighted score of the gold answer minus the best competitor.

    If no competing answer exists the margin is the gold score itself.
    """
    gold_score = confidence_weighted_score(space, space.gold_answer)
    competitors = {t.answer for t in space.trajectories} - {space.gold_answer}
    if not competitors:
        return gold_score
    best = max(confidence_weighted_score(space, y) for y in competitors)
    return gold_score - best


@dataclass(frozen=True)
class TiltStepSummary:
    gold_mass: float
    margin: float
    mean_wrong_confidence: float | None


@dataclass(frozen=True)
class TiltStep:
    step: int
    space: TrajectorySpace
    summary: TiltStepSummary


def summarize(space: TrajectorySpace) -> TiltStepSummary:
    wrong_mass = math.fsum(t.base_prob for t in space.trajectories if not t.correct)
    if wrong_mass > 0.0:
        mean_wrong = (
            math.fsum(
                t.base_prob * t.confidence for t in space.trajectories if not t.correct
            )
            / wrong_mass
        )
    else:
        mean_wrong = None
    return TiltStepSummary(
        gold_mass=answer_mass(space, space.gold_answer),
        margin=answer_margin(space),
        mean_wrong_confidence=mean_wrong,
    )


def iterate_tilt(space: TrajectorySpace, eta: float, steps: int) -> list[TiltStep]:
    """Apply `tilt` repeatedly, recording a summary after every step.

    Because exponential tilts compose additively in eta, k steps at eta equal
    one step at k*eta; the per-step trace exists to expose the trajectory of
    the gold-answer mass and margin.
    """
    if steps < 1:
        raise InvalidStep(f"steps must be >= 1, got {steps}")
    out = []
    current = space
    for k in range(1, steps + 1):
        current = tilt(current, eta)
        out.append(TiltStep(step=k, space=current, summary=summarize(current)))
    return out


# ---------------------------------------------------------------------------
# The random-space generator used by the verification sweeps
# ---------------------------------------------------------------------------


_ALPHABET = ("A", "B", "C")


def random_space(rng: np.random.Generator, max_trajectories: int = 20) -> TrajectorySpace:
    """Small random space: 2..max trajectories, Dirichlet(1) probabilities,
    uniform confidences, answers over a 3-symbol alphabet, gold drawn from the
    answers actually present."""
    n = int(rng.integers(2, max_trajectories + 1))
    probs = rng.dirichlet(np.ones(n))
    answers = [str(rng.choice(_ALPHABET)) for _ in range(n)]
    gold = str(rng.choice(sorted(set(answers))))
    trajs = tuple(
        Trajectory(
            id=f"t{i}",
            answer=answers[i],
            confidence=float(rng.uniform(0.0, 1.0)),
            base_prob=float(probs[i]),
            correct=answers[i] == gold,
        )
        for i in range(n)
    )
    # fsum of the Dirichlet draw can sit a hair off 1.0; renormalize exactly
    total = math.fsum(t.base_prob for t in trajs)
    trajs = tuple(
        Trajectory(t.id, t.answer, t.confidence, t.base_prob / total, t.correct)
        for t in trajs
    )
    return TrajectorySpace(trajs, gold)

