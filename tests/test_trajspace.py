import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncal import cli, jsonio, trajspace as ts
from uncal.errors import (
    DegenerateRatio,
    HypothesisViolated,
    InvalidStep,
    NumericOverflow,
)


def two_space(conf1=0.5, conf2=0.5, p1=0.5, answers=("A", "B"), gold="A"):
    return ts.TrajectorySpace(
        (
            ts.Trajectory("z1", answers[0], conf1, p1, answers[0] == gold),
            ts.Trajectory("z2", answers[1], conf2, 1.0 - p1, answers[1] == gold),
        ),
        gold,
    )


# The frozen margin-flip fixture: the wrong answer dominates the confidence-
# weighted score before tilting (margin -0.29) and loses it after one tilt at
# eta = 2 (margin ~ +0.777).
MARGIN_FLIP_SPACE = ts.TrajectorySpace(
    (
        ts.Trajectory("z1", "A", 0.9, 0.3, True),
        ts.Trajectory("z2", "B", 0.8, 0.7, False),
    ),
    "A",
)
MARGIN_FLIP_ETA = 2.0


class TestSpaceValidation:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            ts.TrajectorySpace(
                (
                    ts.Trajectory("z", "A", 0.5, 0.5, True),
                    ts.Trajectory("z", "B", 0.5, 0.5, False),
                ),
                "A",
            )

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            ts.TrajectorySpace(
                (
                    ts.Trajectory("z1", "A", 0.5, 0.6, True),
                    ts.Trajectory("z2", "B", 0.5, 0.6, False),
                ),
                "A",
            )

    def test_inconsistent_correct_flag_rejected(self):
        with pytest.raises(ValueError):
            ts.TrajectorySpace(
                (ts.Trajectory("z1", "A", 0.5, 1.0, False),), "A"
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ts.TrajectorySpace((), "A")

    def test_confidence_range_enforced(self):
        line = {"gold_answer": "A",
                "trajectories": [{"id": "z", "answer": "A", "confidence": 1.2, "base_prob": 1.0}]}
        _, errors, _ = jsonio.read_lines([json.dumps(line)], jsonio.SPACES)
        assert errors == [(1, "trajectories[0]: confidence outside [0,1]")]


class TestReward:
    def test_correct_returns_plus_confidence(self):
        traj = ts.Trajectory("z", "A", 0.9, 1.0, True)
        assert ts.reward(traj) == 0.9

    def test_zero_confidence_boundary(self):
        traj = ts.Trajectory("z", "A", 0.0, 1.0, False)
        assert ts.reward(traj) == 0.0
        assert math.copysign(1.0, ts.reward(traj)) == 1.0  # not -0.0

    def test_wrong_returns_minus_confidence(self):
        traj = ts.Trajectory("z", "A", 0.7, 1.0, False)
        assert ts.reward(traj) == -0.7


class TestTilt:
    def test_constant_reward_is_identity(self):
        space = two_space(conf1=0.6, conf2=0.6, answers=("A", "A"))
        out = ts.tilt(space, 1.7)
        np.testing.assert_allclose(out.probs(), space.probs(), atol=1e-12)

    def test_vanishing_eta_is_identity(self):
        space = two_space(conf1=0.9, conf2=0.2)
        out = ts.tilt(space, 1e-300)
        np.testing.assert_allclose(out.probs(), space.probs(), atol=1e-12)

    def test_two_trajectory_hand_value(self):
        # rewards +1 and -1
        space = two_space(conf1=1.0, conf2=1.0)
        out = ts.tilt(space, math.log(2.0))
        np.testing.assert_allclose(out.probs(), [0.8, 0.2], atol=1e-12)

    def test_nonpositive_eta_rejected(self):
        for eta in (0.0, float("nan")):
            with pytest.raises(InvalidStep):
                ts.tilt(two_space(), eta)

    def test_overflow_guard(self):
        # eta * reward: 800 and 0
        with pytest.raises(NumericOverflow):
            ts.tilt(two_space(conf1=1.0, conf2=0.0), 800.0)

    def test_spread_guard(self):
        # eta * reward: 400 and -400, each representable, the spread not
        with pytest.raises(NumericOverflow):
            ts.tilt(two_space(conf1=1.0, conf2=1.0), 400.0)

    def test_large_but_safe_rewards_stay_finite(self):
        # eta * reward: 690 and 345
        space = two_space(conf1=1.0, conf2=0.5, answers=("A", "A"))
        out = ts.tilt(space, 690.0)
        assert np.all(np.isfinite(out.probs()))
        assert abs(math.fsum(out.probs()) - 1.0) <= 1e-12

    def test_metadata_untouched(self):
        space = two_space(conf1=0.9, conf2=0.2)
        out = ts.tilt(space, 1.0)
        assert out.gold_answer == space.gold_answer
        for before, after in zip(space.trajectories, out.trajectories):
            assert (before.id, before.answer, before.confidence, before.correct) == (
                after.id, after.answer, after.confidence, after.correct
            )


def log_odds_change(space, eta, i, j):
    """Measured change of log(p_i / p_j) under one tilt at eta."""
    before, after = space.probs(), ts.tilt(space, eta).probs()
    return math.log(after[i] / after[j]) - math.log(before[i] / before[j])


class TestLogOddsDelta:
    def test_equal_rewards_give_zero(self):
        space = two_space(conf1=0.4, conf2=0.4, answers=("B", "C"))
        assert log_odds_change(space, 2.0, 0, 1) == 0.0

    def test_hand_value_and_tilt_crosscheck(self):
        # rewards +1 and -1: eta * (r1 - r2) = 1
        space = two_space(conf1=1.0, conf2=1.0)
        assert abs(log_odds_change(space, 0.5, 0, 1) - 1.0) < 1e-10

    def test_overconfident_wrong_pair_is_negative(self):
        space = two_space(conf1=0.9, conf2=0.1, answers=("B", "C"), gold="A")
        assert abs(log_odds_change(space, 1.0, 0, 1) - (-0.8)) < 1e-12


class TestAnswerMass:
    def test_single_answer_sums_to_one(self):
        space = two_space(answers=("A", "A"))
        assert ts.answer_mass(space, "A") == pytest.approx(1.0, abs=1e-15)

    def test_absent_answer_is_zero(self):
        assert ts.answer_mass(two_space(), "Z") == 0.0

    def test_hand_sum(self):
        space = ts.TrajectorySpace(
            (
                ts.Trajectory("z1", "A", 0.5, 0.3, True),
                ts.Trajectory("z2", "B", 0.5, 0.5, False),
                ts.Trajectory("z3", "A", 0.5, 0.2, True),
            ),
            "A",
        )
        assert ts.answer_mass(space, "A") == pytest.approx(0.5, abs=1e-15)


class TestMassRatioBound:
    def test_hypothesis_gate(self):
        # zero confidence on both sides: a = b = 0
        space = two_space(conf1=0.0, conf2=0.0)
        with pytest.raises(HypothesisViolated):
            ts.verify_mass_ratio_bound(space, 1.0, "A", "B")

    def test_hypothesis_gate_with_the_wrong_answer_favoured(self):
        space = two_space(conf1=0.5, conf2=0.7)
        with pytest.raises(HypothesisViolated):
            ts.verify_mass_ratio_bound(space, 1.0, "B", "A")

    def test_two_trajectory_saturation(self):
        space = two_space(conf1=0.8, conf2=0.6)
        check = ts.verify_mass_ratio_bound(space, 1.0, "A", "B")
        assert check.a == 0.8 and check.b == -0.6
        assert check.rhs == pytest.approx(math.exp(1.4), rel=1e-12)
        assert abs(check.lhs - check.rhs) < 1e-10
        assert check.holds and check.support_preserved

    def test_zero_competing_mass(self):
        space = two_space(answers=("A", "A"))
        with pytest.raises(DegenerateRatio):
            ts.verify_mass_ratio_bound(space, 1.0, "A", "B")

    def test_zero_probability_competitor_is_degenerate(self):
        space = two_space(p1=1.0)
        with pytest.raises(DegenerateRatio):
            ts.verify_mass_ratio_bound(space, 1.0, "A", "B")

    def test_random_spaces_with_separated_rewards(self):
        # the gold answer's rewards are >= 0 and a competitor's <= 0
        rng = np.random.default_rng(11)
        done = 0
        while done < 10:
            space = ts.random_space(rng)
            answers = {t.answer for t in space.trajectories}
            if len(answers) < 2:
                continue
            competing = sorted(answers - {space.gold_answer})[0]
            check = ts.verify_mass_ratio_bound(space, 0.9, space.gold_answer, competing)
            assert check.a > 0.0 > check.b
            assert check.holds and check.support_preserved
            done += 1


class TestConfidenceWeightedScore:
    def test_unit_confidence_collapses_to_mass(self):
        space = two_space(conf1=1.0, conf2=1.0)
        assert ts.confidence_weighted_score(space, "A") == pytest.approx(
            ts.answer_mass(space, "A"), abs=1e-15
        )

    def test_absent_answer_is_zero(self):
        assert ts.confidence_weighted_score(two_space(), "Z") == 0.0

    def test_hand_value(self):
        space = ts.TrajectorySpace(
            (
                ts.Trajectory("z1", "A", 0.5, 0.4, True),
                ts.Trajectory("z2", "A", 1.0, 0.1, True),
                ts.Trajectory("z3", "B", 0.0, 0.5, False),
            ),
            "A",
        )
        assert ts.confidence_weighted_score(space, "A") == pytest.approx(0.3, abs=1e-15)


class TestAnswerMargin:
    def test_no_competitor_returns_gold_score(self):
        space = two_space(conf1=0.6, conf2=0.2, answers=("A", "A"))
        assert ts.answer_margin(space) == pytest.approx(
            ts.confidence_weighted_score(space, "A"), abs=1e-15
        )

    def test_symmetric_tie_is_zero(self):
        space = two_space(conf1=0.5, conf2=0.5)
        assert ts.answer_margin(space) == pytest.approx(0.0, abs=1e-15)

    def test_margin_flip_fixture(self):
        pre = ts.answer_margin(MARGIN_FLIP_SPACE)
        assert pre <= 0.0
        assert pre == pytest.approx(0.3 * 0.9 - 0.7 * 0.8, abs=1e-15)
        tilted = ts.tilt(MARGIN_FLIP_SPACE, MARGIN_FLIP_ETA)
        post = ts.answer_margin(tilted)
        assert post > 0.0
        # independent arithmetic: weights 0.3 e^{1.8} and 0.7 e^{-1.6}
        w1 = 0.3 * math.exp(1.8)
        w2 = 0.7 * math.exp(-1.6)
        expected = (w1 * 0.9 - w2 * 0.8) / (w1 + w2)
        assert post == pytest.approx(expected, abs=1e-12)


class TestVerbalSpecializedBound:
    """With the signed-confidence reward the envelope is a = alpha and
    b = -beta (alpha, beta the lowest confidence on each side), so the bound
    factor is exp(eta * (alpha + beta))."""

    def test_zero_floors_degenerate_to_nondecrease(self):
        space = ts.TrajectorySpace(
            (
                ts.Trajectory("z1", "A", 0.0, 0.3, True),
                ts.Trajectory("z2", "A", 0.8, 0.1, True),
                ts.Trajectory("z3", "B", 0.0, 0.6, False),
            ),
            "A",
        )
        # alpha = beta = 0 guarantees no amplification, so the check refuses
        with pytest.raises(HypothesisViolated):
            ts.verify_mass_ratio_bound(space, 1.0, "A", "B")
        # but the ratio still does not decrease
        tilted = ts.tilt(space, 1.0)
        assert ts.answer_mass(tilted, "A") / ts.answer_mass(tilted, "B") >= 0.4 / 0.6

    def test_two_trajectory_equality(self):
        space = two_space(conf1=0.8, conf2=0.6)
        check = ts.verify_mass_ratio_bound(space, 1.0, "A", "B")
        assert abs(check.lhs - check.rhs) < 1e-10

    def test_random_spaces_hold(self):
        rng = np.random.default_rng(12)
        done = 0
        while done < 10:
            space = ts.random_space(rng)
            answers = {t.answer for t in space.trajectories}
            if len(answers) < 2:
                continue
            competing = sorted(answers - {space.gold_answer})[0]
            check = ts.verify_mass_ratio_bound(space, 1.3, space.gold_answer, competing)
            alpha = min(t.confidence for t in space.trajectories
                        if t.answer == space.gold_answer)
            beta = min(t.confidence for t in space.trajectories if t.answer == competing)
            assert (check.a, check.b) == (alpha, -beta)
            assert check.holds and check.support_preserved
            done += 1


class TestIterateTilt:
    def test_single_step_equals_tilt(self):
        space = two_space(conf1=0.9, conf2=0.3)
        steps = ts.iterate_tilt(space, 0.8, 1)
        assert len(steps) == 1 and steps[0].step == 1
        np.testing.assert_allclose(
            steps[0].space.probs(), ts.tilt(space, 0.8).probs(), atol=0
        )

    def test_constant_reward_fixed_point(self):
        space = two_space(conf1=1.0, conf2=1.0, answers=("A", "A"))
        for step in ts.iterate_tilt(space, 1.0, 4):
            np.testing.assert_allclose(step.space.probs(), space.probs(), atol=1e-12)

    def test_k_steps_compose(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            space = ts.random_space(rng)
            k, eta = 4, 0.35
            stepped = ts.iterate_tilt(space, eta, k)[-1].space
            direct = ts.tilt(space, k * eta)
            np.testing.assert_allclose(stepped.probs(), direct.probs(), atol=1e-10)

    def test_summary_fields(self):
        steps = ts.iterate_tilt(MARGIN_FLIP_SPACE, 1.0, 2)
        for step in steps:
            assert 0.0 <= step.summary.gold_mass <= 1.0
            assert step.summary.mean_wrong_confidence == pytest.approx(0.8, abs=1e-12)

    def test_invalid_steps(self):
        with pytest.raises(InvalidStep):
            ts.iterate_tilt(two_space(), 1.0, 0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), eta=st.floats(0.05, 3.0))
def test_tilt_invariants_random(seed, eta):
    rng = np.random.default_rng(seed)
    space = ts.random_space(rng)
    out = ts.tilt(space, eta)
    # normalization
    assert abs(math.fsum(out.probs()) - 1.0) <= 1e-12
    # support preservation
    for before, after in zip(space.trajectories, out.trajectories):
        assert (before.base_prob > 0) == (after.base_prob > 0)
    # log-odds law, all pairs
    logp_before = np.log(space.probs())
    logp_after = np.log(out.probs())
    r = ts.space_rewards(space)
    measured = (logp_after[:, None] - logp_after[None, :]) - (
        logp_before[:, None] - logp_before[None, :]
    )
    expected = eta * (r[:, None] - r[None, :])
    assert np.max(np.abs(measured - expected)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_compression_ordering_random(seed):
    rng = np.random.default_rng(seed)
    space = ts.random_space(rng)
    out = ts.tilt(space, 1.0)
    ratios = out.probs() / space.probs()
    wrong = [(t.confidence, ratios[i]) for i, t in enumerate(space.trajectories) if not t.correct]
    for c1, r1 in wrong:
        for c2, r2 in wrong:
            if c1 > c2:
                assert r1 < r2
    right = [(t.confidence, ratios[i]) for i, t in enumerate(space.trajectories) if t.correct]
    for c1, r1 in right:
        for c2, r2 in right:
            if c1 > c2:
                assert r1 > r2


def test_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    space = ts.random_space(rng)
    path = tmp_path / "spaces.jsonl"
    path.write_text(jsonio.encode(jsonio.SPACE, asdict(space)) + "\n")
    [again] = cli._load_spaces(path)
    assert again.gold_answer == space.gold_answer
    np.testing.assert_allclose(again.probs(), space.probs(), atol=0)
    assert [t.id for t in again.trajectories] == [t.id for t in space.trajectories]
    assert all(
        a.correct == b.correct for a, b in zip(again.trajectories, space.trajectories)
    )
