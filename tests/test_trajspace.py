import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncal import cli, jsonio, trajspace as ts
from uncal.cli import main
from uncal.errors import NumericOverflow

from conftest import load, random_space
from oracles import (
    OracleOverflow,
    oracle_iterate_tilt,
    oracle_space_rewards,
    oracle_summarize,
    oracle_tilt,
    oracle_verify,
    space_from_line,
)

DATA = Path(__file__).parent / "data"


def traj(id, answer, confidence, base_prob):
    return {"id": id, "answer": answer, "confidence": confidence, "base_prob": base_prob}


def two_space(conf1=0.5, conf2=0.5, p1=0.5, answers=("A", "B"), gold="A"):
    """A two-trajectory space line; with the default answers its batch keeps
    the trajectories in this order."""
    return {"gold_answer": gold, "trajectories": [traj("z1", answers[0], conf1, p1),
                                                  traj("z2", answers[1], conf2, 1.0 - p1)]}


def batch(*lines) -> ts.SpaceBatch:
    return ts.space_batch(load(jsonio.SPACES, lines))


def probs(b: ts.SpaceBatch, space: int = 0) -> np.ndarray:
    """The probabilities of one space of a batch, in batch order."""
    start = int(b.starts[space])
    return b.base_prob[start:start + int(b.sizes[space])]


def batch_order(line: dict) -> list[int]:
    """The trajectory indices of a space line in the order its batch holds
    them: the gold answer's first, then each competing answer's, by answer."""
    gold, trajectories = line["gold_answer"], line["trajectories"]
    return sorted(range(len(trajectories)),
                  key=lambda j: (trajectories[j]["answer"] != gold, trajectories[j]["answer"]))


# The frozen margin-flip fixture: the wrong answer dominates the confidence-
# weighted score before tilting (margin -0.29) and loses it after one tilt at
# eta = 2 (margin ~ +0.777).
MARGIN_FLIP_SPACE = two_space(conf1=0.9, conf2=0.8, p1=0.3)
MARGIN_FLIP_ETA = 2.0


class TestSpaceValidation:
    def _errors(self, line):
        return jsonio.read_lines([json.dumps(line)], jsonio.SPACES)[1]

    def test_duplicate_ids_rejected(self):
        line = {"gold_answer": "A", "trajectories": [traj("z", "A", 0.5, 0.5),
                                                     traj("z", "B", 0.5, 0.5)]}
        assert self._errors(line) == [(1, "trajectory ids must be unique")]

    def test_unnormalized_rejected(self):
        line = {"gold_answer": "A", "trajectories": [traj("z1", "A", 0.5, 0.6),
                                                     traj("z2", "B", 0.5, 0.6)]}
        assert self._errors(line) == [(1, "base probabilities must sum to 1, got 1.2")]

    def test_empty_rejected(self):
        line = {"gold_answer": "A", "trajectories": []}
        assert self._errors(line) == [(1, "a trajectory space needs at least one trajectory")]

    def test_confidence_range_enforced(self):
        line = {"gold_answer": "A", "trajectories": [traj("z", "A", 1.2, 1.0)]}
        assert self._errors(line) == [(1, "trajectories[0]: confidence outside [0,1]")]


class TestBatchLayout:
    def test_groups_gold_first_then_by_answer(self):
        line = {"gold_answer": "B", "trajectories": [
            traj("z1", "C", 0.1, 0.1), traj("z2", "B", 0.2, 0.2), traj("z3", "A", 0.3, 0.3),
            traj("z4", "C", 0.4, 0.4)]}
        b = batch(two_space(), line)
        assert b.starts.tolist() == [0, 2] and b.sizes.tolist() == [2, 4]
        assert b.gold_answer == ["A", "B"]
        assert b.group_answer == ["A", "B", "B", "A", "C"]
        assert b.groups == [0, 1, 2, 3, 4, 6] and b.first_group == [0, 2, 5]
        assert probs(b, 1).tolist() == [0.2, 0.3, 0.1, 0.4]
        assert b.reward.tolist() == [0.5, -0.5, 0.2, -0.3, -0.1, -0.4]

    def test_missing_gold_answer_is_an_empty_group(self):
        b = batch(two_space(gold="C"))
        assert b.group_answer == ["C", "A", "B"] and b.groups == [0, 0, 1, 2]

    def test_empty_batch(self):
        b = batch()
        assert ts.tilt(b, 1.0).base_prob.size == 0
        assert ts.verify_bounds(b, 1.0) == [] and ts.iterate_tilt(b, 1.0, 2) == []


class TestReward:
    def test_correct_returns_plus_confidence(self):
        assert batch(two_space(conf1=0.9, p1=1.0)).reward[0] == 0.9

    def test_zero_confidence_boundary(self):
        reward = batch(two_space(conf1=0.0, conf2=0.0)).reward
        assert reward.tolist() == [0.0, 0.0]
        assert math.copysign(1.0, reward[1]) == 1.0  # not -0.0

    def test_wrong_returns_minus_confidence(self):
        assert batch(two_space(conf2=0.7)).reward[1] == -0.7


class TestTilt:
    def test_constant_reward_is_identity(self):
        b = batch(two_space(conf1=0.6, conf2=0.6, answers=("A", "A")))
        np.testing.assert_allclose(ts.tilt(b, 1.7).base_prob, b.base_prob, atol=1e-12)

    def test_vanishing_eta_is_identity(self):
        b = batch(two_space(conf1=0.9, conf2=0.2))
        np.testing.assert_allclose(ts.tilt(b, 1e-300).base_prob, b.base_prob, atol=1e-12)

    def test_two_trajectory_hand_value(self):
        # rewards +1 and -1
        b = batch(two_space(conf1=1.0, conf2=1.0))
        np.testing.assert_allclose(ts.tilt(b, math.log(2.0)).base_prob, [0.8, 0.2], atol=1e-12)

    def test_overflow_guard(self):
        # eta * reward: 800 and 0
        with pytest.raises(NumericOverflow, match=r"^space 0: \|eta \* reward\| exceeds 700.0"):
            ts.tilt(batch(two_space(conf1=1.0, conf2=0.0)), 800.0)

    def test_spread_guard(self):
        # eta * reward: 400 and -400, each representable, the spread not
        with pytest.raises(NumericOverflow,
                           match="^space 0: eta \\* reward spread exceeds 700.0; support"):
            ts.tilt(batch(two_space(conf1=1.0, conf2=1.0)), 400.0)

    def test_only_checked_spaces_lose_support(self):
        # eta * reward: 690 and 0, a spread under the limit, in one answer's
        # space, which verify does not tilt (no competitor); the base
        # probability 1e-300 tilts to 1e-300 * exp(-690), which rounds to 0
        space = {"gold_answer": "A", "trajectories": [traj("a", "A", 1.0, 1.0),
                                                      traj("b", "A", 0.0, 1e-300)]}
        assert ts.verify_bounds(batch(space), 690.0) == [{"status": "no_competitor"}]
        with pytest.raises(NumericOverflow, match="^space 0: a positive probability tilts to "
                                                  "0; support would be lost$"):
            ts.tilt(batch(space), 690.0)
        assert ts.tilt(batch(space), 20.0).base_prob[1] > 0.0  # 1e-300 * exp(-20)

    def test_overflow_names_the_first_offending_space(self):
        # eta * reward: space 0 400 and 400, space 1 400 and -320 (the spread
        # exceeds), space 2 800 and 800
        b = batch(two_space(conf1=0.5, conf2=0.5, answers=("A", "A")),
                  two_space(conf1=0.5, conf2=0.4),
                  two_space(conf1=1.0, conf2=1.0, answers=("A", "A")))
        with pytest.raises(NumericOverflow, match="^space 1: eta \\* reward spread"):
            ts.tilt(b, 800.0)
        with pytest.raises(NumericOverflow, match=r"^space 2: \|eta \* reward\|"):
            ts.tilt(b, 800.0, np.array([True, False, True]))
        ts.tilt(b, 800.0, np.array([True, False, False]))

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_underflow_names_the_first_space_that_loses_support(self, position):
        # eta * reward: 340 and -340, a spread under the limit, but the base
        # probability 1e-300 tilts to 1e-300 * exp(-680), which rounds to 0;
        # the other spaces tilt 0.5 and 0.5 by 170 and -170
        lines = [two_space() for _ in range(3)]
        lines[position] = {"gold_answer": "A", "trajectories": [traj("a", "A", 1.0, 1.0),
                                                                traj("b", "B", 1.0, 1e-300)]}
        with pytest.raises(NumericOverflow, match=f"^space {position}: a positive probability "
                                                  "tilts to 0; support would be lost$"):
            ts.tilt(batch(*lines), 340.0)
        with pytest.raises(NumericOverflow, match=f"^space {position}: "):
            ts.verify_bounds(batch(*lines), 340.0)
        unchecked = np.arange(3) != position
        assert np.all(ts.tilt(batch(*lines), 340.0, unchecked).base_prob[unchecked.repeat(2)] > 0)

    def test_large_but_safe_rewards_stay_finite(self):
        # eta * reward: 690 and 345
        out = ts.tilt(batch(two_space(conf1=1.0, conf2=0.5, answers=("A", "A"))), 690.0)
        assert np.all(np.isfinite(out.base_prob))
        assert abs(math.fsum(out.base_prob.tolist()) - 1.0) <= 1e-12

    def test_only_probabilities_change(self):
        b = batch(two_space(conf1=0.9, conf2=0.2), two_space(gold="B"))
        out = ts.tilt(b, 1.0)
        for field in dataclasses.fields(ts.SpaceBatch):
            if field.name != "base_prob":
                assert getattr(out, field.name) is getattr(b, field.name)
        assert not np.array_equal(out.base_prob, b.base_prob)


def log_odds_change(line, eta, i, j):
    """Measured change of log(p_i / p_j) under one tilt at eta."""
    b = batch(line)
    before, after = b.base_prob, ts.tilt(b, eta).base_prob
    return math.log(after[i] / after[j]) - math.log(before[i] / before[j])


class TestLogOddsDelta:
    def test_equal_rewards_give_zero(self):
        line = two_space(conf1=0.4, conf2=0.4, answers=("B", "C"))
        assert log_odds_change(line, 2.0, 0, 1) == 0.0

    def test_hand_value_and_tilt_crosscheck(self):
        # rewards +1 and -1: eta * (r1 - r2) = 1
        assert abs(log_odds_change(two_space(conf1=1.0, conf2=1.0), 0.5, 0, 1) - 1.0) < 1e-10

    def test_overconfident_wrong_pair_is_negative(self):
        line = two_space(conf1=0.9, conf2=0.1, answers=("B", "C"), gold="A")
        assert abs(log_odds_change(line, 1.0, 0, 1) - (-0.8)) < 1e-12


class TestGoldMass:
    def test_single_answer_sums_to_one(self):
        [summary] = ts.summarize(batch(two_space(answers=("A", "A"))))
        assert summary["gold_mass"] == pytest.approx(1.0, abs=1e-15)

    def test_absent_answer_is_zero(self):
        assert ts.summarize(batch(two_space(gold="Z")))[0]["gold_mass"] == 0.0

    def test_hand_sum(self):
        line = {"gold_answer": "A", "trajectories": [
            traj("z1", "A", 0.5, 0.3), traj("z2", "B", 0.5, 0.5), traj("z3", "A", 0.5, 0.2)]}
        assert ts.summarize(batch(line))[0]["gold_mass"] == pytest.approx(0.5, abs=1e-15)


class TestMassRatioBound:
    def test_hypothesis_gate(self):
        # zero confidence on both sides: a = b = 0
        [check] = ts.verify_bounds(batch(two_space(conf1=0.0, conf2=0.0)), 1.0)
        assert check == {"competing": "B", "status": "hypothesis_violated"}

    def test_two_trajectory_saturation(self):
        [check] = ts.verify_bounds(batch(two_space(conf1=0.8, conf2=0.6)), 1.0)
        assert check["a"] == 0.8 and check["b"] == -0.6
        assert check["rhs"] == pytest.approx(math.exp(1.4), rel=1e-12)
        assert abs(check["lhs"] - check["rhs"]) < 1e-10
        assert check["holds"] is True and check["support_preserved"] is True

    def test_no_competitor(self):
        assert ts.verify_bounds(batch(two_space(answers=("A", "A"))), 1.0) == [
            {"status": "no_competitor"}]

    def test_zero_probability_competitor_is_degenerate(self):
        assert ts.verify_bounds(batch(two_space(p1=1.0)), 1.0) == [
            {"competing": "B", "status": "degenerate_ratio"}]

    def test_missing_gold_answer_is_degenerate(self):
        assert ts.verify_bounds(batch(two_space(gold="C")), 1.0) == [
            {"competing": "A", "status": "degenerate_ratio"}]

    def test_competitor_is_the_heaviest_then_the_lesser_answer(self):
        heavy = {"gold_answer": "A", "trajectories": [
            traj("z1", "A", 0.5, 0.2), traj("z2", "B", 0.5, 0.3), traj("z3", "C", 0.5, 0.5)]}
        tied = {"gold_answer": "A", "trajectories": [
            traj("z1", "A", 0.5, 0.2), traj("z2", "C", 0.5, 0.4), traj("z3", "B", 0.5, 0.4)]}
        assert [c["competing"] for c in ts.verify_bounds(batch(heavy, tied), 1.0)] == ["C", "B"]

    def test_only_ok_spaces_are_tilted(self):
        # eta 800 overflows every space, but neither of these is tilted
        b = batch(two_space(conf1=1.0, conf2=1.0, answers=("A", "A")), two_space(p1=1.0))
        assert [c["status"] for c in ts.verify_bounds(b, 800.0)] == [
            "no_competitor", "degenerate_ratio"]
        with pytest.raises(NumericOverflow, match="^space 1: "):
            ts.verify_bounds(batch(two_space(p1=1.0), two_space(conf1=1.0)), 800.0)

    def test_random_spaces_with_separated_rewards(self):
        # the gold answer's rewards are >= 0 and a competitor's <= 0
        rng = np.random.default_rng(11)
        checks = ts.verify_bounds(batch(*(random_space(rng) for _ in range(40))), 0.9)
        ok = [c for c in checks if c["status"] == "ok"]
        assert len(ok) >= 10
        for check in ok:
            assert check["a"] > 0.0 > check["b"]
            assert check["holds"] and check["support_preserved"]


class TestAnswerMargin:
    def test_no_competitor_returns_gold_score(self):
        [summary] = ts.summarize(batch(two_space(conf1=0.6, conf2=0.2, answers=("A", "A"))))
        assert summary["margin"] == pytest.approx(0.5 * 0.6 + 0.5 * 0.2, abs=1e-15)

    def test_unit_confidence_collapses_to_mass(self):
        [summary] = ts.summarize(batch(two_space(conf1=1.0, conf2=1.0, p1=0.7)))
        assert summary["margin"] == pytest.approx(0.7 - 0.3, abs=1e-15)

    def test_symmetric_tie_is_zero(self):
        [summary] = ts.summarize(batch(two_space(conf1=0.5, conf2=0.5)))
        assert summary["margin"] == pytest.approx(0.0, abs=1e-15)

    def test_best_competitor_counts(self):
        line = {"gold_answer": "A", "trajectories": [
            traj("z1", "A", 0.5, 0.4), traj("z2", "A", 1.0, 0.1), traj("z3", "B", 0.0, 0.3),
            traj("z4", "C", 0.5, 0.2)]}
        [summary] = ts.summarize(batch(line))
        assert summary["margin"] == pytest.approx(0.3 - 0.1, abs=1e-15)

    def test_margin_flip_fixture(self):
        b = batch(MARGIN_FLIP_SPACE)
        pre = ts.summarize(b)[0]["margin"]
        assert pre <= 0.0
        assert pre == pytest.approx(0.3 * 0.9 - 0.7 * 0.8, abs=1e-15)
        post = ts.summarize(ts.tilt(b, MARGIN_FLIP_ETA))[0]["margin"]
        assert post > 0.0
        # independent arithmetic: weights 0.3 e^{1.8} and 0.7 e^{-1.6}
        w1 = 0.3 * math.exp(1.8)
        w2 = 0.7 * math.exp(-1.6)
        assert post == pytest.approx((w1 * 0.9 - w2 * 0.8) / (w1 + w2), abs=1e-12)


class TestVerbalSpecializedBound:
    """With the signed-confidence reward the envelope is a = alpha and
    b = -beta (alpha, beta the lowest confidence on each side), so the bound
    factor is exp(eta * (alpha + beta))."""

    def test_zero_floors_degenerate_to_nondecrease(self):
        line = {"gold_answer": "A", "trajectories": [
            traj("z1", "A", 0.0, 0.3), traj("z2", "A", 0.8, 0.1), traj("z3", "B", 0.0, 0.6)]}
        b = batch(line)
        # alpha = beta = 0 guarantees no amplification, so the check refuses
        assert ts.verify_bounds(b, 1.0)[0]["status"] == "hypothesis_violated"
        # but the ratio still does not decrease
        gold_mass = ts.summarize(ts.tilt(b, 1.0))[0]["gold_mass"]
        assert gold_mass / (1.0 - gold_mass) >= 0.4 / 0.6

    def test_two_trajectory_equality(self):
        [check] = ts.verify_bounds(batch(two_space(conf1=0.8, conf2=0.6)), 1.0)
        assert abs(check["lhs"] - check["rhs"]) < 1e-10

    def test_random_spaces_hold(self):
        rng = np.random.default_rng(12)
        lines = [random_space(rng) for _ in range(40)]
        checks = ts.verify_bounds(batch(*lines), 1.3)
        done = 0
        for line, check in zip(lines, checks):
            if check["status"] != "ok":
                continue
            alpha = min(t["confidence"] for t in line["trajectories"]
                        if t["answer"] == line["gold_answer"])
            beta = min(t["confidence"] for t in line["trajectories"]
                       if t["answer"] == check["competing"])
            assert (check["a"], check["b"]) == (alpha, -beta)
            assert check["holds"] and check["support_preserved"]
            done += 1
        assert done >= 10


class TestIterateTilt:
    def test_single_step_equals_tilt(self):
        b = batch(two_space(conf1=0.9, conf2=0.3))
        assert ts.iterate_tilt(b, 0.8, 1) == [[{"step": 1, **ts.summarize(ts.tilt(b, 0.8))[0]}]]

    def test_constant_reward_fixed_point(self):
        b = batch(two_space(conf1=1.0, conf2=1.0, answers=("A", "A")))
        for step in ts.iterate_tilt(b, 1.0, 4)[0]:
            assert step["gold_mass"] == pytest.approx(1.0, abs=1e-12)
            assert step["margin"] == pytest.approx(1.0, abs=1e-12)
            assert step["mean_wrong_confidence"] is None

    def test_k_steps_compose(self):
        rng = np.random.default_rng(5)
        b = batch(*(random_space(rng) for _ in range(5)))
        k, eta = 4, 0.35
        stepped = b
        for _ in range(k):
            stepped = ts.tilt(stepped, eta)
        np.testing.assert_allclose(stepped.base_prob, ts.tilt(b, k * eta).base_prob, atol=1e-10)

    def test_summary_fields(self):
        [steps] = ts.iterate_tilt(batch(MARGIN_FLIP_SPACE), 1.0, 2)
        assert [step["step"] for step in steps] == [1, 2]
        for step in steps:
            assert 0.0 <= step["gold_mass"] <= 1.0
            assert step["mean_wrong_confidence"] == pytest.approx(0.8, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), eta=st.floats(0.05, 3.0))
def test_tilt_invariants_random(seed, eta):
    rng = np.random.default_rng(seed)
    b = batch(*(random_space(rng) for _ in range(3)))
    out = ts.tilt(b, eta)
    for space in range(3):
        p0, p1 = probs(b, space), probs(out, space)
        start = int(b.starts[space])
        r = b.reward[start:start + len(p0)]
        # normalization and support preservation
        assert abs(math.fsum(p1.tolist()) - 1.0) <= 1e-12
        assert np.array_equal(p0 > 0, p1 > 0)
        # log-odds law, all pairs
        measured = np.subtract.outer(np.log(p1), np.log(p1)) - np.subtract.outer(np.log(p0),
                                                                                 np.log(p0))
        assert np.max(np.abs(measured - eta * np.subtract.outer(r, r))) < 1e-10


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_compression_ordering_random(seed):
    b = batch(random_space(np.random.default_rng(seed)))
    ratios = ts.tilt(b, 1.0).base_prob / b.base_prob
    correct = np.arange(len(ratios)) < b.groups[1]  # the gold group comes first
    for side, sign in ((~correct, -1.0), (correct, 1.0)):
        conf, ratio = b.confidence[side], ratios[side]
        for i in range(len(conf)):
            for j in range(len(conf)):
                if conf[i] > conf[j]:
                    assert sign * (ratio[i] - ratio[j]) > 0.0


# ---------------------------------------------------------------------------
# The batch against the per-space oracle, bit for bit
# ---------------------------------------------------------------------------


@st.composite
def space_lines(draw):
    """A space line with 1..20 trajectories: zero base probabilities,
    confidences of 0 and 1, repeated answers, and a gold answer that may be
    every trajectory's or none's."""
    n = draw(st.integers(1, 20))
    weights = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n).filter(any))
    total = sum(weights)
    confidences = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                                min_size=n, max_size=n))
    answers = draw(st.lists(st.sampled_from("ABC"), min_size=n, max_size=n))
    gold = draw(st.sampled_from("ABCD"))
    return {"gold_answer": gold,
            "trajectories": [traj(f"t{j}", answers[j], confidences[j], weights[j] / total)
                             for j in range(n)]}


def _oracle_probs(line: dict, eta: float) -> list[float]:
    tilted = oracle_tilt(space_from_line(line), eta).probs()
    return [float(tilted[j]) for j in batch_order(line)]


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(space_lines(), min_size=1, max_size=40), eta=st.floats(0.05, 3.0),
       steps=st.integers(1, 4))
def test_batch_matches_the_per_space_oracle(lines, eta, steps):
    b = batch(*lines)
    spaces = [space_from_line(line) for line in lines]
    assert b.reward.tolist() == [r for line, space in zip(lines, spaces)
                                 for r in oracle_space_rewards(space)[batch_order(line)].tolist()]
    tilted = ts.tilt(b, eta)
    assert [probs(tilted, i).tolist() for i in range(len(lines))] == [
        _oracle_probs(line, eta) for line in lines]
    assert ts.summarize(b) == [oracle_summarize(space) for space in spaces]
    assert ts.iterate_tilt(b, eta, steps) == [oracle_iterate_tilt(space, eta, steps)
                                              for space in spaces]
    assert ts.verify_bounds(b, eta) == [oracle_verify(space, eta) for space in spaces]


@pytest.mark.parametrize("eta", [400.0, 800.0])
def test_overflow_matches_the_per_space_oracle(eta):
    rng = np.random.default_rng(9)
    lines = [random_space(rng) for _ in range(12)]
    expected = None
    for index, line in enumerate(lines):
        try:
            oracle_tilt(space_from_line(line), eta)
        except OracleOverflow as exc:
            expected = f"space {index}: {exc}"
            break
    assert expected is not None
    with pytest.raises(NumericOverflow) as caught:
        ts.tilt(batch(*lines), eta)
    assert str(caught.value) == expected


def _theory_lines(tmp_path, lines, command):
    path = tmp_path / "spaces.jsonl"
    path.write_text("".join(jsonio.encode(jsonio.SPACE, line) + "\n" for line in lines))
    out = tmp_path / "out.jsonl"
    assert main(["theory", *command, "--in", str(path), "--out", str(out)]) == 0
    return [json.loads(text) for text in out.read_text().splitlines()]


@pytest.mark.parametrize("command", [["verify", "--eta", "1.3"],
                                     ["iterate", "--eta", "0.7", "--steps", "3"]])
def test_a_space_does_not_depend_on_its_neighbours(tmp_path, command):
    rng = np.random.default_rng(4)
    space, before, after = (random_space(rng) for _ in range(3))
    before["trajectories"][0]["base_prob"] += before["trajectories"][1]["base_prob"]
    before["trajectories"][1]["base_prob"] = 0.0
    [alone] = _theory_lines(tmp_path, [space], command)
    _, between, _ = _theory_lines(tmp_path, [before, space, after], command)
    assert (alone.pop("index"), between.pop("index")) == (0, 1)
    assert jsonio.dumps_canonical(alone) == jsonio.dumps_canonical(between)


def test_tilt_allocates_no_padding():
    # one space of 10^5 trajectories next to 10^4 of two: a padded layout
    # would hold 10^9 entries
    big = 100_000
    table = {"gold_answer": ["A"] * 10_001,
             "trajectories": [[traj(f"t{j}", "AB"[j % 2], 0.5, 1.0 / big) for j in range(big)]]
                             + [[traj("z1", "A", 0.9, 0.5), traj("z2", "B", 0.2, 0.5)]] * 10_000}
    b = ts.space_batch(table)
    columns = b.base_prob.nbytes + b.confidence.nbytes + b.reward.nbytes
    tracemalloc.start()
    try:
        ts.tilt(b, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * columns, (peak, columns)


def test_space_file_round_trip(tmp_path):
    line = random_space(np.random.default_rng(3))
    path = tmp_path / "spaces.jsonl"
    path.write_text(jsonio.encode(jsonio.SPACE, line) + "\n")
    b = cli._space_batch(path)
    assert b.gold_answer == [line["gold_answer"]]
    order = batch_order(line)
    assert b.base_prob.tolist() == [line["trajectories"][j]["base_prob"] for j in order]
    assert b.confidence.tolist() == [line["trajectories"][j]["confidence"] for j in order]


# ---------------------------------------------------------------------------
# Golden outputs: the CLI's bytes on a fixed space file, as the per-space
# implementation wrote them
# ---------------------------------------------------------------------------


def golden_spaces() -> list[dict]:
    """44 seeded random spaces with, between their halves, a zero-probability
    trajectory on each side, a space with no competitor, a competitor with
    no mass, zero confidence on both sides, no gold trajectory, and a lone
    trajectory."""
    rng = np.random.default_rng(20261019)
    spaces = [random_space(rng) for _ in range(44)]
    hand = [("A", [traj("z1", "A", 0.7, 0.6), traj("z2", "B", 0.3, 0.4),
                   traj("z3", "B", 0.9, 0.0), traj("z4", "A", 0.5, 0.0)]),
            ("A", [traj("z1", "A", 0.2, 0.25), traj("z2", "A", 0.9, 0.75)]),
            ("A", [traj("z1", "A", 0.8, 1.0), traj("z2", "B", 0.6, 0.0)]),
            ("A", [traj("z1", "A", 0.0, 0.5), traj("z2", "B", 0.0, 0.5)]),
            ("C", [traj("z1", "A", 0.4, 0.5), traj("z2", "B", 0.6, 0.5)]),
            ("B", [traj("z1", "B", 1.0, 1.0)])]
    hand = [{"gold_answer": gold, "trajectories": trajectories} for gold, trajectories in hand]
    return spaces[:22] + hand + spaces[22:]


@pytest.mark.parametrize("command", [("verify", "--eta", "1.0"),
                                     ("iterate", "--eta", "0.5", "--steps", "10")])
def test_golden_theory_output(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    Path("spaces.jsonl").write_text(
        "".join(jsonio.encode(jsonio.SPACE, line) + "\n" for line in golden_spaces()))
    assert main(["theory", *command, "--in", "spaces.jsonl", "--out", "out.jsonl"]) == 0
    golden = DATA / f"golden_theory_{command[0]}.jsonl"
    assert Path("out.jsonl").read_bytes() == golden.read_bytes()
