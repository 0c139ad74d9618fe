import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from uncal import reprgeo
from uncal.errors import ShapeError, UndefinedSimilarity
from uncal.reprgeo import TokenType

from oracles import (
    oracle_embedding_drift_report,
    oracle_kl,
    oracle_frobenius_drift,
    oracle_linear_cka,
    oracle_pca,
    oracle_pca_project,
)


def kl(p, q, epsilon=reprgeo.KL_EPSILON) -> float:
    """`reprgeo.kl_rows` of the one pair (p, q)."""
    return float(reprgeo.kl_rows(np.array([p], dtype=float), np.array([q], dtype=float),
                                 epsilon)[0])


class TestKl:
    def test_identical_distributions(self):
        p = np.array([0.2, 0.3, 0.5])
        assert kl(p, p) == 0.0

    def test_hand_value(self):
        assert kl([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_zero_reference_smoothed_finite(self):
        value = kl([0.5, 0.5], [1.0, 0.0], epsilon=1e-9)
        assert np.isfinite(value) and value > 5.0

    def test_nonnegative_on_random_pairs(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 30))
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(n))
            assert kl(p, q) >= 0.0


# below numpy's 8-way unrolled sum, at it, within one pairwise block, and above it
_KL_LENGTHS = st.sampled_from([1, 2, 5, 7, 8, 9, 16, 64, 127, 128, 129, 200, 300])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), _KL_LENGTHS, st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0]), st.sampled_from([1e-9, 1e-3, 0.5]))
def test_kl_rows_equal_the_per_pair_kl(pairs, length, seed, zeros, epsilon):
    # a row whose base probabilities are all > 0 sums the terms the former
    # code summed, in its order; where some are 0, the row also sums their 0
    # terms, which regroups numpy's pairwise sum: there the difference stays
    # within the error bound of summing the terms in any order, twice over
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.full(length, 0.3), size=pairs)
    q = rng.dirichlet(np.full(length, 0.3), size=pairs)
    p[rng.random(p.shape) < zeros / 2] = 0.0
    q[rng.random(q.shape) < zeros / 2] = 0.0
    got = reprgeo.kl_rows(p, q, epsilon)
    for row, value in zip(range(pairs), got.tolist()):
        want = oracle_kl(p[row], q[row], epsilon)
        if (p[row] > 0).all():
            assert value == want
        else:
            mask = p[row] > 0
            terms = p[row][mask] * (np.log(p[row][mask])
                                    - np.log(np.maximum(q[row][mask], epsilon)))
            bound = 2 * length * np.finfo(float).eps * float(np.abs(terms).sum())
            assert abs(value - want) <= bound


def _pairs(*rows):
    """The KL pair columns of (position, base probs, calibrated probs) rows."""
    return {"position": [row[0] for row in rows], "base_probs": [row[1] for row in rows],
            "calibrated_probs": [row[2] for row in rows]}


def _annotations(*types):
    """The annotation columns of positions 0, 1, ... of these types."""
    return {"position": list(range(len(types))), "type": list(types)}


class TestKlByType:
    def test_uniform_kl_gives_count_share(self):
        pairs = _pairs(*[(i, [1.0, 0.0], [0.5, 0.5]) for i in range(4)])
        annotations = _annotations(TokenType.CONFIDENCE_DIGIT, TokenType.REASONING_TOKEN,
                                   TokenType.REASONING_TOKEN, TokenType.REASONING_TOKEN)
        table = reprgeo.kl_by_type(pairs, annotations)
        assert table[TokenType.CONFIDENCE_DIGIT]["mass_fraction"] == pytest.approx(0.25)
        assert table[TokenType.REASONING_TOKEN]["mass_fraction"] == pytest.approx(0.75)

    def test_single_hot_type_takes_all_mass(self):
        pairs = _pairs((0, [1.0, 0.0], [0.5, 0.5]), (1, [0.5, 0.5], [0.5, 0.5]))
        annotations = _annotations(TokenType.CONFIDENCE_DIGIT, TokenType.OTHER)
        table = reprgeo.kl_by_type(pairs, annotations)
        assert table[TokenType.CONFIDENCE_DIGIT]["mass_fraction"] == pytest.approx(1.0)
        assert table[TokenType.OTHER]["mass_fraction"] == pytest.approx(0.0)

    def test_five_position_hand_fixture(self):
        # kl values: ln2 at positions 0,1 (digit), ln2 at 2 (uncertainty),
        # 0 at 3,4 (reasoning)
        pairs = _pairs(
            (0, [1, 0], [0.5, 0.5]),
            (1, [1, 0], [0.5, 0.5]),
            (2, [1, 0], [0.5, 0.5]),
            (3, [0.5, 0.5], [0.5, 0.5]),
            (4, [0.5, 0.5], [0.5, 0.5]),
        )
        annotations = _annotations(
            TokenType.CONFIDENCE_DIGIT,
            TokenType.CONFIDENCE_DIGIT,
            TokenType.UNCERTAINTY_TOKEN,
            TokenType.REASONING_TOKEN,
            TokenType.REASONING_TOKEN,
        )
        table = reprgeo.kl_by_type(pairs, annotations)
        assert table[TokenType.CONFIDENCE_DIGIT]["mass_fraction"] == pytest.approx(2 / 3)
        assert table[TokenType.UNCERTAINTY_TOKEN]["mass_fraction"] == pytest.approx(1 / 3)
        assert table[TokenType.CONFIDENCE_DIGIT]["mean_kl"] == pytest.approx(math.log(2.0))
        assert TokenType.NEARBY_CONTEXT not in table

    def test_fractions_sum_to_one(self, rng):
        types = list(TokenType)
        pairs = _pairs(*[(i, rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(5)))
                         for i in range(24)])
        annotations = _annotations(*[types[i % len(types)] for i in range(24)])
        table = reprgeo.kl_by_type(pairs, annotations)
        total = sum(row["mass_fraction"] for row in table.values())
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_missing_annotation_rejected(self):
        pairs = _pairs((0, [1, 0], [0.5, 0.5]))
        with pytest.raises(ValueError, match="position 0 has no annotation"):
            reprgeo.kl_by_type(pairs, _annotations())


def test_kl_by_type_equals_the_per_pair_values_over_blocks_of_mixed_lengths(rng):
    # two and a half blocks, each holding pairs of several lengths in turn
    count = 2 * reprgeo.BLOCK_ROWS + reprgeo.BLOCK_ROWS // 2
    lengths = rng.choice([1, 3, 8, 40, 129], size=count)
    base = [rng.dirichlet(np.ones(n)).tolist() for n in lengths]
    calibrated = [rng.dirichlet(np.ones(n)).tolist() for n in lengths]
    types = list(TokenType)
    annotations = {"position": list(range(count))[::-1],
                   "type": [types[i % 5] for i in range(count)][::-1]}
    table = reprgeo.kl_by_type({"position": list(range(count)), "base_probs": base,
                                "calibrated_probs": calibrated}, annotations, 1e-6)
    values = [oracle_kl(p, q, 1e-6) for p, q in zip(base, calibrated)]
    groups = {token_type: values[i::5] for i, token_type in enumerate(types[:5])}
    total = math.fsum(values)
    assert table == {token_type: {"count": len(group), "mean_kl": math.fsum(group) / len(group),
                                  "mass_fraction": math.fsum(group) / total}
                     for token_type, group in groups.items()}


class TestLinearCka:
    def test_self_similarity(self, rng):
        x = rng.normal(size=(30, 6))
        assert reprgeo.linear_cka(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_and_scale_invariance(self, rng):
        x = rng.normal(size=(40, 8))
        for _ in range(5):
            q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
            s = float(rng.uniform(0.1, 10.0))
            assert reprgeo.linear_cka(x, s * x @ q) == pytest.approx(1.0, abs=1e-8)

    def test_independent_matrices_score_low(self):
        rng = np.random.default_rng(12345)
        x = rng.normal(size=(100, 10))
        y = rng.normal(size=(100, 10))
        assert reprgeo.linear_cka(x, y) < 0.3

    def test_symmetry(self, rng):
        x = rng.normal(size=(25, 5))
        y = rng.normal(size=(25, 7))
        assert reprgeo.linear_cka(x, y) == pytest.approx(
            reprgeo.linear_cka(y, x), abs=1e-10
        )

    def test_zero_variance_rejected(self):
        with pytest.raises(UndefinedSimilarity):
            reprgeo.linear_cka(np.ones((10, 3)), np.random.default_rng(0).normal(size=(10, 3)))

    def test_row_mismatch_rejected(self, rng):
        with pytest.raises(ShapeError):
            reprgeo.linear_cka(rng.normal(size=(10, 3)), rng.normal(size=(11, 3)))


class TestPca:
    def test_rank_one_line(self, rng):
        direction = np.array([1.0, 2.0, -1.0])
        t = rng.normal(size=(50, 1))
        x = t * direction
        result = reprgeo.pca_project(x, 1)
        assert result.explained_variance_ratio[0] == pytest.approx(1.0, abs=1e-8)

    def test_isotropic_ratios(self):
        rng = np.random.default_rng(777)
        x = rng.normal(size=(5000, 10))
        result = reprgeo.pca_project(x, 10)
        np.testing.assert_allclose(result.explained_variance_ratio, 0.1, rtol=0.2)

    def test_hand_fixture_closed_form(self):
        # four points: variance 8/3 along axis 0, 2/3 along axis 1
        x = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        result = reprgeo.pca_project(x, 2)
        np.testing.assert_allclose(
            result.explained_variance_ratio, [0.8, 0.2], atol=1e-10
        )
        np.testing.assert_allclose(np.abs(result.components[0]), [1.0, 0.0], atol=1e-8)
        # sign convention: dominant entry is positive
        assert result.components[0][0] > 0 and result.components[1][1] > 0

    def test_ratios_non_increasing_and_bounded(self, rng):
        x = rng.normal(size=(60, 7)) @ np.diag([3, 2.5, 2, 1.5, 1, 0.5, 0.1])
        result = reprgeo.pca_project(x, 5)
        ratios = result.explained_variance_ratio
        assert all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))
        assert ratios.sum() <= 1.0 + 1e-9

    def test_projection_shape_and_determinism(self, rng):
        x = rng.normal(size=(30, 5))
        first = reprgeo.pca_project(x, 3)
        second = reprgeo.pca_project(x, 3)
        assert first.projection.shape == (30, 3)
        np.testing.assert_array_equal(first.projection, second.projection)

    @staticmethod
    def assert_matches_oracle(x, k):
        result = reprgeo.pca_project(x, k)
        ratios, projection = oracle_pca(x, k)
        np.testing.assert_allclose(result.explained_variance_ratio, ratios, rtol=0, atol=1e-12)
        for got, want in zip(result.projection.T, projection.T):
            sign = 1.0 if got @ want >= 0.0 else -1.0
            np.testing.assert_allclose(got, sign * want, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("rows, dims, k", [(40, 6, 3), (200, 30, 5), (12, 12, 11)])
    def test_matches_svd_oracle(self, rng, rows, dims, k):
        x = rng.normal(size=(rows, dims)) @ rng.normal(size=(dims, dims)) + 3.0
        self.assert_matches_oracle(x, k)

    def test_near_degenerate_pair_matches_svd_oracle(self, rng):
        # eigenvalue ratio 0.996 between PC3 and PC2: a power iteration needs
        # thousands of steps to separate them, an eigendecomposition none
        rows, dims = 400, 8
        noise = rng.normal(size=(rows, dims))
        basis, _ = np.linalg.qr(noise - noise.mean(axis=0))  # orthonormal, centred
        rotation, _ = np.linalg.qr(rng.normal(size=(dims, dims)))
        singular = np.array([10.0, 5.0, 5.0 * 0.998, 3.0, 2.0, 1.5, 1.0, 0.5])
        x = basis @ np.diag(singular) @ rotation.T + rng.normal(size=dims)
        ratios, _ = oracle_pca(x, 3)
        assert ratios[2] / ratios[1] == pytest.approx(0.998**2, abs=1e-12)
        self.assert_matches_oracle(x, 3)

    def test_dimension_guards(self, rng):
        x = rng.normal(size=(5, 3))
        with pytest.raises(ShapeError):
            reprgeo.pca_project(x, 4)
        with pytest.raises(ShapeError):
            reprgeo.pca_project(rng.normal(size=(3, 5)), 3)

    def test_zero_variance_rejected(self):
        with pytest.raises(UndefinedSimilarity):
            reprgeo.pca_project(np.ones((6, 2)), 1)


class TestDrift:
    def test_identical_is_zero(self, rng):
        w = rng.normal(size=(4, 4))
        assert reprgeo.frobenius_drift(w, w) == 0.0

    def test_doubling_is_one(self, rng):
        w = rng.normal(size=(4, 4))
        assert reprgeo.frobenius_drift(w, 2.0 * w) == pytest.approx(1.0, abs=1e-12)

    def test_hand_fixture(self):
        base = np.eye(2)
        cal = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert reprgeo.frobenius_drift(base, cal) == pytest.approx(1.0 / math.sqrt(2.0))

    def test_zero_base_rejected(self):
        with pytest.raises(UndefinedSimilarity):
            reprgeo.frobenius_drift(np.zeros((2, 2)), np.eye(2))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            reprgeo.frobenius_drift(np.eye(2), np.eye(3))


class TestEmbeddingDrift:
    def test_no_drift_ratio_absent(self):
        w = np.eye(4)
        report = reprgeo.embedding_drift_report([0, 1], [2, 3], w, w.copy())
        assert report["ratio"] is None

    def test_interest_only_drift_is_infinite(self):
        base = np.eye(4)
        cal = base.copy()
        cal[0, 0] = 2.0
        report = reprgeo.embedding_drift_report([0], [2, 3], base, cal)
        assert report["ratio"] == math.inf

    def test_planted_ratio(self):
        base = np.ones((4, 2))
        cal = base.copy()
        cal[0] += (0.6, 0.8)  # drift 1.0 / sqrt(2) on the interest row
        cal[2] += (0.3, 0.4)  # drift 0.5 / sqrt(2) on the baseline row
        report = reprgeo.embedding_drift_report([0], [2], base, cal)
        assert report["ratio"] == pytest.approx(2.0, abs=1e-10)

    def test_overlapping_sets_rejected(self):
        with pytest.raises(ValueError):
            reprgeo.embedding_drift_report([0, 1], [1, 2], np.eye(3), np.eye(3))


# The matrix functions read their rows a block at a time instead of as whole
# float64 copies. Where the rows fit in one block, every value they compute
# must still equal, bit for bit, the former code's in `oracles.py`, whatever
# the inputs' dtype and whether rows exceed dims; over several blocks only the
# order of the sums changes.


def _outcome(function, *args):
    """What a call returns, or the type and message of the error it raises."""
    try:
        return function(*args)
    except (ShapeError, UndefinedSimilarity, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def _matrix_pairs(draw, min_rows=1):
    rows = draw(st.integers(min_rows, 12))
    dims = draw(st.integers(1, 12))

    def matrix():
        dtype = draw(st.sampled_from([np.float32, np.float64]))
        width = 32 if dtype is np.float32 else 64
        return draw(hnp.arrays(dtype, (rows, dims), elements=st.floats(-1e3, 1e3, width=width)))

    return matrix(), matrix()


@settings(max_examples=300, deadline=None)
@given(_matrix_pairs())
def test_frobenius_drift_equals_the_former_code(pair):
    assert _outcome(reprgeo.frobenius_drift, *pair) == _outcome(oracle_frobenius_drift, *pair)


@settings(max_examples=300, deadline=None)
@given(_matrix_pairs(min_rows=2), st.data())
def test_embedding_drift_report_equals_the_former_code(pair, data):
    order = data.draw(st.permutations(range(pair[0].shape[0])))
    cut = data.draw(st.integers(1, len(order) - 1))
    args = (order[:cut], order[cut:], *pair)
    assert (_outcome(reprgeo.embedding_drift_report, *args)
            == _outcome(oracle_embedding_drift_report, *args))


@settings(max_examples=300, deadline=None)
@given(_matrix_pairs(), st.data())
def test_pca_project_equals_the_former_code(pair, data):
    x = pair[0]
    k = data.draw(st.integers(1, x.shape[1]))
    new = _outcome(reprgeo.pca_project, x, k)
    old = _outcome(oracle_pca_project, x, k)
    if isinstance(old, tuple):
        assert new == old
    else:
        for field in ("projection", "explained_variance_ratio", "components"):
            assert getattr(new, field).tobytes() == getattr(old, field).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_linear_cka_equals_the_former_code(data):
    x, y = data.draw(_matrix_pairs())
    y = y[:, :data.draw(st.integers(1, y.shape[1]))]  # the two may differ in dims
    if data.draw(st.booleans()):
        y = y[:-1]  # or in rows
    assert _outcome(reprgeo.linear_cka, x, y) == _outcome(oracle_linear_cka, x, y)


def _random_matrix(rng, rows, dims, dtype):
    """A matrix of a few scales and offsets, so that centring matters."""
    return (rng.normal(size=(rows, dims)) * rng.uniform(0.1, 10.0, size=dims)
            + rng.normal(size=dims)).astype(dtype)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, reprgeo.BLOCK_ROWS), st.integers(1, 300), st.integers(1, 300),
       st.sampled_from([np.float32, np.float64]), st.integers(0, 2**32 - 1))
def test_one_block_computes_the_former_bits(rows, dims_x, dims_y, dtype, seed):
    rng = np.random.default_rng(seed)
    x = _random_matrix(rng, rows, dims_x, dtype)
    y = _random_matrix(rng, rows, dims_y, dtype)
    assert reprgeo.linear_cka(x, y) == oracle_linear_cka(x, y)
    cal = (x + 0.1 * rng.normal(size=x.shape)).astype(dtype)
    assert reprgeo.frobenius_drift(x, cal) == oracle_frobenius_drift(x, cal)
    k = min(dims_x, rows - 1, 4)
    new, old = reprgeo.pca_project(x, k), oracle_pca_project(x, k)
    for field in ("projection", "explained_variance_ratio", "components"):
        assert getattr(new, field).tobytes() == getattr(old, field).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_several_blocks_with_a_ragged_tail_agree_with_the_former_code(rng, dtype):
    rows = int(2.5 * reprgeo.BLOCK_ROWS) + 3  # two whole blocks and a part
    x = _random_matrix(rng, rows, 24, dtype)
    y = (x[:, :16] @ rng.normal(size=(16, 20)) + rng.normal(size=(rows, 20))).astype(dtype)
    assert reprgeo.linear_cka(x, y) == pytest.approx(oracle_linear_cka(x, y), rel=1e-12, abs=0)
    cal = (x + 0.1 * rng.normal(size=x.shape)).astype(dtype)
    assert reprgeo.frobenius_drift(x, cal) == pytest.approx(oracle_frobenius_drift(x, cal),
                                                             rel=1e-12, abs=0)
    new, old = reprgeo.pca_project(x, 3), oracle_pca_project(x, 3)
    np.testing.assert_allclose(new.explained_variance_ratio, old.explained_variance_ratio,
                               rtol=1e-12, atol=0)
    for got, want in zip(new.projection.T, old.projection.T):
        sign = 1.0 if got @ want >= 0.0 else -1.0
        np.testing.assert_allclose(got, sign * want, rtol=0, atol=1e-9)
