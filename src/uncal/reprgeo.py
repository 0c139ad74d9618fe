"""Representation and distribution analytics over recorded matrices.

Covers token-level KL divergence (optionally grouped by token type), linear
centered kernel alignment between representation matrices, exact PCA from
one symmetric eigendecomposition of the covariance, and relative Frobenius
drift between weight matrices. Nothing here draws random numbers. Each
matrix function computes in float64 but reads its inputs, which may stay
float32, `BLOCK_ROWS` rows at a time into one reused float64 buffer per
input, centred by column means taken first; beside the buffers it keeps only
a `dims x dims` sum or a scalar. A matrix whose `dims x dims` sums would
outweigh the float64 copy they save (fewer than `BLOCK_ROWS + dims` rows)
is read as one block, which computes the bits the whole-matrix formulas
give. The embedding drift report converts only the rows it names.
Matrices come from `matio.read_matrix`, so they are 2-D.
KL pairs and their annotations come as the column tables `jsonio.KL_PAIRS`
and `jsonio.KL_ANNOTATIONS` load: every probability lies in [0,1], and the
two distributions of a pair have equal lengths and each sum to 1 within 1e-6.
The KL values of a block of pairs are computed as one 2-D expression per
length (`paired_rows`, `kl_rows`), a pair per row and one row sum each, as
the `jsonio.KL_PAIRS` load rule sums a block's distributions; beside the
loaded lists, they hold one block's arrays.
The KL floor (`--epsilon`, in (0,1)) and the PCA `--k` (>= 1) come checked
from the `cli` parser; nothing here checks a value its loader or parser
has refused already.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .errors import ShapeError, UndefinedSimilarity

KL_EPSILON = 1e-9

# rows converted to float64 together; bounds what a matrix function holds beside its inputs
BLOCK_ROWS = 1024


class TokenType(enum.Enum):
    CONFIDENCE_DIGIT = "ConfidenceDigit"
    STRUCTURAL_LABEL = "StructuralLabel"
    REASONING_TOKEN = "ReasoningToken"
    UNCERTAINTY_TOKEN = "UncertaintyToken"
    NEARBY_CONTEXT = "NearbyContext"
    OTHER = "Other"


def paired_rows(first: Sequence[list], second: Sequence[list]):
    """(indices, a, b) for each pair of lengths of the list pairs
    (first[i], second[i]), in order of first appearance: the indices of the
    pairs of those lengths, and their firsts and their seconds as two float64
    arrays of a pair per row."""
    by_lengths: dict[tuple[int, int], list[int]] = {}
    for i, (a, b) in enumerate(zip(first, second)):
        by_lengths.setdefault((len(a), len(b)), []).append(i)
    for rows in by_lengths.values():
        yield (rows, np.array([first[i] for i in rows], dtype=float),
               np.array([second[i] for i in rows], dtype=float))


def kl_rows(p: np.ndarray, q: np.ndarray, epsilon: float = KL_EPSILON) -> np.ndarray:
    """KL(p_i || q_i) of each row pair of two (pairs x length) arrays, with
    the reference floored at epsilon so missing support stays finite;
    0 * log 0 counts as 0 and tiny negative round-off clips to 0.

    A pair's terms are summed along its row, as `np.sum` sums one vector:
    where every p > 0 the value is the bits of `np.sum` of that pair's
    terms. Where some p are 0, the row sums their 0 terms with the others,
    which regroups numpy's pairwise sum, so the last bits may differ from a
    sum of the other terms alone."""
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0, then 0 * -inf
        terms = p * (np.log(p) - np.log(np.maximum(q, epsilon)))
    terms[p == 0.0] = 0.0
    return np.maximum(terms.sum(axis=1), 0.0)


def kl_by_type(
    pairs: dict[str, list],
    annotations: dict[str, list],
    epsilon: float = KL_EPSILON,
) -> dict[TokenType, dict]:
    """Per-type mean KL and each type's share of the total KL mass, from the
    `position`, `base_probs` and `calibrated_probs` columns of `pairs` and
    the `position` and `type` columns of `annotations`, as one dict per type.

    Every pair position must be annotated, and no position twice. Types with
    no positions are absent from the result; mass fractions are None when the
    total KL is 0. `epsilon`, the floor of a calibrated probability, lies
    in (0,1). The KL values are computed `BLOCK_ROWS` pairs at a time, each
    length's pairs of a block as one `kl_rows` call.
    """
    type_of = {}
    for position, token_type in zip(annotations["position"], annotations["type"]):
        if position in type_of:
            raise ValueError(f"position {position} is annotated twice")
        type_of[position] = token_type
    types = []
    for position in pairs["position"]:
        if position not in type_of:
            raise ValueError(f"position {position} has no annotation")
        types.append(type_of[position])
    kls = np.empty(len(types))
    for start in range(0, len(types), BLOCK_ROWS):
        block = slice(start, start + BLOCK_ROWS)
        for rows, base, calibrated in paired_rows(pairs["base_probs"][block],
                                                  pairs["calibrated_probs"][block]):
            kls[np.add(rows, start)] = kl_rows(base, calibrated, epsilon)
    groups: dict[TokenType, list[float]] = {}
    for token_type, value in zip(types, kls.tolist()):
        groups.setdefault(token_type, []).append(value)
    total = math.fsum(kls.tolist())
    out = {}
    for token_type, values in groups.items():
        mass = math.fsum(values)
        out[token_type] = {
            "count": len(values),
            "mean_kl": mass / len(values),
            "mass_fraction": mass / total if total > 0.0 else None,
        }
    return out


def _block_size(rows: int, dims: int) -> int:
    """Rows per block: `BLOCK_ROWS`, or all the rows (at least one) below
    `BLOCK_ROWS + dims` rows, where a block's buffer with a running
    `dims x dims` sum and the block's own product would hold more than one
    whole float64 copy and one product."""
    return BLOCK_ROWS if rows >= BLOCK_ROWS + dims else max(rows, 1)


def _centred(x, mean, size: int):
    """Each block of `size` rows of `x` minus `mean`, in float64, read in
    turn into one buffer: a block holds until the next one is drawn."""
    buffer = np.empty((min(size, len(x)), x.shape[1]))
    for start in range(0, len(x), size):
        block = x[start:start + size]
        yield np.subtract(block, mean, out=buffer[:len(block)], dtype=float)


def _summed(products):
    """The sum of the arrays `products`, each added in turn into the first."""
    total = next(products)
    for product in products:
        total += product
    return total


def _squared_norm(block) -> float:
    """The squared Frobenius norm, as `np.linalg.norm` sums it before its root."""
    flat = block.ravel()
    return flat.dot(flat)


def linear_cka(x, y) -> float:
    """Linear centered kernel alignment between two row-aligned matrices.

    Invariant to orthogonal right-multiplication and isotropic scaling of
    either argument; 1.0 means geometrically identical representations.
    The three products `Y^T X`, `X^T X` and `Y^T Y` are built in turn, each
    summed over the row blocks and reduced to its norm before the next.
    """
    rows = x.shape[0]
    if rows != y.shape[0]:
        raise ShapeError("matrices must have the same number of rows")
    if rows < 2:
        raise ShapeError("need at least two rows")
    size = _block_size(rows, max(x.shape[1], y.shape[1]))
    xs = partial(_centred, x, x.mean(axis=0, dtype=float), size)
    ys = partial(_centred, y, y.mean(axis=0, dtype=float), size)
    cross = float(np.linalg.norm(_summed(b.T @ a for a, b in zip(xs(), ys())), "fro") ** 2)
    norm_x = float(np.linalg.norm(_summed(a.T @ a for a in xs()), "fro"))
    norm_y = float(np.linalg.norm(_summed(b.T @ b for b in ys()), "fro"))
    if norm_x == 0.0 or norm_y == 0.0:
        raise UndefinedSimilarity("a zero-variance matrix has no geometry to compare")
    return cross / (norm_x * norm_y)


@dataclass(frozen=True)
class PcaResult:
    projection: np.ndarray  # rows x k scores
    explained_variance_ratio: np.ndarray  # length k, non-increasing
    components: np.ndarray  # k x dims, rows unit-norm


def pca_project(x, k: int) -> PcaResult:
    """Top-k principal components, k >= 1: the eigenvectors of the (dims x
    dims) sample covariance with the k largest eigenvalues, in descending order.

    Exact up to floating point; each component's largest-magnitude entry is
    made positive, so the output is unique wherever the top k eigenvalues are
    distinct. The covariance is summed over the row blocks; a second pass
    over them fills the `rows x k` projection.
    """
    n, d = x.shape
    if k > d:
        raise ShapeError(f"k={k} exceeds dims={d}")
    if n <= k:
        raise ShapeError(f"need more rows than components, got rows={n}, k={k}")
    size = _block_size(n, d)
    mean = x.mean(axis=0, dtype=float)
    cov = _summed(b.T @ b for b in _centred(x, mean, size))
    cov /= n - 1
    total_var = float(np.trace(cov))
    if total_var == 0.0:
        raise UndefinedSimilarity("zero-variance matrix has no principal directions")
    eigenvalues, vectors = np.linalg.eigh(cov)  # ascending
    del cov  # not held beside the projection
    comp = vectors[:, ::-1][:, :k].T
    peaks = comp[np.arange(k), np.argmax(np.abs(comp), axis=1)]
    comp = comp * np.sign(peaks)[:, None]
    ratios = np.maximum(eigenvalues[::-1][:k], 0.0) / total_var
    projection = np.empty((n, k))
    for start, block in zip(range(0, n, size), _centred(x, mean, size)):
        np.matmul(block, comp.T, out=projection[start:start + len(block)])
    return PcaResult(
        projection=projection,
        explained_variance_ratio=ratios,
        components=comp,
    )


def frobenius_drift(w_base, w_cal) -> float:
    """Relative Frobenius drift ||cal - base||_F / ||base||_F, in float64
    whatever the inputs' dtype. Each row block is read into one float64
    buffer, first the base's, for its squared norm, and then the difference."""
    if w_base.shape != w_cal.shape:
        raise ShapeError("weight matrices must have the same shape")
    size = _block_size(len(w_base), 0)  # no dims x dims sum
    buffer = np.empty((min(size, len(w_base)), w_base.shape[1]))
    base_squares = diff_squares = 0.0
    for start in range(0, len(w_base), size):
        base = w_base[start:start + size]
        block = buffer[:len(base)]
        block[...] = base
        base_squares += _squared_norm(block)
        block[...] = w_cal[start:start + size]
        block -= base
        diff_squares += _squared_norm(block)
    base_norm = float(np.sqrt(base_squares))
    if base_norm == 0.0:
        raise UndefinedSimilarity("zero base norm makes relative drift undefined")
    return float(np.sqrt(diff_squares)) / base_norm


def embedding_drift_report(
    rows_of_interest: Sequence[int],
    baseline_rows: Sequence[int],
    w_base,
    w_cal,
) -> dict:
    """Mean per-row relative drift of interest rows vs. a baseline row set,
    in float64; only the named rows are converted. The dict holds both means
    (`interest_mean_drift`, `baseline_mean_drift`) and their `ratio`: None
    when both are 0, +inf when only the baseline is still."""
    base = np.asarray(w_base)
    cal = np.asarray(w_cal)
    if base.shape != cal.shape:
        raise ShapeError("weight matrices must have the same shape")
    interest = list(rows_of_interest)
    baseline = list(baseline_rows)
    if set(interest) & set(baseline):
        raise ValueError("row sets must be disjoint")
    for i in interest + baseline:
        if not 0 <= i < base.shape[0]:
            raise ValueError(f"row index {i} outside 0..{base.shape[0] - 1}")

    def row_drift(indices):
        drifts = []
        rows = zip(indices, np.asarray(base[indices], dtype=float),
                   np.asarray(cal[indices], dtype=float))
        for i, base_row, cal_row in rows:
            norm = float(np.linalg.norm(base_row))
            if norm == 0.0:
                raise UndefinedSimilarity(f"row {i} of the base matrix has zero norm")
            drifts.append(float(np.linalg.norm(cal_row - base_row)) / norm)
        return float(np.mean(drifts))

    interest_mean = row_drift(interest)
    baseline_mean = row_drift(baseline)
    if baseline_mean > 0.0:
        ratio = interest_mean / baseline_mean
    elif interest_mean > 0.0:
        ratio = math.inf
    else:
        ratio = None
    return {
        "interest_mean_drift": interest_mean,
        "baseline_mean_drift": baseline_mean,
        "ratio": ratio,
    }
