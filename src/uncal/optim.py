"""Truncated Newton-CG minimizer shared by every fit: global and adaptive
temperature scaling (`recal`) and the probe.

Each fit minimizes  mean_i loss_i(u_i) + l2 * ||w||^2  over theta = [w, b],
where u = [phi, 1] @ theta, so the bias is not penalized; global scaling has
no feature columns, so its one parameter is the bias. `row_fn(u)` returns
the mean row loss and, per row, its first and second derivatives in u. With
x = [phi, 1], Hessian-vector products are x.T @ (h * (x @ v)) / n plus the
penalty, so no d x d matrix is formed. Row curvature is clipped at 0,
which keeps the CG operator positive semi-definite for a non-convex row
loss (both temperature fits) too; Armijo backtracking never lets the
objective go up. CG starts from zero, so identical columns of `phi` get
identical steps and an all-zero column keeps a weight of exactly 0
(`standardize` gives a column with no spread one). `l2` is finite and
>= 0: the `cli` parser refuses any other `--l2` before a fit starts. The
one `sigmoid` of every fit lives here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GRAD_TOL = 1e-6
MAX_ITERS = 100
ARMIJO_C = 1e-4
STEP_SIZES = 0.5 ** np.arange(40)  # backtracking: 1, 1/2, ..., 2**-39


@dataclass(frozen=True)
class Fit:
    """How a fit ended: the objective at the start and after each iteration,
    the iteration count, the final max |gradient|, and whether that reached
    GRAD_TOL within MAX_ITERS. `jsonio.FIT` writes all but the trace."""

    loss_trace: tuple[float, ...]
    iterations: int
    grad_norm: float
    converged: bool


def sigmoid(x):
    """1 / (1 + exp(-x)), as exp(-logaddexp(0, -x)): stable in both tails."""
    return np.exp(-np.logaddexp(0.0, -x))


def _cg_step(x, row_h, penalty, grad):
    """Approximate solution of H p = -grad by CG from p = 0, stopped at the
    relative residual min(0.5, sqrt(|grad|)) or on a direction with no
    curvature."""
    p = np.zeros_like(grad)
    r = -grad
    d = r.copy()
    rr = float(r @ r)
    stop = min(0.25, math.sqrt(rr)) * rr  # squared: |r| <= min(0.5, sqrt|g|) |g|
    for _ in range(grad.size):
        hd = x.T @ (row_h * (x @ d)) + penalty * d
        curvature = float(d @ hd)
        if curvature <= 0.0:
            break
        alpha = rr / curvature
        p += alpha * d
        r -= alpha * hd
        rr, rr_old = float(r @ r), rr
        if rr <= stop:
            break
        d = r + (rr / rr_old) * d
    # with no curvature along -grad at all, fall back to steepest descent
    return p if p.any() else -grad


def standardize(x: np.ndarray):
    """(phi, means, stds): the columns of `x` centred on their means and
    divided by their standard deviations. A column of equal values keeps
    that value as its mean (their float mean may round away from it) and a
    std of 1, so its `phi` column is all 0 and its weight stays 0."""
    flat = (x == x[:1]).all(axis=0)
    stds = x.std(axis=0)
    means = np.where(flat, x[0], x.mean(axis=0))
    stds = np.where(flat | (stds == 0.0), 1.0, stds)
    return (x - means) / stds, means, stds


def linear(phi: np.ndarray, weights, bias: float) -> np.ndarray:
    """`phi @ weights + bias` of each row of `phi`, summed column by column
    from the left, so that each row's value depends on that row alone. A
    matrix product may sum in another order for another number of rows
    (numpy takes a dot product for one row and `gemv` for more)."""
    out = np.zeros(phi.shape[0])
    for column, weight in zip(phi.T, weights):
        out += column * weight
    return out + bias


def minimize(row_fn, phi: np.ndarray, theta: np.ndarray, l2: float):
    """Minimize the mean row loss of u = [phi, 1] @ theta plus
    l2 * ||theta[:-1]||^2 from `theta`, `l2` finite and >= 0 (a negative
    penalty would reward large weights, and the objective have no minimum).
    Returns the final parameters and a `Fit`."""
    n = phi.shape[0]
    x = np.hstack([phi, np.ones((n, 1))])
    penalty = np.full(x.shape[1], 2.0 * l2)
    penalty[-1] = 0.0

    def evaluate(theta_):
        loss, g, h = row_fn(x @ theta_)
        objective = loss + l2 * float(theta_[:-1] @ theta_[:-1])
        return objective, x.T @ g / n + penalty * theta_, np.maximum(h, 0.0) / n

    f, grad, row_h = evaluate(theta)
    trace = [f]
    while np.max(np.abs(grad)) > GRAD_TOL and len(trace) <= MAX_ITERS:
        step = _cg_step(x, row_h, penalty, grad)
        slope = min(float(grad @ step), 0.0)  # rounding may not buy an increase
        for alpha in STEP_SIZES:
            candidate = theta + alpha * step
            f_new, grad_new, h_new = evaluate(candidate)
            if f_new <= f + ARMIJO_C * alpha * slope:
                break
        else:
            break  # no representable decrease along the step
        theta, f, grad, row_h = candidate, f_new, grad_new, h_new
        trace.append(f)
    grad_norm = float(np.max(np.abs(grad)))
    return theta, Fit(tuple(trace), len(trace) - 1, grad_norm, grad_norm <= GRAD_TOL)
