"""Batch L-BFGS with Armijo backtracking line search.

Deterministic given the objective and starting point: fixed history size,
fixed shrink factor, no randomness. Accepted steps always satisfy sufficient
decrease, so the recorded objective values are non-increasing.

The direction d = -H g comes from the compact representation of the
L-BFGS inverse Hessian (Byrd, Nocedal & Schnabel 1994; Nocedal & Wright
7.2) with H0 = gamma I, gamma = s'y / y'y of the newest pair:
H = gamma I + [S  gamma Y] M [S  gamma Y]', where M holds R^-1, R^-T and
D + gamma Y'Y, R is the upper triangle of S'Y and D its diagonal. Each step
makes two passes over the ring of (s, y) rows: einsum projects g on the
pairs' rows (S'g and Y'g), and einsum sums the rows into d with
coefficients from the m x m algebra, which runs in Python floats. The
newest y is g - g_last, so its products with the older rows are this
step's projections minus the last step's; only s'y and y'y of the new pair
are dot products of their own.

`minimize` works in memory it allocates once per call: the current and
trial points and a ring of HISTORY + 1 (s, y) slots, whose free slot holds
g, with a last row for the search direction. It writes later trial points into the arrays it
passes to `fun`, so `fun` must copy an `x` it wants to keep. It never
writes into an array that `fun` returns, which may be read-only. It holds
the gradient of the current point until the next accepted step, so `fun`
must not overwrite a gradient it returned.

Every product summed over the n parameters (dot products, projections,
the direction) is an `np.einsum` without `optimize`, which calls no BLAS
and writes no temp, so no BLAS thread count changes a bit of the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError

Objective = Callable[[np.ndarray], tuple[float, np.ndarray]]

HISTORY = 6  # (s, y) pairs kept for the inverse-Hessian estimate
C1 = 1e-4  # Armijo sufficient-decrease constant
SHRINK = 0.5  # step factor per backtrack
MAX_BACKTRACKS = 40


@dataclass
class OptResult:
    x: np.ndarray
    value: float
    log: list[tuple[int, float]]  # (accepted step, objective value)
    converged: bool
    n_evals: int
    grad_norm: float  # 2-norm of the gradient at x


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a @ b as einsum's own sum, which calls no BLAS and writes no temp."""
    return float(np.einsum("j,j->", a, b))


def _coefficients(
    pairs: list[int], sy: np.ndarray, yy: np.ndarray, proj: np.ndarray, free: int
) -> np.ndarray:
    """The ring rows' coefficients in d = -H g: with a = S'g, b = Y'g,
    u = R^-1 a and p = R^-T ((D + gamma Y'Y) u - gamma b), d is
    -gamma g - S p + gamma Y u, or -g with no pairs. `pairs` holds the
    slots, oldest first, and the free slot's s-row holds g."""
    m = len(pairs)
    r = sy[np.ix_(pairs, pairs)].tolist()  # R is its upper triangle
    q = yy[np.ix_(pairs, pairs)].tolist()
    a = [float(proj[2 * i]) for i in pairs]
    b = [float(proj[2 * i + 1]) for i in pairs]
    gamma = r[-1][-1] / q[-1][-1] if pairs else 1.0
    u = [0.0] * m
    for i in reversed(range(m)):
        u[i] = (a[i] - sum(r[i][j] * u[j] for j in range(i + 1, m))) / r[i][i]
    p = [0.0] * m
    for i in range(m):
        v = r[i][i] * u[i] + gamma * (sum(q[i][j] * u[j] for j in range(m)) - b[i])
        p[i] = (v - sum(r[j][i] * p[j] for j in range(i))) / r[i][i]
    coef = np.zeros(len(proj))
    for i, slot in enumerate(pairs):
        coef[2 * slot] = -p[i]
        coef[2 * slot + 1] = gamma * u[i]
    coef[2 * free] = -gamma
    return coef


def minimize(
    fun: Objective,
    x0: np.ndarray,
    max_iter: int = 200,
    rel_tol: float = 1e-4,
) -> OptResult:
    """Minimize fun, stopping when the relative decrease per accepted step
    falls below rel_tol or max_iter steps were accepted."""
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g = fun(x)
    if not np.isfinite(f):
        raise NumericError(f"objective is {f} at the starting point")
    n_evals = 1
    log: list[tuple[int, float]] = [(0, f)]
    x_new = np.empty_like(x)  # x and x_new swap roles on every accepted step
    # slot i holds s in row 2i and y in row 2i + 1: the history's pairs use
    # at most HISTORY slots, and the free one holds g in its s-row. Slots are
    # taken in order, so the rows written so far are ring[:rows]. The last
    # row holds d
    ring = np.empty((2 * (HISTORY + 1) + 1, len(x)))
    d = ring[-1]
    sy, yy = np.zeros((2, HISTORY + 1, HISTORY + 1))  # s_i . y_j (i no newer), y_i . y_j
    pairs: list[int] = []  # slots, oldest pair first
    free, rows, new, proj = 0, 0, None, None
    converged = False

    for k in range(1, max_iter + 1):
        # S'g and Y'g: the free slot's rows hold no pair, so they are skipped
        last, proj = proj, np.zeros(max(rows, 2 * free + 1))
        np.einsum("kj,j->k", ring[: 2 * free], g, out=proj[: 2 * free])
        np.einsum("kj,j->k", ring[2 * free + 2 : rows], g, out=proj[2 * free + 2 : rows])
        np.copyto(ring[2 * free], g)
        rows = max(rows, 2 * free + 1)
        if new is not None:
            # the newest y is g minus the last step's g, so the older rows'
            # products with it are differences of projections
            for i in pairs[:-1]:
                sy[i, new] = proj[2 * i] - last[2 * i]
                yy[i, new] = yy[new, i] = proj[2 * i + 1] - last[2 * i + 1]
        np.einsum("kj,k->j", ring[:rows], _coefficients(pairs, sy, yy, proj, free), out=d)
        gd = _dot(g, d)
        if gd >= 0.0:
            # not a descent direction; fall back to steepest descent
            np.negative(g, out=d)
            gd = _dot(g, d)
            if gd >= 0.0:
                converged = True
                break

        # a conservative first step before any curvature is known
        step = 1.0 if pairs else min(1.0, 1.0 / max(1.0, float(np.abs(g).sum())))
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            np.add(x, np.multiply(d, step, out=x_new), out=x_new)  # x + step * d
            f_new, g_new = fun(x_new)
            n_evals += 1
            if np.isfinite(f_new) and f_new <= f + C1 * step * gd:
                accepted = True
                break
            step *= SHRINK
        if not accepted:
            # no acceptable step along d: treat as converged at x
            converged = True
            break

        s, y = ring[2 * free], ring[2 * free + 1]
        np.subtract(x_new, x, out=s)
        np.subtract(g_new, g, out=y)
        rows = max(rows, 2 * free + 2)
        new = None
        sy[free, free] = _dot(s, y)
        if sy[free, free] > 1e-10:
            yy[free, free] = _dot(y, y)
            new = free
            pairs.append(free)
            free = pairs.pop(0) if len(pairs) > HISTORY else len(pairs)

        rel_change = abs(f - f_new) / max(abs(f), abs(f_new), 1.0)
        x, x_new = x_new, x
        f, g = f_new, g_new
        log.append((k, f))
        if rel_change < rel_tol:
            converged = True
            break

    return OptResult(
        x=x,
        value=f,
        log=log,
        converged=converged,
        n_evals=n_evals,
        grad_norm=math.sqrt(_dot(g, g)),
    )
