"""Batch L-BFGS with Armijo backtracking line search.

Deterministic given the objective and starting point: fixed history size,
fixed shrink factor, no randomness. Accepted steps always satisfy sufficient
decrease, so the recorded objective values are non-increasing.

`minimize` works in memory it allocates once per call: the current and
trial points, a ring of HISTORY + 1 (s, y) slots, the search direction and
one scratch vector. It writes later trial points into the arrays it passes
to `fun`, so `fun` must copy an `x` it wants to keep. It never writes into
an array that `fun` returns, which may be read-only. It holds the gradient
of the current point until the next accepted step, so `fun` must not
overwrite a gradient it returned.
"""

from __future__ import annotations

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


def _two_loop(
    g: np.ndarray, pairs: list[tuple[np.ndarray, float]], q: np.ndarray, tmp: np.ndarray
) -> None:
    """L-BFGS two-loop recursion: writes the search direction -H*g into `q`.
    `pairs` holds the ((s, y), rho) pairs, oldest first; `tmp` is scratch."""
    np.copyto(q, g)
    alphas = []
    for (s, y), rho in reversed(pairs):
        a = rho * float(s @ q)
        q -= np.multiply(y, a, out=tmp)  # the bits of q -= a * y
        alphas.append(a)
    if pairs:
        (s, y), _ = pairs[-1]
        gamma = float(s @ y) / float(y @ y)
        q *= gamma
    for ((s, y), rho), a in zip(pairs, reversed(alphas)):
        b = rho * float(y @ q)
        q += np.multiply(s, a - b, out=tmp)
    np.negative(q, out=q)


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
    d, tmp = np.empty((2, len(x)))
    # the (s, y) slots: the history's pairs use at most HISTORY, and the
    # step being taken writes into a free one
    free = list(np.empty((HISTORY + 1, 2, len(x))))
    pairs: list[tuple[np.ndarray, float]] = []
    converged = False

    for k in range(1, max_iter + 1):
        _two_loop(g, pairs, d, tmp)
        gd = float(g @ d)
        if gd >= 0.0:
            # not a descent direction; fall back to steepest descent
            np.negative(g, out=d)
            gd = float(g @ d)
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

        slot = free.pop()
        s, y = slot
        np.subtract(x_new, x, out=s)
        np.subtract(g_new, g, out=y)
        sy = float(s @ y)
        if sy > 1e-10:
            pairs.append((slot, 1.0 / sy))
            if len(pairs) > HISTORY:
                free.append(pairs.pop(0)[0])
        else:
            free.append(slot)

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
        grad_norm=float(np.linalg.norm(g)),
    )
