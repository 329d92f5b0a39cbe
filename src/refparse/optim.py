"""Batch L-BFGS with Armijo backtracking line search.

Deterministic given the objective and starting point: fixed history size,
fixed shrink factor, no randomness. Accepted steps always satisfy sufficient
decrease, so the recorded objective values are non-increasing.
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


def _two_loop(g: np.ndarray, s_list: list, y_list: list, rho_list: list) -> np.ndarray:
    """L-BFGS two-loop recursion for the search direction -H*g."""
    q = g.copy()
    alphas = []
    for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rho_list)):
        a = rho * float(s @ q)
        q -= a * y
        alphas.append(a)
    if y_list:
        s, y = s_list[-1], y_list[-1]
        gamma = float(s @ y) / float(y @ y)
        q *= gamma
    for (s, y, rho), a in zip(zip(s_list, y_list, rho_list), reversed(alphas)):
        b = rho * float(y @ q)
        q += (a - b) * s
    return -q


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
    s_list: list[np.ndarray] = []
    y_list: list[np.ndarray] = []
    rho_list: list[float] = []
    converged = False

    for k in range(1, max_iter + 1):
        d = _two_loop(g, s_list, y_list, rho_list)
        gd = float(g @ d)
        if gd >= 0.0:
            # not a descent direction; fall back to steepest descent
            d = -g
            gd = float(g @ d)
            if gd >= 0.0:
                converged = True
                break

        # a conservative first step before any curvature is known
        step = 1.0 if y_list else min(1.0, 1.0 / max(1.0, float(np.abs(g).sum())))
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            x_new = x + step * d
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

        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-10:
            s_list.append(s)
            y_list.append(y)
            rho_list.append(1.0 / sy)
            if len(s_list) > HISTORY:
                s_list.pop(0)
                y_list.pop(0)
                rho_list.pop(0)

        rel_change = abs(f - f_new) / max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
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
