"""Dense-tableau primal simplex for small linear programs.

Solves

    min  c @ y
    s.t. A @ y >= b,   y >= 0

by the textbook two-phase method with Bland's anti-cycling rule.  The
implementation is deliberately independent of every other code path in the
package: it is the oracle that the closed-form forward pass is checked
against, so it shares no evaluation code with the model.

Intended for desk-scale problems (a few hundred variables); everything is
kept in one dense tableau.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


class SimplexError(RuntimeError):
    """Base class for solver failures."""


class InfeasibleProblem(SimplexError):
    """Phase 1 ended with artificial variables at a positive level."""


class UnboundedProblem(SimplexError):
    """An improving column had no blocking row."""


_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-7


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])


def _bland_iterate(tableau: np.ndarray, basis: np.ndarray, ncols: int, max_iter: int) -> None:
    """Run simplex iterations on the tableau in place until optimal.

    The objective row is the last row (stored as reduced costs; the current
    objective value is -tableau[-1, -1]).  Entering variable: the smallest
    column index with a negative reduced cost.  Leaving variable: the minimum
    ratio row, ties broken toward the smallest basic variable index.
    """
    m = tableau.shape[0] - 1
    for _ in range(max_iter):
        reduced = tableau[-1, :ncols]
        candidates = np.nonzero(reduced < -_PIVOT_TOL)[0]
        if candidates.size == 0:
            return
        col = int(candidates[0])

        column = tableau[:m, col]
        rhs = tableau[:m, -1]
        positive = column > _PIVOT_TOL
        if not np.any(positive):
            raise UnboundedProblem("no blocking row for an improving column")
        ratios = np.full(m, np.inf)
        ratios[positive] = rhs[positive] / column[positive]
        best = np.min(ratios)
        tied = np.nonzero(ratios <= best + 1e-12)[0]
        row = int(tied[np.argmin(basis[tied])])

        _pivot(tableau, row, col)
        basis[row] = col
    raise SimplexError("iteration limit exceeded")


def solve_min_geq(c, A, b) -> Tuple[float, np.ndarray]:
    """Minimize c @ y subject to A @ y >= b and y >= 0.

    Returns (optimal value, optimal basic feasible y).  Raises
    InfeasibleProblem / UnboundedProblem accordingly, and SimplexError once a
    phase runs past 200 * (m + n + 10) pivots.
    """
    c = np.asarray(c, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, n = A.shape
    if c.shape != (n,) or b.shape != (m,):
        raise ValueError("inconsistent LP dimensions")
    max_iter = 200 * (m + n + 10)

    # Equality form A y - s = b with every right-hand side nonnegative: rows
    # with b <= 0 are negated so their surplus column enters with coefficient
    # +1 and can start in the basis; the remaining rows get one artificial
    # variable each.
    flip = b <= 0.0
    signs = np.where(flip, -1.0, 1.0)
    Aeq = A * signs[:, None]
    beq = b * signs
    surplus = np.diag(-signs)

    art_rows = np.nonzero(~flip)[0]
    n_art = art_rows.size
    art_block = np.zeros((m, n_art))
    for j, i in enumerate(art_rows):
        art_block[i, j] = 1.0

    ncols = n + m + n_art
    tableau = np.zeros((m + 1, ncols + 1))
    tableau[:m, :n] = Aeq
    tableau[:m, n : n + m] = surplus
    tableau[:m, n + m : ncols] = art_block
    tableau[:m, -1] = beq

    basis = np.empty(m, dtype=np.int64)
    basis[flip] = n + np.nonzero(flip)[0]
    basis[art_rows] = n + m + np.arange(n_art)

    # Phase 1: drive the artificial variables to zero.
    if n_art:
        tableau[-1, n + m : ncols] = 1.0
        tableau[-1] -= tableau[art_rows].sum(axis=0)
        _bland_iterate(tableau, basis, ncols, max_iter)
        scale = 1.0 + float(np.max(np.abs(beq), initial=0.0))
        if -tableau[-1, -1] > _FEAS_TOL * scale:
            raise InfeasibleProblem("phase-1 optimum is positive")
        # Pivot lingering artificial basics onto structural columns; a row
        # with no eligible pivot is redundant and can be neutralized.
        for row in range(m):
            if basis[row] >= n + m:
                pivots = np.nonzero(np.abs(tableau[row, : n + m]) > _PIVOT_TOL)[0]
                if pivots.size:
                    _pivot(tableau, row, int(pivots[0]))
                    basis[row] = int(pivots[0])
                else:
                    tableau[row, :] = 0.0
        tableau[:, n + m : ncols] = 0.0

    # Phase 2: optimize the real objective from the feasible basis.
    tableau[-1, :] = 0.0
    tableau[-1, :n] = c
    for row in range(m):
        if basis[row] < n + m and abs(tableau[-1, basis[row]]) > 0.0:
            tableau[-1] -= tableau[-1, basis[row]] * tableau[row]
    _bland_iterate(tableau, basis, ncols, max_iter)

    y = np.zeros(n)
    structural = basis < n
    y[basis[structural]] = tableau[:m, -1][structural]
    return float(c @ y), y
