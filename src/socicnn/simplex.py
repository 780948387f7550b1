"""Dense-tableau dual simplex for small linear programs.

Solves

    min  c @ y
    s.t. A @ y >= b,   y >= 0

by Lemke's (1954) dual simplex method with the dual form of Bland's rule.
The implementation is deliberately independent of every other code path in
the package: it is the oracle that the closed-form forward pass is checked
against, so it shares no evaluation code with the model.

The tableau starts as ``[-A | I | -b]`` with every surplus variable basic.
The costs must be nonnegative, as the certificate lift's are (its only
costs are a network's output weights, which input convexity keeps >= 0), so
that basis is dual feasible: no phase 1, no artificial columns, and no
unbounded problem.  Each iteration leaves on the infeasible row with the
smallest basic index and enters the column that minimizes ``d_j / |a_rj|``
(d the reduced costs) over the row's negative entries, ties going to the
smallest column.

Intended for desk-scale problems (a few hundred variables); everything is
kept in one dense C-contiguous tableau.  A pivot updates only the rows whose
pivot-column entry is nonzero and the columns whose pivot-row entry is
nonzero, through the flat indices row * width + col of a view that shares
the tableau's memory.  Every other entry of the full rank-one update would
subtract an exact zero product (the data are finite, so no inf * 0 arises),
so the tableau equals the dense update's up to the sign of a zero, and every
pivot decision is the same.  On a network's lift (W_z >= 0) the rows are
reached in layer order, and each infeasible one then has a single negative
entry, the -1 on its own unit, so the solve takes one pivot per hidden unit
with a positive preactivation: the fewest that reach the optimal basis.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


class SimplexError(RuntimeError):
    """Base class for solver failures."""


class InfeasibleProblem(SimplexError):
    """A primal-infeasible row had no negative entry to pivot on, so no
    y >= 0 satisfies it."""


class UnboundedProblem(SimplexError):
    """An unbounded objective.  Nothing raises it: with c >= 0 the objective
    is bounded below by 0.  Kept only for callers that still name it."""


# share of its terms' magnitude that a structural pivot entry must keep
_PIVOT_TOL = 1e-9
# relative to max|b|
_FEAS_TOL = 1e-12


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    pivot_row = tableau[row]
    column = tableau[:, col]
    rows = column.nonzero()[0]
    rows = rows[rows != row]
    cols = pivot_row.nonzero()[0]
    width = tableau.shape[1]
    flat = tableau.view()
    flat.shape = -1  # raises unless flat shares the tableau's memory
    flat[(rows * width)[:, None] + cols] -= np.multiply.outer(column[rows], pivot_row[cols])


def _dual_iterate(
    tableau: np.ndarray, basis: np.ndarray, abs_a: np.ndarray, feas_tol: float, max_iter: int
) -> None:
    """Run dual simplex iterations on the tableau in place until every basic
    value is at least -feas_tol.  The last row holds the reduced costs.

    The surplus block of a row is its row of the basis inverse, so the row's
    entry in structural column j is the sum over k of surplus_k * -A_kj.  A
    negative structural entry may enter only if it keeps _PIVOT_TOL of the
    magnitude of those terms, sum_k |surplus_k| |A_kj|; below that it is
    rounding left by cancellation.  The test is invariant under any scaling
    of the rows and columns of A, which a network's lift needs: its hidden
    states grow layer by layer with the weights, so one tableau row can span
    more orders of magnitude than a tolerance relative to the row allows.
    """
    m, n = abs_a.shape
    values, costs = tableau[:m, -1], tableau[-1]
    for _ in range(max_iter):
        infeasible = (values < -feas_tol).nonzero()[0]
        if infeasible.size == 0:
            return
        row = int(infeasible[basis[infeasible].argmin()])
        entries = tableau[row, :-1]
        eligible = entries < 0.0
        structural = eligible[:n].nonzero()[0]
        terms = np.abs(entries[n:]) @ abs_a[:, structural]
        eligible[structural] = -entries[structural] > _PIVOT_TOL * terms
        eligible = eligible.nonzero()[0]
        if eligible.size == 0:
            raise InfeasibleProblem("an infeasible row has no negative entry to pivot on")
        ratios = costs[eligible] / -entries[eligible]
        col = int(eligible[ratios.argmin()])
        _pivot(tableau, row, col)
        basis[row] = col
    raise SimplexError("iteration limit exceeded")


def solve_min_geq(c, A, b) -> Tuple[float, np.ndarray]:
    """Minimize c @ y subject to A @ y >= b and y >= 0, for costs c >= 0.

    Returns (optimal value, optimal basic feasible y).  Raises
    InfeasibleProblem accordingly, and SimplexError after 200 * (m + n + 10)
    pivots.  Data of the wrong shape, with a non-finite entry or with a
    negative cost raises ValueError.
    """
    c = np.asarray(c, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if A.ndim != 2 or c.shape != (A.shape[1],) or b.shape != (A.shape[0],):
        raise ValueError("inconsistent LP dimensions")
    if not (np.isfinite(c).all() and np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("LP data must be finite")
    if np.any(c < 0.0):
        raise ValueError("LP costs must be nonnegative")
    m, n = A.shape
    max_iter = 200 * (m + n + 10)
    feas_tol = _FEAS_TOL * float(np.max(np.abs(b), initial=0.0))

    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = -A
    tableau[:m, n:-1] = np.eye(m)
    tableau[:m, -1] = -b
    tableau[-1, :n] = c
    basis = np.arange(n, n + m)

    _dual_iterate(tableau, basis, np.abs(A), feas_tol, max_iter)

    y = np.zeros(n)
    structural = basis < n
    y[basis[structural]] = tableau[:m, -1][structural]
    return float(c @ y), y
