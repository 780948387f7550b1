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
unbounded problem.  Each pivot leaves on the infeasible row with the
smallest basic index and enters the column that minimizes ``d_j / |a_rj|``
(d the reduced costs) over the row's negative entries, ties going to the
smallest column.

The pivots come in passes.  A pass picks its first pivot by that rule, then
adds the next infeasible rows in basic-index order to its block while each
has a single negative entry and every row that a block column reaches, the
column's own pivot row aside, comes after the block's last row in that
order.  A block pivot then touches neither a later block row nor another
block column, so each block row is still infeasible and unchanged when its
turn comes, every row before it is feasible, and a row with one eligible
entry enters that entry whatever the costs: the pass takes exactly the
pivots that one-at-a-time dual Bland would take from the same tableau.

A pass is one update of a dense tableau.  Its rows are divided by their
pivots, and every row that its columns reach, its own rows aside, subtracts
its entries in those columns times the divided rows, over the columns that
those rows reach.  No pivot of a pass touches another pass row or column, so
the product reads the original columns and the divided original rows, as the
pivots in turn would: only the order of the sums changes, and a pass of one
pivot gives the dense rank-one update up to the sign of a zero.

On a network's lift (W_z >= 0) the rows are reached in layer order, and
each infeasible one then has a single negative entry, the -1 on its own
unit, so the solve takes one pivot per hidden unit with a positive
preactivation, the fewest that reach the optimal basis, and one pass per
layer: a unit's column is nonzero only in its own row and in the next
layer's rows.
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


def _plan_pass(
    tableau: np.ndarray, basis: np.ndarray, rows: np.ndarray, abs_a: np.ndarray
) -> np.ndarray:
    """Entering columns of one pass: rows[:k] leave for the k columns
    returned, in order.  ``rows`` are the infeasible rows in basic-index
    order, cut to the pivots left.

    The first row leaves by the dual Bland rule.  A structural entry may
    enter only if it keeps _PIVOT_TOL of the magnitude of the terms that make
    it: the surplus block of a row is its row of the basis inverse, so its
    entry in structural column j is the sum over k of surplus_k * -A_kj, and
    below _PIVOT_TOL * sum_k |surplus_k| |A_kj| it is rounding left by
    cancellation.  The test is invariant under any scaling of the rows and
    columns of A, which a network's lift needs: its hidden states grow layer
    by layer with the weights, so one tableau row can span more orders of
    magnitude than a tolerance relative to the row allows.

    A later row joins (see the module docstring for why the pivots stay
    Bland's) while its one negative entry is a surplus entry or a structural
    one that clears twice _PIVOT_TOL, so that the sum here, which rounds
    differently, admits no entry that the first row's test would reject.
    """
    m, n = abs_a.shape
    entries = tableau[rows[0], :-1]
    eligible = entries < 0.0
    structural = eligible[:n].nonzero()[0]
    terms = np.abs(entries[n:]) @ abs_a[:, structural]
    eligible[structural] = -entries[structural] > _PIVOT_TOL * terms
    eligible = eligible.nonzero()[0]
    if eligible.size == 0:
        raise InfeasibleProblem("an infeasible row has no negative entry to pivot on")
    ratios = tableau[-1, eligible] / -entries[eligible]
    col = eligible[ratios.argmin()]

    # rows that the first pivot touches, and all after them, cannot join
    reached = tableau[:m, col] != 0.0
    reached[rows[0]] = False
    rows = rows[: max(1, np.searchsorted(basis[rows], basis[reached].min(initial=n + m)))]
    order = np.arange(rows.size)
    block = tableau[rows, :-1]
    negative = block < 0.0
    cols = negative.argmax(axis=1)
    cols[0] = col
    picked = block[order, cols]
    terms = np.einsum("ij,ji->i", np.abs(block[:, n:]), abs_a[:, np.minimum(cols, n - 1)])
    alone = (negative.sum(axis=1) == 1) & ((cols >= n) | (-picked > 2.0 * _PIVOT_TOL * terms))
    # every row but its own that a block column reaches comes after the block
    touched = tableau[:m, cols] != 0.0
    touched[rows, order] = False
    first_touched = np.where(touched, basis[:, None], n + m).min(axis=0)
    joins = alone & (np.minimum.accumulate(first_touched) > basis[rows])
    joins[0] = True
    return cols[: int(np.logical_and.accumulate(joins).sum())]


def _dual_iterate(
    tableau: np.ndarray, basis: np.ndarray, abs_a: np.ndarray, feas_tol: float, max_iter: int
) -> None:
    """Run dual simplex passes on the tableau in place until every basic
    value is at least -feas_tol, or until max_iter pivots.  The last row
    holds the reduced costs."""
    m = abs_a.shape[0]
    values = tableau[:m, -1]
    pivots = 0
    while pivots < max_iter:
        infeasible = (values < -feas_tol).nonzero()[0]
        if infeasible.size == 0:
            return
        rows = infeasible[basis[infeasible].argsort()[: max_iter - pivots]]
        cols = _plan_pass(tableau, basis, rows, abs_a)
        rows = rows[: cols.size]
        tableau[rows] /= tableau[rows, cols][:, None]
        reached = (tableau[:, cols] != 0.0).any(axis=1)
        reached[rows] = False
        reached = reached.nonzero()[0][:, None]
        spanned = (tableau[rows] != 0.0).any(axis=0).nonzero()[0]
        tableau[reached, spanned] -= tableau[reached, cols] @ tableau[rows[:, None], spanned]
        basis[rows] = cols
        pivots += cols.size
    raise SimplexError("iteration limit exceeded")


def solve_min_geq(c, A, b) -> Tuple[float, np.ndarray]:
    """Minimize c @ y subject to A @ y >= b and y >= 0, for costs c >= 0.

    Returns (optimal value, optimal basic feasible y).  Raises
    InfeasibleProblem accordingly, and SimplexError after 200 * (m + n + 10)
    pivots: the limit counts pivots, not passes, and a pass is cut to the
    pivots left.  Data of the wrong shape, with a non-finite entry or with a
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
