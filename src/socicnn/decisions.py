"""Feasible sets, projected gradient descent, and parametric decision tasks.

Three feasible sets are supported: the probability simplex, the unit box,
and the capped simplex (box coordinates with a fixed budget sum).  Tasks pair
a strongly convex quadratic-linear backbone with one or two ``AffineTerm``s
of one kind (cone norm, logistic sum, log-sum-exp block or Huber sum), all
parameterized by an 8-dimensional context vector through frozen random
affine maps.  One table, ``_FAMILY_TABLE``, gives each family its feasible
set, backbone scale and terms.  One search, ``pgd_minimize`` (projected
gradient descent with an adaptive step per restart, stopped once its
Frank-Wolfe gap certifies its best value), minimises the true objective,
where it is the oracle that decision quality is scored against, and a
Softplus surrogate.  A ReLU surrogate's minimum over the set is one LP, QP
or SOCP over its lift (``surrogate_lift``), which ``solve_surrogate`` solves
with the interior-point method of ``coneqp``.  ``decide_instance`` runs the
whole surrogate pipeline for one instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

import numpy as np

from . import coneqp
from .certificate import lift_rows
from .gradients import value_and_input_gradient_batch
from .model import (
    RELU,
    SocIcnnParams,
    batch_forward,
    norm_rows,
    over_norm,
    sigmoid,
    softplus,
    spawn_rng,
)
from .targets import huber, logsumexp_rows
from .training import Dataset, TrainConfig, build_variant_model, train

SET_KINDS = ("Simplex", "Box", "CappedSimplex")

# family: (set kind, alpha, term kind, term count, rows per term as a function
# of d).  Norm terms get d + 2 rows: the overdetermined map keeps the norm
# smooth on the set.
_FAMILY_TABLE = {
    "SimplexSocp": ("Simplex", 1.0, "norm", 1, lambda d: d + 2),
    "BoxSocp": ("Box", 1.0, "norm", 1, lambda d: d + 2),
    "BudgetTwoConeSocp": ("CappedSimplex", 1.0, "norm", 2, lambda d: d + 2),
    "SimplexLogistic": ("Simplex", 0.35, "logistic", 1, lambda d: max(6, d // 3)),
    "BoxLogsumexp": ("Box", 0.35, "lse", 2, lambda d: max(4, d // 4)),
    "BudgetHuber": ("CappedSimplex", 1.0, "huber", 1, lambda d: max(8, d // 2)),
}
FAMILIES = tuple(_FAMILY_TABLE)

THETA_DIM = 8

# Huber threshold of the ``huber`` terms.
HUBER_DELTA = 0.35


@dataclass(frozen=True)
class FeasibleSet:
    kind: str
    dim: int
    budget: float = 0.0

    def __post_init__(self):
        if self.kind not in SET_KINDS:
            raise ValueError(f"unknown set kind {self.kind!r}; valid: {', '.join(SET_KINDS)}")
        if self.dim < 1:
            raise ValueError(f"a feasible set needs dimension >= 1, got {self.dim}")
        if self.kind == "CappedSimplex" and not (0.0 < self.budget < self.dim):
            raise ValueError("capped-simplex budget must lie strictly between 0 and dim")
        if self.kind != "CappedSimplex" and self.budget != 0.0:
            raise ValueError(f"a {self.kind} set takes no budget, got {self.budget}")


def capped_simplex(dim: int, budget: Optional[float] = None) -> FeasibleSet:
    return FeasibleSet("CappedSimplex", dim, 0.3 * dim if budget is None else budget)


# ---------------------------------------------------------------------------
# Euclidean projections


def _project_simplex_rows(Y: np.ndarray) -> np.ndarray:
    """Sort-and-threshold projection of each row onto {x >= 0, sum x = 1}."""
    n, d = Y.shape
    srt = np.sort(Y, axis=1)[:, ::-1]
    csum = srt.cumsum(axis=1)
    ks = np.arange(1, d + 1)
    cond = srt - (csum - 1.0) / ks > 0.0
    rho = d - 1 - cond[:, ::-1].argmax(axis=1)  # last index satisfying cond
    tau = (csum[np.arange(n), rho] - 1.0) / (rho + 1.0)
    return np.maximum(Y - tau[:, None], 0.0)


def _project_capped_rows(Y: np.ndarray, budget: float) -> np.ndarray:
    """Exact projection of each row onto {0 <= x <= 1, sum x = budget}.

    The projection is clip(y - tau, 0, 1) for the shift tau at which the row
    sum meets the budget.  That sum is piecewise linear and nonincreasing in
    tau, with kinks at y_i - 1 (coordinate i leaves 1) and y_i (it reaches 0).
    Sweeping the sorted kinks tracks the free coordinates (strictly between 0
    and 1), their y sum and the count still at 1; on the first segment whose
    right end sums to at most the budget, tau solves
    at_one + sum_free y - free * tau = budget (Wang & Lu 2015,
    arXiv:1503.01002).  O(d log d) time and O(d) memory per row.
    """
    n, d = Y.shape
    rows = np.arange(n)
    kinks = np.concatenate([Y - 1.0, Y], axis=1)
    order = kinks.argsort(axis=1, kind="stable")
    K = kinks[rows[:, None], order]
    enters = order < d  # a y_i - 1 kink: coordinate i becomes free
    sign = np.where(enters, 1.0, -1.0)
    free = sign.cumsum(axis=1)
    free_sum = (sign * Y[rows[:, None], order % d]).cumsum(axis=1)
    at_one = d - enters.cumsum(axis=1)
    # segment j runs from K[j] to K[j + 1] with the state after kink j; the
    # segment ending at max(y) always has a free coordinate and sums to 0 there
    end_sums = at_one[:, :-1] + free_sum[:, :-1] - free[:, :-1] * K[:, 1:]
    hit = (free[:, :-1] > 0.0) & (end_sums <= budget)
    hit[:, -1] = True
    j = hit.argmax(axis=1)
    tau = (at_one[rows, j] + free_sum[rows, j] - budget) / free[rows, j]
    return (Y - tau[:, None]).clip(0.0, 1.0)


def project_onto_batch(feasible: FeasibleSet, Y: np.ndarray) -> np.ndarray:
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2 or Y.shape[1] != feasible.dim:
        raise ValueError(f"expected rows of length {feasible.dim}")
    if feasible.kind == "Box":
        return Y.clip(0.0, 1.0)
    if feasible.kind == "Simplex":
        return _project_simplex_rows(Y)
    return _project_capped_rows(Y, feasible.budget)


def fw_gap(feasible: FeasibleSet, X: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Frank-Wolfe gap g . (x - s) of each row, with s the minimiser of g . s
    over the set.  For a convex f with gradient g at a feasible x the gap
    bounds f(x) - min f from above (Jaggi 2013, "Revisiting Frank-Wolfe").

    The linear minimiser is a vertex: on the simplex the unit vector at the
    smallest g_i; on the box 1 wherever g_i < 0; on the capped simplex 1 on
    the floor(budget) smallest g_i and the fractional remainder on the next.
    """
    if feasible.kind == "Box":
        lowest = np.minimum(G, 0.0).sum(axis=1)
    elif feasible.kind == "Simplex":
        lowest = G.min(axis=1)
    else:
        whole = int(feasible.budget)
        srt = np.sort(G, axis=1)
        lowest = srt[:, :whole].sum(axis=1) + (feasible.budget - whole) * srt[:, whole]
    return np.maximum((G * X).sum(axis=1) - lowest, 0.0)


def project_onto(feasible: FeasibleSet, y) -> np.ndarray:
    """Euclidean projection of one point onto the feasible set."""
    y = np.asarray(y, dtype=np.float64)
    return project_onto_batch(feasible, y[None, :])[0]


def sample_feasible(feasible: FeasibleSet, n: int, rng: np.random.Generator) -> np.ndarray:
    """Projections of uniform box samples; the start distribution for PGD."""
    return project_onto_batch(feasible, rng.uniform(0.0, 1.0, (n, feasible.dim)))


# ---------------------------------------------------------------------------
# projected gradient descent

# Frank-Wolfe gap at which a search on a convex objective stops: its best
# value is then within this of the minimum.
CERTIFIED_GAP = 1e-9

# First step of every restart of ``pgd_minimize``.
SEARCH_STEP = 0.05


def pgd_minimize(
    objective: Callable,
    feasible: FeasibleSet,
    restarts: int,
    steps: int,
    seed: int,
) -> Tuple[np.ndarray, float, float, int]:
    """Best point of projected gradient descent over random restarts, each
    with its own adaptive step (Malitsky & Mishchenko 2020, "Adaptive
    gradient descent without descent"; projected: Latafat et al. 2023,
    arXiv:2301.04431), and the certified bound on its suboptimality.

    Each restart starts from the projection of a uniform box sample, and
    each step moves every live restart to x+ = project(x - t * g) in one
    objective call.  t reads gradients, never values of f: t_0 is
    ``SEARCH_STEP`` and, with theta_k = t_k / t_{k-1} and theta_0 = +inf,

        t_k = min(sqrt(1 + theta_{k-1}) t_{k-1},
                  ||x_k - x_{k-1}|| / (2 ||g_k - g_{k-1}||), sqrt(dim) / (eps ||g_k||)).

    The last term is a cap: beyond it no bit of an x in [0, 1]^dim survives
    in x - t g, and without it t grows by the golden ratio wherever g stays
    put (at a vertex of the set, say).  A term with a zero denominator does
    not bind, and t does not grow where g = 0.

    The best value at any evaluated point wins, ties to the lowest restart;
    a restart with a non-finite value is abandoned, and it is an error if
    every restart is.  The smallest Frank-Wolfe gap (``fw_gap``) of a live
    point bounds best value - min f for a convex objective.  The search
    makes at most ``steps + 1`` objective calls and stops earlier once that
    gap is at most ``CERTIFIED_GAP`` (certified); a search whose gap cannot
    reach it, at a kink of a nonsmooth objective say, runs to its budget.
    Returns the best point, its value as ``objective`` returned it, the
    smallest gap (above ``CERTIFIED_GAP`` unless certified) and the number of
    objective calls made.  ``objective`` maps an (n, d) batch to values and
    gradients, shaped ((n,), (n, d)).
    """
    if restarts < 1 or steps < 1:
        raise ValueError("restarts and steps must be >= 1")
    rng = spawn_rng(seed)
    X = sample_feasible(feasible, restarts, rng)

    best_vals = np.full(restarts, np.inf)
    best_X = X.copy()
    alive = np.ones(restarts, dtype=bool)
    gap = np.inf
    t = np.full(restarts, SEARCH_STEP)
    theta = np.full(restarts, np.inf)
    reach = math.sqrt(feasible.dim) / np.finfo(np.float64).eps
    for call in range(steps + 1):
        vals, grads = objective(X)
        finite = np.isfinite(vals)
        alive &= finite
        improved = finite & (vals < best_vals)
        best_vals[improved] = vals[improved]
        best_X[improved] = X[improved]
        if alive.any():
            gap = min(gap, float(fw_gap(feasible, X[alive], grads[alive]).min()))
        if gap <= CERTIFIED_GAP or call == steps:
            break
        grads = np.where(alive[:, None], grads, 0.0)  # abandoned restarts stay put
        if call:
            turned = 2.0 * norm_rows(grads - last_grads)
            slope = norm_rows(grads)
            moved = norm_rows(X - last_X)
            local = np.divide(moved, turned, out=np.full_like(t, np.inf), where=turned > 0.0)
            cap = np.divide(reach, slope, out=t.copy(), where=slope > 0.0)
            new_t = np.minimum(np.minimum(np.sqrt(1.0 + theta) * t, local), cap)
            theta, t = new_t / t, new_t
        last_X, last_grads = X, grads
        X = project_onto_batch(feasible, X - t[:, None] * grads)

    if not np.any(np.isfinite(best_vals)):
        raise RuntimeError("every restart produced non-finite objective values")
    idx = int(np.argmin(best_vals))
    return best_X[idx].copy(), float(best_vals[idx]), gap, call + 1


# ---------------------------------------------------------------------------
# parametric tasks


@dataclass(frozen=True, eq=False)
class AffineTerm:
    """One structured convex term of a task objective.

    Its rows are u = proj @ x - shift(theta), and its weights are
    softplus(weight_base + weight_map @ theta), with
    shift(theta) = shift_base + shift_map @ theta.  ``kind`` picks the term:

    * ``norm``:     weight * ||u||             (one weight)
    * ``lse``:      weight * logsumexp(u)      (one weight)
    * ``logistic``: sum_k weight_k * log(1 + exp(u_k))
    * ``huber``:    sum_k weight_k * huber(u_k)
    """

    kind: str
    proj: np.ndarray  # (K, d)
    shift_base: np.ndarray  # (K,)
    shift_map: np.ndarray  # (K, THETA_DIM)
    weight_base: np.ndarray  # () or (K,)
    weight_map: np.ndarray  # (THETA_DIM,) or (K, THETA_DIM)


@dataclass(frozen=True, eq=False)
class ParametricTask:
    family: str
    dim: int
    feasible_set: FeasibleSet
    alpha: float
    backbone_weights: np.ndarray  # (d,), entries in [0.8, 1.6]
    m_base: np.ndarray
    m_map: np.ndarray
    c_base: np.ndarray
    c_map: np.ndarray
    terms: Tuple[AffineTerm, ...] = ()


def _affine_maps(rng: np.random.Generator, dim: int) -> Tuple[np.ndarray, np.ndarray]:
    base = rng.standard_normal(dim)
    mat = rng.standard_normal((dim, THETA_DIM)) / math.sqrt(THETA_DIM)
    return base, mat


def _draw_term(rng: np.random.Generator, kind: str, rows: int, dim: int) -> AffineTerm:
    """Draws proj, shift base, shift map, weight base and weight map, in order."""
    weight_shape = (rows,) if kind in ("logistic", "huber") else ()
    return AffineTerm(
        kind=kind,
        proj=rng.standard_normal((rows, dim)) / math.sqrt(dim),
        shift_base=rng.standard_normal(rows),
        shift_map=rng.standard_normal((rows, THETA_DIM)) / math.sqrt(THETA_DIM),
        weight_base=rng.standard_normal(weight_shape),
        weight_map=rng.standard_normal(weight_shape + (THETA_DIM,)) / math.sqrt(THETA_DIM),
    )


def make_task(family: str, dim: int, seed: int) -> ParametricTask:
    """Freeze one task's coefficients from (family, dim, seed)."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; valid: {', '.join(FAMILIES)}")
    if dim < 2:
        raise ValueError("task dimension must be >= 2")
    rng = spawn_rng(seed, FAMILIES.index(family), dim)
    set_kind, alpha, term_kind, term_count, rows = _FAMILY_TABLE[family]
    if set_kind == "CappedSimplex":
        feasible = capped_simplex(dim)
    else:
        feasible = FeasibleSet(set_kind, dim)
    weights = rng.uniform(0.8, 1.6, dim)
    m_base, m_map = _affine_maps(rng, dim)
    c_base, c_map = _affine_maps(rng, dim)
    terms = tuple(_draw_term(rng, term_kind, rows(dim), dim) for _ in range(term_count))
    return ParametricTask(
        family=family,
        dim=dim,
        feasible_set=feasible,
        alpha=alpha,
        backbone_weights=weights,
        m_base=m_base,
        m_map=m_map,
        c_base=c_base,
        c_map=c_map,
        terms=terms,
    )


def sample_context(seed: int, *key: int) -> np.ndarray:
    """Context vectors are drawn uniformly from [-1, 1]^8."""
    return spawn_rng(seed, *key).uniform(-1.0, 1.0, THETA_DIM)


def task_objective(task: ParametricTask, theta, X) -> Tuple[np.ndarray, np.ndarray]:
    """Objective values (n,) and gradients (n, d) on the rows of an (n, d)
    batch X; any other shape raises ``ValueError``.  A single point is a
    one-row batch.

    Gradients at a vanishing cone norm use the zero-vector convention.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (THETA_DIM,):
        raise ValueError(f"theta must have shape ({THETA_DIM},)")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != task.dim:
        raise ValueError(f"decision points must be an (n, {task.dim}) batch, got shape {X.shape}")

    m = task.m_base + task.m_map @ theta
    c = task.c_base + task.c_map @ theta
    diff = X - m
    w = task.backbone_weights
    vals = 0.5 * task.alpha * (diff * diff) @ w + X @ c
    grads = task.alpha * (diff * w) + c

    for term in task.terms:
        weights = softplus(term.weight_base + term.weight_map @ theta)
        shifts = term.shift_base + term.shift_map @ theta
        T = X @ term.proj.T - shifts  # (n, K)
        if term.kind == "norm":
            weight = float(weights)
            norms = norm_rows(T)
            vals += weight * norms
            grads += (over_norm(weight, norms)[:, None] * T) @ term.proj
        elif term.kind == "lse":
            weight = float(weights)
            lse, soft = logsumexp_rows(T)
            vals += weight * lse
            grads += weight * (soft @ term.proj)
        elif term.kind == "logistic":
            vals += softplus(T) @ weights
            grads += (sigmoid(T) * weights) @ term.proj
        else:
            hv, hg = huber(T, HUBER_DELTA)
            vals += hv @ weights
            grads += (hg * weights) @ term.proj
    return vals, grads


@dataclass(frozen=True)
class DecisionReport:
    """One ``decisions.csv`` row's results, fields in column order.

    ``oracle_gap`` is the oracle's certified gap: the regret against the
    true minimum lies in [regret, regret + oracle_gap].  Only ``regret`` is
    certified: ``decision_error`` is measured against the oracle's point,
    known only to within sqrt(2 * oracle_gap / mu) of the true minimiser, with
    mu = alpha * min(backbone_weights) the strong-convexity modulus.
    ``oracle_evals`` is the number of objective calls the oracle made.
    ``true_value`` is the true objective's value at the decision.  The three
    ``surrogate_*`` fields depend on the surrogate's activation:

    * ReLU (the ReLU, QuadOnly, NormOnly and SOC variants): the decision is
      the x of one ``coneqp`` solve of the surrogate's lift, projected onto
      the set.  ``surrogate_value`` is the surrogate's one-row batch forward
      there, ``surrogate_evals`` the solver's step count and
      ``surrogate_gap`` its final duality gap s'z, at most 1e-10 times
      max(1, |value|) by its stop rule.
    * Softplus: the decision is the best point of its ``pgd_minimize``
      search.  ``surrogate_value`` is its value as that search evaluated it,
      and ``surrogate_evals`` and ``surrogate_gap`` are the search's
      objective calls and smallest Frank-Wolfe gap, above ``CERTIFIED_GAP``
      where it ran out of steps.

    The last four fields have defaults (NaN, and 0 calls) so that a report
    built from the first four values alone (as ``bench/tests`` does)
    works."""

    regret: float
    oracle_gap: float
    oracle_evals: int
    decision_error: float
    surrogate_value: float = math.nan
    true_value: float = math.nan
    surrogate_evals: int = 0
    surrogate_gap: float = math.nan


DEFAULT_ORACLE_CONFIG = (20, 2000)


def minimize_task(
    task: ParametricTask,
    theta,
    restarts: int,
    steps: int,
    seed: int = 0,
) -> Tuple[np.ndarray, float, float, int]:
    """The certified oracle on the true objective: ``pgd_minimize`` from
    ``restarts`` starts, with at most steps + 1 objective calls, stopped once
    its Frank-Wolfe gap is at most ``CERTIFIED_GAP``.  Returns the best point,
    its value, that gap and the number of objective calls."""
    return pgd_minimize(
        lambda X: task_objective(task, theta, X), task.feasible_set, restarts, steps, seed
    )


def evaluate_decision_quality(
    task: ParametricTask,
    theta,
    x_hat,
    oracle_config: Tuple[int, int] = DEFAULT_ORACLE_CONFIG,
    oracle_seed: int = 0,
) -> DecisionReport:
    """Regret and decision error of x_hat against the certified oracle.

    x_hat must already be feasible (project first): a shape other than
    (task.dim,), a non-finite entry or a point more than 1e-9 in max-norm
    from its projection raises ``ValueError`` before the oracle runs.  The
    oracle is a call to ``minimize_task`` with (restarts, steps) =
    ``oracle_config``, and the report takes its gap and its count of
    objective calls.  Its value is within the gap of the minimum, so
    regret >= -oracle_gap >= -CERTIFIED_GAP; an oracle that runs out of
    steps first reports its larger gap.
    """
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if x_hat.shape != (task.dim,):
        raise ValueError(f"x_hat must have shape ({task.dim},), got {x_hat.shape}")
    if not np.all(np.isfinite(x_hat)):
        raise ValueError("x_hat contains non-finite values")
    off = float(np.max(np.abs(project_onto(task.feasible_set, x_hat) - x_hat)))
    if off > 1e-9:
        raise ValueError(f"x_hat lies {off:.3g} from the feasible set (max-norm)")
    restarts, steps = oracle_config
    x_star, f_star, gap, calls = minimize_task(task, theta, restarts, steps, oracle_seed)
    f_hat = float(task_objective(task, theta, x_hat[None])[0][0])
    return DecisionReport(
        regret=float(f_hat - f_star),
        oracle_gap=gap,
        oracle_evals=calls,
        decision_error=float(np.sqrt(np.sum((x_hat - x_star) ** 2))),
        true_value=f_hat,
    )


# ---------------------------------------------------------------------------
# surrogate decision pipeline


def hash_key(*parts: str) -> int:
    """Stable small integer from string parts, for seed derivation."""
    acc = 0
    for part in parts:
        for ch in part:
            acc = (acc * 33 + ord(ch)) % (2**31)
    return acc


def surrogate_lift(params: SocIcnnParams, feasible: FeasibleSet) -> dict:
    """The minimum of a ReLU model over the set as one cone QP over
    v = (x, z, t), as the keyword arguments of ``coneqp.solve``.

    The objective is w_out z_L + w_skip x + b_out + sum_h w_h/2 ||P_h x + o_h||^2
    + sum_g w_g t_g, so each quadratic branch adds to Q, q and c0.  The rows
    are the lift's z_l >= W_z z_{l-1} + W_x x + b (``lift_rows``) and z >= 0,
    the set's x >= 0, x <= 1 (Box and CappedSimplex) and its sum row
    (Simplex and CappedSimplex), then one cone t_g >= ||P_g x + o_g|| per
    conic branch.  Hidden units that reach the readout through no positive
    weight, and conic branches of weight 0, are left out: nothing in the
    objective bounds them, and the solver's iterates would run off along
    them.  Every weight is read with ``float``, so nothing here writes into
    the model (its scalars may be views of a flat vector).
    """
    d = params.input_dim
    z_block, x_block, b = lift_rows(params)
    # a unit is live if the readout, or a live unit of the next layer, reads
    # it with a positive weight
    keep = params.w_out > 0.0
    live = [keep]
    for layer in params.layers[:0:-1]:
        keep = np.any(layer.w_z[keep] > 0.0, axis=0)
        live.append(keep)
    live = np.concatenate(live[::-1])
    readout = np.zeros(live.size)
    readout[-params.w_out.size :] = params.w_out
    cones = [br for br in params.conic if float(br.weight) > 0.0]
    nz = int(live.sum())
    nv = d + nz + len(cones)

    Q = np.zeros((nv, nv))
    q = np.zeros(nv)
    c0 = float(params.b_out)
    q[:d] = params.w_skip
    q[d : d + nz] = readout[live]
    for br in params.quad:
        weight = float(br.weight)
        Q[:d, :d] += weight * (br.proj.T @ br.proj)
        q[:d] += weight * (br.proj.T @ br.offset)
        c0 += 0.5 * weight * float(br.offset @ br.offset)
    q[d + nz :] = [float(br.weight) for br in cones]

    upper = feasible.kind != "Simplex"
    layers = np.zeros((nz, nv))
    layers[:, :d] = x_block[live]
    layers[:, d : d + nz] = -z_block[np.ix_(live, live)]
    eye_x = np.eye(d, nv)
    G = [layers, -np.eye(nz, nv, d), -eye_x] + ([eye_x] if upper else [])
    h = [-b[live], np.zeros(nz + d)] + ([np.ones(d)] if upper else [])
    linear = sum(block.shape[0] for block in G)
    for j, br in enumerate(cones):
        block = np.zeros((1 + br.proj.shape[0], nv))
        block[0, d + nz + j] = -1.0
        block[1:, :d] = -br.proj
        G.append(block)
        h.append(np.concatenate([[0.0], br.offset]))
    total = {"Simplex": 1.0, "CappedSimplex": feasible.budget}.get(feasible.kind)
    A = np.zeros((0 if total is None else 1, nv))
    A[:, :d] = 1.0
    return dict(
        Q=Q, q=q, c0=c0, G=np.vstack(G), h=np.concatenate(h), A=A,
        b=np.array([] if total is None else [total]),
        linear=linear,
        cones=[1 + br.proj.shape[0] for br in cones],
    )


def solve_surrogate(
    params: SocIcnnParams, feasible: FeasibleSet
) -> Tuple[np.ndarray, float, float, int]:
    """A ReLU model's minimum over the set, from one ``coneqp.solve`` of
    ``surrogate_lift``.  Returns the solution's x projected onto the set,
    the model's value there (its one-row ``batch_forward``), the solver's
    gap s'z and its step count.  A smooth-activation model has no such lift
    and raises ``UnsupportedActivationError``."""
    solution = coneqp.solve(**surrogate_lift(params, feasible))
    x = project_onto(feasible, solution.v[: feasible.dim])
    return x, float(batch_forward(params, x[None]).total[0]), solution.gap, solution.steps


def decide_instance(
    task,
    theta,
    model_variant: str,
    instance_rng,
    candidates: int = 64,
    restarts: int = 5,
    steps: int = 200,
    oracle_config=DEFAULT_ORACLE_CONFIG,
    surrogate_width: int = 8,
    surrogate_epochs: int = 300,
    surrogate_lr: float = 1e-2,
):
    """Train a per-instance surrogate on feasible candidates and score its
    decision against the true-objective oracle.  A ReLU surrogate's decision
    is its exact minimum (``solve_surrogate``); a Softplus surrogate's is
    its ``pgd_minimize`` search with ``restarts`` and ``steps``.  Returns the
    decision report and the chosen point."""
    points = sample_feasible(task.feasible_set, candidates, instance_rng)
    values, _ = task_objective(task, theta, points)
    ds = Dataset(xs=points, ys=values)

    surrogate = build_variant_model(
        model_variant, task.dim, surrogate_width, 2, int(instance_rng.integers(2**62))
    )
    cfg = TrainConfig(
        epochs=surrogate_epochs,
        batch_size=candidates,
        learning_rate=surrogate_lr,
        # train reads no seed on a full batch validated on itself; it is still
        # drawn, so that the search and oracle seeds after it stay put
        seed=int(instance_rng.integers(2**62)),
        early_stop_patience=surrogate_epochs,
    )
    trained, _ = train(surrogate, ds, ds, cfg)

    # drawn for every surrogate, so that the oracle's seed after it stays put
    search_seed = int(instance_rng.integers(2**62))
    if trained.activation == RELU:
        x_hat, value, gap, calls = solve_surrogate(trained, task.feasible_set)
    else:
        x_hat, value, gap, calls = pgd_minimize(
            lambda X: value_and_input_gradient_batch(trained, X),
            task.feasible_set,
            restarts,
            steps,
            search_seed,
        )
    report = evaluate_decision_quality(
        task,
        theta,
        x_hat,
        oracle_config=oracle_config,
        oracle_seed=int(instance_rng.integers(2**62)),
    )
    return replace(report, surrogate_value=value, surrogate_evals=calls, surrogate_gap=gap), x_hat
