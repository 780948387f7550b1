import itertools

import numpy as np
import pytest

from socicnn import (
    FAMILIES,
    FeasibleSet,
    capped_simplex,
    decisions,
    evaluate_decision_quality,
    forward,
    make_task,
    minimize_task,
    pgd_minimize,
    project_onto,
    sample_context,
    spawn_rng,
    task_objective,
    training,
)
from socicnn.decisions import (
    CERTIFIED_GAP,
    DEFAULT_ORACLE_CONFIG,
    HUBER_DELTA,
    THETA_DIM,
    fw_gap,
    project_onto_batch,
    sample_feasible,
)

from test_model import count_calls, fail_wherever_called


# ---------------------------------------------------------------------------
# projections


def test_box_projection_clamps():
    box = FeasibleSet("Box", 3)
    assert np.array_equal(project_onto(box, [1.5, -0.2, 0.5]), [1.0, 0.0, 0.5])


def brute_force_simplex_projection(y, pitch=2e-3):
    # dense sweep over the 2-simplex parameterized by its first coordinate
    best, best_d = None, np.inf
    for a in np.arange(0.0, 1.0 + pitch, pitch):
        x = np.array([a, 1.0 - a])
        d = float(np.sum((x - y) ** 2))
        if d < best_d:
            best, best_d = x, d
    return best


def test_simplex_projection_against_grid():
    simp = FeasibleSet("Simplex", 2)
    for y in ([2.0, 0.0], [0.3, -0.4], [-1.0, -2.0], [0.9, 0.8]):
        got = project_onto(simp, y)
        ref = brute_force_simplex_projection(np.asarray(y))
        assert np.allclose(got, ref, atol=5e-3)
        assert got.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.min(got) >= 0.0
    assert np.allclose(project_onto(simp, [2.0, 0.0]), [1.0, 0.0], atol=1e-12)


def test_projection_identity_on_members():
    simp = FeasibleSet("Simplex", 4)
    y = np.array([0.1, 0.2, 0.3, 0.4])
    assert np.allclose(project_onto(simp, y), y, atol=1e-12)
    cap = capped_simplex(10, 3.0)
    y = np.full(10, 0.3)
    assert np.allclose(project_onto(cap, y), y, atol=1e-12)


def test_capped_simplex_budget_is_met():
    cap = capped_simplex(6, 1.8)
    rng = spawn_rng(12)
    Y = rng.uniform(-2, 3, (200, 6))
    P = project_onto_batch(cap, Y)
    assert np.max(np.abs(P.sum(axis=1) - 1.8)) <= 1e-11
    assert np.min(P) >= 0.0 and np.max(P) <= 1.0


@pytest.mark.parametrize(
    "feasible",
    [FeasibleSet("Box", 5), FeasibleSet("Simplex", 5), capped_simplex(5, 1.5)],
    ids=["box", "simplex", "capped"],
)
def test_projection_variational_inequality(feasible):
    # <y - P(y), x - P(y)> <= 0 for every feasible x characterizes projections
    rng = spawn_rng(13)
    Y = rng.uniform(-2, 2, (20, 5))
    P = project_onto_batch(feasible, Y)
    X = sample_feasible(feasible, 1000, rng)
    worst = -np.inf
    for y, p in zip(Y, P):
        worst = max(worst, float(np.max((X - p) @ (y - p))))
    assert worst <= 1e-9


@pytest.mark.parametrize(
    "feasible",
    [FeasibleSet("Box", 5), FeasibleSet("Simplex", 5), capped_simplex(5, 1.5)],
    ids=["box", "simplex", "capped"],
)
def test_projection_idempotence(feasible):
    rng = spawn_rng(14)
    Y = rng.uniform(-2, 2, (50, 5))
    P = project_onto_batch(feasible, Y)
    assert np.max(np.abs(project_onto_batch(feasible, P) - P)) <= 1e-12


def bisection_capped_projection(Y, budget):
    # reference: bisection on the shift tau until the row sums meet the budget
    lo = np.min(Y, axis=1) - 1.0
    hi = np.max(Y, axis=1)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        high = np.clip(Y - mid[:, None], 0.0, 1.0).sum(axis=1) > budget
        lo = np.where(high, mid, lo)
        hi = np.where(high, hi, mid)
    return np.clip(Y - (0.5 * (lo + hi))[:, None], 0.0, 1.0)


@pytest.mark.parametrize(
    "dim,budget", [(2, 0.5), (5, 1.0), (7, 4.0), (10, 3.0), (10, 7.25), (40, 12.5), (5, 1e-17)]
)
def test_capped_projection_matches_bisection(dim, budget):
    rng = spawn_rng(16, dim)
    cap = capped_simplex(dim, budget)
    random_rows = rng.uniform(-2.0, 3.0, (100, dim))
    # ties on a 0.1 grid, whose kink sums carry rounding
    tied_rows = np.round(rng.uniform(-2.0, 3.0, (100, dim)), 1)
    tied_rows[:10] = budget / dim  # every coordinate tied
    feasible_rows = bisection_capped_projection(rng.uniform(-1.0, 2.0, (100, dim)), budget)
    for Y in (random_rows, tied_rows, feasible_rows):
        got = project_onto_batch(cap, Y)
        assert np.max(np.abs(got - bisection_capped_projection(Y, budget))) <= 1e-12


def reference_capped_projection(Y, budget):
    # the kink sweep with np.take_along_axis gathers and np.clip
    n, d = Y.shape
    kinks = np.concatenate([Y - 1.0, Y], axis=1)
    order = np.argsort(kinks, axis=1, kind="stable")
    K = np.take_along_axis(kinks, order, axis=1)
    enters = order < d
    sign = np.where(enters, 1.0, -1.0)
    free = np.cumsum(sign, axis=1)
    free_sum = np.cumsum(sign * np.take_along_axis(Y, order % d, axis=1), axis=1)
    at_one = d - np.cumsum(enters, axis=1)
    end_sums = at_one[:, :-1] + free_sum[:, :-1] - free[:, :-1] * K[:, 1:]
    hit = (free[:, :-1] > 0.0) & (end_sums <= budget)
    hit[:, -1] = True
    j = np.argmax(hit, axis=1)
    rows = np.arange(n)
    tau = (at_one[rows, j] + free_sum[rows, j] - budget) / free[rows, j]
    return np.clip(Y - tau[:, None], 0.0, 1.0)


def reference_simplex_projection(Y):
    # sort and threshold with the np.cumsum and np.argmax wrappers
    n, d = Y.shape
    srt = np.sort(Y, axis=1)[:, ::-1]
    csum = np.cumsum(srt, axis=1)
    cond = srt - (csum - 1.0) / np.arange(1, d + 1) > 0.0
    rho = d - 1 - np.argmax(cond[:, ::-1], axis=1)
    tau = (csum[np.arange(n), rho] - 1.0) / (rho + 1.0)
    return np.maximum(Y - tau[:, None], 0.0)


@pytest.mark.parametrize("dim,budget", [(2, 0.5), (5, 1.0), (7, 4.0), (10, 3.0), (10, 7.25)])
def test_capped_projection_is_bitwise_the_reference(dim, budget):
    # tobytes compares signed zeros too: clip keeps a -0.0 that
    # minimum(maximum(.)) would turn into +0.0
    rng = spawn_rng(18, dim)
    random_rows = rng.uniform(-2.0, 3.0, (100, dim))
    tied_rows = np.round(rng.uniform(-2.0, 3.0, (100, dim)), 1)
    signed_zero_rows = np.where(rng.uniform(size=(100, dim)) < 0.4, -0.0, random_rows)
    # vertices of an integral budget, written with -0.0: tau is 0 and Y - tau keeps the sign
    whole = int(budget)
    vertices = np.full((20, dim), -0.0)
    for row in vertices:
        row[rng.permutation(dim)[:whole]] = 1.0
    ref = {
        "CappedSimplex": lambda Y: reference_capped_projection(Y, budget),
        "Box": lambda Y: np.clip(Y, 0.0, 1.0),
        "Simplex": reference_simplex_projection,
    }
    for feasible in (capped_simplex(dim, budget), FeasibleSet("Box", dim), FeasibleSet("Simplex", dim)):
        for Y in (random_rows, tied_rows, signed_zero_rows, vertices):
            got = project_onto_batch(feasible, Y)
            assert got.tobytes() == ref[feasible.kind](Y).tobytes()
    assert np.signbit(project_onto_batch(FeasibleSet("Box", dim), signed_zero_rows)).any()
    if whole == budget:
        assert np.signbit(project_onto_batch(capped_simplex(dim, budget), vertices)).any()


def brute_force_gap(feasible, x, g):
    # g . x minus the smallest g . s over every candidate vertex: entries in
    # {0, fractional part of the budget, 1}, kept when the point is feasible
    if feasible.kind == "Box":
        grid = [0.0, 1.0]
    else:
        budget = 1.0 if feasible.kind == "Simplex" else feasible.budget
        grid = sorted({0.0, budget - np.floor(budget), 1.0})
    points = np.array(list(itertools.product(grid, repeat=feasible.dim)))
    if feasible.kind != "Box":
        points = points[np.abs(points.sum(axis=1) - budget) <= 1e-12]
    return float(g @ x - np.min(points @ g))


@pytest.mark.parametrize(
    "feasible",
    [FeasibleSet("Box", 4), FeasibleSet("Simplex", 4), capped_simplex(5, 2.0),
     capped_simplex(5, 2.6)],
    ids=["box", "simplex", "capped-integer", "capped-fractional"],
)
def test_fw_gap_matches_vertex_enumeration(feasible):
    rng = spawn_rng(17)
    X = sample_feasible(feasible, 30, rng)
    G = rng.standard_normal((30, feasible.dim))
    G[:5] = np.round(G[:5])  # tied gradient entries
    got = fw_gap(feasible, X, G)
    ref = [brute_force_gap(feasible, x, g) for x, g in zip(X, G)]
    assert np.allclose(got, ref, rtol=0.0, atol=1e-12)
    assert np.min(got) >= 0.0


def test_feasible_set_validation():
    with pytest.raises(ValueError):
        FeasibleSet("Diamond", 3)
    with pytest.raises(ValueError):
        FeasibleSet("CappedSimplex", 3, budget=5.0)
    for kind in ("Box", "Simplex", "CappedSimplex"):
        for dim in (0, -1):
            with pytest.raises(ValueError, match=f"dimension >= 1, got {dim}"):
                FeasibleSet(kind, dim, budget=0.5)
    for kind in ("Box", "Simplex"):
        with pytest.raises(ValueError, match="takes no budget"):
            FeasibleSet(kind, 3, budget=5.0)
    for feasible in (FeasibleSet("Box", 3), FeasibleSet("Simplex", 3),
                     FeasibleSet("CappedSimplex", 3, budget=1.5)):
        for Y in (np.zeros((2, 4)), np.zeros(3)):
            with pytest.raises(ValueError, match="expected rows of length 3"):
                project_onto_batch(feasible, Y)


# ---------------------------------------------------------------------------
# projected gradient descent


def test_pgd_interior_minimum_on_box():
    center = np.array([0.5, 0.5])
    obj = lambda X: (0.5 * np.sum((X - center) ** 2, axis=1), X - center)
    x, value, _, _ = pgd_minimize(obj, FeasibleSet("Box", 2), 3, 400, seed=0)
    assert np.allclose(x, center, atol=1e-6)
    assert value <= 1e-10


def test_pgd_linear_on_simplex_hits_vertex():
    c = np.array([1.0, 2.0])
    obj = lambda X: (X @ c, np.tile(c, (X.shape[0], 1)))
    x, value, _, _ = pgd_minimize(obj, FeasibleSet("Simplex", 2), 4, 400, seed=1)
    assert np.allclose(x, [1.0, 0.0], atol=1e-6)
    assert value == pytest.approx(1.0, abs=1e-6)


def test_pgd_quadratic_on_capped_simplex_vs_grid():
    rng = spawn_rng(15)
    H = rng.standard_normal((3, 3))
    Q = H.T @ H + 0.5 * np.eye(3)
    b = rng.standard_normal(3)

    def obj(X):
        return 0.5 * np.einsum("ij,jk,ik->i", X, Q, X) + X @ b, X @ Q + b

    cap = capped_simplex(3, 0.9)
    x, value, _, _ = pgd_minimize(obj, cap, 5, 800, seed=2)

    # grid-search oracle with pitch 0.01 over the two free coordinates
    best = np.inf
    for a in np.arange(0.0, 0.9 + 1e-12, 0.01):
        for c2 in np.arange(0.0, 0.9 - a + 1e-12, 0.01):
            z = np.array([a, c2, 0.9 - a - c2])
            if z[2] <= 1.0:
                best = min(best, float(obj(z[None, :])[0][0]))
    assert value <= best + 1e-4


def test_pgd_abandons_nonfinite_restarts():
    # objective blows up on half the box; surviving restarts still answer
    abandoned = []

    def obj(X):
        abandoned.append(int(np.sum(X[:, 0] > 0.6)))
        vals = np.where(X[:, 0] > 0.6, np.nan, np.sum(X**2, axis=1))
        return vals, np.where(X[:, :1] > 0.6, 0.0, 2 * X)

    x, value, _, count = pgd_minimize(obj, FeasibleSet("Box", 2), 8, 50, seed=4)
    assert np.isfinite(value)
    assert x[0] <= 0.6
    assert abandoned[0] > 0 and count == len(abandoned)

    always_bad = lambda X: (np.full(X.shape[0], np.nan), np.zeros_like(X))
    with pytest.raises(RuntimeError):
        pgd_minimize(always_bad, FeasibleSet("Box", 2), 3, 10, seed=5)


def test_backtracking_abandons_nonfinite_restarts():
    # the surviving restarts still reach, and certify, the true minimum
    def obj(X):
        vals = np.where(X[:, 0] > 0.6, np.nan, np.sum(X**2, axis=1))
        return vals, np.where(X[:, :1] > 0.6, 0.0, 2 * X)

    x, value, gap, _ = pgd_minimize(obj, FeasibleSet("Box", 2), 8, 50, seed=4)
    assert x[0] <= 0.6
    assert value == pytest.approx(0.0, abs=1e-9) and gap <= CERTIFIED_GAP

    always_bad = lambda X: (np.full(X.shape[0], np.nan), np.zeros_like(X))
    with pytest.raises(RuntimeError):
        pgd_minimize(always_bad, FeasibleSet("Box", 2), 3, 10, seed=5)


def test_pgd_abandons_restarts_with_infinite_gradients():
    # an abandoned restart's gradient never reaches the step rule, where
    # inf - inf would be an invalid-value warning
    def obj(X):
        vals = np.where(X[:, 0] > 0.6, np.nan, np.sum(X**2, axis=1))
        return vals, np.where(X[:, :1] > 0.6, np.inf, 2 * X)

    _, value, gap, _ = pgd_minimize(obj, FeasibleSet("Box", 2), 8, 50, seed=4)
    assert value == pytest.approx(0.0, abs=1e-9) and gap <= CERTIFIED_GAP


def test_pgd_returns_best_value_seen():
    # the reported optimum is the min over every evaluated point, rejected
    # trial points included
    seen = []

    def obj(X):
        values = np.sum((X - 0.3) ** 2, axis=1) + 0.1 * np.sin(8 * X[:, 0])
        seen.extend(values)
        grads = 2 * (X - 0.3)
        grads[:, 0] += 0.8 * np.cos(8 * X[:, 0])
        return values, grads

    _, value, _, _ = pgd_minimize(obj, FeasibleSet("Box", 2), 1, 40, seed=6)
    assert value == min(seen)


def test_backtracking_returns_best_value_seen_within_its_budget():
    seen = []

    def obj(X):
        values = np.sum((X - 0.3) ** 2, axis=1) + 0.1 * np.sin(8 * X[:, 0])
        seen.append(values)
        grads = 2 * (X - 0.3)
        grads[:, 0] += 0.8 * np.cos(8 * X[:, 0])
        return values, grads

    _, value, gap, _ = pgd_minimize(obj, FeasibleSet("Box", 2), 3, 4, seed=6)
    assert len(seen) == 5  # every step and the start, no certificate yet
    assert value == np.min(seen)
    assert CERTIFIED_GAP < gap < np.inf


def test_pgd_without_certificate_runs_every_step():
    calls = []
    center = np.array([0.5, 0.5])

    def obj(X):
        calls.append(X.shape[0])
        return 0.5 * np.sum((X - center) ** 2, axis=1), X - center

    _, _, gap, count = pgd_minimize(obj, FeasibleSet("Box", 2), 2, 5, seed=0)
    assert count == len(calls) == 6  # every step and the start
    assert CERTIFIED_GAP < gap < np.inf

    calls.clear()
    _, value, gap, count = pgd_minimize(obj, FeasibleSet("Box", 2), 2, 400, seed=0)
    assert count == len(calls) < 400
    assert gap <= CERTIFIED_GAP and value <= gap


def test_pgd_validation():
    obj = lambda X: (np.zeros(X.shape[0]), np.zeros_like(X))
    with pytest.raises(ValueError):
        pgd_minimize(obj, FeasibleSet("Box", 2), 0, 10, seed=0)
    with pytest.raises(ValueError):
        pgd_minimize(obj, FeasibleSet("Box", 2), 1, 0, seed=0)


def test_backtracking_validation():
    obj = lambda X: (np.zeros(X.shape[0]), np.zeros_like(X))
    with pytest.raises(ValueError):
        pgd_minimize(obj, FeasibleSet("Box", 2), -1, 10, seed=0)
    with pytest.raises(ValueError):
        pgd_minimize(obj, FeasibleSet("Box", 2), 1, -1, seed=0)


def _slsqp_value(task, theta):
    """The true objective at SLSQP's minimiser over the task's set, after
    projecting that point onto the set."""
    minimize = pytest.importorskip("scipy.optimize").minimize
    feasible = task.feasible_set
    total = {"Simplex": 1.0, "CappedSimplex": feasible.budget}.get(feasible.kind)
    constraints = []
    if total is not None:
        constraints.append({"type": "eq", "fun": lambda x: np.sum(x) - total,
                            "jac": lambda x: np.ones_like(x)})

    def objective(x):
        (value,), (grad,) = task_objective(task, theta, x[None])
        return value, grad

    result = minimize(
        objective,
        project_onto(feasible, np.full(task.dim, 0.5)),
        jac=True,
        method="SLSQP",
        bounds=[(0.0, 1.0)] * task.dim,
        constraints=constraints,
        options={"ftol": 1e-15, "maxiter": 1000},
    )
    return task_objective(task, theta, project_onto(feasible, result.x)[None])[0][0]


@pytest.mark.parametrize("family", FAMILIES)
def test_backtracking_oracle_agrees_with_pgd(family):
    # the oracle against an independent reference, scipy's SLSQP
    contexts = [(10, index) for index in range(20)] + [(50, 0)]
    for dim, index in contexts:
        task = make_task(family, dim, 5)
        theta = sample_context(5, index)
        calls = []

        def obj(X):
            calls.append(1)
            return task_objective(task, theta, X)

        _, value, gap, _ = pgd_minimize(obj, task.feasible_set, *DEFAULT_ORACLE_CONFIG, seed=index)
        assert value <= _slsqp_value(task, theta) + CERTIFIED_GAP, (dim, index)
        assert gap <= CERTIFIED_GAP, (dim, index)
        assert len(calls) < 100, (dim, index)


def test_backtracking_certifies_at_a_rounding_level_decrease():
    # A constant of 100 puts the last decreases at the rounding level of f;
    # a step chosen by comparing values of f sees only rounding noise there,
    # and one that shrinks on that noise freezes the search at a gap of
    # about 1e-8.
    rng = spawn_rng(17)
    simplex = FeasibleSet("Simplex", 5)
    for trial in range(20):
        center = rng.uniform(-0.5, 1.5, 5)
        H = rng.standard_normal((5, 5))
        Q = H.T @ H + 0.5 * np.eye(5)

        def obj(X):
            diff = X - center
            return 100.0 + 0.5 * np.einsum("ij,jk,ik->i", diff, Q, diff), diff @ Q

        _, _, gap, _ = pgd_minimize(obj, simplex, 1, 2000, seed=trial)
        assert gap <= CERTIFIED_GAP, trial


def test_backtracking_step_stays_finite_where_the_projection_is_fixed(monkeypatch):
    # Once the search sits on the vertex, project(x - t g) = x and g stays
    # put on every step; a step that grew there without a cap would overflow.
    c = np.array([1.0, 2.0, 3.0])
    points = []

    def obj(X):
        points.append(X)
        return X @ c, np.tile(c, (X.shape[0], 1))

    # never stop early: at a CERTIFIED_GAP of -1 no gap certifies, and no
    # search stalls, since its best value never rises
    monkeypatch.setattr(decisions, "CERTIFIED_GAP", -1.0)
    x, value, gap, _ = pgd_minimize(obj, FeasibleSet("Simplex", 3), 4, 3000, seed=1)
    assert len(points) == 3001
    assert np.array_equal(x, [1.0, 0.0, 0.0]) and value == 1.0
    assert gap <= CERTIFIED_GAP
    assert np.all(np.isfinite(np.array(points)))
    assert np.array_equal(points[-1], np.tile([1.0, 0.0, 0.0], (4, 1)))


def test_search_stops_where_it_stalls_at_a_kink(monkeypatch):
    # sum |x - c| has its minimiser on a kink inside the box, where no
    # subgradient has a small Frank-Wolfe gap: the search never certifies,
    # and it stops once its value has settled
    c = np.array([0.3, 0.6])
    obj = lambda X: (np.sum(np.abs(X - c), axis=1), np.where(X >= c, 1.0, -1.0))
    steps = 400
    _, value, gap, calls = pgd_minimize(obj, FeasibleSet("Box", 2), 3, steps, seed=0)
    assert calls < steps + 1 and gap > CERTIFIED_GAP

    monkeypatch.setattr(decisions, "STALL_CALLS", steps + 1)  # never stalls
    _, full_value, _, full_calls = pgd_minimize(obj, FeasibleSet("Box", 2), 3, steps, seed=0)
    assert full_calls == steps + 1
    assert full_value <= value <= full_value + CERTIFIED_GAP


@pytest.mark.parametrize("constant", [1e2, 1e6, 1e10])
def test_search_certifies_where_f_dwarfs_its_variation(constant):
    # With |f| far above the objective's variation over the set, values of f
    # differ only by rounding near the minimum; a step rule that compares
    # them can 2-cycle between two points one ulp apart in f there (1 of
    # these 50 draws at 1e10).
    rng = np.random.default_rng(0)
    simplex = FeasibleSet("Simplex", 5)
    for draw in range(50):
        center = rng.uniform(-0.5, 1.5, 5)
        H = rng.standard_normal((5, 5))
        Q = H.T @ H + 0.5 * np.eye(5)

        def obj(X):
            diff = X - center
            return constant + 0.5 * np.einsum("ij,jk,ik->i", diff, Q, diff), diff @ Q

        _, _, gap, _ = pgd_minimize(obj, simplex, 1, 2000, seed=20)
        assert gap <= CERTIFIED_GAP, draw


def test_oracle_certifies_a_slow_budget_huber_context_quickly():
    # A context whose decreases in f fall to rounding level well before the
    # gap certifies; a step rule that compares values of f crawls there
    # (96-107 calls).
    task = make_task("BudgetHuber", 10, 1)
    theta = sample_context(3, 55)
    for seed in range(5):
        calls = []

        def obj(X):
            calls.append(1)
            return task_objective(task, theta, X)

        _, _, gap, _ = pgd_minimize(obj, task.feasible_set, *DEFAULT_ORACLE_CONFIG, seed=seed)
        assert gap <= CERTIFIED_GAP and len(calls) < 100, (seed, len(calls))


# ---------------------------------------------------------------------------
# parametric tasks


def test_make_task_determinism_and_shapes():
    a = make_task("SimplexSocp", 10, 3)
    b = make_task("SimplexSocp", 10, 3)
    assert np.array_equal(a.backbone_weights, b.backbone_weights)
    assert np.array_equal(a.terms[0].proj, b.terms[0].proj)
    assert THETA_DIM == 8
    assert np.all(a.backbone_weights >= 0.8) and np.all(a.backbone_weights <= 1.6)
    with pytest.raises(ValueError):
        make_task("NoSuchFamily", 10, 0)
    for dim in (1, 0):
        with pytest.raises(ValueError, match="task dimension must be >= 2"):
            make_task("SimplexSocp", dim, 0)


def test_task_family_structure():
    logistic = make_task("SimplexLogistic", 10, 0)
    assert logistic.terms[0].proj.shape[0] == 6  # max(6, 10 // 3)
    assert logistic.alpha == 0.35
    huber = make_task("BudgetHuber", 10, 0)
    assert huber.terms[0].proj.shape[0] == 8  # max(8, 10 // 2)
    assert huber.alpha == 1.0 and HUBER_DELTA == 0.35
    twocone = make_task("BudgetTwoConeSocp", 10, 0)
    assert twocone.feasible_set.kind == "CappedSimplex"
    assert twocone.feasible_set.budget == pytest.approx(3.0)
    assert len(twocone.terms) == 2
    assert make_task("BoxLogsumexp", 10, 0).feasible_set.kind == "Box"
    assert len(make_task("BoxSocp", 10, 0).terms) == 1


def test_theta_zero_uses_base_coefficients():
    task = make_task("SimplexSocp", 6, 1)
    theta = np.zeros(8)
    x = np.full(6, 1.0 / 6.0)
    (value,), _ = task_objective(task, theta, x[None])
    diff = x - task.m_base
    expected = 0.5 * task.alpha * float(task.backbone_weights @ (diff * diff))
    expected += float(task.c_base @ x)
    cone = task.terms[0]
    weight = float(np.logaddexp(0.0, cone.weight_base))
    expected += weight * float(np.linalg.norm(cone.proj @ x - cone.shift_base))
    assert value == pytest.approx(expected, rel=1e-12)


def test_backbone_vanishes_at_its_anchor_point():
    task = make_task("BoxSocp", 5, 2)
    theta = sample_context(2, 0)
    m = task.m_base + task.m_map @ theta
    (value,), _ = task_objective(task, theta, m[None])
    linear = float((task.c_base + task.c_map @ theta) @ m)
    cone = task.terms[0]
    weight = float(np.logaddexp(0.0, cone.weight_base + cone.weight_map @ theta))
    resid = cone.proj @ m - (cone.shift_base + cone.shift_map @ theta)
    assert value == pytest.approx(linear + weight * float(np.linalg.norm(resid)), rel=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_task_gradients_match_finite_differences(family):
    task = make_task(family, 6, 4)
    rng = spawn_rng(4, 1)
    step = 1e-6
    for trial in range(5):
        theta = sample_context(4, trial)
        x = rng.uniform(0.0, 1.0, 6)
        _, (grad,) = task_objective(task, theta, x[None])
        for i in range(6):
            xp, xm = x.copy(), x.copy()
            xp[i] += step
            xm[i] -= step
            (fp, fm), _ = task_objective(task, theta, np.array([xp, xm]))
            fd = (fp - fm) / (2 * step)
            assert grad[i] == pytest.approx(fd, rel=2e-4, abs=2e-5)


@pytest.mark.parametrize("family", FAMILIES)
def test_task_midpoint_convexity(family):
    task = make_task(family, 8, 5)
    rng = spawn_rng(5, 1)
    worst = -np.inf
    for trial in range(10):
        theta = sample_context(5, trial)
        X = rng.uniform(-1.0, 2.0, (1000, 8))
        Y = rng.uniform(-1.0, 2.0, (1000, 8))
        fx, _ = task_objective(task, theta, X)
        fy, _ = task_objective(task, theta, Y)
        fm, _ = task_objective(task, theta, (X + Y) / 2)
        worst = max(worst, float(np.max(fm - 0.5 * (fx + fy))))
    assert worst <= 1e-9


def test_task_objective_batched_matches_single():
    task = make_task("BudgetHuber", 7, 6)
    theta = sample_context(6, 0)
    X = spawn_rng(6, 2).uniform(0, 1, (9, 7))
    vals, grads = task_objective(task, theta, X)
    for row, v, g in zip(X, vals, grads):
        (sv,), (sg,) = task_objective(task, theta, row[None])
        assert sv == pytest.approx(v, rel=1e-13)
        assert np.allclose(sg, g, atol=1e-12)


def test_task_objective_takes_only_batches():
    task = make_task("BudgetHuber", 7, 6)
    theta = sample_context(6, 0)
    for X in (np.full(7, 0.5), np.full((1, 1, 7), 0.5), np.full((2, 6), 0.5), np.float64(0.5)):
        with pytest.raises(ValueError, match=r"must be an \(n, 7\) batch"):
            task_objective(task, theta, X)
    for bad in (theta[:7], theta[None], np.zeros(9)):
        with pytest.raises(ValueError, match=r"theta must have shape \(8,\)"):
            task_objective(task, bad, np.full((2, 7), 0.5))


# ---------------------------------------------------------------------------
# decision quality


def test_decision_report_at_the_optimum():
    task = make_task("SimplexSocp", 6, 7)
    theta = sample_context(7, 0)
    x_star, _, _, _ = minimize_task(task, theta, 20, 2000, seed=0)
    report = evaluate_decision_quality(task, theta, x_star, oracle_seed=0)
    assert report.regret == pytest.approx(0.0, abs=1e-12)
    assert report.decision_error == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("family", FAMILIES)
def test_oracle_certifies_before_its_last_step(family, monkeypatch):
    task = make_task(family, 10, 1)
    theta = sample_context(1, 0)
    calls = []
    objective = decisions.task_objective

    def counted(*args):
        calls.append(1)
        return objective(*args)

    monkeypatch.setattr(decisions, "task_objective", counted)
    restarts, steps = DEFAULT_ORACLE_CONFIG
    x_star, _, _, _ = minimize_task(task, theta, restarts, steps)
    assert len(calls) < steps
    report = evaluate_decision_quality(task, theta, x_star)  # the same search
    assert report.oracle_gap <= CERTIFIED_GAP
    assert report.decision_error == 0.0
    assert report.oracle_evals == (len(calls) - 1) // 2  # less the call at x_hat


def test_decision_report_takes_the_gap_and_calls_of_minimize_task():
    task = make_task("BudgetTwoConeSocp", 6, 3)
    theta = sample_context(3, 1)
    x_star, _, gap, calls = minimize_task(task, theta, 5, 300, seed=4)
    report = evaluate_decision_quality(task, theta, x_star, (5, 300), oracle_seed=4)
    assert (report.oracle_gap, report.oracle_evals) == (gap, calls)
    assert report.decision_error == 0.0


@pytest.mark.parametrize("x_hat, message", [
    ([2.0, -1.0, 0.0, 0.0], "from the feasible set"),
    ([np.nan, 1.0, 0.0, 0.0], "non-finite"),
    ([0.5, 0.5, 0.0], "shape"),
    ([[0.25, 0.25, 0.25, 0.25]], "shape"),
])
def test_decision_quality_rejects_a_bad_point_before_the_oracle(x_hat, message, monkeypatch):
    calls = []
    monkeypatch.setattr(decisions, "task_objective", lambda *args: calls.append(1))
    with pytest.raises(ValueError, match=message):
        evaluate_decision_quality(make_task("SimplexSocp", 4, 0), sample_context(0, 0), x_hat)
    assert calls == []


def test_regret_is_nonnegative_for_feasible_points():
    task = make_task("BudgetHuber", 6, 8)
    rng = spawn_rng(8, 1)
    for trial in range(5):
        theta = sample_context(8, trial)
        x_hat = sample_feasible(task.feasible_set, 1, rng)[0]
        report = evaluate_decision_quality(task, theta, x_hat, oracle_seed=trial)
        assert report.regret >= -1e-9
        assert report.true_value == pytest.approx(
            task_objective(task, theta, x_hat[None])[0][0]
        )


def test_decide_runs_no_single_point_forward(monkeypatch):
    # the surrogate's value at the decision is the one its own search found
    fail_wherever_called(monkeypatch, forward)
    searches = []

    def recorded(*args):
        searches.append(pgd_minimize(*args))
        return searches[-1]

    monkeypatch.setattr(decisions, "pgd_minimize", recorded)
    task = make_task("SimplexSocp", 4, 2)
    report, x_hat = decisions.decide_instance(
        task, sample_context(2, 0), "QuadOnly", spawn_rng(2, 1),
        candidates=16, surrogate_epochs=5, oracle_config=(3, 100),
    )
    (surrogate_x, surrogate_value, gap, calls), _ = searches  # the oracle's search is second
    assert np.array_equal(x_hat, surrogate_x)
    assert report.surrogate_value.hex() == surrogate_value.hex()
    assert (report.surrogate_gap, report.surrogate_evals) == (gap, calls)


def test_decide_validates_its_surrogate_with_one_forward(monkeypatch):
    # the surrogate trains on one full batch validated on itself, so only its
    # last epoch runs a validation forward
    forwards = count_calls(monkeypatch, training, "batch_forward")
    decisions.decide_instance(
        make_task("BoxSocp", 4, 3), sample_context(3, 0), "QuadOnly", spawn_rng(3, 1),
        candidates=16, surrogate_epochs=5, oracle_config=(3, 100),
    )
    assert len(forwards) == 1


def test_sample_context_determinism_and_range():
    a = sample_context(9, 4)
    b = sample_context(9, 4)
    assert np.array_equal(a, b)
    assert a.shape == (8,)
    assert np.min(a) >= -1.0 and np.max(a) <= 1.0
