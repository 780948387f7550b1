import numpy as np
import pytest

from socicnn import RELU, build_lp_lift, forward, init_model, simplex, spawn_rng
from socicnn.model import flatten_params, unflatten_params
from socicnn.simplex import (
    InfeasibleProblem,
    UnboundedProblem,
    solve_min_geq,
)


def _dense_pivot(tableau, row, col):
    """Reference: the full rank-one update over every row and column."""
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])


def test_simple_bounded_lp():
    # min -x1 - x2  s.t.  x1 + x2 <= 1 (as -x1 - x2 >= -1), x >= 0
    value, x = solve_min_geq(np.array([-1.0, -1.0]), np.array([[-1.0, -1.0]]), np.array([-1.0]))
    assert value == pytest.approx(-1.0, abs=1e-12)
    assert x.sum() == pytest.approx(1.0, abs=1e-12)


def test_lower_bounded_by_geq_row():
    # min x  s.t.  x >= 2
    value, x = solve_min_geq(np.array([1.0]), np.array([[1.0]]), np.array([2.0]))
    assert value == pytest.approx(2.0, abs=1e-12)
    assert x[0] == pytest.approx(2.0, abs=1e-12)


def test_unbounded_problem():
    with pytest.raises(UnboundedProblem):
        solve_min_geq(np.array([-1.0]), np.zeros((0, 1)), np.zeros(0))


def test_negative_cost_with_a_zero_cost_ray_is_bounded():
    # min -x1  s.t.  x1 <= 1: x2 costs nothing and may end up holding the
    # bounding row tight, but that row's multiplier is zero
    value, x = solve_min_geq(np.array([-1.0, 0.0]), np.array([[-1.0, 0.0]]), np.array([-1.0]))
    assert value == pytest.approx(-1.0, abs=1e-12)
    assert x[0] == pytest.approx(1.0, abs=1e-12)


def test_infeasible_problem():
    # x >= 1 and -x >= 0 cannot both hold with x >= 0
    with pytest.raises(InfeasibleProblem):
        solve_min_geq(np.array([0.0]), np.array([[1.0], [-1.0]]), np.array([1.0, 0.0]))


def test_degenerate_rows_are_handled():
    # redundant duplicated constraints with zero right-hand sides
    A = np.array([[1.0, -1.0], [1.0, -1.0], [1.0, 0.0]])
    b = np.array([0.0, 0.0, 1.0])
    value, x = solve_min_geq(np.array([1.0, 1.0]), A, b)
    assert value == pytest.approx(1.0, abs=1e-10)
    assert x[0] >= 1.0 - 1e-10


def _random_feasible_bounded_lp(rng, m, n):
    A = rng.standard_normal((m, n))
    x0 = rng.uniform(0.0, 1.0, n)
    b = A @ x0 - rng.uniform(0.0, 1.0, m)  # x0 strictly feasible
    c = rng.uniform(0.1, 1.0, n)  # positive costs keep min over y >= 0 bounded
    return c, A, b


def test_solution_is_feasible_and_optimal_against_scipy():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(42)
    for trial in range(200):
        m = int(rng.integers(1, 12))
        n = int(rng.integers(1, 9))
        c, A, b = _random_feasible_bounded_lp(rng, m, n)
        if trial % 3 == 0:
            b = np.round(b, 1)  # force exact-zero and tied right-hand sides
        if trial % 5 == 0 and m >= 2:
            A[m - 1] = A[0]  # duplicated row
            b[m - 1] = b[0]
        value, x = solve_min_geq(c, A, b)
        assert np.all(A @ x >= b - 1e-8)
        assert np.all(x >= -1e-10)
        ref = linprog(c, A_ub=-A, b_ub=-b, bounds=[(0, None)] * n, method="highs")
        assert ref.status == 0
        assert value == pytest.approx(ref.fun, abs=1e-7)


def test_negative_costs_agree_with_scipy():
    # a negative cost makes the slack basis dual infeasible, so these LPs go
    # through the bounding row; on even trials a row sum(y) <= n + 1 keeps
    # them bounded, on odd trials scipy decides.  The bounding row's
    # right-hand side, 1e6 * (1 + max|b|), costs about that times eps of
    # accuracy, hence 1e-7 for feasibility as for the value.
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(43)
    statuses = set()
    for trial in range(200):
        m = int(rng.integers(1, 12))
        n = int(rng.integers(1, 9))
        c, A, b = _random_feasible_bounded_lp(rng, m, n)
        c[rng.random(n) < 0.5] *= -1.0
        c[int(rng.integers(n))] = -rng.uniform(0.1, 1.0)
        if trial % 2 == 0:
            A = np.vstack([A, -np.ones(n)])
            b = np.append(b, -(n + 1.0))
        ref = linprog(c, A_ub=-A, b_ub=-b, bounds=[(0, None)] * n, method="highs")
        statuses.add(ref.status)
        if ref.status == 3:
            with pytest.raises(UnboundedProblem):
                solve_min_geq(c, A, b)
            continue
        assert ref.status == 0
        value, x = solve_min_geq(c, A, b)
        assert np.all(A @ x >= b - 1e-7)
        assert np.all(x >= -1e-10)
        assert value == pytest.approx(ref.fun, abs=1e-7)
    assert statuses == {0, 3}


def test_dimension_validation():
    with pytest.raises(ValueError):
        solve_min_geq(np.zeros(2), np.zeros((1, 3)), np.zeros(1))
    with pytest.raises(ValueError, match="inconsistent LP dimensions"):
        solve_min_geq(np.zeros(2), np.zeros(2), np.zeros(1))
    with pytest.raises(ValueError, match="inconsistent LP dimensions"):
        solve_min_geq(np.zeros(2), np.zeros((1, 1, 2)), np.zeros(1))


@pytest.mark.parametrize("where", ["c", "A", "b"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_data_is_rejected(where, bad):
    data = {"c": np.array([1.0, 1.0]), "A": np.array([[1.0, 2.0], [3.0, -1.0]]),
            "b": np.array([1.0, -1.0])}
    data[where].flat[1] = bad
    with pytest.raises(ValueError, match="LP data must be finite"):
        solve_min_geq(data["c"], data["A"], data["b"])


def test_sparse_pivot_equals_the_dense_update():
    rng = np.random.default_rng(9)
    for trial in range(300):
        rows, cols = int(rng.integers(2, 12)), int(rng.integers(2, 15))
        tableau = rng.standard_normal((rows, cols))
        tableau[rng.random((rows, cols)) < 0.3] = 0.0
        row, col = int(rng.integers(rows)), int(rng.integers(cols))
        # planted exact zeros in the pivot row and column, all of them on some trials
        keep = 0.0 if trial % 4 == 0 else 0.5
        tableau[rng.random(rows) >= keep, col] = 0.0
        tableau[row, rng.random(cols) >= keep] = 0.0
        tableau[row, col] = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        expected = tableau.copy()
        _dense_pivot(expected, row, col)
        simplex._pivot(tableau, row, col)
        assert np.array_equal(tableau, expected)


def test_pivot_refuses_a_tableau_it_cannot_update_in_place():
    # the rank-one block is scattered through a flat view, which a tableau
    # that is not C-contiguous cannot give without a copy
    tableau = np.asfortranarray(np.arange(1.0, 13.0).reshape(3, 4))
    with pytest.raises(AttributeError):
        simplex._pivot(tableau, 0, 0)


# (d0, width, depth) of the certify benchmark's three lift sizes, n = 32, 96, 192
CERTIFY_SIZES = [(10, 16, 2), (20, 32, 3), (20, 64, 3)]


def _certify_model(d0, width, depth, passthrough, seed, scale=1.0):
    """The model and input of one certify trial: two quadratic and two conic
    branches of size d0, every parameter times ``scale``, and an input drawn
    on [-3, 3]^d0."""
    model = init_model(d0, [width] * depth, [d0] * 2, [d0] * 2, passthrough, RELU, seed)
    model = unflatten_params(model, flatten_params(model) * scale)
    return model, spawn_rng(seed, 1).uniform(-3.0, 3.0, d0)


def _solve_counting_pivots(monkeypatch, pivot, lift):
    count = 0

    def counted(tableau, row, col):
        nonlocal count
        count += 1
        pivot(tableau, row, col)

    monkeypatch.setattr(simplex, "_pivot", counted)
    value, y = solve_min_geq(lift.objective, lift.row_coeffs, lift.row_rhs)
    return value, y, count


@pytest.mark.parametrize("passthrough", [True, False])
@pytest.mark.parametrize("d0,width,depth", CERTIFY_SIZES)
def test_sparse_pivot_solves_certify_lifts_exactly_like_the_dense_one(
        monkeypatch, d0, width, depth, passthrough):
    # at 1e-6 and 1e8 the hidden states span many orders of magnitude, so
    # the pivot tolerance decides which entries may enter
    sparse = simplex._pivot
    for seed in (3, 4):
        for scale in (1.0, 1e-6, 1e8):
            lift = build_lp_lift(*_certify_model(d0, width, depth, passthrough, seed, scale))
            value, y, pivots = _solve_counting_pivots(monkeypatch, sparse, lift)
            ref_value, ref_y, ref_pivots = _solve_counting_pivots(monkeypatch, _dense_pivot, lift)
            assert value == ref_value
            assert np.array_equal(y, ref_y)
            assert pivots == ref_pivots > 0


@pytest.mark.parametrize("passthrough", [True, False])
@pytest.mark.parametrize("d0,width,depth", CERTIFY_SIZES)
def test_certify_solve_takes_one_pivot_per_active_unit(monkeypatch, d0, width, depth, passthrough):
    # the dual Bland rule reaches the rows in layer order, and with W_z >= 0
    # each infeasible row then has one negative entry, the -1 on its own unit
    pivot = simplex._pivot
    for seed in range(10):
        model, x = _certify_model(d0, width, depth, passthrough, seed)
        active = sum(int((pre > 0.0).sum()) for pre in forward(model, x).preacts)
        _, _, pivots = _solve_counting_pivots(monkeypatch, pivot, build_lp_lift(model, x))
        assert pivots == active > 0
