import tracemalloc

import numpy as np
import pytest

from socicnn import RELU, build_lp_lift, forward, init_model, simplex, simplex_lp_solve, spawn_rng
from socicnn.model import flatten_params, unflatten_params
from socicnn.simplex import InfeasibleProblem, SimplexError, solve_min_geq


def _dense_pivot(tableau, row, col):
    """Reference: the full rank-one update over every row and column."""
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])


def _one_pivot_iterate(tableau, basis, A, feas_tol, max_iter, pivots=None):
    """Reference: the dual Bland loop that picks the leaving row and the
    entering column again before every pivot, each a ``_dense_pivot``; the
    (row, col) pivots are appended to ``pivots`` if given.  Like the
    planner, it takes |A| of the columns it reads."""
    m, n = A.shape
    values, costs = tableau[:m, -1], tableau[-1]
    for _ in range(max_iter):
        infeasible = (values < -feas_tol).nonzero()[0]
        if infeasible.size == 0:
            return
        row = int(infeasible[basis[infeasible].argmin()])
        entries = tableau[row, :-1]
        eligible = entries < 0.0
        structural = eligible[:n].nonzero()[0]
        terms = np.abs(entries[n:]) @ np.abs(A[:, structural])
        eligible[structural] = -entries[structural] > simplex._PIVOT_TOL * terms
        eligible = eligible.nonzero()[0]
        if eligible.size == 0:
            raise InfeasibleProblem("an infeasible row has no negative entry to pivot on")
        ratios = costs[eligible] / -entries[eligible]
        col = int(eligible[ratios.argmin()])
        _dense_pivot(tableau, row, col)
        basis[row] = col
        if pivots is not None:
            pivots.append((row, col))
    raise SimplexError("iteration limit exceeded")


def test_lower_bounded_by_geq_row():
    # min x  s.t.  x >= 2
    value, x = solve_min_geq(np.array([1.0]), np.array([[1.0]]), np.array([2.0]))
    assert value == pytest.approx(2.0, abs=1e-12)
    assert x[0] == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("c,A,b", [
    ([-1.0, -1.0], [[-1.0, -1.0]], [-1.0]),  # bounded: min -x1 - x2 s.t. x1 + x2 <= 1
    ([-1.0], np.zeros((0, 1)), np.zeros(0)),  # unbounded: min -x1 over x1 >= 0
    ([-1.0, 0.0], [[-1.0, 0.0]], [-1.0]),  # bounded, with a zero-cost ray in x2
], ids=["bounded", "unbounded", "zero_cost_ray"])
def test_negative_costs_are_rejected(c, A, b):
    # the all-surplus start is dual feasible only for c >= 0, as the lift's are
    with pytest.raises(ValueError, match="LP costs must be nonnegative"):
        solve_min_geq(np.array(c), np.array(A), np.array(b))


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
        if trial % 4 == 0:
            c[: n // 2] = 0.0  # a lift has zero costs off its last layer
        value, x = solve_min_geq(c, A, b)
        assert np.all(A @ x >= b - 1e-8)
        assert np.all(x >= -1e-10)
        ref = linprog(c, A_ub=-A, b_ub=-b, bounds=[(0, None)] * n, method="highs")
        assert ref.status == 0
        assert value == pytest.approx(ref.fun, abs=1e-7)


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


def test_sparse_pivot_equals_the_dense_update(monkeypatch):
    # a pass of one pivot, here (row, col), is the dense rank-one update
    # bit for bit wherever the pivot row and column have planted zeros
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
        # every row counts as infeasible, and row has the smallest basic index
        basis = np.arange(1, rows + 1)
        basis[row] = 0
        monkeypatch.setattr(simplex, "_plan_pass", lambda *args: np.array([col]))
        with pytest.raises(SimplexError, match="iteration limit exceeded"):
            simplex._dual_iterate(tableau, basis, np.zeros((rows, 0)), -np.inf, 1)
        assert np.array_equal(tableau, expected)
        assert basis[row] == col


# (d0, width, depth) of the certify benchmark's three lift sizes, n = 32, 96, 192
CERTIFY_SIZES = [(10, 16, 2), (20, 32, 3), (20, 64, 3)]


def _certify_model(d0, width, depth, passthrough, seed, scale=1.0):
    """The model and input of one certify trial: two quadratic and two conic
    branches of size d0, every parameter times ``scale``, and an input drawn
    on [-3, 3]^d0."""
    model = init_model(d0, [width] * depth, [d0] * 2, [d0] * 2, passthrough, RELU, seed)
    model = unflatten_params(model, flatten_params(model) * scale)
    return model, spawn_rng(seed, 1).uniform(-3.0, 3.0, d0)


@pytest.mark.parametrize("passthrough", [True, False])
@pytest.mark.parametrize("d0,width,depth", CERTIFY_SIZES + [(6, 8, 4), (6, 8, 5)])
def test_certify_solve_takes_one_pivot_per_active_unit(monkeypatch, d0, width, depth, passthrough):
    # the dual Bland rule reaches the rows in layer order, and with W_z >= 0
    # each infeasible row then has one negative entry, the -1 on its own
    # unit; one pass takes a layer's rows, since no pivot of a layer touches
    # another row of it.  A unit counts as active once its preactivation
    # clears the feasibility tolerance, which at scale 1e-6 without
    # passthrough the deepest layers' do not.
    plan = simplex._plan_pass
    pivots = passes = 0

    def counted(*args):
        nonlocal pivots, passes
        cols = plan(*args)
        pivots += cols.size
        passes += 1
        return cols

    monkeypatch.setattr(simplex, "_plan_pass", counted)
    for seed in range(10):
        for scale in (1.0, 1e-6, 1e8):
            model, x = _certify_model(d0, width, depth, passthrough, seed, scale)
            lift = build_lp_lift(model, x)
            feas_tol = simplex._FEAS_TOL * np.abs(lift.row_rhs).max()
            active = sum(int((pre > feas_tol).sum()) for pre in forward(model, x).preacts)
            pivots = passes = 0
            solve_min_geq(lift.objective, lift.row_coeffs, lift.row_rhs)
            assert pivots == active > 0
            assert passes <= depth


@pytest.mark.parametrize("passthrough", [True, False])
@pytest.mark.parametrize("d0,width,depth", CERTIFY_SIZES + [(6, 8, 4), (6, 8, 5)])
def test_certify_lift_solves_to_the_backbone_value(d0, width, depth, passthrough):
    # a check of the oracle's answers that needs no reference loop: the
    # forward pass gives the same value in closed form, up to rounding of
    # the magnitude of its terms
    for seed in range(10):
        for scale in (1.0, 1e-6, 1e8):
            model, x = _certify_model(d0, width, depth, passthrough, seed, scale)
            trace = forward(model, x)
            value, _ = simplex_lp_solve(build_lp_lift(model, x))
            terms = (np.abs(model.w_out) @ np.abs(trace.acts[-1])
                     + np.abs(model.w_skip) @ np.abs(x) + abs(model.b_out))
            assert abs(value - trace.backbone_value) <= 1e-14 * terms


def _traced_solve(monkeypatch, one_at_a_time, c, A, b, max_iter=None):
    """Solve with the pass loop, or with the one-pivot reference, under
    ``max_iter`` pivots if given: the (row, col) pivots, then (value, y) or
    the error's type and message, then the final tableau and the pass
    lengths (none for the reference)."""
    pivots, tableaus, passes = [], [], []
    plan, iterate = simplex._plan_pass, simplex._dual_iterate

    def planned(tableau, basis, rows, A):
        cols = plan(tableau, basis, rows, A)
        pivots.extend(zip(rows[: cols.size].tolist(), cols.tolist()))
        passes.append(cols.size)
        return cols

    def limited(tableau, basis, A, feas_tol, limit):
        tableaus.append(tableau)
        limit = limit if max_iter is None else max_iter
        if one_at_a_time:
            _one_pivot_iterate(tableau, basis, A, feas_tol, limit, pivots)
        else:
            iterate(tableau, basis, A, feas_tol, limit)

    with monkeypatch.context() as patch:
        patch.setattr(simplex, "_plan_pass", planned)
        patch.setattr(simplex, "_dual_iterate", limited)
        try:
            outcome = solve_min_geq(c, A, b)
        except SimplexError as error:
            outcome = (type(error), str(error))
    return pivots, outcome, tableaus[0], passes


# the pass loop sums a pass's products in another order than the one-pivot
# reference; its results may differ by this share of their magnitude, about
# 45 times float64's epsilon
RTOL = 1e-14


def _assert_close(got, reference):
    """``got`` within RTOL of ``reference``: a value relative to itself, an
    array relative to its largest entry, a tableau row by row."""
    if isinstance(reference, float):
        assert abs(got - reference) <= RTOL * abs(reference)
        return
    assert got.shape == reference.shape
    scale = np.abs(reference).max(axis=-1, keepdims=True, initial=0.0)
    assert np.all(np.abs(got - reference) <= RTOL * scale)


def _assert_passes_pivot_one_at_a_time(monkeypatch, c, A, b, max_iter=None):
    """The pass loop takes the reference's pivots, ends with its error or
    with its value and y, and leaves its tableau, up to the order of sums."""
    passes = _traced_solve(monkeypatch, False, c, A, b, max_iter)
    pivots, outcome, tableau, _ = passes
    ref_pivots, ref_outcome, ref_tableau, _ = _traced_solve(monkeypatch, True, c, A, b, max_iter)
    assert pivots == ref_pivots
    assert isinstance(outcome[0], type) == isinstance(ref_outcome[0], type)
    if isinstance(ref_outcome[0], type):
        assert outcome == ref_outcome
    else:
        _assert_close(outcome[0], ref_outcome[0])
        _assert_close(outcome[1], ref_outcome[1])
    _assert_close(tableau, ref_tableau)
    return passes


@pytest.mark.parametrize("passthrough", [True, False])
@pytest.mark.parametrize("d0,width,depth", CERTIFY_SIZES)
def test_passes_pivot_like_one_at_a_time_on_certify_lifts(monkeypatch, d0, width, depth, passthrough):
    # at 1e-6 and 1e8 the hidden states span many orders of magnitude, so
    # the pivot tolerance decides which entries may enter
    for seed in (3, 4):
        for scale in (1.0, 1e-6, 1e8):
            lift = build_lp_lift(*_certify_model(d0, width, depth, passthrough, seed, scale))
            pivots, _, _, passes = _assert_passes_pivot_one_at_a_time(
                monkeypatch, lift.objective, lift.row_coeffs, lift.row_rhs)
            assert max(passes) > 1
            # cut short after each pivot count (every seventh on most lifts):
            # the same error at the same pivot, with a tableau within RTOL
            step = 1 if (seed, scale) == (3, 1.0) else 7
            for limit in range(1, len(pivots) + 1, step):
                _, outcome, _, _ = _assert_passes_pivot_one_at_a_time(
                    monkeypatch, lift.objective, lift.row_coeffs, lift.row_rhs, limit)
                assert outcome == (SimplexError, "iteration limit exceeded")


@pytest.mark.parametrize("passthrough", [True, False])
@pytest.mark.parametrize("d0,width,depth", CERTIFY_SIZES)
def test_sparse_pivot_solves_certify_lifts_exactly_like_the_dense_one(
        monkeypatch, d0, width, depth, passthrough):
    # with every pass cut to its first pivot, the block update is the dense
    # rank-one update bit for bit, so the whole solve is too; at 1e-6 and
    # 1e8 the pivot tolerance decides which entries may enter
    plan = simplex._plan_pass
    monkeypatch.setattr(simplex, "_plan_pass", lambda *args: plan(*args)[:1])
    for seed in (3, 4):
        for scale in (1.0, 1e-6, 1e8):
            lift = build_lp_lift(*_certify_model(d0, width, depth, passthrough, seed, scale))
            pivots, (value, y), _, passes = _traced_solve(
                monkeypatch, False, lift.objective, lift.row_coeffs, lift.row_rhs)
            ref_pivots, (ref_value, ref_y), _, _ = _traced_solve(
                monkeypatch, True, lift.objective, lift.row_coeffs, lift.row_rhs)
            assert value == ref_value
            assert np.array_equal(y, ref_y)
            assert pivots == ref_pivots
            assert len(passes) == len(pivots) > 0


def _solve_from_a_copied_build(c, A, b):
    """Reference: the tableau built from whole-array copies (-A, an identity
    and the full |A|), run through the same pass loop; the final tableau and
    basis, then (value, y)."""
    c, A, b = (np.asarray(v, dtype=np.float64) for v in (c, A, b))
    m, n = A.shape
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = -A
    tableau[:m, n:-1] = np.eye(m)
    tableau[:m, -1] = -b
    tableau[-1, :n] = c
    basis = np.arange(n, n + m)
    feas_tol = simplex._FEAS_TOL * float(np.max(np.abs(b), initial=0.0))
    simplex._dual_iterate(tableau, basis, np.abs(A), feas_tol, 200 * (m + n + 10))
    y = np.zeros(n)
    structural = basis < n
    y[basis[structural]] = tableau[:m, -1][structural]
    return tableau, basis, (float(c @ y), y)


@pytest.mark.parametrize("passthrough", [True, False])
@pytest.mark.parametrize("d0,width,depth", CERTIFY_SIZES)
def test_the_in_place_build_solves_bit_for_bit_like_the_copied_one(
        monkeypatch, d0, width, depth, passthrough):
    # the tableau is built inside its own allocation and the planner takes
    # |A| of the columns it gathers; |.| and negation are exact, so nothing
    # of the solve may move by a bit
    finals = []
    iterate = simplex._dual_iterate

    def kept(tableau, basis, A, feas_tol, limit):
        iterate(tableau, basis, A, feas_tol, limit)
        finals.append((tableau, basis))

    for seed in (3, 4):
        for scale in (1.0, 1e-6, 1e8):
            lift = build_lp_lift(*_certify_model(d0, width, depth, passthrough, seed, scale))
            ref_tableau, ref_basis, (ref_value, ref_y) = _solve_from_a_copied_build(
                lift.objective, lift.row_coeffs, lift.row_rhs)
            with monkeypatch.context() as patch:
                patch.setattr(simplex, "_dual_iterate", kept)
                value, y = solve_min_geq(lift.objective, lift.row_coeffs, lift.row_rhs)
            tableau, basis = finals.pop()
            assert tableau.tobytes() == ref_tableau.tobytes()
            assert np.array_equal(basis, ref_basis)
            assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
            assert y.tobytes() == ref_y.tobytes()


@pytest.mark.parametrize("passthrough", [True, False])
def test_a_certify_solve_allocates_little_beyond_its_tableau(monkeypatch, passthrough):
    # at n192 a copy of -A, an identity or the full |A| is half a tableau
    # each: the first two would show in the build, which allocates only the
    # tableau and numpy's 64 kB buffer for a strided ufunc write, and the last
    # through the passes, whose own temporaries span one pass's rows or columns
    built = []
    iterate = simplex._dual_iterate

    def entered(*args):
        built.append(tracemalloc.get_traced_memory()[1])
        iterate(*args)

    monkeypatch.setattr(simplex, "_dual_iterate", entered)
    for seed in range(4):
        lift = build_lp_lift(*_certify_model(20, 64, 3, passthrough, seed))
        m, n = lift.row_coeffs.shape
        tableau_bytes = (m + 1) * (n + m + 1) * 8
        solve_min_geq(lift.objective, lift.row_coeffs, lift.row_rhs)  # numpy's first-call set-up
        tracemalloc.start()
        try:
            solve_min_geq(lift.objective, lift.row_coeffs, lift.row_rhs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built[-1] <= 1.25 * tableau_bytes
        assert peak <= 1.8 * tableau_bytes


def _structured_lp(rng):
    """Rows with one positive entry among sparse, mostly negative others, as
    a lift's rows have; random right-hand sides and some zero costs."""
    m, n = int(rng.integers(2, 20)), int(rng.integers(2, 20))
    A = np.zeros((m, n))
    others = rng.random((m, n)) < 0.25
    signs = np.where(rng.random(others.sum()) < 0.85, -1.0, 1.0)
    A[others] = signs * rng.exponential(1.0, others.sum())
    A[np.arange(m), rng.integers(0, n, m)] = rng.uniform(0.5, 2.0, m)
    c = rng.uniform(0.0, 1.0, n)
    c[rng.random(n) < 0.4] = 0.0
    return c, A, rng.standard_normal(m)


def test_passes_pivot_like_one_at_a_time_on_structured_lps(monkeypatch):
    rng = np.random.default_rng(25)
    blocks = infeasible = 0
    for trial in range(400):
        c, A, b = _structured_lp(rng)
        pivots, outcome, _, passes = _assert_passes_pivot_one_at_a_time(monkeypatch, c, A, b)
        blocks += max(passes, default=0) > 1
        infeasible += outcome[0] is InfeasibleProblem
        if trial % 20 == 0:
            for limit in range(1, len(pivots) + 1):
                _assert_passes_pivot_one_at_a_time(monkeypatch, c, A, b, limit)
    assert blocks > 20 and infeasible > 20


@pytest.mark.xfail(reason="ROADMAP item 2: the oracle returns a y that violates a row of "
                          "A y >= b, with entries near 3e15, instead of raising")
def test_a_structured_lp_answer_satisfies_its_rows_or_raises():
    # draw 55 of the structured-LP sequence, A of shape 3 x 16
    rng = np.random.default_rng(25)
    for _ in range(56):
        c, A, b = _structured_lp(rng)
    assert A.shape == (3, 16)
    try:
        _, y = solve_min_geq(c, A, b)
    except SimplexError:
        return
    assert np.all(A @ y - b >= -1e-9 * max(1.0, float(np.max(np.abs(b)))))


def _iterate_both(tableau, basis, A):
    """Run the pass loop and the one-pivot reference on copies of a tableau
    and its basis; each run's error (or None) and final basis are equal, and
    the final tableaus close.  The first run's error, tableau and basis."""
    runs = []
    for iterate in (simplex._dual_iterate, _one_pivot_iterate):
        state, final_basis = tableau.copy(), basis.copy()
        try:
            iterate(state, final_basis, A, 0.0, 10)
            outcome = None
        except SimplexError as error:
            outcome = (type(error), str(error))
        runs.append((outcome, state, final_basis.tolist()))
    assert runs[0][0] == runs[1][0] and runs[0][2] == runs[1][2]
    _assert_close(runs[0][1], runs[1][1])
    return runs[0]


@pytest.mark.parametrize("share", [0.5, 1.5, 3.0])
def test_a_pass_admits_no_entry_that_the_pivot_tolerance_rejects(share):
    # row 1 would join row 0's pass but for its one negative entry, which
    # keeps ``share`` times the pivot tolerance of its terms (here 1)
    tableau = np.array([[-1.0, 0.0, 1.0, 0.0, -1.0],
                        [0.0, -share * simplex._PIVOT_TOL, 0.0, 1.0, -1.0],
                        [1.0, 1.0, 0.0, 0.0, 0.0]])
    outcome, _, _ = _iterate_both(tableau, np.array([2, 3]), np.ones((2, 2)))
    assert (outcome is None) == (share > 1.0)


def test_a_pass_stops_before_a_row_that_its_pivots_make_infeasible():
    # rows 0, 1 and 3 are infeasible with one negative entry each; pivoting
    # row 1 makes the feasible row 2, which Bland's rule reaches before row
    # 3, infeasible with no entry to pivot on, so the pass must end at row 1
    tableau = np.array([[-1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0],
                        [0.0, -1.0, 0.0, 0.0, 1.0, 0.0, 0.0, -1.0],
                        [0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.5],
                        [0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 1.0, -1.0],
                        [1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
    outcome, _, basis = _iterate_both(tableau, np.arange(3, 7), np.ones((4, 3)))
    assert outcome[0] is InfeasibleProblem
    assert basis == [0, 1, 5, 6]
