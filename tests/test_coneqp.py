"""The cone QP solver: its answers against projected descent and against
its own KKT conditions, its named errors, the surrogate lift it solves in
decide, and a second oracle for the cone-representable task families."""

import ast
from pathlib import Path

import numpy as np
import pytest

from socicnn import (
    FeasibleSet, capped_simplex, coneqp, decisions, forward, make_task, sample_context,
)
from socicnn.coneqp import ConeProgramError
from socicnn.decisions import (
    CERTIFIED_GAP,
    DEFAULT_ORACLE_CONFIG,
    HUBER_DELTA,
    minimize_task,
    pgd_minimize,
    solve_surrogate,
    surrogate_lift,
)
from socicnn.gradients import value_and_input_gradient_batch
from socicnn.model import flatten_params, nonneg_mask, softplus, spawn_rng, unflatten_params
from socicnn.training import build_variant_model

ROOT = Path(__file__).parents[1]
SETS = [FeasibleSet("Simplex", 5), FeasibleSet("Box", 5), capped_simplex(5)]
RELU_VARIANTS = ("ReLU", "QuadOnly", "NormOnly", "SOC")


def seeded_surrogate(variant, dim, seed, width=6, bias=0.0):
    """A variant's model with every entry redrawn: unconstrained ones
    normal, sign-constrained ones the absolute value of a normal draw; then
    ``bias`` is added to every hidden bias."""
    model = build_variant_model(variant, dim, width, 2, seed)
    flat = spawn_rng(seed, 1).standard_normal(flatten_params(model).size)
    model = unflatten_params(model, np.where(nonneg_mask(model), np.abs(flat), flat))
    for layer in model.layers:
        layer.b[...] += bias
    return model


def _residuals(problem, sol):
    """Dual, primal and equality residual norms of a solution, its gap s'z,
    and its distance outside the cone for s and z."""
    Q, q, G, h, A, b = (problem[k] for k in ("Q", "q", "G", "h", "A", "b"))
    rd = Q @ sol.v + q + A.T @ sol.y + G.T @ sol.z
    rp = G @ sol.v + sol.s - h
    re = A @ sol.v - b
    outside = 0.0
    for x in (sol.s, sol.z):
        outside = max(outside, float(np.max(-x[: problem["linear"]], initial=0.0)))
        start = problem["linear"]
        for size in problem["cones"]:
            block = x[start : start + size]
            outside = max(outside, float(np.linalg.norm(block[1:]) - block[0]))
            start += size
    return np.linalg.norm(rd), np.linalg.norm(rp), np.linalg.norm(re), float(sol.s @ sol.z), outside


# ---------------------------------------------------------------------------
# the surrogate's exact minimum


@pytest.mark.parametrize("variant", RELU_VARIANTS)
@pytest.mark.parametrize("feasible", SETS, ids=lambda f: f.kind)
def test_solver_is_never_above_projected_descent(variant, feasible):
    # the search rarely certifies at a kink; with every hidden unit off on
    # the set (a bias of -20) the model is smooth there, and it does.  A ReLU
    # model is then linear, and on the capped simplex a search on a linear
    # objective leaves the set (the strict xfail on far rows in
    # test_decisions), so that pair keeps its kinked draws.
    smooth = (variant, feasible.kind) != ("ReLU", "CappedSimplex")
    certified = 0
    for seed in range(8):
        model = seeded_surrogate(variant, feasible.dim, seed, bias=-20.0 * (seed % 2) * smooth)
        x, value, gap, steps = solve_surrogate(model, feasible)
        _, best, pgd_gap, _ = pgd_minimize(
            lambda X: value_and_input_gradient_batch(model, X), feasible, 5, 200, seed
        )
        assert value <= best + 1e-9 * (1.0 + abs(best)), (seed, value - best)
        if pgd_gap <= CERTIFIED_GAP:
            certified += 1
            assert value >= best - 1e-9 - gap, (seed, value - best)
        assert np.max(np.abs(decisions.project_onto(feasible, x) - x)) <= 1e-12
        assert 0 < steps < coneqp.MAX_STEPS and 0.0 <= gap
    assert certified >= 4 * smooth


@pytest.mark.parametrize("variant", RELU_VARIANTS)
@pytest.mark.parametrize("feasible", SETS, ids=lambda f: f.kind)
def test_solution_meets_its_own_kkt_conditions(variant, feasible):
    problem = surrogate_lift(seeded_surrogate(variant, feasible.dim, 3), feasible)
    sol = coneqp.solve(**problem)
    rd, rp, re, gap, outside = _residuals(problem, sol)
    assert rd <= coneqp.DUAL_TOL * max(1.0, np.linalg.norm(problem["q"]))
    primal_scale = max(1.0, np.linalg.norm(problem["h"]), np.linalg.norm(problem["b"]))
    assert max(rp, re) <= coneqp.PRIMAL_TOL * primal_scale
    assert gap == sol.gap <= coneqp.GAP_TOL * max(1.0, abs(sol.value))
    assert outside <= 0.0  # s and z stay inside the cone
    v = sol.v
    assert sol.value == pytest.approx(0.5 * v @ problem["Q"] @ v + problem["q"] @ v + problem["c0"])


@pytest.mark.parametrize("variant", RELU_VARIANTS)
def test_lift_is_tight_at_the_forward_pass(variant):
    # at any x the forward's hidden states and branch norms are a feasible
    # point of the lift whose objective is the forward value
    model = seeded_surrogate(variant, 5, 4)
    problem = surrogate_lift(model, FeasibleSet("Box", 5))
    for x in spawn_rng(4, 2).uniform(0.0, 1.0, (5, 5)):
        trace = forward(model, x)
        v = np.concatenate([x, *trace.acts, trace.conic_t])
        assert v.size == problem["q"].size  # every unit is live in these draws
        s = problem["h"] - problem["G"] @ v
        assert np.all(s[: problem["linear"]] >= -1e-12)
        value = 0.5 * v @ problem["Q"] @ v + problem["q"] @ v + problem["c0"]
        assert value == pytest.approx(trace.total, rel=1e-12, abs=1e-12)


def test_units_and_cones_without_weight_are_left_out():
    # nothing bounds them, so they must not reach the solver; the value is
    # that of the model
    model = seeded_surrogate("SOC", 5, 7)
    model.layers[1].w_z[:, 0] = 0.0  # unit 0 of layer 0 reaches no live unit
    model.w_out[1] = 0.0  # nor does unit 1 of layer 1
    model.conic[0].weight[...] = 0.0
    problem = surrogate_lift(model, FeasibleSet("Simplex", 5))
    assert problem["q"].size == 5 + 2 * 6 - 2 and problem["cones"] == []
    x, value, _, _ = solve_surrogate(model, FeasibleSet("Simplex", 5))
    _, best, _, _ = pgd_minimize(
        lambda X: value_and_input_gradient_batch(model, X), FeasibleSet("Simplex", 5), 5, 200, 0
    )
    assert value <= best + 1e-9 * (1.0 + abs(best))


def test_solve_leaves_the_model_vector_untouched():
    # b_out and the branch weights are 0-d views of the flat vector; c0 built
    # as params.b_out, then added to, would write into the model
    template = seeded_surrogate("SOC", 5, 9)
    flat = flatten_params(template)
    model = unflatten_params(template, flat)
    before = flat.tobytes()
    for feasible in SETS:
        solve_surrogate(model, feasible)
    assert flat.tobytes() == before


# ---------------------------------------------------------------------------
# named errors


def _small_problem():
    """min 1/2 ||v||^2 - v_0 over v >= 0, sum v = 1, with a cone v_0 >= ||v_1:||."""
    G = np.vstack([-np.eye(3), -np.eye(3)])
    return dict(Q=np.eye(3), q=np.array([-1.0, 0.0, 0.0]), G=G, h=np.zeros(6),
                A=np.ones((1, 3)), b=np.array([1.0]), linear=3, cones=[3])


def test_small_problem_solves():
    sol = coneqp.solve(**_small_problem())
    # the value is exact to the gap, the point only to about its square root
    assert sol.value == pytest.approx(-0.5, abs=1e-10)
    assert np.allclose(sol.v, [1.0, 0.0, 0.0], atol=1e-5)


@pytest.mark.parametrize("change, message", [
    (dict(b=np.array([-1.0])), "no solution"),  # v >= 0 with sum v = -1
    (dict(h=np.array([0.0, 0.0, 0.0, -2.0, 0.0, 0.0])), "no solution"),  # the cone asks v_0 >= 2
    (dict(q=np.zeros(2)), "shapes do not match"),
    (dict(A=np.ones((2, 3))), "shapes do not match"),
    (dict(linear=2), "do not cover"),
    (dict(cones=[1, 2]), "do not cover"),
    (dict(G=np.zeros(6)), "dimension"),
    (dict(q=np.array([np.nan, 0.0, 0.0])), "non-finite"),
    (dict(h=np.full(6, np.inf)), "non-finite"),
    (dict(c0=np.inf), "non-finite"),
])
def test_malformed_or_infeasible_problems_raise_the_named_error(change, message):
    with pytest.raises(ConeProgramError, match=message):
        coneqp.solve(**{**_small_problem(), **change})


@pytest.mark.parametrize("block", [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]],
                         ids=["zero", "zero_head", "zero_det"])
def test_jordan_solve_on_a_cone_boundary_raises_the_named_error(block):
    # lam o u = r has no solution there; dividing by the zero head or
    # determinant instead would be a RuntimeWarning (an error under pytest's
    # filterwarnings) and a NaN step
    cone = coneqp._Cone(1, [3])
    with pytest.raises(ConeProgramError, match="head or determinant 0"):
        cone.jordan_solve(np.array([1.0] + block), np.ones(4))


def test_solver_imports_only_numpy_and_typing():
    # like the simplex oracle, the solver shares no code with the forward
    # pass; and the certificate path does not reach the solver
    def imports(name):
        modules = set()
        for node in ast.walk(ast.parse((ROOT / "src" / "socicnn" / name).read_text())):
            if isinstance(node, ast.Import):
                modules.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                modules.add("." * node.level + (node.module or "").split(".")[0])
                modules.update(alias.name for alias in node.names if not node.module)
        return modules

    assert "numpy" in imports("coneqp.py")
    assert imports("coneqp.py") <= {"__future__", "numpy", "typing"}
    for name in ("simplex.py", "certificate.py"):
        assert not {"coneqp", ".coneqp"} & imports(name), name


# ---------------------------------------------------------------------------
# a second oracle for the cone-representable families


def task_program(task, theta):
    """The task's objective over its set as a cone QP over v = (x, epigraph
    variables): the weighted quadratic and linear backbone in Q and q; a norm
    term as weight * t with t >= ||P x - shift||; a Huber term through
    huber(r) = min_w w^2 + 2 delta |r - w|, with w and e >= |r - w| per row."""
    d = task.dim
    w_back, alpha = task.backbone_weights, task.alpha
    m = task.m_base + task.m_map @ theta
    c = task.c_base + task.c_map @ theta
    quad, lin = [alpha * w_back], [c - alpha * w_back * m]
    c0 = 0.5 * alpha * float(w_back @ (m * m))
    lin_rows, cone_rows, cones = [], [], []  # rows as (variable group, proj, shifts)
    groups = [d]
    for term in task.terms:
        weights = softplus(term.weight_base + term.weight_map @ theta)
        shifts = term.shift_base + term.shift_map @ theta
        k = term.proj.shape[0]
        if term.kind == "norm":
            groups.append(1)
            quad.append(np.zeros(1))
            lin.append(np.atleast_1d(weights))
            cone_rows.append((len(groups) - 1, term.proj, shifts))
            cones.append(1 + k)
        else:  # huber: variables w (k) then e (k)
            groups += [k, k]
            quad += [2.0 * weights, np.zeros(k)]
            lin += [np.zeros(k), 2.0 * HUBER_DELTA * weights]
            lin_rows.append((len(groups) - 2, term.proj, shifts))
    offsets = np.concatenate([[0], np.cumsum(groups)])
    nv = offsets[-1]
    Q = np.diag(np.concatenate(quad))
    q = np.concatenate(lin)

    G, h = [], []
    for g, proj, shifts in lin_rows:  # +-(P x - shift - w) - e <= 0
        k = proj.shape[0]
        for sign in (1.0, -1.0):
            block = np.zeros((k, nv))
            block[:, :d] = sign * proj
            block[:, offsets[g] : offsets[g] + k] = -sign * np.eye(k)
            block[:, offsets[g + 1] : offsets[g + 1] + k] = -np.eye(k)
            G.append(block)
            h.append(sign * shifts)
    G.append(-np.eye(d, nv))
    h.append(np.zeros(d))
    if task.feasible_set.kind != "Simplex":
        G.append(np.eye(d, nv))
        h.append(np.ones(d))
    linear = sum(block.shape[0] for block in G)
    for g, proj, shifts in cone_rows:  # (t, P x - shift) in the cone
        block = np.zeros((1 + proj.shape[0], nv))
        block[0, offsets[g]] = -1.0
        block[1:, :d] = -proj
        G.append(block)
        h.append(np.concatenate([[0.0], -shifts]))
    total = {"Simplex": 1.0, "CappedSimplex": task.feasible_set.budget}.get(task.feasible_set.kind)
    A = np.zeros((0 if total is None else 1, nv))
    A[:, :d] = 1.0
    return dict(Q=Q, q=q, c0=c0, G=np.vstack(G), h=np.concatenate(h), A=A,
                b=np.array([] if total is None else [total]), linear=linear, cones=cones)


@pytest.mark.parametrize("family", ["SimplexSocp", "BoxSocp", "BudgetTwoConeSocp", "BudgetHuber"])
def test_second_oracle_agrees_with_minimize_task(family):
    task = make_task(family, 10, 12)
    mu = task.alpha * float(np.min(task.backbone_weights))
    for index in range(24):
        theta = sample_context(12, index)
        x_pgd, value, gap, _ = minimize_task(task, theta, *DEFAULT_ORACLE_CONFIG, seed=index)
        assert gap <= CERTIFIED_GAP
        sol = coneqp.solve(**task_program(task, theta))
        assert abs(value - sol.value) <= 1e-8 * (1.0 + abs(value)), (index, value - sol.value)
        distance = np.linalg.norm(x_pgd - sol.v[: task.dim])
        assert distance <= np.sqrt(2.0 * (gap + sol.gap) / mu), (index, distance)
