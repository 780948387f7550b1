import math

import numpy as np
import pytest

from socicnn import (
    MaxAffine,
    absorption_rate_rows,
    build_tangent_max_affine,
    cpwl_piece_lower_bound,
    loglog_slope,
    make_target,
    midpoint_grid,
    spawn_rng,
    target_values_and_subgradients,
)
from socicnn.theory import (
    MAX_NET_POINTS,
    eval_max_affine_batch,
    smallest_net_reaching,
    sup_error_estimate,
    unit_ball_volume,
)


def test_unit_ball_volumes():
    assert unit_ball_volume(1) == pytest.approx(2.0, abs=1e-12)
    assert unit_ball_volume(2) == pytest.approx(math.pi, abs=1e-12)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, abs=1e-12)


def test_piece_lower_bound_hand_value():
    # volume 2 on the line, curvature 1, accuracy 0.01: 2/(2*2) * 10 = 5
    assert cpwl_piece_lower_bound(2.0, 1, 1.0, 0.01) == pytest.approx(5.0, abs=1e-12)


def test_piece_lower_bound_scaling_in_accuracy():
    base = cpwl_piece_lower_bound(4.0, 2, 1.0, 0.2)
    assert cpwl_piece_lower_bound(4.0, 2, 1.0, 0.05) == pytest.approx(4.0 * base, rel=1e-12)
    # tighter accuracy never lowers the bound
    eps = np.logspace(-4, 0, 30)
    bounds = [cpwl_piece_lower_bound(2.0, 3, 1.5, e) for e in eps]
    assert all(a >= b for a, b in zip(bounds, bounds[1:]))
    with pytest.raises(ValueError):
        cpwl_piece_lower_bound(0.0, 1, 1.0, 0.1)


def test_eval_max_affine_basics():
    zero = MaxAffine(slopes=np.zeros((1, 2)), intercepts=np.zeros(1))
    assert eval_max_affine_batch(zero, [[3.0, -1.0]])[0] == 0.0
    absval = MaxAffine(slopes=np.array([[1.0], [-1.0]]), intercepts=np.zeros(2))
    assert eval_max_affine_batch(absval, [[3.0]])[0] == 3.0
    with pytest.raises(ValueError):
        MaxAffine(slopes=np.zeros((0, 2)), intercepts=np.zeros(0))


def test_max_affine_midpoint_convexity():
    rng = spawn_rng(41)
    g = MaxAffine(slopes=rng.standard_normal((7, 3)), intercepts=rng.standard_normal(7))
    X = rng.uniform(-5, 5, (10_000, 3))
    Y = rng.uniform(-5, 5, (10_000, 3))
    gap = eval_max_affine_batch(g, (X + Y) / 2) - 0.5 * (
        eval_max_affine_batch(g, X) + eval_max_affine_batch(g, Y)
    )
    assert float(np.max(gap)) <= 1e-12


def _half_sq(X):
    return 0.5 * np.sum(X * X, axis=1), X


def test_tangent_net_three_points_hand_computed():
    net = np.array([[-1.0], [0.0], [1.0]])
    g = build_tangent_max_affine(_half_sq, net)
    # tangents of t^2/2 at -1, 0, 1 are -t - 1/2, 0, t - 1/2
    assert np.array_equal(np.sort(g.slopes[:, 0]), [-1.0, 0.0, 1.0])
    assert eval_max_affine_batch(g, [[0.5]])[0] == 0.0
    assert 0.5 * 0.5**2 - eval_max_affine_batch(g, [[0.5]])[0] == pytest.approx(0.125, abs=1e-15)


def test_single_tangent_is_exact_at_its_point():
    g = build_tangent_max_affine(_half_sq, np.array([[0.7, -0.3]]))
    assert eval_max_affine_batch(g, [[0.7, -0.3]])[0] == pytest.approx(
        0.5 * (0.7**2 + 0.3**2), abs=1e-15
    )
    assert g.num_pieces == 1


def test_sup_error_keeps_a_nan_from_any_block(monkeypatch):
    monkeypatch.setattr("socicnn.theory.SAMPLE_BLOCK_ENTRIES", 4)
    approx = build_tangent_max_affine(_half_sq, midpoint_grid(1, 2))  # 2 rows per block
    blocks = []

    def nan_in_the_last_block(X):
        blocks.append(X.shape[0])
        values, grads = _half_sq(X)
        return values + (np.nan if len(blocks) == 5 else 0.0), grads

    assert math.isnan(sup_error_estimate(nan_in_the_last_block, approx, num_samples=10))
    assert blocks == [2] * 5


def test_tangent_net_underapproximates_convex_targets():
    rng = spawn_rng(42)
    for name in ("QuadraticAniso", "LogSumExpQuad", "SoftplusSum"):
        target = make_target(name, 3, 5)
        oracle = lambda X: target_values_and_subgradients(target, X)
        net = rng.uniform(-1, 1, (25, 3))
        g = build_tangent_max_affine(oracle, net)
        X = rng.uniform(-1, 1, (10_000, 3))
        over = eval_max_affine_batch(g, X) - oracle(X)[0]
        assert float(np.max(over)) <= 1e-12, name


def test_tangent_net_rejects_gradients_not_shaped_like_the_net():
    net = midpoint_grid(2, 2)
    for grads in (np.zeros((4, 3)), np.zeros(4), np.zeros((3, 2))):
        with pytest.raises(ValueError, match="gradients must be shaped like the net"):
            build_tangent_max_affine(lambda X: (np.zeros(len(X)), grads), net)
    for net in (np.zeros((0, 2)), np.zeros(3)):
        with pytest.raises(ValueError, match="non-empty"):
            build_tangent_max_affine(_half_sq, net)


def test_max_affine_rejects_mismatched_shapes():
    for slopes, intercepts in ((np.zeros((3, 2)), np.zeros(2)), (np.zeros(3), np.zeros(3)),
                               (np.zeros((3, 2)), np.zeros((3, 1)))):
        with pytest.raises(ValueError, match="slopes must be"):
            MaxAffine(slopes=slopes, intercepts=intercepts)
    with pytest.raises(ValueError, match="at least one piece"):
        MaxAffine(slopes=np.zeros((0, 2)), intercepts=np.zeros(0))


def test_absorption_rate_rows_rejects_a_net_over_the_limit_before_building_any():
    # the first pair is small: a rule checked net by net would build it first
    for dims, cells in (((1,), (2, MAX_NET_POINTS + 1)), ((40,), (2, 4))):
        with pytest.raises(ValueError, match=r"points exceeds MAX_NET_POINTS"):
            absorption_rate_rows(dims=dims, cells=cells, num_samples=1)
    assert len(absorption_rate_rows(dims=(1, 16), cells=(1, 2), num_samples=1)) == 4


@pytest.mark.parametrize("num_samples", [0, -1])
def test_sup_error_estimate_rejects_fewer_than_one_sample(num_samples):
    g = build_tangent_max_affine(_half_sq, midpoint_grid(1, 2))
    with pytest.raises(ValueError, match="num_samples must be >= 1"):
        sup_error_estimate(_half_sq, g, num_samples=num_samples)


@pytest.mark.parametrize("num_samples", [0, -1])
def test_absorption_rate_rows_rejects_fewer_than_one_sample(num_samples):
    with pytest.raises(ValueError, match="num_samples must be >= 1"):
        absorption_rate_rows(dims=(1,), cells=(2,), num_samples=num_samples)


def test_midpoint_grid_geometry():
    grid = midpoint_grid(1, 4)
    assert np.allclose(grid[:, 0], [-0.75, -0.25, 0.25, 0.75], atol=1e-15)
    grid2 = midpoint_grid(2, 3)
    assert grid2.shape == (9, 2)
    assert np.min(grid2) >= -1.0 and np.max(grid2) <= 1.0


def test_absorption_rate_slopes():
    rows = absorption_rate_rows(dims=(1, 2), cells=(2, 4, 8, 16), num_samples=60_000, seed=0)
    for dim in (1, 2):
        sub = [r for r in rows if r["d"] == dim]
        slope = loglog_slope([r["N"] for r in sub], [r["sup_error"] for r in sub])
        assert abs(slope - (-2.0 / dim)) <= 0.25
        # scaled error stays bounded across net sizes
        scaled = [r["sup_error"] * r["N"] ** (2.0 / dim) for r in sub]
        assert max(scaled) <= 2.0 * min(scaled) + 1e-9
        for r in sub:
            assert r["N"] >= r["bound"]


def test_sampled_error_matches_exact_formula_for_half_sq():
    for k in (4, 8):
        net = midpoint_grid(1, k)
        g = build_tangent_max_affine(_half_sq, net)
        sampled = sup_error_estimate(_half_sq, g, num_samples=200_000, seed=1)
        exact = 1.0 / (2.0 * k**2)
        assert sampled <= exact + 1e-12
        assert sampled >= 0.98 * exact


def test_smallest_net_respects_piece_lower_bound():
    for eps in (0.1, 0.01):
        n_needed = smallest_net_reaching(eps, dim=1)
        assert n_needed >= cpwl_piece_lower_bound(2.0, 1, 1.0, eps)
    for eps in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            smallest_net_reaching(eps, dim=1)
    for dim in (0, -1):
        with pytest.raises(ValueError, match="dim must be >= 1"):
            smallest_net_reaching(0.1, dim=dim)
    # 4096 cells reach 1 / (2 * 4096^2), about 3e-8, and no finer
    with pytest.raises(ValueError, match="no net within 4096 cells"):
        smallest_net_reaching(1e-12)


def test_loglog_slope_recovers_exact_power_law():
    ns = np.array([2.0, 4.0, 8.0, 16.0])
    errors = 3.0 * ns**-2.0
    assert loglog_slope(ns, errors) == pytest.approx(-2.0, abs=1e-12)
