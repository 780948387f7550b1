import numpy as np
import pytest

from socicnn import (
    RELU,
    SOFTPLUS,
    DimensionError,
    finite_difference_check,
    forward,
    from_structured_class,
    init_model,
    input_subgradient,
    parameter_gradients,
    spawn_rng,
    value_and_input_gradient_batch,
)
from socicnn.gradients import chain_multipliers
from socicnn.model import (
    LayerParams,
    SocIcnnParams,
    flatten_params,
    forward_total_batch,
    unflatten_params,
)

from test_model import random_model, relu_scalar_model


def test_input_subgradient_relu_unit():
    m = relu_scalar_model()
    assert input_subgradient(m, [2.0])[0] == 1.0
    assert input_subgradient(m, [-3.0])[0] == 0.0


def test_input_subgradient_quadratic_and_conic():
    quad = from_structured_class(np.zeros(2), 0.0, np.eye(2), [])
    assert np.allclose(input_subgradient(quad, [3.0, 4.0]), [3.0, 4.0], atol=1e-14)
    conic = from_structured_class(np.zeros(2), 0.0, None, [(2.0, np.eye(2), np.zeros(2))])
    assert np.allclose(input_subgradient(conic, [3.0, 4.0]), [1.2, 1.6], atol=1e-14)
    # vanishing norm picks the zero subgradient
    assert np.array_equal(input_subgradient(conic, [0.0, 0.0]), [0.0, 0.0])


def test_quad_branch_expresses_negative_slopes():
    m = from_structured_class(np.zeros(3), 0.0, np.eye(3), [])
    g = input_subgradient(m, [-1.0, 2.0, -0.5])
    assert np.min(g) < 0.0


def test_batch_value_and_gradient_match_pointwise():
    for activation in (RELU, SOFTPLUS):
        m = random_model(21, activation=activation)
        X = spawn_rng(21, 1).uniform(-2, 2, (30, m.input_dim))
        totals, grads = value_and_input_gradient_batch(m, X)
        for row, total, grad in zip(X, totals, grads):
            tr = forward(m, row)
            assert total == pytest.approx(tr.total, rel=1e-13, abs=1e-13)
            assert np.allclose(grad, input_subgradient(m, row, trace=tr), atol=1e-12)


def test_subgradient_inequality_sampled():
    rng = spawn_rng(88)
    worst = -np.inf
    for trial in range(20):
        m = random_model(300 + trial, d0=4, widths=(6, 5), passthrough=bool(trial % 2))
        X = rng.uniform(-4, 4, (250, 4))
        Y = rng.uniform(-4, 4, (250, 4))
        fx, gx = value_and_input_gradient_batch(m, X)
        fy = forward_total_batch(m, Y)
        gap = fx + np.einsum("ij,ij->i", gx, Y - X) - fy
        worst = max(worst, float(np.max(gap)))
    assert worst <= 1e-9


def test_backbone_gradient_cone_chain_constraints():
    m = random_model(23, d0=5, widths=(6, 6, 4), num_quad=0, num_conic=0,
                     passthrough=False)
    m = SocIcnnParams(
        input_dim=m.input_dim, layers=m.layers, w_out=m.w_out,
        w_skip=np.zeros(m.input_dim), b_out=m.b_out, quad=(), conic=(),
        passthrough=False, activation=RELU,
    )
    rng = spawn_rng(23, 5)
    for _ in range(20):
        x = rng.uniform(-3, 3, 5)
        tr = forward(m, x)
        nus = chain_multipliers(m, tr.preacts)
        upper = m.w_out
        for idx in range(m.depth - 1, -1, -1):
            assert np.min(nus[idx]) >= 0.0
            assert np.max(nus[idx] - upper) <= 0.0
            if idx > 0:
                upper = m.layers[idx].w_z.T @ nus[idx]


def test_backbone_gradient_piecewise_constant():
    m = random_model(24, d0=4, widths=(5, 5), num_quad=0, num_conic=0)
    rng = spawn_rng(24, 5)
    x = rng.uniform(-2, 2, 4)
    direction = rng.standard_normal(4)
    tr = forward(m, x)
    # pick a step small enough that no preactivation changes sign
    eps = 1e-7
    tr2 = forward(m, x + eps * direction)
    signs_equal = all(
        np.array_equal(p1 > 0, p2 > 0) for p1, p2 in zip(tr.preacts, tr2.preacts)
    )
    assert signs_equal
    assert np.array_equal(input_subgradient(m, x, trace=tr),
                          input_subgradient(m, x + eps * direction, trace=tr2))


# ---------------------------------------------------------------------------
# parameter gradients


def test_zero_loss_means_zero_gradients():
    m = random_model(25)
    X = spawn_rng(25, 1).uniform(-2, 2, (12, m.input_dim))
    y = forward_total_batch(m, X)
    loss, grads = parameter_gradients(m, X, y)
    assert loss == 0.0
    assert np.all(flatten_params(grads) == 0.0)


def test_bias_only_model_gradient():
    # f(x) = b_out with b_out = 1; y = 3 gives loss 4 and d loss / d b_out = -4
    m = SocIcnnParams(
        input_dim=1,
        layers=(LayerParams(w_x=np.zeros((1, 1)), w_z=None, b=np.zeros(1)),),
        w_out=np.zeros(1),
        w_skip=np.zeros(1),
        b_out=1.0,
        quad=(),
        conic=(),
        passthrough=True,
        activation=RELU,
    )
    loss, grads = parameter_gradients(m, np.array([[0.5]]), np.array([3.0]))
    assert loss == pytest.approx(4.0, abs=1e-15)
    assert grads.b_out == pytest.approx(-4.0, abs=1e-14)


def test_parameter_gradients_validation():
    m = random_model(26)
    with pytest.raises(DimensionError):
        parameter_gradients(m, np.zeros((0, m.input_dim)), np.zeros(0))
    with pytest.raises(DimensionError):
        parameter_gradients(m, np.zeros((3, m.input_dim)), np.zeros(4))


def _loss_of_flat(template, flat, X, y):
    model = unflatten_params(template, flat)
    resid = forward_total_batch(model, X) - y
    return float(np.mean(resid**2))


@pytest.mark.parametrize("activation", [RELU, SOFTPLUS])
def test_parameter_gradients_match_finite_differences(activation):
    m = random_model(23, d0=4, widths=(5, 4), activation=activation)
    rng = spawn_rng(23, 7)
    X = rng.uniform(-2, 2, (8, 4))
    y = rng.standard_normal(8)
    _, grads = parameter_gradients(m, X, y)
    flat = flatten_params(m)
    flat_grads = flatten_params(grads)
    step = 1e-5
    worst = 0.0
    for k in range(flat.size):
        bumped = flat.copy()
        bumped[k] += step
        up = _loss_of_flat(m, bumped, X, y)
        bumped[k] -= 2 * step
        down = _loss_of_flat(m, bumped, X, y)
        fd = (up - down) / (2 * step)
        analytic = float(flat_grads[k])
        worst = max(worst, abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-3))
    assert worst <= 1e-5


# ---------------------------------------------------------------------------
# finite-difference checker for the input gradient


def test_fd_check_pure_quadratic():
    m = from_structured_class(np.zeros(3), 0.0, np.eye(3), [])
    x = np.array([0.7, -1.2, 2.0])
    assert finite_difference_check(m, x, 1e-5) <= 1e-8


def test_fd_check_random_smooth_point():
    m = random_model(23)
    x = spawn_rng(23, 11).uniform(-2, 2, m.input_dim)
    assert finite_difference_check(m, x, 1e-5) <= 1e-5


def test_fd_check_conic_away_from_kink():
    m = from_structured_class(np.zeros(2), 0.0, None, [(2.0, np.eye(2), np.zeros(2))])
    assert finite_difference_check(m, np.array([3.0, 4.0]), 1e-6) <= 1e-5


def test_fd_check_rejects_bad_step():
    m = random_model(29)
    with pytest.raises(ValueError):
        finite_difference_check(m, np.zeros(m.input_dim), 0.0)
