import tracemalloc
from types import SimpleNamespace

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
from socicnn import gradients
from socicnn.gradients import Workspace, chain_multipliers, empty_workspace
from socicnn.model import (
    LayerParams,
    SocIcnnParams,
    affine_block,
    batch_forward,
    flatten_params,
    nonneg_mask,
    over_norm,
    sigmoid,
    softplus,
    unflatten_params,
)
from socicnn.training import VARIANTS, build_variant_model

from test_model import random_model, relu_scalar_model, trace_arrays


def _gradient_model(m):
    """A gradient buffer for m: views of a fresh zero vector in m's layout."""
    return unflatten_params(m, np.zeros_like(flatten_params(m)))


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
        fy = batch_forward(m, Y).total
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
    y = batch_forward(m, X).total
    grads = _gradient_model(m)
    loss = parameter_gradients(m, X, y, grads)
    assert loss == 0.0
    assert np.all(flatten_params(grads) == 0.0)


def test_bias_only_model_gradient():
    # f(x) = b_out with b_out = 1; y = 3 gives loss 4 and d loss / d b_out = -4
    m = SocIcnnParams(
        input_dim=1,
        layers=(LayerParams(None, affine_block(np.zeros((1, 1)), np.zeros(1))),),
        w_out=np.zeros(1),
        w_skip=np.zeros(1),
        b_out=1.0,
        quad=(),
        conic=(),
        passthrough=True,
        activation=RELU,
    )
    grads = _gradient_model(m)
    loss = parameter_gradients(m, np.array([[0.5]]), np.array([3.0]), grads)
    assert loss == pytest.approx(4.0, abs=1e-15)
    assert grads.b_out == pytest.approx(-4.0, abs=1e-14)


def test_parameter_gradients_validation():
    m = random_model(26)
    with pytest.raises(DimensionError):
        parameter_gradients(m, np.zeros((0, m.input_dim)), np.zeros(0), _gradient_model(m))
    with pytest.raises(DimensionError):
        parameter_gradients(m, np.zeros((3, m.input_dim)), np.zeros(4), _gradient_model(m))


def test_parameter_gradients_reject_a_buffer_of_another_layout():
    # a buffer one branch short would drop a gradient and pair the rest with
    # the wrong branches; one branch longer would leave entries unwritten
    m = random_model(28, num_quad=1, num_conic=2)
    X = spawn_rng(28).uniform(-1.0, 1.0, (5, m.input_dim))
    y = np.zeros(5)
    for other in (
        random_model(28, num_quad=1, num_conic=1),
        random_model(28, num_quad=1, num_conic=3),
        random_model(28, num_quad=0, num_conic=2),
        random_model(28, num_quad=1, num_conic=2, widths=(8, 8, 8)),
        random_model(28, num_quad=1, num_conic=2, passthrough=False),
    ):
        g = np.full(flatten_params(other).size, np.nan)
        with pytest.raises(DimensionError, match="layout"):
            parameter_gradients(m, X, y, unflatten_params(other, g))
        assert np.all(np.isnan(g))


def test_parameter_gradients_reject_non_finite_targets():
    m = random_model(26)
    X = spawn_rng(26).uniform(-1.0, 1.0, (3, m.input_dim))
    for bad in (np.nan, np.inf, -np.inf):
        for y in (np.full(3, bad), np.array([0.0, bad, 1.0])):
            with pytest.raises(ValueError, match="non-finite"):
                parameter_gradients(m, X, y, _gradient_model(m))


def test_parameter_gradients_overwrite_every_entry_of_a_reused_buffer():
    # a NaN left anywhere in the reused buffer would survive into the result
    for passthrough in (True, False):
        m = random_model(27, num_quad=2, num_conic=2, passthrough=passthrough)
        rng = spawn_rng(27, int(passthrough))
        reused = np.full(flatten_params(m).size, np.nan)
        grads = unflatten_params(m, reused)
        for rows in (9, 4):
            X = rng.uniform(-2, 2, (rows, m.input_dim))
            y = rng.standard_normal(rows)
            fresh = np.zeros_like(reused)
            loss = parameter_gradients(m, X, y, grads)
            assert loss == parameter_gradients(m, X, y, unflatten_params(m, fresh))
            assert np.array_equal(reused, fresh)


def workspace_arrays(work):
    """Every array of a workspace, its trace's included."""
    arrays = [a for field in trace_arrays(work.trace) for a in field]
    for name in Workspace.__slots__:
        value = getattr(work, name)
        if isinstance(value, list):
            arrays.extend(value)
        elif isinstance(value, np.ndarray):
            arrays.append(value)
    return arrays


@pytest.mark.parametrize("activation", [RELU, SOFTPLUS])
def test_parameter_gradients_into_a_reused_workspace_match_a_fresh_call(activation):
    # the workspace and out start as NaN, and a second batch reuses them: a
    # value the call did not overwrite, or one left from the first batch, would show
    for passthrough in (True, False):
        for num_quad in range(3):
            for num_conic in range(3):
                m = random_model(29, widths=(8, 8, 5), num_quad=num_quad, num_conic=num_conic,
                                 passthrough=passthrough, activation=activation)
                rng = spawn_rng(29, num_quad, num_conic, int(passthrough))
                for rows in (1, 37, 64, 200):
                    work = empty_workspace(m, rows)
                    for a in workspace_arrays(work):
                        a.fill(np.nan)
                    for _ in range(2):
                        X = rng.uniform(-2, 2, (rows, m.input_dim))
                        y = rng.standard_normal(rows)
                        got = unflatten_params(m, np.full(flatten_params(m).size, np.nan))
                        want = _gradient_model(m)
                        loss = parameter_gradients(m, X, y, got, work)
                        assert loss == parameter_gradients(m, X, y, want)
                        assert flatten_params(got).tobytes() == flatten_params(want).tobytes()


def test_parameter_gradients_reject_a_workspace_of_another_model_rows_or_width():
    # the workspace's trace records the params object it was built for, so a
    # twin of the same layout is refused too; nothing is written before the
    # refusal, in the workspace or in the gradient
    m = random_model(30, num_quad=1, num_conic=1)
    X = spawn_rng(30).uniform(-1.0, 1.0, (5, m.input_dim))
    y = np.zeros(5)
    for work, batch in (
        (empty_workspace(random_model(30, num_quad=1, num_conic=1), 5), X),
        (empty_workspace(unflatten_params(m, flatten_params(m)), 5), X),
        (empty_workspace(m, 6), X),
        (empty_workspace(m, 4), X),
        (empty_workspace(m, 5), np.hstack([X, X[:, :1]])),
    ):
        for a in workspace_arrays(work):
            a.fill(np.nan)
        before = [a.tobytes() for a in workspace_arrays(work)]
        g = np.full(flatten_params(m).size, np.nan)
        with pytest.raises(DimensionError):
            parameter_gradients(m, batch, y, unflatten_params(m, g), work)
        assert np.all(np.isnan(g))
        assert [a.tobytes() for a in workspace_arrays(work)] == before
    work = empty_workspace(m, 5)
    for bad in (np.nan, np.inf, -np.inf):
        batch = X.copy()
        batch[2, 1] = bad
        g = np.full(flatten_params(m).size, np.nan)
        with pytest.raises(ValueError, match="non-finite"):
            parameter_gradients(m, batch, y, unflatten_params(m, g), work)
        assert np.all(np.isnan(g))


def test_parameter_gradients_run_their_forward_through_batch_forward(monkeypatch):
    # one forward per call, into the workspace's trace when one is given
    m = random_model(35, num_quad=1, num_conic=1)
    X = spawn_rng(35).uniform(-1.0, 1.0, (7, m.input_dim))
    y = np.zeros(7)
    work = empty_workspace(m, 7)
    outs = []

    def counting(params, batch, out=None):
        outs.append(out)
        return batch_forward(params, batch, out)

    monkeypatch.setattr(gradients, "batch_forward", counting)
    parameter_gradients(m, X, y, _gradient_model(m), work)
    parameter_gradients(m, X, y, _gradient_model(m))
    assert len(outs) == 2
    assert outs[0] is work.trace and outs[1] is not None and outs[1] is not work.trace


@pytest.mark.parametrize("variant, width, rows", [("QuadOnly", 8, 64), ("SOC", 20, 128)])
def test_a_step_into_a_warm_workspace_allocates_under_a_third_of_it(variant, width, rows):
    # decide's surrogate and fit's SOC step: a call without a workspace
    # allocates a whole one; into a warm one only small temporaries remain
    m = build_variant_model(variant, 10, width, 2, seed=0)
    rng = spawn_rng(34)
    X = rng.uniform(-3, 3, (rows, 10))
    y = rng.standard_normal(rows)
    grads = _gradient_model(m)
    work = empty_workspace(m, rows)
    work_bytes = sum(a.nbytes for a in workspace_arrays(work))
    peaks = []
    for buffers in (work, None):
        parameter_gradients(m, X, y, grads, buffers)  # numpy's first-call set-up is not the step's
        tracemalloc.start()
        try:
            parameter_gradients(m, X, y, grads, buffers)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < work_bytes / 3
    assert peaks[1] > work_bytes


def reference_parameter_gradients(params, X, y, out, trace=None):
    # float derivative masks, temporaries copied into out, and np.mean; the
    # bias gradients are the column sums of delta and dR.  By default over
    # the library's forward pass, else over the given trace.
    if trace is None:
        trace = batch_forward(params, X)
    residual = trace.total - y
    loss = float(np.mean(residual**2))
    dtotal = (2.0 / X.shape[0]) * residual
    acts, preacts = trace.acts, trace.preacts

    def derivative(pre):
        return (pre > 0.0).astype(np.float64) if params.activation == RELU else sigmoid(pre)

    deltas = [None] * params.depth
    delta = (dtotal[:, None] * params.w_out) * derivative(preacts[-1])
    for idx in range(params.depth - 1, -1, -1):
        deltas[idx] = delta
        if idx > 0:
            delta = (delta @ params.layers[idx].w_z) * derivative(preacts[idx - 1])
    for idx, (grad, delta) in enumerate(zip(out.layers, deltas)):
        if grad.w_x is not None:
            grad.w_x[...] = delta.T @ X
        if grad.w_z is not None:
            grad.w_z[...] = delta.T @ acts[idx - 1]
        grad.b[...] = delta.sum(axis=0)
    out.w_out[...] = acts[-1].T @ dtotal
    out.w_skip[...] = X.T @ dtotal
    out.b_out[...] = np.sum(dtotal)
    quad = [((dtotal * br.weight)[:, None] * Q, s)
            for br, Q, s in zip(params.quad, trace.quad_q, trace.quad_s)]
    conic = [(over_norm(dtotal * br.weight, t)[:, None] * U, t)
             for br, U, t in zip(params.conic, trace.conic_u, trace.conic_t)]
    for grad, (dR, norms) in zip(out.quad + out.conic, quad + conic):
        grad.weight[...] = np.dot(dtotal, norms)
        grad.proj[...] = dR.T @ X
        grad.offset[...] = dR.sum(axis=0)
    return loss


@pytest.mark.parametrize("activation", [RELU, SOFTPLUS])
def test_parameter_gradients_match_the_reference_bit_for_bit(activation):
    for passthrough in (True, False):
        m = random_model(28, widths=(8, 8, 5), num_quad=2, num_conic=2,
                         passthrough=passthrough, activation=activation)
        rng = spawn_rng(28, int(passthrough))
        for rows in (1, 37, 64, 200):
            X = rng.uniform(-2, 2, (rows, m.input_dim))
            y = rng.standard_normal(rows)
            got, want = _gradient_model(m), _gradient_model(m)
            loss = parameter_gradients(m, X, y, got)
            assert loss == reference_parameter_gradients(m, X, y, want)
            assert flatten_params(got).tobytes() == flatten_params(want).tobytes()


def unfolded_trace(params, X):
    """The forward pass with each bias added after its product, X @ w_x.T + b
    and X @ proj.T + offset: the reference for the one-product blocks."""
    activate = (lambda t: np.maximum(t, 0.0)) if params.activation == RELU else softplus
    preacts, acts, Z = [], [], None
    for layer in params.layers:
        pre = layer.b if layer.w_x is None else X @ layer.w_x.T + layer.b
        if layer.w_z is not None:
            pre = pre + Z @ layer.w_z.T
        Z = activate(pre)
        preacts.append(pre)
        acts.append(Z)
    quad_q = [X @ br.proj.T + br.offset for br in params.quad]
    conic_u = [X @ br.proj.T + br.offset for br in params.conic]
    quad_s = [0.5 * np.sum(Q * Q, axis=1) for Q in quad_q]
    conic_t = [np.sqrt(np.sum(U * U, axis=1)) for U in conic_u]
    total = Z @ params.w_out + X @ params.w_skip + params.b_out
    for br, values in zip(params.quad + params.conic, quad_s + conic_t):
        total = total + br.weight * values
    return SimpleNamespace(preacts=preacts, acts=acts, quad_q=quad_q, quad_s=quad_s,
                           conic_u=conic_u, conic_t=conic_t, total=total)


def unfolded_input_gradients(params, trace):
    """Input subgradients of every row of a trace of ``unfolded_trace``."""
    def derivative(pre):
        return (pre > 0.0).astype(np.float64) if params.activation == RELU else sigmoid(pre)

    G = np.zeros((trace.total.shape[0], params.input_dim)) + params.w_skip
    delta = params.w_out * derivative(trace.preacts[-1])
    for idx in range(params.depth - 1, -1, -1):
        if params.layers[idx].w_x is not None:
            G += delta @ params.layers[idx].w_x
        if idx > 0:
            delta = (delta @ params.layers[idx].w_z) * derivative(trace.preacts[idx - 1])
    for br, Q in zip(params.quad, trace.quad_q):
        G += br.weight * (Q @ br.proj)
    for br, U, t in zip(params.conic, trace.conic_u, trace.conic_t):
        G += (over_norm(br.weight, t)[:, None] * U) @ br.proj
    return G


def named_entries(m):
    """(name, array) of every learnable entry of m."""
    entries = []
    for k, layer in enumerate(m.layers):
        entries += [(f"layers[{k}].{name}", getattr(layer, name)) for name in ("w_x", "w_z", "b")
                    if getattr(layer, name) is not None]
    entries += [("w_out", m.w_out), ("w_skip", m.w_skip), ("b_out", m.b_out)]
    for kind, branches in (("quad", m.quad), ("conic", m.conic)):
        for k, br in enumerate(branches):
            entries += [(f"{kind}[{k}].{name}", getattr(br, name))
                        for name in ("weight", "proj", "offset")]
    return entries


def assert_close_to(got, want, where):
    # 1e-13 of the largest entry of the reference
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, where
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * np.max(np.abs(want), initial=0.0), where


def test_one_product_per_block_matches_the_unfolded_formulas():
    # every entry drawn at random, biases and offsets included, so each block's
    # last column counts; a layer that does not read x keeps its own bias add
    for variant in VARIANTS:
        for passthrough in (True, False):
            for d in (1, 10):
                template = build_variant_model(variant, d, 6, 3, seed=34, passthrough=passthrough)
                flat = 0.5 * spawn_rng(34, d, int(passthrough)).standard_normal(
                    flatten_params(template).size)
                m = unflatten_params(template, np.where(nonneg_mask(template), np.abs(flat), flat))
                for rows in (1, 37, 80, 128):
                    where = f"{variant} passthrough={passthrough} d={d} rows={rows}"
                    rng = spawn_rng(34, d, rows)
                    X = rng.uniform(-2, 2, (rows, d))
                    y = rng.standard_normal(rows)
                    want = unfolded_trace(m, X)

                    got = batch_forward(m, X)
                    assert np.array_equal(got.inputs, np.column_stack([X, np.ones(rows)]))
                    point = forward(m, X[0])
                    for name in ("preacts", "acts", "quad_q", "quad_s", "conic_u", "conic_t"):
                        for k, (a, b) in enumerate(zip(getattr(got, name), getattr(want, name),
                                                       strict=True)):
                            assert_close_to(a, b, f"{where} {name}[{k}]")
                            assert_close_to(getattr(point, name)[k], b[0], f"{where} point {name}[{k}]")
                    assert_close_to(got.total, want.total, f"{where} total")
                    assert_close_to(point.total, want.total[0], f"{where} point total")

                    grads, reference = _gradient_model(m), _gradient_model(m)
                    loss = parameter_gradients(m, X, y, grads)
                    want_loss = reference_parameter_gradients(m, X, y, reference, trace=want)
                    assert_close_to(loss, want_loss, f"{where} loss")
                    for (name, a), (_, b) in zip(named_entries(grads), named_entries(reference),
                                                 strict=True):
                        assert_close_to(a, b, f"{where} gradient {name}")

                    values, G = value_and_input_gradient_batch(m, X)
                    assert_close_to(values, want.total, f"{where} values")
                    assert_close_to(G, unfolded_input_gradients(m, want), f"{where} input gradients")


def _loss_of_flat(template, flat, X, y):
    model = unflatten_params(template, flat)
    resid = batch_forward(model, X).total - y
    return float(np.mean(resid**2))


@pytest.mark.parametrize("activation", [RELU, SOFTPLUS])
def test_parameter_gradients_match_finite_differences(activation):
    m = random_model(23, d0=4, widths=(5, 4), activation=activation)
    rng = spawn_rng(23, 7)
    X = rng.uniform(-2, 2, (8, 4))
    y = rng.standard_normal(8)
    grads = _gradient_model(m)
    parameter_gradients(m, X, y, grads)
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
