import hashlib
import importlib
import itertools
import json
import pkgutil
import tracemalloc

import numpy as np
import pytest

import socicnn
from socicnn import (
    RELU,
    SOFTPLUS,
    BranchParams,
    ConstraintError,
    DimensionError,
    LayerParams,
    SocIcnnParams,
    count_parameters,
    forward,
    from_json_dict,
    from_structured_class,
    init_model,
    load_model,
    max_infeasibility,
    project_feasible,
    save_model,
    spawn_rng,
    to_json_dict,
)
from socicnn.model import (
    ForwardTrace,
    affine_block,
    batch_forward,
    count_forward_flops,
    empty_trace,
    flatten_params,
    half_sqnorm_rows,
    nonneg_mask,
    norm_rows,
    sigmoid,
    softplus,
    unflatten_params,
)
from socicnn.training import VARIANTS, build_variant_model, variant_depth


def relu_scalar_model():
    """f(x) = max(x, 0) in one dimension."""
    return SocIcnnParams(
        input_dim=1,
        layers=(LayerParams(None, affine_block(np.array([[1.0]]), np.zeros(1))),),
        w_out=np.array([1.0]),
        w_skip=np.zeros(1),
        b_out=0.0,
        quad=(),
        conic=(),
        passthrough=True,
        activation=RELU,
    )


def fail_wherever_called(monkeypatch, fn):
    """Replace ``fn`` by a function that raises at every attribute of the
    package's modules that holds it, which is where its callers look it up."""

    def fail(*args, **kwargs):
        raise AssertionError(f"{fn.__module__}.{fn.__name__} was called")

    modules = [socicnn] + [
        importlib.import_module(f"socicnn.{info.name}") for info in pkgutil.iter_modules(socicnn.__path__)
    ]
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, name, fail)


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so that every call appends to the returned list."""
    calls = []
    fn = getattr(module, name)

    def counted(*args):
        calls.append(None)
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def random_model(seed, d0=6, widths=(8, 8), num_quad=1, num_conic=1, passthrough=True,
                 activation=RELU):
    ranks = [max(2, d0 // 2)] * num_quad
    dims = [max(2, d0 // 2)] * num_conic
    return init_model(d0, list(widths), ranks, dims, passthrough, activation, seed)


# ---------------------------------------------------------------------------
# initialization


def test_init_deterministic_for_fixed_seed():
    a = init_model(2, [4], [], [], True, RELU, 7)
    b = init_model(2, [4], [], [], True, RELU, 7)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.w_x, lb.w_x)
        assert np.array_equal(la.b, lb.b)
    assert np.array_equal(a.w_out, b.w_out)
    assert np.array_equal(a.w_skip, b.w_skip)


def test_init_feasible_by_construction():
    # the shapes verify and certify draw: two quadratic and two conic branches
    for seed in range(50):
        for passthrough in (True, False):
            for depth in (1, 2, 3):
                m = init_model(3, [4] * depth, [3, 3], [3, 3], passthrough, RELU, seed)
                assert max_infeasibility(m) == 0.0, (seed, passthrough, depth)
                assert all(br.weight >= 0 for br in m.quad + m.conic)


def test_init_seeds_differ():
    a = init_model(3, [4, 4], [2], [2], True, RELU, 7)
    b = init_model(3, [4, 4], [2], [2], True, RELU, 8)
    assert not np.array_equal(a.layers[0].w_x, b.layers[0].w_x)


def test_init_validation_errors():
    with pytest.raises(DimensionError):
        init_model(0, [4], [], [], True, RELU, 0)
    with pytest.raises(DimensionError):
        init_model(2, [], [], [], True, RELU, 0)
    with pytest.raises(DimensionError):
        init_model(2, [4, 0], [], [], True, RELU, 0)
    with pytest.raises(ValueError):
        init_model(2, [4], [], [], True, "Gelu", 0)


def test_init_builds_one_branch_per_entry_of_any_iterable():
    # the branch counts are the lengths of the size lists, read once
    m = init_model(3, [4], (r for r in (1, 2)), iter([3]), True, RELU, 0)
    assert [br.proj.shape for br in m.quad] == [(1, 3), (2, 3)]
    assert [br.proj.shape for br in m.conic] == [(3, 3)]


def test_passthrough_disabled_drops_deep_input_weights():
    m = random_model(0, widths=(4, 4, 4), passthrough=False)
    assert m.layers[0].w_x is not None
    assert m.layers[1].w_x is None and m.layers[2].w_x is None


# ---------------------------------------------------------------------------
# projection


def test_project_clamps_negative_hidden_weights():
    m = random_model(1, widths=(2, 2), num_quad=0, num_conic=0)
    dirty = SocIcnnParams(
        input_dim=m.input_dim,
        layers=(m.layers[0],
                LayerParams(np.array([[-1.0, 2.0], [0.5, -0.25]]), m.layers[1].affine)),
        w_out=np.array([-3.0, 1.0]),
        w_skip=m.w_skip,
        b_out=m.b_out,
        quad=(),
        conic=(),
        passthrough=True,
        activation=RELU,
    )
    clean = project_feasible(dirty)
    assert np.array_equal(clean.layers[1].w_z, [[0.0, 2.0], [0.5, 0.0]])
    assert np.array_equal(clean.w_out, [0.0, 1.0])
    # untouched parts survive bit for bit
    assert np.array_equal(clean.layers[1].w_x, dirty.layers[1].w_x)


def test_project_is_idempotent():
    m = random_model(2)
    once = project_feasible(m)
    twice = project_feasible(once)
    for la, lb in zip(once.layers, twice.layers):
        if la.w_z is not None:
            assert np.array_equal(la.w_z, lb.w_z)
    assert np.array_equal(once.w_out, twice.w_out)
    # feasible input comes back identical
    assert max_infeasibility(m) == 0.0
    same = project_feasible(m)
    assert np.array_equal(same.w_out, m.w_out)


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
@pytest.mark.parametrize("where", ["w_z", "w_out", "quad weight", "conic weight"])
def test_max_infeasibility_counts_a_nan_or_minus_inf_constrained_entry_as_inf(where, bad):
    base = random_model(3)
    m = unflatten_params(base, flatten_params(base))  # every entry a writable view
    entry = {
        "w_z": lambda: m.layers[1].w_z[0, 1:2],
        "w_out": lambda: m.w_out[2:3],
        "quad weight": lambda: m.quad[0].weight,
        "conic weight": lambda: m.conic[0].weight,
    }[where]()
    entry[...] = bad
    assert max_infeasibility(m) == np.inf


def test_max_infeasibility_ignores_unconstrained_entries():
    base = random_model(3)
    m = unflatten_params(base, flatten_params(base))
    m.layers[0].w_x[0, 0] = np.nan
    m.w_skip[0] = -np.inf
    m.layers[1].w_z[1, 1] = -0.25
    assert max_infeasibility(m) == 0.25


# ---------------------------------------------------------------------------
# forward pass


def test_forward_scalar_relu_unit():
    m = relu_scalar_model()
    assert forward(m, [2.0]).total == 2.0
    assert forward(m, [-3.0]).total == 0.0


def test_forward_pure_quadratic():
    m = from_structured_class(np.zeros(2), 0.0, np.eye(2), [])
    assert forward(m, [3.0, 4.0]).total == pytest.approx(12.5, abs=1e-12)


def test_forward_pure_conic():
    m = from_structured_class(np.zeros(2), 0.0, None, [(2.0, np.eye(2), np.zeros(2))])
    assert forward(m, [3.0, 4.0]).total == pytest.approx(10.0, abs=1e-12)


def test_forward_validation():
    m = relu_scalar_model()
    with pytest.raises(DimensionError):
        forward(m, [1.0, 2.0])
    with pytest.raises(ValueError):
        forward(m, [np.nan])
    for X in (np.zeros((3, 2)), np.zeros((3, 0)), np.zeros(3)):
        with pytest.raises(DimensionError, match=r"expected batch of shape \(n, 1\)"):
            batch_forward(m, X)


def test_trace_invariants_hold_exactly():
    m = random_model(3)
    x = spawn_rng(3, 1).uniform(-3, 3, m.input_dim)
    tr = forward(m, x)
    for pre, act in zip(tr.preacts, tr.acts):
        assert np.array_equal(act, np.maximum(pre, 0.0))
        assert np.min(act) >= 0.0
    for q, s in zip(tr.quad_q, tr.quad_s):
        assert s == half_sqnorm_rows(q[None])[0]
    for u, t in zip(tr.conic_u, tr.conic_t):
        assert t == norm_rows(u[None])[0]
    recomposed = tr.backbone_value
    for br, s in zip(m.quad, tr.quad_s):
        recomposed += br.weight * s
    for br, t in zip(m.conic, tr.conic_t):
        recomposed += br.weight * t
    assert tr.total == pytest.approx(recomposed, abs=1e-12)


def test_degenerate_reduction_matches_plain_icnn_recursion():
    # independent oracle: hand-rolled layer recursion for a branch-free model
    m = random_model(4, d0=5, widths=(6, 7, 5), num_quad=0, num_conic=0)
    rng = spawn_rng(4, 9)
    for _ in range(25):
        x = rng.uniform(-3, 3, 5)
        z = np.zeros(0)
        for idx, layer in enumerate(m.layers):
            pre = layer.b.copy()
            if layer.w_x is not None:
                pre = pre + layer.w_x @ x
            if idx > 0:
                pre = pre + layer.w_z @ z
            z = np.maximum(pre, 0.0)
        expected = float(m.w_out @ z + m.w_skip @ x) + m.b_out
        assert forward(m, x).total == pytest.approx(expected, rel=1e-14, abs=1e-14)


def test_forward_is_row_zero_of_the_batch():
    # byte for byte in every field: the scalars as float64, the vectors as row 0
    for activation, passthrough, num_quad, num_conic in itertools.product(
            (RELU, SOFTPLUS), (True, False), range(3), range(3)):
        m = random_model(12, num_quad=num_quad, num_conic=num_conic,
                         passthrough=passthrough, activation=activation)
        x = spawn_rng(12, num_quad, num_conic, int(passthrough)).uniform(-2, 2, m.input_dim)
        tr = forward(m, x)
        rows = batch_forward(m, x[None])
        assert tr.model is rows.model is m
        for name in TRACE_ARRAY_FIELDS:
            point, batch = getattr(tr, name), getattr(rows, name)
            if not isinstance(batch, tuple):
                point, batch = [point], [batch]
            assert len(point) == len(batch), name
            for value, full in zip(point, batch):
                assert np.asarray(value).tobytes() == full[0].tobytes(), name


def test_batch_forward_rejects_non_finite_rows():
    m = random_model(13)
    X = spawn_rng(13, 1).uniform(-2, 2, (4, m.input_dim))
    for bad in (np.nan, np.inf):
        X[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            batch_forward(m, X)
        with pytest.raises(ValueError, match="non-finite"):
            forward(m, X[2])


def test_batch_forward_matches_pointwise():
    m = random_model(5)
    X = spawn_rng(5, 1).uniform(-2, 2, (40, m.input_dim))
    totals = batch_forward(m, X).total
    for row, total in zip(X, totals):
        assert forward(m, row).total == pytest.approx(total, rel=1e-13, abs=1e-13)


# every field of a trace but ``model``, the params object it was built for
TRACE_ARRAY_FIELDS = [name for name in ForwardTrace.__slots__ if name != "model"]


def trace_arrays(trace):
    """Every array of a batch trace, field by field."""
    return [[*value] if isinstance(value, tuple) else [value]
            for value in (getattr(trace, name) for name in TRACE_ARRAY_FIELDS)]


@pytest.mark.parametrize("activation", [RELU, SOFTPLUS])
@pytest.mark.parametrize("passthrough", [True, False])
def test_batch_forward_into_buffers_is_bitwise_a_fresh_pass(activation, passthrough):
    # the buffers start as NaN, and a second batch reuses them: a value the
    # pass did not overwrite, or one left from the first batch, would show
    for num_quad in range(3):
        for num_conic in range(3):
            m = random_model(31, widths=(8, 8, 5), num_quad=num_quad, num_conic=num_conic,
                             passthrough=passthrough, activation=activation)
            rng = spawn_rng(31, num_quad, num_conic, int(passthrough))
            for n in (1, 37, 128, 1000):
                buf = empty_trace(m, n)
                for field in trace_arrays(buf):
                    for a in field:
                        a.fill(np.nan)
                for _ in range(2):
                    X = rng.uniform(-3, 3, (n, m.input_dim))
                    got = batch_forward(m, X, buf)
                    want = batch_forward(m, X)
                    for got_field, buf_field, want_field in zip(
                            trace_arrays(got), trace_arrays(buf), trace_arrays(want), strict=True):
                        assert len(got_field) == len(want_field)
                        for a, b, c in zip(got_field, buf_field, want_field):
                            assert a is b
                            assert a.shape == c.shape and a.tobytes() == c.tobytes()


def test_batch_forward_rejects_a_mismatched_buffer():
    # a trace answers only to the params object it was built for, so a twin
    # of the same layout is refused too; nothing is written before the refusal
    m = random_model(32, num_quad=1, num_conic=1)
    X = spawn_rng(32).uniform(-2, 2, (37, m.input_dim))
    for buf in (
        empty_trace(m, 36),
        empty_trace(m, 38),
        empty_trace(unflatten_params(m, flatten_params(m)), 37),
        empty_trace(random_model(32, num_quad=1, num_conic=1), 37),
        empty_trace(random_model(32, widths=(8, 7), num_quad=1, num_conic=1), 37),
        empty_trace(random_model(32, num_quad=1, num_conic=2), 37),
        empty_trace(random_model(32, d0=8, num_quad=1, num_conic=1), 37),
    ):
        for field in trace_arrays(buf):
            for a in field:
                a.fill(np.nan)
        with pytest.raises(DimensionError, match="37 rows"):
            batch_forward(m, X, buf)
        assert all(np.isnan(a).all() for field in trace_arrays(buf) for a in field)
    # a single point's trace has no row axis and scalar norms
    with pytest.raises(DimensionError, match="1 rows"):
        batch_forward(m, X[:1], forward(m, X[0]))
    # the arrays of a trace cannot be dropped or swapped for others
    buf = empty_trace(m, 37)
    with pytest.raises(AttributeError):
        buf.quad_s.pop()
    with pytest.raises(TypeError):
        buf.acts[1] = np.empty((2, 37, 8))
    assert batch_forward(m, X, buf) is buf


@pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "Softplus"])
def test_a_forward_into_buffers_allocates_under_a_quarter_of_them(variant):
    # at fit's validation shape the fresh pass allocates its whole trace; into
    # reused buffers only temporaries remain, the largest one hidden layer
    m = build_variant_model(variant, 10, 20, variant_depth(variant, 10, 20), seed=0)
    X = spawn_rng(33).uniform(-3, 3, (1000, 10))
    buf = empty_trace(m, 1000)
    buffer_bytes = sum(a.nbytes for field in trace_arrays(buf) for a in field)
    peaks = []
    for out in (buf, None):
        batch_forward(m, X, out)  # numpy's first-call set-up is not the pass's
        tracemalloc.start()
        try:
            batch_forward(m, X, out)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < buffer_bytes / 4
    assert peaks[1] > buffer_bytes


def test_softplus_activation_forward():
    m = random_model(6, activation=SOFTPLUS, num_quad=0, num_conic=0)
    x = np.full(m.input_dim, 100.0)
    tr = forward(m, x)
    assert np.isfinite(tr.total)
    for pre, act in zip(tr.preacts, tr.acts):
        assert np.all(act > 0.0)
        assert np.allclose(act, np.logaddexp(0.0, pre))


def _masked_sigmoid(t):
    """Reference sigmoid: one exponential per sign, through boolean masks."""
    t = np.asarray(t, dtype=np.float64)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


_ACTIVATION_EDGES = np.array([
    0.0, -0.0, 5e-324, -5e-324, 36.0, -36.0, 710.0, -710.0,
    745.0, -745.0, 1e308, -1e308, np.inf, -np.inf,
])


def _activation_inputs():
    rng = spawn_rng(2024)
    signs = rng.choice([-1.0, 1.0], 50_000)
    spread = signs * 10.0 ** rng.uniform(-8.0, 308.0, 50_000)
    return np.concatenate([_ACTIVATION_EDGES, rng.normal(0.0, 5.0, 50_000), spread])


def test_sigmoid_is_bitwise_the_masked_sigmoid():
    t = _activation_inputs()
    assert np.array_equal(sigmoid(t), _masked_sigmoid(t))
    block = t[:1200].reshape(60, 20)
    assert np.array_equal(sigmoid(block), _masked_sigmoid(block))


def test_softplus_is_within_four_ulps_of_logaddexp():
    t = _activation_inputs()
    ref = np.logaddexp(0.0, t)
    got = softplus(t)
    finite = np.isfinite(ref)
    assert np.array_equal(got[~finite], ref[~finite])
    err = np.abs(got[finite] - ref[finite])
    assert np.all(err <= 4.0 * np.spacing(np.abs(ref[finite])))
    assert np.all(got[ref == 0.0] == 0.0)
    assert np.all(got >= 0.0)
    edge = softplus(_ACTIVATION_EDGES)
    assert edge[-1] == 0.0 and edge[-2] == np.inf and edge[-3] == 0.0


def test_midpoint_convexity_sampled():
    rng = spawn_rng(77)
    worst = -np.inf
    for trial in range(20):
        m = random_model(100 + trial, d0=4, widths=(6, 5),
                         passthrough=bool(trial % 2))
        X = rng.uniform(-4, 4, (500, 4))
        Y = rng.uniform(-4, 4, (500, 4))
        fx = batch_forward(m, X).total
        fy = batch_forward(m, Y).total
        fmid = batch_forward(m, (X + Y) / 2.0).total
        worst = max(worst, float(np.max(fmid - 0.5 * (fx + fy))))
    assert worst <= 1e-9


# ---------------------------------------------------------------------------
# exact structured representation


def test_structured_class_examples():
    assert forward(from_structured_class(np.zeros(2), 0.0, np.eye(2), []), [1.0, 1.0]).total == pytest.approx(1.0, abs=1e-15)
    m = from_structured_class(np.array([1.0, 0.0]), 3.0, None, [(1.0, np.eye(2), np.zeros(2))])
    assert forward(m, [0.0, -4.0]).total == pytest.approx(7.0, abs=1e-14)


def test_structured_class_rejects_negative_weight():
    with pytest.raises(ConstraintError):
        from_structured_class(np.zeros(2), 0.0, None, [(-1.0, np.eye(2), np.zeros(2))])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("slot", ["linear", "constant", "quad_matrix", "weight", "offset"])
def test_structured_class_rejects_non_finite_entries(slot, bad):
    parts = {"linear": np.zeros(2), "constant": 0.0, "quad_matrix": np.eye(2),
             "weight": 1.0, "offset": np.zeros(2)}
    value = np.array(parts[slot], dtype=np.float64)
    value.flat[-1] = bad
    parts[slot] = value
    with pytest.raises(ValueError, match="non-finite"):
        from_structured_class(parts["linear"], parts["constant"], parts["quad_matrix"],
                              [(parts["weight"], np.eye(2), parts["offset"])])


def test_structured_class_rejects_shapes_that_do_not_fit_the_linear_term():
    for quad_matrix, terms in [
        (np.ones((2, 3)), []),
        (np.ones(2), []),
        (None, [(1.0, np.eye(3), np.zeros(3))]),
        (None, [(1.0, np.eye(2), np.zeros(3))]),
        (None, [(1.0, np.eye(2), np.zeros((2, 1)))]),
        (None, [(1.0, np.zeros((0, 2)), np.zeros(0))]),
    ]:
        with pytest.raises(DimensionError):
            from_structured_class(np.zeros(2), 0.0, quad_matrix, terms)
    for linear in (np.zeros((2, 1)), np.zeros(0), 0.0):
        with pytest.raises(DimensionError, match="linear term must be a 1-d vector"):
            from_structured_class(linear, 0.0, None, [])


def test_structured_class_empty_quadratic_block():
    # a zero-row curvature matrix degenerates to the affine-plus-norm form
    m = from_structured_class(np.array([2.0, -1.0]), 0.5, np.zeros((0, 2)), [])
    assert len(m.quad) == 0
    assert forward(m, [1.0, 1.0]).total == pytest.approx(1.5, abs=1e-15)


def test_structured_class_matches_closed_form_seed11():
    rng = spawn_rng(11)
    a = rng.standard_normal(4)
    b = float(rng.standard_normal())
    B = rng.standard_normal((3, 4))
    m = from_structured_class(a, b, B, [])
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-3, 3, 4)
        closed = float(a @ x) + b + 0.5 * float(np.dot(B @ x, B @ x))
        worst = max(worst, abs(forward(m, x).total - closed))
    assert worst <= 1e-12


def test_icnn_subset_is_reproduced_exactly():
    # any branch-free feasible model *is* a plain ReLU-ICNN; adding empty
    # branch tuples changes nothing
    base = random_model(8, num_quad=0, num_conic=0)
    again = SocIcnnParams(
        input_dim=base.input_dim,
        layers=base.layers,
        w_out=base.w_out,
        w_skip=base.w_skip,
        b_out=base.b_out,
        quad=(),
        conic=(),
        passthrough=base.passthrough,
        activation=base.activation,
    )
    x = spawn_rng(8, 3).uniform(-1, 1, base.input_dim)
    assert forward(base, x).total == forward(again, x).total


# ---------------------------------------------------------------------------
# accounting and serialization


def test_layout_round_trip_is_exact():
    for passthrough in (True, False):
        m = random_model(14, num_quad=2, num_conic=1, passthrough=passthrough)
        flat = flatten_params(m)
        assert flat.dtype == np.float64 and flat.size == count_parameters(m)
        back = unflatten_params(m, flat)
        assert np.array_equal(flatten_params(back), flat)
        assert to_json_dict(back) == to_json_dict(m)
        # every entry is a view: a write to flat moves the model, scalars included
        flat[:] = np.arange(flat.size) + 1.0
        assert np.array_equal(flatten_params(back), flat)
        for scalar in [back.b_out] + [br.weight for br in back.quad + back.conic]:
            assert np.shares_memory(scalar, flat)
    with pytest.raises(DimensionError):
        unflatten_params(m, np.append(flat, 0.0))
    with pytest.raises(DimensionError):
        unflatten_params(m, flat[:-1])
    with pytest.raises(DimensionError):
        unflatten_params(m, flat[:, None])
    # the model's entries are views that training writes through: float64 arrays only
    for wrong in (list(flat), flat.astype(np.float32), flat.astype(np.int64)):
        with pytest.raises(TypeError):
            unflatten_params(m, wrong)


def test_layout_mask_marks_exactly_the_sign_constrained_entries():
    m = random_model(15, widths=(3, 4, 2), num_quad=1, num_conic=2)
    # 1 on w_z, w_out and the branch weights, 0 everywhere else
    marked = SocIcnnParams(
        input_dim=m.input_dim,
        layers=tuple(
            LayerParams(None if layer.w_z is None else np.ones_like(layer.w_z),
                        np.zeros_like(layer.affine))
            for layer in m.layers
        ),
        w_out=np.ones_like(m.w_out),
        w_skip=np.zeros_like(m.w_skip),
        b_out=0.0,
        quad=tuple(BranchParams(1.0, np.zeros_like(br.affine)) for br in m.quad),
        conic=tuple(BranchParams(1.0, np.zeros_like(br.affine)) for br in m.conic),
        passthrough=m.passthrough,
        activation=m.activation,
    )
    mask = nonneg_mask(m)
    assert mask.dtype == bool
    assert np.array_equal(mask, flatten_params(marked) == 1.0)
    assert int(mask.sum()) == 4 * 3 + 2 * 4 + 2 + 3


def _blocks(m):
    """(weights, bias, block) of every map of m that reads x."""
    return ([(layer.w_x, layer.b, layer.affine) for layer in m.layers if layer.w_x is not None]
            + [(br.proj, br.offset, br.affine) for br in m.quad + m.conic])


def _address(a):
    return a.__array_interface__["data"][0]


def assert_one_block_per_map(m):
    # every layer and branch stores one C-contiguous block: w_x and b (proj
    # and offset) are its columns, and a layer that does not read x stores
    # b alone as a (width, 1) block
    for layer in m.layers:
        block = layer.affine
        assert block.ndim == 2 and block.flags.c_contiguous
        assert (block.shape == (layer.width, 1)) == (layer.w_x is None)
        assert layer.b.strides == block.strides[:1]
        assert _address(layer.b) == _address(block) + (block.shape[1] - 1) * block.itemsize
    for weights, bias, block in _blocks(m):
        rows, cols = weights.shape
        assert block.shape == (rows, cols + 1) and block.flags.c_contiguous
        assert weights.strides == block.strides and bias.strides == block.strides[:1]
        assert _address(weights) == _address(block)
        assert _address(bias) == _address(block) + cols * block.itemsize


def test_every_map_that_reads_x_is_one_block_from_every_constructor():
    for passthrough in (True, False):
        m = random_model(41, widths=(5, 4, 3), num_quad=2, num_conic=2, passthrough=passthrough)
        assert len(_blocks(m)) == (3 if passthrough else 1) + 4
        flat = flatten_params(m)
        viewed = unflatten_params(m, flat)
        built = (m, from_json_dict(json.loads(json.dumps(to_json_dict(m)))), viewed,
                 project_feasible(m))
        for model in built:
            assert_one_block_per_map(model)
            assert to_json_dict(model) == to_json_dict(m)
        # the blocks of a model from unflatten_params are views of its flat
        # vector: a write into a bias's entry of flat moves the forward pass
        x = spawn_rng(41, 1).uniform(-2, 2, m.input_dim)

        def rows():
            tr = forward(viewed, x)
            return np.concatenate([*tr.preacts, *tr.quad_q, *tr.conic_u, [tr.total]])

        for _, _, block in _blocks(viewed):
            assert np.shares_memory(block, flat)
            before = rows()
            flat[(_address(block) - _address(flat)) // flat.itemsize + block.shape[1] - 1] += 0.5
            assert np.sum(rows() != before) >= 1
    structured = from_structured_class(np.ones(3), 0.5, np.eye(3)[:2],
                                       [(1.0, np.eye(3), np.zeros(3)), (2.0, np.ones((1, 3)), [1.0])])
    assert_one_block_per_map(structured)
    assert len(_blocks(structured)) == 4


def test_layout_of_the_five_variants_is_the_parameter_count_and_json_of_before():
    # the SOC anchor's 1,093 is the budget the fit comparisons match
    counts = {v: count_parameters(build_variant_model(v, 10, 20, variant_depth(v, 10, 20), seed=0))
              for v in VARIANTS}
    assert counts == {"ReLU": 1491, "Softplus": 1491, "QuadOnly": 1602, "NormOnly": 1602,
                      "SOC": 1093}
    # init_model draws the same numbers in the same order, and the document
    # holds them as before the blocks: the digest was taken with w_x, b, proj
    # and offset stored as separate arrays
    digest = hashlib.sha256()
    for args in ((10, [20, 20], [10], [10], True, RELU, 7),
                 (3, [4, 5, 2], [2, 1], [3], False, SOFTPLUS, 8),
                 (1, [2], [], [1, 1], True, RELU, 9)):
        digest.update(json.dumps(to_json_dict(init_model(*args))).encode())
    assert digest.hexdigest() == "e120ef20982526d44756780ddb9c7d3d62b5e84498cbd4d920f5bc4048ba7b93"


def test_count_parameters_formula():
    m = init_model(10, [20, 20], [10], [10], True, RELU, 0)
    expected = (20 * 10 + 20) + (20 * 20 + 20 + 20 * 10) + (20 + 10 + 1) + 2 * (10 * 10 + 10 + 1)
    assert count_parameters(m) == expected


def test_flop_count_grows_with_width():
    flops = [
        count_forward_flops(init_model(20, [w, w, w], [w], [w], True, RELU, 0))
        for w in (16, 32, 64)
    ]
    assert flops[0] < flops[1] < flops[2]


def test_flop_count_hand_values():
    # width-3 layer on 2 inputs: matvec 3*(2*2-1)=9, bias 3, activation 3;
    # readout: (2*3-1) + (2*2-1) + 2 = 10
    plain = init_model(2, [3], [], [], True, RELU, 0)
    assert count_forward_flops(plain) == 25
    # rank-2 quadratic branch adds matvec 2*3=6, offset 2, dot 3, halving 1,
    # weight and accumulation 2
    quad = init_model(2, [3], [2], [], True, RELU, 0)
    assert count_forward_flops(quad) == 25 + 14


def test_json_round_trip_is_value_exact():
    for passthrough in (True, False):
        m = random_model(9, passthrough=passthrough)
        doc = json.loads(json.dumps(to_json_dict(m)))
        back = from_json_dict(doc)
        x = spawn_rng(9, 1).uniform(-2, 2, m.input_dim)
        assert forward(back, x).total == forward(m, x).total
        for la, lb in zip(m.layers, back.layers):
            if la.w_x is None:
                assert lb.w_x is None
            else:
                assert np.array_equal(la.w_x, lb.w_x)
            assert np.array_equal(la.b, lb.b)
        for ba, bb in zip(m.quad + m.conic, back.quad + back.conic):
            assert ba.weight == bb.weight
            assert np.array_equal(ba.proj, bb.proj)


def test_model_file_round_trip(tmp_path):
    m = random_model(10)
    path = tmp_path / "model.json"
    save_model(m, path)
    back = load_model(path)
    x = spawn_rng(10, 1).uniform(-2, 2, m.input_dim)
    assert forward(back, x).total == forward(m, x).total


def test_json_schema_keys():
    doc = to_json_dict(random_model(11))
    assert doc["version"] == 1
    assert set(doc) == {"version", "d0", "passthrough", "activation", "layers", "c", "v",
                        "b0", "quad", "conic"}
    assert set(doc["quad"][0]) == {"alpha", "B", "e"}
    assert set(doc["conic"][0]) == {"lambda", "A", "d"}


def _doc(seed=16):
    return json.loads(json.dumps(to_json_dict(random_model(seed))))


def test_load_rejects_a_negative_sign_constrained_entry():
    doc = _doc()
    doc["layers"][1]["U"][0][0] = -5.0
    with pytest.raises(ConstraintError):
        from_json_dict(doc)
    doc = _doc()
    doc["conic"][0]["lambda"] = -0.5
    with pytest.raises(ConstraintError):
        from_json_dict(doc)


def test_load_rejects_an_unknown_activation():
    doc = _doc()
    doc["activation"] = "tanh"
    with pytest.raises(ValueError, match="activation"):
        from_json_dict(doc)


def test_load_rejects_shape_mismatches():
    doc = _doc()
    doc["layers"][1]["U"] = doc["layers"][1]["U"][:-1]
    with pytest.raises(DimensionError):
        from_json_dict(doc)
    doc = _doc()
    doc["quad"][0]["B"] = [row[:-1] for row in doc["quad"][0]["B"]]
    with pytest.raises(DimensionError):
        from_json_dict(doc)
    doc = _doc()
    doc["c"].append(1.0)
    with pytest.raises(DimensionError):
        from_json_dict(doc)
    # a W of other than d0 columns, even of none on a layer that does not
    # read x, and a first layer without W
    doc = json.loads(json.dumps(to_json_dict(random_model(16, passthrough=False))))
    doc["layers"][1]["W"] = [[] for _ in doc["layers"][1]["b"]]
    with pytest.raises(DimensionError, match=r"column count of layers\[1\]\.W"):
        from_json_dict(doc)
    del doc["layers"][1]["W"]
    del doc["layers"][0]["W"]
    with pytest.raises(DimensionError):
        from_json_dict(doc)


@pytest.mark.parametrize("where, weights, bias", [
    ("layers", "W", "b"), ("quad", "B", "e"), ("conic", "A", "d")])
def test_load_names_a_map_whose_weights_and_bias_disagree_in_rows(where, weights, bias):
    # the shapes are checked before a block is packed, so no numpy error escapes
    doc = _doc()
    entry = doc[where][0]
    entry[bias] = entry[bias] + [0.0]
    rows, cols = len(entry[weights]), len(entry[weights][0])
    named = rf"weights of shape \({rows}, {cols}\) and bias of shape \({rows + 1},\)"
    with pytest.raises(DimensionError, match=named):
        from_json_dict(doc)
    entry[bias] = 1.0
    with pytest.raises(DimensionError, match=r"bias of shape \(\)"):
        from_json_dict(doc)


def test_load_rejects_non_finite_entries():
    for bad in (float("nan"), float("inf")):
        doc = _doc()
        doc["layers"][0]["W"][0][0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            from_json_dict(doc)


def _set(path, value):
    """Writes value at path in a fresh document; value None deletes the key."""

    def mutate(doc):
        *head, last = path
        parent = doc
        for key in head:
            parent = parent[key]
        if value is None:
            del parent[last]
        else:
            parent[last] = value
        return doc

    return mutate


def _short(value):
    big = isinstance(value, int) and abs(value) >= 10**6
    return f"1e{len(str(abs(value))) - 1}" if big else repr(value)


_MALFORMED = [
    (("version",), True, "version"),
    (("b0",), True, "b0"),
    (("quad", 0, "alpha"), True, r"quad\[0\]\.alpha"),
    (("passthrough",), "x", "passthrough"),
    (("passthrough",), 2, "passthrough"),
    (("passthrough",), 1.5, "passthrough"),
    (("d0",), 3.7, "d0"),
    (("d0",), float("inf"), "d0"),  # how json reads 1e400
    (("d0",), 10**9, "d0"),
    (("extra",), 1, "extra"),
    (("b0",), [], "b0"),
    (("quad", 0, "alpha"), None, "alpha"),
    (("layers",), None, "layers"),
    (("layers", 0, "b", 0), True, r"layers\[0\]\.b"),
    (("layers", 0, "W", 0), [1.0], r"layers\[0\]\.W"),
    (("layers", 1, "U", 0, 0), 10**400, r"layers\[1\]\.U"),
    (("layers", 1, "U", 0, 0), "1", r"layers\[1\]\.U"),
    (("layers", 0, "Z"), [1.0], "Z"),
    (("conic", 0), [], r"conic\[0\]"),
    (("quad",), {}, "quad"),
    (("activation",), 1, "activation"),
]


@pytest.mark.parametrize(
    "path, value, named",
    _MALFORMED,
    ids=[".".join(map(str, p)) + ("-deleted" if v is None else "=" + _short(v))
         for p, v, _ in _MALFORMED],
)
def test_load_rejects_a_malformed_document_by_name(path, value, named):
    doc = _set(path, value)(_doc())
    with pytest.raises((ValueError, DimensionError, ConstraintError), match=named):
        from_json_dict(doc)
