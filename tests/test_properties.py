"""Property-based checks over randomly drawn models, feasible-set
projections and dataset files.

Every example is derived from a fixed seed (``derandomize``) and nothing is
stored between runs, so the suite is deterministic.
"""

import copy
import json
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from socicnn import (
    ACTIVATIONS,
    RELU,
    ConstraintError,
    DimensionError,
    diagnostics_report,
    forward,
    forward_total_batch,
    from_json_dict,
    init_model,
    socp_oracle_value,
    spawn_rng,
    to_json_dict,
)
from socicnn.decisions import FeasibleSet, fw_gap, project_onto_batch
from socicnn.model import flatten_params, nonneg_mask, unflatten_params
from socicnn.training import Dataset, load_dataset_csv, save_dataset_csv

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=50)


@st.composite
def models(draw, activations=ACTIVATIONS, min_conic=0):
    """A feasible model with 0-2 quadratic branches, ``min_conic`` to
    ``min_conic`` + 2 conic branches and every learnable entry drawn at
    random (sign-constrained entries nonnegative)."""
    d0 = draw(st.integers(1, 4))
    widths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    quad_ranks = draw(st.lists(st.integers(1, 3), max_size=2))
    conic_dims = draw(st.lists(st.integers(1, 3), min_size=min_conic, max_size=min_conic + 2))
    passthrough = draw(st.booleans())
    activation = draw(st.sampled_from(activations))
    seed = draw(st.integers(0, 2**32 - 1))
    template = init_model(d0, widths, quad_ranks, conic_dims, passthrough, activation, seed)
    flat = spawn_rng(seed, 1).standard_normal(flatten_params(template).size)
    return unflatten_params(template, np.where(nonneg_mask(template), np.abs(flat), flat))


def points(d0, count):
    return st.lists(
        st.lists(st.floats(-5.0, 5.0), min_size=d0, max_size=d0),
        min_size=count,
        max_size=count,
    ).map(lambda rows: np.array(rows, dtype=np.float64))


@PROPERTY
@given(models())
def test_json_round_trip_is_value_exact(m):
    doc = to_json_dict(m)
    back = from_json_dict(json.loads(json.dumps(doc)))
    assert np.array_equal(flatten_params(back), flatten_params(m))
    assert to_json_dict(back) == doc


# what a mutation writes in place of one key's or list entry's value
MUTATIONS = ("x", None, [], {}, 1e400, -1, True, [[1]], "nan")


@PROPERTY
@given(st.data())
def test_loader_names_a_single_mutation_or_loads_it_exactly(data):
    doc = to_json_dict(data.draw(models()))
    # walk down from the root, stopping at each level with probability 1/2,
    # so that top-level keys are hit as often as array entries
    parent, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node and (parent is None or data.draw(st.booleans())):
        parent = node
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        node = parent[key]
    mutation = data.draw(st.sampled_from(("delete",) + MUTATIONS))
    if mutation == "delete":
        del parent[key]
    else:
        parent[key] = copy.deepcopy(mutation)
    try:
        loaded = from_json_dict(doc)
    except (ValueError, DimensionError, ConstraintError):
        return
    assert to_json_dict(loaded) == doc


@PROPERTY
@given(st.data())
def test_forward_is_convex_along_segments(data):
    m = data.draw(models())
    x, y = data.draw(points(m.input_dim, 2))
    t = np.linspace(0.0, 1.0, 11)[:, None]
    values = forward_total_batch(m, (1.0 - t) * x + t * y)
    chord = (1.0 - t[:, 0]) * values[0] + t[:, 0] * values[-1]
    tol = 1e-9 * (1.0 + np.max(np.abs(values)))
    assert np.all(values <= chord + tol)


@PROPERTY
@given(st.data())
def test_certificate_is_exact_at_constructed_kinks(data):
    m = data.draw(models(activations=(RELU,)))
    (x,) = data.draw(points(m.input_dim, 1))
    X = x[None]
    # the same products the forward pass forms, negated: every first-layer
    # preactivation and every conic residual are exactly 0.  (Away from a
    # norm kink the two norm-dual rows carry the rounding of weight/t * u.)
    first = replace(m.layers[0], b=-(X @ m.layers[0].w_x.T)[0])
    conic = tuple(replace(br, offset=-(X @ br.proj.T)[0]) for br in m.conic)
    kinked = replace(m, layers=(first,) + m.layers[1:], conic=conic)
    trace = forward(kinked, x)
    assert np.all(trace.preacts[0] == 0.0)
    assert all(t == 0.0 for t in trace.conic_t)
    rep = asdict(diagnostics_report(kinked, x))
    assert rep.pop("primal_dual_gap") <= 1e-9
    rep.pop("forward_vs_oracle_abs_err")
    assert rep == dict.fromkeys(rep, 0.0)


@PROPERTY
@given(st.data())
def test_norm_dual_rows_are_ulp_bounded_away_from_kinks(data):
    # the first-order bounds of diagnostics_report's docstring, (k + 4)/2 and
    # k + 5/2, each with eps/2 of slack for the second-order terms
    m = data.draw(models(activations=(RELU,), min_conic=2))
    (x,) = data.draw(points(m.input_dim, 1))
    trace = forward(m, x)
    assume(all(t > 0.0 for t in trace.conic_t))
    eps = np.finfo(np.float64).eps
    ball = max((br.offset.size + 5) / 2 * eps * br.weight for br in m.conic)
    align = max(
        (br.offset.size + 3) * eps * br.weight * t for br, t in zip(m.conic, trace.conic_t)
    )
    rep = diagnostics_report(m, x)
    assert rep.norm_dual_ball_violation <= ball
    assert rep.norm_dual_alignment_violation <= align


@PROPERTY
@given(st.data())
def test_oracle_matches_forward_at_every_weight_scale(data):
    # hidden states grow like the scale to the power of the depth, so one lift
    # row spans many orders of magnitude at the ends of the range
    m = data.draw(models(activations=(RELU,)))
    (x,) = data.draw(points(m.input_dim, 1))
    scale = 10.0 ** data.draw(st.integers(-6, 8))
    scaled = unflatten_params(m, scale * flatten_params(m))
    value = forward(scaled, x).total
    eps = np.finfo(np.float64).eps
    assert abs(socp_oracle_value(scaled, x) - value) <= 16 * eps * max(1.0, abs(value))


@st.composite
def feasible_sets(draw):
    dim = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(("Box", "Simplex", "CappedSimplex")))
    if kind != "CappedSimplex":
        return FeasibleSet(kind, dim)
    budget = draw(st.one_of(st.integers(1, dim - 1).map(float), st.floats(0.01, dim - 0.01)))
    return FeasibleSet(kind, dim, budget)


@PROPERTY
@given(st.data())
def test_projection_is_feasible_idempotent_and_variational(data):
    feasible = data.draw(feasible_sets())
    Y = data.draw(points(feasible.dim, 4))
    P = project_onto_batch(feasible, Y)
    assert np.all((P >= 0.0) & (P <= 1.0))
    if feasible.kind != "Box":
        budget = 1.0 if feasible.kind == "Simplex" else feasible.budget
        assert np.max(np.abs(P.sum(axis=1) - budget)) <= 1e-12 * feasible.dim
    assert np.max(np.abs(project_onto_batch(feasible, P) - P)) <= 1e-12
    # (y - p) . (x - p) <= 0 for every feasible x: the largest value over the
    # set is the Frank-Wolfe gap of p with gradient p - y
    assert np.max(fw_gap(feasible, P, P - Y)) <= 1e-9


@PROPERTY
@given(st.data())
def test_dataset_csv_round_trip_is_value_exact(data):
    n = data.draw(st.integers(1, 5))
    dim = data.draw(st.integers(1, 4))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = data.draw(st.lists(finite, min_size=n * (dim + 1), max_size=n * (dim + 1)))
    table = np.array(values, dtype=np.float64).reshape(n, dim + 1)
    ds = Dataset(xs=table[:, :dim], ys=table[:, dim])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        save_dataset_csv(ds, path)
        back = load_dataset_csv(path)
    assert np.array_equal(back.xs, ds.xs) and np.array_equal(back.ys, ds.ys)
