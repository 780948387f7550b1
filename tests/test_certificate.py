import math
import re
from dataclasses import asdict

import numpy as np
import pytest

from socicnn import (
    RELU,
    SOFTPLUS,
    DimensionError,
    UnsupportedActivationError,
    build_lp_lift,
    diagnostics_report,
    extract_dual_certificate,
    forward,
    from_structured_class,
    init_model,
    input_subgradient,
    run_verification_trials,
    simplex_lp_solve,
    socp_oracle_value,
    spawn_rng,
    summarize_reports,
)
from socicnn.certificate import _METRIC_FIELDS, _max_over, lift_rows
from socicnn.cli import _VERIFY_LIMITS, FEASIBILITY_THRESHOLD, GAP_THRESHOLD, ORACLE_THRESHOLD
from socicnn.decisions import FeasibleSet, solve_surrogate
from socicnn.gradients import chain_multipliers
from socicnn.model import (LayerParams, SocIcnnParams, affine_block, batch_forward, flatten_params,
                           half_sqnorm_rows, norm_rows, unflatten_params)

from test_model import fail_wherever_called, random_model, relu_scalar_model


def test_lift_shape_for_scalar_relu():
    m = relu_scalar_model()
    lift = build_lp_lift(m, np.array([2.0]))
    assert lift.num_variables == 1
    assert lift.num_rows == 1
    assert np.array_equal(lift.objective, [1.0])
    assert lift.constant == 0.0
    assert np.array_equal(lift.row_rhs, [2.0])


def test_lift_counts_depth2_width3():
    m = random_model(31, d0=4, widths=(3, 3), num_quad=0, num_conic=0)
    lift = build_lp_lift(m, np.zeros(4))
    assert lift.num_variables == 6
    assert lift.num_rows == 6


def test_lift_rejects_softplus():
    m = random_model(32, activation=SOFTPLUS)
    # lift_rows is the one builder of the lift's rows, so the ReLU lift of a
    # smooth model is refused there and by every caller, the decision lift's
    # exact minimum included, instead of answering for another model
    with pytest.raises(UnsupportedActivationError):
        lift_rows(m)
    with pytest.raises(UnsupportedActivationError):
        solve_surrogate(m, FeasibleSet("Box", m.input_dim))
    with pytest.raises(UnsupportedActivationError):
        build_lp_lift(m, np.zeros(m.input_dim))
    with pytest.raises(UnsupportedActivationError):
        socp_oracle_value(m, np.zeros(m.input_dim))
    with pytest.raises(UnsupportedActivationError):
        diagnostics_report(m, np.zeros(m.input_dim))


@pytest.mark.parametrize("shape", [(3, 1), (4,), (1, 3), ()])
def test_lift_and_oracle_name_a_misshapen_input(shape):
    m = init_model(3, [4], [3], [3], True, RELU, seed=0)
    x = np.ones(shape)
    message = re.escape(f"expected input of shape (3,), got {shape}")
    with pytest.raises(DimensionError, match=message):
        build_lp_lift(m, x)
    with pytest.raises(DimensionError, match=message):
        socp_oracle_value(m, x)
    with pytest.raises(DimensionError, match=message):
        forward(m, x)
    with pytest.raises(DimensionError, match=message):
        extract_dual_certificate(m, x, forward(m, np.ones(3)))


def test_simplex_solve_scalar_examples():
    m = relu_scalar_model()
    value, sol = simplex_lp_solve(build_lp_lift(m, np.array([2.0])))
    assert value == pytest.approx(2.0, abs=1e-12)
    assert sol[0] == pytest.approx(2.0, abs=1e-12)
    value, sol = simplex_lp_solve(build_lp_lift(m, np.array([-3.0])))
    assert value == pytest.approx(0.0, abs=1e-12)
    assert sol[0] == pytest.approx(0.0, abs=1e-12)


def test_all_zero_model_value_is_bias():
    m = SocIcnnParams(
        input_dim=2,
        layers=(LayerParams(None, affine_block(np.zeros((2, 2)), np.zeros(2))),),
        w_out=np.zeros(2),
        w_skip=np.zeros(2),
        b_out=1.25,
        quad=(),
        conic=(),
        passthrough=True,
        activation=RELU,
    )
    value, sol = simplex_lp_solve(build_lp_lift(m, np.array([0.3, -0.7])))
    assert value == pytest.approx(1.25, abs=1e-14)
    assert np.allclose(sol, 0.0, atol=1e-12)


def test_lift_size_limit():
    m = random_model(33, d0=4, widths=(300, 300), num_quad=0, num_conic=0)
    with pytest.raises(ValueError):
        simplex_lp_solve(build_lp_lift(m, np.zeros(4)))


def test_lp_value_matches_backbone_on_random_models():
    # the simplex solve *is* the oracle: agreement on 50 depth-2 width-4
    # models is the value-function check for the backbone
    rng = spawn_rng(34)
    for trial in range(50):
        m = random_model(400 + trial, d0=int(rng.integers(2, 7)), widths=(4, 4),
                         num_quad=0, num_conic=0, passthrough=bool(trial % 2))
        x = rng.uniform(-3, 3, m.input_dim)
        value, _ = simplex_lp_solve(build_lp_lift(m, x))
        assert abs(value - forward(m, x).backbone_value) <= 1e-9


def test_socp_oracle_matches_forward_with_branches():
    rng = spawn_rng(35)
    for trial in range(20):
        m = random_model(500 + trial, d0=5, widths=(6, 5),
                         num_quad=int(rng.integers(0, 3)), num_conic=int(rng.integers(0, 3)),
                         passthrough=bool(trial % 2))
        x = rng.uniform(-3, 3, 5)
        assert abs(socp_oracle_value(m, x) - forward(m, x).total) <= 1e-9


def test_pure_quadratic_oracle():
    m = from_structured_class(np.zeros(2), 0.0, np.eye(2), [])
    assert socp_oracle_value(m, np.array([3.0, 4.0])) == pytest.approx(12.5, abs=1e-12)


def test_oracle_on_wider_lift():
    # 192 lift variables: still within the dense oracle's working range
    m = random_model(41, d0=10, widths=(64, 64, 64), num_quad=1, num_conic=1)
    x = spawn_rng(41, 1).uniform(-3, 3, 10)
    assert abs(socp_oracle_value(m, x) - forward(m, x).total) <= 1e-9


# ---------------------------------------------------------------------------
# dual certificates


def test_certificate_scalar_relu_active_and_inactive():
    m = relu_scalar_model()
    for x, nu in ((np.array([2.0]), 1.0), (np.array([-3.0]), 0.0)):
        tr = forward(m, x)
        cert = extract_dual_certificate(m, x, tr)
        assert cert.nu[0][0] == nu
        assert cert.dual_value == tr.total


def test_certificate_zero_norm_kink():
    m = from_structured_class(np.zeros(2), 0.0, None, [(2.0, np.eye(2), np.zeros(2))])
    x = np.zeros(2)
    tr = forward(m, x)
    cert = extract_dual_certificate(m, x, tr)
    assert np.array_equal(cert.mu_norm[0], np.zeros(2))
    assert cert.dual_value == tr.total == 0.0


def test_a_certificate_refuses_a_trace_that_is_not_the_forward_at_x():
    # a trace answers only to the params object it was built for, and the
    # certificate reads its preactivations and norms as those at x: any
    # other trace would certify another value, or fail in a broadcast
    m = random_model(41, num_quad=2, num_conic=2)
    x, other_x = spawn_rng(41, 1).uniform(-3, 3, (2, m.input_dim))
    refused = {
        "another model": forward(random_model(42, num_quad=2, num_conic=2), x),
        "a same-layout twin": forward(unflatten_params(m, flatten_params(m)), x),
        "another point": forward(m, other_x),
        "a one-row batch": batch_forward(m, x[None]),
        "a batch": batch_forward(m, np.stack([x, other_x])),
    }
    for name, trace in refused.items():
        with pytest.raises(DimensionError, match="not the forward of this params object at x"):
            extract_dual_certificate(m, x, trace)
    # the point may come as any sequence of its values
    trace = forward(m, x)
    for point in (x, x.copy(), x.tolist()):
        assert extract_dual_certificate(m, point, trace).dual_value == pytest.approx(
            trace.total, abs=1e-9)


def test_weak_and_strong_duality_on_random_models():
    rng = spawn_rng(36)
    for trial in range(40):
        m = random_model(600 + trial, d0=6, widths=(8, 6), num_quad=2, num_conic=2,
                         passthrough=bool(trial % 2))
        x = rng.uniform(-3, 3, 6)
        tr = forward(m, x)
        cert = extract_dual_certificate(m, x, tr)
        assert cert.dual_value <= tr.total + 1e-12  # weak duality
        assert abs(tr.total - cert.dual_value) <= 1e-9  # extracted cert is tight
        # chain feasibility holds exactly by construction
        upper = m.w_out
        for idx in range(m.depth - 1, -1, -1):
            assert np.min(cert.nu[idx]) >= 0.0
            assert np.max(cert.nu[idx] - upper) <= 0.0
            if idx > 0:
                upper = m.layers[idx].w_z.T @ cert.nu[idx]
        for br, mu in zip(m.conic, cert.mu_norm):
            assert np.sqrt(mu @ mu) <= br.weight + 1e-12


def test_certificate_gradient_constant_on_linear_region():
    m = random_model(37, d0=4, widths=(5, 5), num_quad=0, num_conic=0)
    x = spawn_rng(37, 1).uniform(-2, 2, 4)
    direction = spawn_rng(37, 2).standard_normal(4)

    def affine_slope(point):
        tr = forward(m, point)
        nus = chain_multipliers(m, tr.preacts)
        g = m.w_skip.copy()
        for layer, nu in zip(m.layers, nus):
            if layer.w_x is not None:
                g += layer.w_x.T @ nu
        return g, tuple(tuple(p > 0) for p in tr.preacts)

    g0, pattern0 = affine_slope(x)
    for eps in (1e-6, 1e-5):
        g1, pattern1 = affine_slope(x + eps * direction)
        if pattern1 == pattern0:
            assert np.array_equal(g0, g1)


# ---------------------------------------------------------------------------
# diagnostics


def test_diagnostics_trace_equalities_are_exact_zero():
    m = random_model(38, num_quad=2, num_conic=2)
    x = spawn_rng(38, 1).uniform(-3, 3, m.input_dim)
    rep = diagnostics_report(m, x)
    assert rep.relu_primal_violation == 0.0
    assert rep.relu_dual_box_violation == 0.0
    assert rep.relu_complementarity_slack == 0.0
    assert rep.quad_epigraph_violation == 0.0
    assert rep.quad_tightness_slack == 0.0
    assert rep.norm_epigraph_violation == 0.0
    assert rep.norm_tightness_slack == 0.0


def test_diagnostics_zero_model_all_zero():
    m = SocIcnnParams(
        input_dim=2,
        layers=(LayerParams(None, affine_block(np.zeros((2, 2)), np.zeros(2))),),
        w_out=np.zeros(2),
        w_skip=np.zeros(2),
        b_out=0.0,
        quad=(),
        conic=(),
        passthrough=True,
        activation=RELU,
    )
    rep = diagnostics_report(m, np.array([0.4, -1.0]))
    assert all(v == 0.0 for v in asdict(rep).values())


def test_diagnostics_mean_gap_small():
    reports = run_verification_trials(30, 8, 10, 2, 2, 2, True, seed=5)
    summary = summarize_reports(reports)
    assert summary["primal_dual_gap"]["mean"] <= 1e-10
    assert summary["forward_vs_oracle_abs_err"]["max"] <= 1e-9


def test_summary_of_no_reports_is_a_named_error():
    # zero trials is a valid sweep, and its empty list has no mean or max
    reports = run_verification_trials(0, 6, 8, 2, 1, 1, True, seed=1)
    with pytest.raises(ValueError, match="at least one report"):
        summarize_reports(reports)


@pytest.mark.parametrize("d0,width,depth,seed", [
    (10, 16, 2, 2973684427430321761),
    (20, 64, 3, 3565814781518276417),
])
def test_degenerate_passthrough_off_models_certify(d0, width, depth, seed):
    # later layers have no input term, so most lift rows have a zero
    # right-hand side
    (report,) = run_verification_trials(1, d0, width, depth, 2, 2, False, seed)
    assert report["primal_dual_gap"] <= GAP_THRESHOLD
    assert report["forward_vs_oracle_abs_err"] <= ORACLE_THRESHOLD
    for name in _METRIC_FIELDS[2:]:
        assert report[name] <= FEASIBILITY_THRESHOLD


@pytest.mark.parametrize("count", [-1, -2])
def test_a_negative_trial_count_is_a_named_error(count):
    with pytest.raises(ValueError, match=f"num_trials must be at least 0, got {count}"):
        run_verification_trials(count, 6, 8, 2, 1, 1, True, seed=1)
    assert run_verification_trials(0, 6, 8, 2, 1, 1, True, seed=1) == []


def _rows_through_the_numpy_wrappers(params, x):
    """Reference: the nine feasibility rows of ``diagnostics_report`` and
    the oracle's value, reduced through ``np.max``, ``np.sum``, ``np.sqrt``,
    ``np.dot`` and ``np.isfinite``."""
    trace = forward(params, x)
    cert = extract_dual_certificate(params, x, trace)
    rows = {name: [] for name in _METRIC_FIELDS[2:]}
    for pre, z, nu in zip(trace.preacts, trace.acts, cert.nu):
        rows["relu_primal_violation"] += [np.max(pre - z, initial=0.0), np.max(-z, initial=0.0)]
        rows["relu_complementarity_slack"].append(abs(float(nu @ (z - pre))))
    upper = params.w_out
    for idx in range(params.depth - 1, -1, -1):
        nu = cert.nu[idx]
        rows["relu_dual_box_violation"] += [np.max(-nu, initial=0.0),
                                            np.max(nu - upper, initial=0.0)]
        if idx > 0:
            upper = params.layers[idx].w_z.T @ nu
    for q, s in zip(trace.quad_q, trace.quad_s):
        recomputed = float(half_sqnorm_rows(q[None])[0])
        rows["quad_epigraph_violation"].append(max(recomputed - s, 0.0))
        rows["quad_tightness_slack"].append(abs(s - recomputed))
    for br, u, t, mu in zip(params.conic, trace.conic_u, trace.conic_t, cert.mu_norm):
        recomputed = float(norm_rows(u[None])[0])
        rows["norm_epigraph_violation"].append(max(recomputed - t, 0.0))
        rows["norm_tightness_slack"].append(abs(t - recomputed))
        ball = max(float(np.sqrt(np.dot(mu, mu))) - br.weight, 0.0)
        rows["norm_dual_ball_violation"].append(ball if np.isfinite(t) else np.nan)
        rows["norm_dual_alignment_violation"].append(abs(float(mu @ u) - br.weight * t))
    value, _ = simplex_lp_solve(build_lp_lift(params, x))
    for br in params.quad:
        resid = br.proj @ x + br.offset
        value += br.weight * 0.5 * float(np.sum(resid * resid))
    for br in params.conic:
        resid = br.proj @ x + br.offset
        value += br.weight * float(np.sqrt(np.sum(resid * resid)))
    return {name: _max_over(values) for name, values in rows.items()}, value


def test_the_ufunc_reductions_report_the_bits_of_the_numpy_wrappers():
    # np.maximum.reduce is what np.max dispatches to, np.add.reduce what
    # np.sum does, and math.sqrt rounds as np.sqrt: every row keeps its
    # bytes, the NaN rows of an overflowing model included
    cases = [(random_model(700 + k, d0=6, widths=(8, 6, 5), num_quad=2, num_conic=2,
                           passthrough=bool(k % 2)), spawn_rng(700 + k, 1).uniform(-3, 3, 6))
             for k in range(30)]
    m = init_model(3, [4, 4], [3], [3], True, RELU, seed=1)
    cases.append((unflatten_params(m, flatten_params(m) * 1e160), np.array([1.0, -2.0, 0.5])))
    nan_rows = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for params, x in cases:
            report = asdict(diagnostics_report(params, x))
            rows, oracle = _rows_through_the_numpy_wrappers(params, x)
            for name, value in rows.items():
                assert np.float64(report[name]).tobytes() == np.float64(value).tobytes(), name
                nan_rows += math.isnan(value)
            assert (np.float64(socp_oracle_value(params, x)).tobytes()
                    == np.float64(oracle).tobytes())
    assert nan_rows == 8


def test_report_serialization_keys():
    (doc,) = run_verification_trials(1, 6, 8, 2, 1, 1, True, seed=1)
    for name in _METRIC_FIELDS:
        assert name in doc
    assert doc["seed"] == 1 and doc["passthrough"] is True
    assert len(_METRIC_FIELDS) == 11


def test_verification_trials_are_deterministic():
    a = run_verification_trials(4, 6, 8, 2, 1, 1, False, seed=9)
    b = run_verification_trials(4, 6, 8, 2, 1, 1, False, seed=9)
    assert a == b


def test_verification_trials_run_no_batch_forward(monkeypatch):
    # a certify item is single-point work, and the benchmark counts it so
    fail_wherever_called(monkeypatch, batch_forward)
    (report,) = run_verification_trials(1, 4, 6, 2, 1, 1, True, seed=3)
    assert report["primal_dual_gap"] <= GAP_THRESHOLD


def test_a_nan_row_fails_every_threshold():
    # weights of 1e160 overflow the second layer, so pre - z is inf - inf
    m = init_model(3, [4, 4], [3], [3], True, RELU, seed=1)
    huge = unflatten_params(m, flatten_params(m) * 1e160)
    with np.errstate(over="ignore", invalid="ignore"):
        report = diagnostics_report(huge, np.array([1.0, -2.0, 0.5]))
    for name in (
        "relu_primal_violation",
        "relu_dual_box_violation",
        "relu_complementarity_slack",
        "quad_epigraph_violation",
        "quad_tightness_slack",
        "norm_epigraph_violation",
        "norm_tightness_slack",
        "norm_dual_ball_violation",
    ):
        assert math.isnan(getattr(report, name)), name
    # the norm t overflows to inf, which zeroes mu; no row may certify that
    for name in _METRIC_FIELDS:
        assert not getattr(report, name) <= _VERIFY_LIMITS.get(name, FEASIBILITY_THRESHOLD), name


def test_certificate_subgradient_consistency():
    # the certificate's affine slope is the backbone part of the subgradient
    m = random_model(40, num_quad=0, num_conic=0)
    x = spawn_rng(40, 1).uniform(-2, 2, m.input_dim)
    tr = forward(m, x)
    nus = chain_multipliers(m, tr.preacts)
    g = m.w_skip.copy()
    for layer, nu in zip(m.layers, nus):
        if layer.w_x is not None:
            g += layer.w_x.T @ nu
    assert np.array_equal(g, input_subgradient(m, x, trace=tr))
