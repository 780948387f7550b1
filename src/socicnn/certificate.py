"""Epigraph lift, dual certificates, and the optimality diagnostics.

For a ReLU backbone the forward value equals the optimum of a linear program
over the stacked hidden states; with the quadratic and norm branches added,
the whole forward value is the optimum of a cone program whose cone blocks
are closed-form tight at the optimum.  This module builds that lift, solves
its LP part with the independent simplex oracle, extracts the chain dual
multipliers from a forward trace, and reports the full set of feasibility,
complementarity, and gap metrics.

All operations here require the ReLU activation: a smooth-activation model
has no exact lift and is rejected rather than silently approximated.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Tuple

import numpy as np

from . import simplex
from .gradients import chain_multipliers
from .model import (
    RELU,
    ForwardTrace,
    LayerParams,
    SocIcnnParams,
    as_input,
    forward,
    half_sqnorm_rows,
    init_model,
    norm_rows,
    over_norm,
    spawn_rng,
)


class UnsupportedActivationError(ValueError):
    """Certificate operations are defined for ReLU models only."""


MAX_LIFT_VARIABLES = 500


def _require_relu(params: SocIcnnParams) -> None:
    if params.activation != RELU:
        raise UnsupportedActivationError(
            "certificate operations require the ReLU activation"
        )


@dataclass(frozen=True, eq=False)
class LpLift:
    """min objective @ y + constant  s.t.  row_coeffs @ y >= row_rhs, y >= 0.

    The variable vector stacks the hidden states layer by layer, with one
    affine row per hidden unit.  The ReLU's z >= 0 is the solver's own
    y >= 0, so it has no rows.
    """

    objective: np.ndarray
    row_coeffs: np.ndarray
    row_rhs: np.ndarray
    constant: float

    @property
    def num_variables(self) -> int:
        return self.objective.shape[0]

    @property
    def num_rows(self) -> int:
        return self.row_rhs.shape[0]


def _affine(layer: LayerParams, x: np.ndarray) -> np.ndarray:
    """The part of a layer's preactivation that does not read z: b + w_x @ x."""
    return layer.b if layer.w_x is None else layer.b + layer.w_x @ x


def lift_rows(params: SocIcnnParams) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lift's rows over (x, z), one per hidden unit:

        z_block @ z >= x_block @ x + b,

    that is z_l - W_z z_{l-1} >= W_x x + b for every layer l, with z the
    hidden states stacked layer by layer.  The z-block is I - W_z, and the
    x-block holds each layer's W_x (zero on a layer that does not read x).
    This is the only code that writes these rows: ``build_lp_lift`` moves
    the x-block to the right-hand side, and the decision pipeline keeps x as
    variables."""
    n = sum(params.widths)
    z_block = np.eye(n)
    x_block = np.zeros((n, params.input_dim))
    prev = lo = 0
    for layer in params.layers:
        hi = lo + layer.width
        if layer.w_z is not None:
            np.negative(layer.w_z, out=z_block[lo:hi, prev:lo])
        if layer.w_x is not None:
            x_block[lo:hi] = layer.w_x
        prev, lo = lo, hi
    return z_block, x_block, np.concatenate([layer.b for layer in params.layers])


def build_lp_lift(params: SocIcnnParams, x) -> LpLift:
    """Lift whose optimal value is the backbone value at x (plus branches,
    handled separately by the cone blocks): the rows of ``lift_rows`` with
    the x-block moved to the right-hand side.  An x of any shape but (d0,)
    raises ``DimensionError``."""
    _require_relu(params)
    x = as_input(params, x)
    rows, x_block, rhs = lift_rows(params)
    lo = 0
    for layer in params.layers:
        hi = lo + layer.width
        if layer.w_x is not None:
            rhs[lo:hi] += x_block[lo:hi] @ x  # b + w_x @ x, in that order
        lo = hi

    objective = np.zeros(rhs.shape[0])
    objective[-params.w_out.size :] = params.w_out
    constant = float(params.w_skip @ x) + params.b_out
    return LpLift(
        objective=objective,
        row_coeffs=rows,
        row_rhs=rhs,
        constant=constant,
    )


def simplex_lp_solve(lift: LpLift) -> Tuple[float, np.ndarray]:
    """Optimal value (including the constant term) and solution of the lift."""
    if lift.num_variables > MAX_LIFT_VARIABLES:
        raise ValueError(
            f"lift has {lift.num_variables} variables; the dense oracle is "
            f"limited to {MAX_LIFT_VARIABLES}"
        )
    value, y = simplex.solve_min_geq(lift.objective, lift.row_coeffs, lift.row_rhs)
    return value + lift.constant, y


def socp_oracle_value(params: SocIcnnParams, x) -> float:
    """Forward value recomputed through the lift.

    The LP block is solved by the simplex oracle; the cone blocks separate
    once x is fixed and their optima are the closed-form tight values, so
    they are added analytically.
    """
    _require_relu(params)
    x = np.asarray(x, dtype=np.float64)
    value, _ = simplex_lp_solve(build_lp_lift(params, x))
    for br in params.quad:
        resid = br.proj @ x + br.offset
        value += br.weight * 0.5 * float(np.sum(resid * resid))
    for br in params.conic:
        resid = br.proj @ x + br.offset
        value += br.weight * float(np.sqrt(np.sum(resid * resid)))
    return value


@dataclass(frozen=True, eq=False)
class DualCertificate:
    """Chain multipliers, norm-branch duals, and the dual objective value.

    Feasibility means 0 <= nu_L <= w_out, 0 <= nu_l <= w_z_{l+1}^T nu_{l+1},
    and ||mu_g|| <= weight_g; by weak duality dual_value never exceeds the
    forward value, and the extracted certificate closes the gap.
    """

    nu: Tuple[np.ndarray, ...]
    mu_norm: Tuple[np.ndarray, ...]
    dual_value: float


def extract_dual_certificate(
    params: SocIcnnParams, x, trace: ForwardTrace
) -> DualCertificate:
    """Read the optimal dual multipliers off a forward trace.

    At an exactly-zero preactivation the multiplier is set to 0 (any value in
    the box certifies; 0 is the deterministic choice), and a vanishing norm
    gets the zero dual, which is exact because its primal term vanishes too.
    """
    _require_relu(params)
    x = np.asarray(x, dtype=np.float64)
    nus = chain_multipliers(params, trace.preacts)

    dual = float(params.w_skip @ x) + params.b_out
    for layer, nu in zip(params.layers, nus):
        dual += float(nu @ _affine(layer, x))

    mus = []
    for br, u, t in zip(params.conic, trace.conic_u, trace.conic_t):
        mu = over_norm(br.weight, t) * u
        mus.append(mu)
        dual += float(mu @ u)
    for br, s in zip(params.quad, trace.quad_s):
        dual += br.weight * s

    return DualCertificate(nu=tuple(nus), mu_norm=tuple(mus), dual_value=dual)


@dataclass(frozen=True)
class DiagnosticsReport:
    """The eleven optimality metrics, each a max over components, all >= 0."""

    primal_dual_gap: float
    forward_vs_oracle_abs_err: float
    relu_primal_violation: float
    relu_dual_box_violation: float
    relu_complementarity_slack: float
    quad_epigraph_violation: float
    quad_tightness_slack: float
    norm_epigraph_violation: float
    norm_tightness_slack: float
    norm_dual_ball_violation: float
    norm_dual_alignment_violation: float


_METRIC_FIELDS = tuple(f.name for f in fields(DiagnosticsReport))


def _max_over(values) -> float:
    """The largest value, at least 0.0; a NaN value makes it NaN, so that it
    fails every threshold."""
    worst = 0.0
    for v in values:
        v = float(v)
        if v > worst or v != v:
            worst = v
    return worst


def diagnostics_report(params: SocIcnnParams, x) -> DiagnosticsReport:
    """Evaluate all eleven metrics at one input.

    All primal quantities are read from the forward trace itself, and dual
    bounds are recomputed through the identical expressions used during
    extraction, so the three ReLU rows and the epigraph and tightness rows of
    both branch kinds are exact zeros by construction whenever the model is
    feasible.  The gap and the oracle error absorb floating-point error.

    The two norm-dual rows are exact zeros at a norm kink (t = 0 gives mu = 0)
    and rounding elsewhere, bounded per branch of dimension k.  With unit
    roundoff r = eps/2, a length-k dot product of one-signed terms (u.u,
    mu.mu, mu.u) errs by a factor 1 + theta, |theta| <= k r + O(r^2) in any
    summation order, and each other operation by 1 + d, |d| <= r.  As
    t = ||u|| sqrt(1+theta) (1+d3) and mu_i = (weight/t) (1+d1) u_i (1+d2_i),

        fl(||mu||) = weight (1+d1)(1+e)(1+d4) sqrt(1+theta') / ((1+d3) sqrt(1+theta))
        fl(mu.u) = weight t (1+d1)(1+e')(1+theta'') / ((1+d3)^2 (1+theta))

    with |e|, |e'| <= r, against weight and fl(weight t) = weight t (1+d5).
    To first order in r, norm_dual_ball_violation <= (k+4)/2 eps weight and
    norm_dual_alignment_violation <= (k+5/2) eps weight t, assuming u.u does
    not underflow nor weight/t overflow.  A non-finite t makes the ball row
    NaN: its mu = (weight/t) u is then 0 or NaN and certifies nothing.
    """
    _require_relu(params)
    x = np.asarray(x, dtype=np.float64)
    trace = forward(params, x)
    cert = extract_dual_certificate(params, x, trace)

    gap = abs(trace.total - cert.dual_value)
    oracle_err = abs(socp_oracle_value(params, x) - trace.total)

    primal_viol = []
    comp_slack = []
    for pre, z in zip(trace.preacts, trace.acts):
        primal_viol.append(np.max(pre - z, initial=0.0))
        primal_viol.append(np.max(-z, initial=0.0))
        comp_slack.append(abs(float(cert.nu[len(comp_slack)] @ (z - pre))))

    dual_box = []
    upper = params.w_out
    for idx in range(params.depth - 1, -1, -1):
        nu = cert.nu[idx]
        dual_box.append(np.max(-nu, initial=0.0))
        dual_box.append(np.max(nu - upper, initial=0.0))
        if idx > 0:
            upper = params.layers[idx].w_z.T @ nu

    quad_epi = []
    quad_tight = []
    for q, s in zip(trace.quad_q, trace.quad_s):
        recomputed = float(half_sqnorm_rows(q[None])[0])
        quad_epi.append(max(recomputed - s, 0.0))
        quad_tight.append(abs(s - recomputed))
    norm_epi = []
    norm_tight = []
    norm_ball = []
    norm_align = []
    for br, u, t, mu in zip(params.conic, trace.conic_u, trace.conic_t, cert.mu_norm):
        recomputed = float(norm_rows(u[None])[0])
        norm_epi.append(max(recomputed - t, 0.0))
        norm_tight.append(abs(t - recomputed))
        ball = max(float(np.sqrt(np.dot(mu, mu))) - br.weight, 0.0)
        norm_ball.append(ball if np.isfinite(t) else np.nan)
        norm_align.append(abs(float(mu @ u) - br.weight * t))

    return DiagnosticsReport(
        primal_dual_gap=gap,
        forward_vs_oracle_abs_err=oracle_err,
        relu_primal_violation=_max_over(primal_viol),
        relu_dual_box_violation=_max_over(dual_box),
        relu_complementarity_slack=_max_over(comp_slack),
        quad_epigraph_violation=_max_over(quad_epi),
        quad_tightness_slack=_max_over(quad_tight),
        norm_epigraph_violation=_max_over(norm_epi),
        norm_tightness_slack=_max_over(norm_tight),
        norm_dual_ball_violation=_max_over(norm_ball),
        norm_dual_alignment_violation=_max_over(norm_align),
    )


def run_verification_trials(
    num_trials: int,
    input_dim: int,
    width: int,
    depth: int,
    num_quad: int,
    num_conic: int,
    passthrough: bool,
    seed: int,
) -> List[dict]:
    """Random-model diagnostic sweep for one passthrough setting.

    Each trial draws its own model and input from seeds derived from the root
    seed and the trial index alone, so a trial's report does not depend on
    the other trials.  Each report holds the eleven metrics of
    ``DiagnosticsReport`` plus the trial's seed, index and model settings.
    Every branch has size ``input_dim``, and inputs are uniform on
    [-3, 3]^input_dim.
    """
    reports = []
    for index in range(num_trials):
        model = init_model(
            input_dim,
            [width] * depth,
            [input_dim] * num_quad,
            [input_dim] * num_conic,
            passthrough,
            RELU,
            spawn_rng(seed, index, int(passthrough)).integers(0, 2**63 - 1),
        )
        x = spawn_rng(seed, index, int(passthrough), 1).uniform(-3.0, 3.0, input_dim)
        reports.append(dict(
            vars(diagnostics_report(model, x)),
            seed=seed,
            trial=index,
            d0=input_dim,
            width=width,
            depth=depth,
            passthrough=passthrough,
        ))
    return reports


def summarize_reports(reports: List[dict]) -> dict:
    """Order-independent mean/max aggregation of the eleven metrics; an empty
    list is a ``ValueError``."""
    if not reports:
        raise ValueError("summarize_reports needs at least one report")
    summary = {}
    for name in _METRIC_FIELDS:
        values = np.array([rep[name] for rep in reports], dtype=np.float64)
        summary[name] = {"mean": float(values.mean()), "max": float(values.max())}
    return summary
