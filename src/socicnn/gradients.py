"""Exact reverse-mode derivatives of the forward pass.

Input gradients drive projected descent and the convexity diagnostics;
parameter gradients drive training under mean-squared-error loss.  At the
ReLU kink the derivative is taken as 0 and at a vanishing norm the gradient
contribution is the zero vector; both are valid subgradient choices and keep
the backward pass deterministic.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from .model import (
    RELU,
    DimensionError,
    ForwardTrace,
    SocIcnnParams,
    batch_forward,
    forward,
    over_norm,
    sigmoid,
)


def _act_derivative(activation: str, pre: np.ndarray) -> np.ndarray:
    """The activation's derivative at pre; under ReLU the boolean mask
    pre > 0, which multiplies as 1.0 and 0.0."""
    if activation == RELU:
        return pre > 0.0
    return sigmoid(pre)


def _backbone_deltas(params: SocIcnnParams, preacts, seed: np.ndarray) -> List[np.ndarray]:
    """The backward recursion through the backbone, over a batch trace.

    ``seed[i]`` is the derivative of the output with respect to row i's
    total; the result holds, per layer, the derivative with respect to that
    layer's preactivations, row by row.  Seeded with ones under ReLU these are
    exactly the active-set multipliers nu_L = w_out * 1[pre_L > 0],
    nu_l = (w_z_{l+1}^T nu_{l+1}) * 1[pre_l > 0]; for the smooth activation
    the indicator is replaced by the derivative.
    """
    deltas: List[np.ndarray] = [None] * params.depth  # type: ignore[list-item]
    delta = (seed[:, None] * params.w_out) * _act_derivative(params.activation, preacts[-1])
    for idx in range(params.depth - 1, -1, -1):
        deltas[idx] = delta
        if idx > 0:
            delta = (delta @ params.layers[idx].w_z) * _act_derivative(
                params.activation, preacts[idx - 1]
            )
    return deltas


def chain_multipliers(params: SocIcnnParams, preacts) -> List[np.ndarray]:
    """Backward factors through the backbone at one point (see _backbone_deltas)."""
    deltas = _backbone_deltas(params, [pre[None] for pre in preacts], np.ones(1))
    return [delta[0] for delta in deltas]


def input_subgradient(params: SocIcnnParams, x, trace: Optional[ForwardTrace] = None) -> np.ndarray:
    """An element of the subdifferential of the forward value at x.

    Summed layer by layer from the chain multipliers of one point, this is
    the pointwise reference for ``value_and_input_gradient_batch``.
    """
    if trace is None:
        trace = forward(params, x)
    g = params.w_skip.copy()
    for layer, nu in zip(params.layers, chain_multipliers(params, trace.preacts)):
        if layer.w_x is not None:
            g += layer.w_x.T @ nu
    for br, q in zip(params.quad, trace.quad_q):
        g += br.weight * (br.proj.T @ q)
    for br, u, t in zip(params.conic, trace.conic_u, trace.conic_t):
        g += over_norm(br.weight, t) * (br.proj.T @ u)
    return g


def value_and_input_gradient_batch(params: SocIcnnParams, X: np.ndarray):
    """Forward values and input subgradients for every row of X at once."""
    trace = batch_forward(params, X)
    n = trace.total.shape[0]
    seed = np.ones(n)
    G = np.empty((n, params.input_dim))
    G[...] = params.w_skip
    deltas = _backbone_deltas(params, trace.preacts, seed)
    # Top layer first: the summation order fixes the last bits of G, and with
    # them the decisions that projected descent reaches.
    for layer, delta in zip(params.layers[::-1], deltas[::-1]):
        if layer.w_x is not None:
            G += delta @ layer.w_x
    for br, Q in zip(params.quad, trace.quad_q):
        G += br.weight * (Q @ br.proj)
    for br, U, t in zip(params.conic, trace.conic_u, trace.conic_t):
        G += (over_norm(br.weight, t)[:, None] * U) @ br.proj
    return trace.total, G


def parameter_gradients(
    params: SocIcnnParams, batch_x, batch_y, out: SocIcnnParams,
    trace: Optional[ForwardTrace] = None,
) -> float:
    """Mean-squared-error loss over a batch; its exact parameter gradients,
    d loss / d entry, overwrite every entry of ``out``, a model made by
    ``unflatten_params`` over a gradient vector.  The forward pass writes
    into ``trace``, from ``empty_trace`` over the batch's rows, when given.
    An ``out`` of another depth, branch count or passthrough raises
    ``DimensionError``.  A non-finite entry of ``batch_y`` raises
    ``ValueError``; one of ``batch_x`` does in the forward."""
    X = np.asarray(batch_x, dtype=np.float64)
    y = np.asarray(batch_y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DimensionError("batch_x must be a non-empty (n, d0) matrix")
    if y.shape != (X.shape[0],):
        raise DimensionError("batch_y must match the number of batch rows")
    if ((out.depth, len(out.quad), len(out.conic), out.passthrough)
            != (params.depth, len(params.quad), len(params.conic), params.passthrough)):
        raise DimensionError("out is not a gradient of this model's layout")
    n = X.shape[0]

    trace = batch_forward(params, X, trace)
    residual = trace.total - y
    loss = float(np.add.reduce(residual * residual)) / n
    # a non-finite y always makes the loss non-finite, so y is read only then
    if not math.isfinite(loss) and not np.all(np.isfinite(y)):
        raise ValueError("batch_y contains non-finite values")
    dtotal = (2.0 / n) * residual  # dL/d f(x_i)

    acts = trace.acts
    deltas = _backbone_deltas(params, trace.preacts, dtotal)
    for idx, (grad, delta) in enumerate(zip(out.layers, deltas)):
        if grad.w_x is not None:
            np.matmul(delta.T, X, out=grad.w_x)
        if grad.w_z is not None:
            np.matmul(delta.T, acts[idx - 1], out=grad.w_z)
        np.add.reduce(delta, axis=0, out=grad.b)
    np.matmul(acts[-1].T, dtotal, out=out.w_out)
    np.matmul(X.T, dtotal, out=out.w_skip)
    np.add.reduce(dtotal, out=out.b_out)

    # per branch: d loss / d residual rows, and the norm values the weight scales
    quad = [((dtotal * br.weight)[:, None] * Q, s)
            for br, Q, s in zip(params.quad, trace.quad_q, trace.quad_s)]
    conic = [(over_norm(dtotal * br.weight, t)[:, None] * U, t)
             for br, U, t in zip(params.conic, trace.conic_u, trace.conic_t)]
    for grad, (dR, norms) in zip(out.quad + out.conic, quad + conic):
        np.matmul(dtotal, norms, out=grad.weight)
        np.matmul(dR.T, X, out=grad.proj)
        np.add.reduce(dR, axis=0, out=grad.offset)
    return loss


def _near_kink(params: SocIcnnParams, trace: ForwardTrace, threshold: float) -> np.ndarray:
    """Row mask of a batch trace: True where a ReLU preactivation or a norm
    lies within ``threshold`` of its kink."""
    near = np.zeros(trace.total.shape[0], dtype=bool)
    if params.activation == RELU:
        for pre in trace.preacts:
            near |= np.any(np.abs(pre) < threshold, axis=1)
    for t in trace.conic_t:
        near |= t < threshold
    return near


def finite_difference_check(params: SocIcnnParams, x, step: float) -> float:
    """Max relative gap between the input subgradient and central differences.

    x and its 2d steps x +/- step * e_i are one batch of 2d + 1 rows.
    Coordinates whose +/-step evaluations pass within 10*step of an
    activation or norm kink are skipped: central differences are invalid
    across kinks, and a kink hit must not raise a false alarm.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[0]
    g = input_subgradient(params, x)
    shifts = step * np.eye(d)
    trace = batch_forward(params, np.vstack([x, x + shifts, x - shifts]))
    near = _near_kink(params, trace, 10.0 * step)
    fd = (trace.total[1 : d + 1] - trace.total[d + 1 :]) / (2.0 * step)
    keep = ~(near[0] | near[1 : d + 1] | near[d + 1 :])
    denom = np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-3)
    return float(np.max(np.abs(g - fd) / denom, where=keep, initial=0.0))
