"""Exact reverse-mode derivatives of the forward pass.

Input gradients drive projected descent and the convexity diagnostics;
parameter gradients drive training under mean-squared-error loss.  At the
ReLU kink the derivative is taken as 0 and at a vanishing norm the gradient
contribution is the zero vector; both are valid subgradient choices and keep
the backward pass deterministic.

A ``parameter_gradients`` call runs its forward and its backward in one
``Workspace``, from ``empty_workspace``, the only code that builds one: the
call builds a fresh workspace unless its caller passes one, so training,
which steps many times over the same row counts, builds its buffers once per
row count.  A workspace records the params object it was built for, so a
call re-checks its buffers with one identity test; its arguments are checked
in full on every call.

The forward's trace holds the batch with a ones column appended, [X | 1].
The gradient of each block [w_x | b] or [proj | offset] (see ``model``) is
then one product, delta^T [X | 1], whose last column is the bias's gradient;
only a layer that does not read x sums its delta's columns for its b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .model import (
    RELU,
    DimensionError,
    ForwardTrace,
    SocIcnnParams,
    _forward_rows,
    batch_forward,
    empty_trace,
    forward,
    over_norm,
    sigmoid,
)


def _act_derivative(activation: str, pre: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The activation's derivative at pre, written into ``out``: under ReLU
    the boolean mask pre > 0, which multiplies as 1.0 and 0.0."""
    if activation == RELU:
        return np.greater(pre, 0.0, out=out)
    return sigmoid(pre, out=out)


def _layer_buffers(params: SocIcnnParams, n: int):
    """The ``deltas`` and ``derivs`` of ``_backbone_deltas`` over n rows: per
    layer an (n, width) float buffer, and one of the derivative's dtype."""
    kind = bool if params.activation == RELU else np.float64
    return ([np.empty((n, w)) for w in params.widths],
            [np.empty((n, w), dtype=kind) for w in params.widths])


def _backbone_deltas(params: SocIcnnParams, preacts, seed: np.ndarray,
                     deltas: List[np.ndarray], derivs: List[np.ndarray]) -> List[np.ndarray]:
    """The backward recursion through the backbone, over a batch trace.

    ``seed[i]`` is the derivative of the output with respect to row i's
    total; ``deltas`` receives, per layer, the derivative with respect to
    that layer's preactivations, row by row, and ``derivs`` the activation's
    derivative, both from ``_layer_buffers``.  Seeded with ones under ReLU
    these are exactly the active-set multipliers
    nu_L = w_out * 1[pre_L > 0], nu_l = (w_z_{l+1}^T nu_{l+1}) * 1[pre_l > 0];
    for the smooth activation the indicator is replaced by the derivative.
    """
    delta = np.multiply(seed[:, None], params.w_out, out=deltas[-1])
    delta *= _act_derivative(params.activation, preacts[-1], derivs[-1])
    for idx in range(params.depth - 1, 0, -1):
        delta = np.dot(delta, params.layers[idx].w_z, out=deltas[idx - 1])
        delta *= _act_derivative(params.activation, preacts[idx - 1], derivs[idx - 1])
    return deltas


def chain_multipliers(params: SocIcnnParams, preacts) -> List[np.ndarray]:
    """Backward factors through the backbone at one point (see _backbone_deltas)."""
    deltas = _backbone_deltas(params, [pre[None] for pre in preacts], np.ones(1),
                              *_layer_buffers(params, 1))
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
    G = np.empty((n, params.input_dim))
    G[...] = params.w_skip
    deltas = _backbone_deltas(params, trace.preacts, np.ones(n), *_layer_buffers(params, n))
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


@dataclass(eq=False, slots=True)
class Workspace:
    """Every buffer of ``parameter_gradients`` over n rows of one model.

    ``model`` is the params object the buffers were built for; a call with
    any other object, even one of the same layout, is refused, so one
    identity test stands for a walk over every shape.  The forward writes
    into ``trace``.  The backward writes the residual, its square and
    ``dtotal`` (d loss / d total) of every row; per layer a delta and the
    activation's derivative (``_layer_buffers``); per branch, quadratic
    first, ``dR``, d loss / d the branch's rows; and ``scaled``, ``dtotal``
    times the branch weight.
    """

    model: SocIcnnParams
    trace: ForwardTrace
    residual: np.ndarray
    square: np.ndarray
    dtotal: np.ndarray
    deltas: List[np.ndarray]
    derivs: List[np.ndarray]
    dR: List[np.ndarray]
    scaled: np.ndarray


def empty_workspace(params: SocIcnnParams, n: int) -> Workspace:
    """Uninitialised buffers for ``parameter_gradients`` over n rows of
    ``params``, which overwrites every entry on each call."""
    deltas, derivs = _layer_buffers(params, n)
    return Workspace(
        model=params,
        trace=empty_trace(params, n),
        residual=np.empty(n),
        square=np.empty(n),
        dtotal=np.empty(n),
        deltas=deltas,
        derivs=derivs,
        dR=[np.empty((n, br.affine.shape[0])) for br in params.quad + params.conic],
        scaled=np.empty(n),
    )


def parameter_gradients(
    params: SocIcnnParams, batch_x, batch_y, out: SocIcnnParams,
    work: Optional[Workspace] = None,
) -> float:
    """Mean-squared-error loss over a batch; its exact parameter gradients,
    d loss / d entry, overwrite every entry of ``out``, a model made by
    ``unflatten_params`` over a gradient vector.

    The forward and the backward write into ``work``, from
    ``empty_workspace(params, n)`` over the batch's n rows, and into a fresh
    workspace without it.  Every call checks its arguments before it writes:
    a batch that is not (n, d0) with n >= 1, targets that are not (n,), an
    ``out`` of another depth, branch count or passthrough, or a ``work``
    built for another params object or row count raises ``DimensionError``,
    and a non-finite entry of ``batch_x`` ``ValueError``.  A non-finite
    entry of ``batch_y`` raises ``ValueError`` after the forward."""
    X = np.asarray(batch_x, dtype=np.float64)
    y = np.asarray(batch_y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DimensionError("batch_x must be a non-empty (n, d0) matrix")
    n = X.shape[0]
    if y.shape != (n,):
        raise DimensionError("batch_y must match the number of batch rows")
    if X.shape[1] != params.input_dim:
        raise DimensionError(f"expected batch of shape (n, {params.input_dim}), got {X.shape}")
    if ((out.depth, len(out.quad), len(out.conic), out.passthrough)
            != (params.depth, len(params.quad), len(params.conic), params.passthrough)):
        raise DimensionError("out is not a gradient of this model's layout")
    if work is None:
        work = empty_workspace(params, n)
    elif work.model is not params or work.dtotal.shape != (n,):
        raise DimensionError(f"work is not a workspace of this params object over {n} rows")

    trace = _forward_rows(params, X, work.trace)
    residual = np.subtract(trace.total, y, out=work.residual)
    loss = float(np.add.reduce(np.multiply(residual, residual, out=work.square))) / n
    # a non-finite y always makes the loss non-finite, so y is read only then
    if not math.isfinite(loss) and not np.all(np.isfinite(y)):
        raise ValueError("batch_y contains non-finite values")
    dtotal = np.multiply(residual, 2.0 / n, out=work.dtotal)  # dL/d f(x_i)

    acts, inputs = trace.acts, trace.inputs
    deltas = _backbone_deltas(params, trace.preacts, dtotal, work.deltas, work.derivs)
    for idx, (grad, delta) in enumerate(zip(out.layers, deltas)):
        # a block's gradient is delta^T [X | 1]: its last column, the bias's
        # gradient, is the column sum of delta
        if grad.affine.shape[1] > 1:  # the block [w_x | b], not b alone
            np.dot(delta.T, inputs, out=grad.affine)
        else:
            np.add.reduce(delta, axis=0, out=grad.b)
        if grad.w_z is not None:
            np.dot(delta.T, acts[idx - 1], out=grad.w_z)
    np.dot(acts[-1].T, dtotal, out=out.w_out)
    np.dot(X.T, dtotal, out=out.w_skip)
    np.add.reduce(dtotal, out=out.b_out)

    # per branch, dR = scaled[:, None] * rows, with scaled = dtotal * weight
    # for a quadratic branch and over_norm(dtotal * weight, norms) for a conic one
    num_quad = len(params.quad)
    for k, (br, grad, dR, rows, norms) in enumerate(zip(
            params.quad + params.conic, out.quad + out.conic, work.dR,
            trace.quad_q + trace.conic_u, trace.quad_s + trace.conic_t)):
        scaled = np.multiply(dtotal, br.weight, out=work.scaled)
        if k >= num_quad:
            live = norms > 0.0
            np.divide(scaled, norms, out=scaled, where=live)
            np.copyto(scaled, 0.0, where=~live)
        np.multiply(scaled[:, None], rows, out=dR)
        np.dot(dtotal, norms, out=grad.weight)
        np.dot(dR.T, inputs, out=grad.affine)
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
