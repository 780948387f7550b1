"""Exact reverse-mode derivatives of the forward pass.

Input gradients drive projected descent and the convexity diagnostics;
parameter gradients drive training under mean-squared-error loss.  At the
ReLU kink the derivative is taken as 0 and at a vanishing norm the gradient
contribution is the zero vector; both are valid subgradient choices and keep
the backward pass deterministic.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .model import (
    RELU,
    DimensionError,
    ForwardTrace,
    SocIcnnParams,
    batch_forward,
    forward,
    sigmoid,
)


def _act_derivative(activation: str, pre: np.ndarray) -> np.ndarray:
    if activation == RELU:
        return (pre > 0.0).astype(np.float64)
    return sigmoid(pre)


def _backbone_deltas(params: SocIcnnParams, preacts, seed: np.ndarray) -> List[np.ndarray]:
    """The backward recursion through the backbone, over a batch cache.

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


def _norm_scales(params: SocIcnnParams, conic_t, seed: np.ndarray) -> List[np.ndarray]:
    """seed * weight / ||u|| per conic branch and row; 0 where the norm vanishes."""
    return [
        np.where(t > 0.0, (seed * br.weight) / np.where(t > 0.0, t, 1.0), 0.0)
        for br, t in zip(params.conic, conic_t)
    ]


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
        if t > 0.0:
            g += (br.weight / t) * (br.proj.T @ u)
    return g


def value_and_input_gradient_batch(params: SocIcnnParams, X: np.ndarray):
    """Forward values and input subgradients for every row of X at once."""
    totals, cache = batch_forward(params, X)
    n = totals.shape[0]
    seed = np.ones(n)
    G = np.broadcast_to(params.w_skip, (n, params.input_dim)).copy()
    deltas = _backbone_deltas(params, cache["preacts"], seed)
    # Top layer first: the summation order fixes the last bits of G, and with
    # them the decisions that projected descent reaches.
    for layer, delta in zip(params.layers[::-1], deltas[::-1]):
        if layer.w_x is not None:
            G += delta @ layer.w_x
    for br, Q in zip(params.quad, cache["quad_q"]):
        G += br.weight * (Q @ br.proj)
    scales = _norm_scales(params, cache["conic_t"], seed)
    for br, U, scale in zip(params.conic, cache["conic_u"], scales):
        G += (scale[:, None] * U) @ br.proj
    return totals, G


def parameter_gradients(params: SocIcnnParams, batch_x, batch_y, out: SocIcnnParams) -> float:
    """Mean-squared-error loss over a batch; its exact parameter gradients,
    d loss / d entry, overwrite every entry of ``out``, a model made by
    ``unflatten_params`` over a gradient vector."""
    X = np.asarray(batch_x, dtype=np.float64)
    y = np.asarray(batch_y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DimensionError("batch_x must be a non-empty (n, d0) matrix")
    if y.shape != (X.shape[0],):
        raise DimensionError("batch_y must match the number of batch rows")
    n = X.shape[0]

    totals, cache = batch_forward(params, X)
    residual = totals - y
    loss = float(np.mean(residual**2))
    dtotal = (2.0 / n) * residual  # dL/d f(x_i)

    acts = cache["acts"]
    deltas = _backbone_deltas(params, cache["preacts"], dtotal)
    for idx, (grad, delta) in enumerate(zip(out.layers, deltas)):
        if grad.w_x is not None:
            grad.w_x[...] = delta.T @ X
        if grad.w_z is not None:
            grad.w_z[...] = delta.T @ acts[idx - 1]
        grad.b[...] = delta.sum(axis=0)
    out.w_out[...] = acts[-1].T @ dtotal
    out.w_skip[...] = X.T @ dtotal
    out.b_out[...] = np.sum(dtotal)

    # per branch: d loss / d residual rows, and the norm values the weight scales
    quad = [((dtotal * br.weight)[:, None] * Q, s)
            for br, Q, s in zip(params.quad, cache["quad_q"], cache["quad_s"])]
    scales = _norm_scales(params, cache["conic_t"], dtotal)
    conic = [(scale[:, None] * U, t)
             for U, t, scale in zip(cache["conic_u"], cache["conic_t"], scales)]
    for grad, (dR, norms) in zip(out.quad + out.conic, quad + conic):
        grad.weight[...] = np.dot(dtotal, norms)
        grad.proj[...] = dR.T @ X
        grad.offset[...] = dR.sum(axis=0)
    return loss


def _near_kink(params: SocIcnnParams, trace: ForwardTrace, threshold: float) -> bool:
    if params.activation == RELU:
        for pre in trace.preacts:
            if pre.size and float(np.min(np.abs(pre))) < threshold:
                return True
    for t in trace.conic_t:
        if t < threshold:
            return True
    return False


def finite_difference_check(params: SocIcnnParams, x, step: float) -> float:
    """Max relative gap between the input subgradient and central differences.

    Coordinates whose +/-step evaluations pass within 10*step of an
    activation or norm kink are skipped: central differences are invalid
    across kinks, and a kink hit must not raise a false alarm.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=np.float64)
    base = forward(params, x)
    g = input_subgradient(params, x, trace=base)
    threshold = 10.0 * step

    worst = 0.0
    for i in range(x.shape[0]):
        xp = x.copy()
        xp[i] += step
        xm = x.copy()
        xm[i] -= step
        tp = forward(params, xp)
        tm = forward(params, xm)
        if any(_near_kink(params, tr, threshold) for tr in (base, tp, tm)):
            continue
        fd = (tp.total - tm.total) / (2.0 * step)
        denom = max(abs(g[i]), abs(fd), 1e-3)
        worst = max(worst, abs(g[i] - fd) / denom)
    return worst
