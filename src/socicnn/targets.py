"""Convex benchmark targets with exact value and subgradient oracles.

Each target is frozen by (name, dim, seed): coefficient draws happen once at
construction and evaluation is pure.  Subgradients use the sign(0) = 0
convention at absolute-value kinks. All targets are registered by name for
the command line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .model import half_sqnorm_rows, norm_rows, over_norm, sigmoid, softplus, spawn_rng

TARGET_NAMES = (
    "QuadraticIso",
    "QuadraticAniso",
    "NormEuclid",
    "NormAniso",
    "Mixed",
    "SoftplusSum",
    "LogSumExpQuad",
    "Huber",
    "L1Norm",
    "ICKANPaperTarget",
)

_MIXED_PIECES = 5


@dataclass(frozen=True, eq=False)
class TargetFunction:
    name: str
    dim: int
    weights: Optional[np.ndarray] = None  # per-coordinate weights
    weights2: Optional[np.ndarray] = None  # second weight vector (Mixed)
    piece_slopes: Optional[np.ndarray] = None  # max-affine block (Mixed)
    piece_intercepts: Optional[np.ndarray] = None


def make_target(name: str, dim: int, seed: int) -> TargetFunction:
    if name not in TARGET_NAMES:
        raise ValueError(f"unknown target {name!r}; valid names: {', '.join(TARGET_NAMES)}")
    if dim < 2:
        raise ValueError("target dimension must be >= 2")

    idx = np.arange(dim, dtype=np.float64)
    rng = spawn_rng(seed, TARGET_NAMES.index(name), dim)
    weights = weights2 = slopes = intercepts = None
    if name == "QuadraticAniso":
        weights = 0.5 + 2.0 * idx / (dim - 1)
    elif name == "NormAniso":
        weights = 1.0 + 9.0 * idx / (dim - 1)
    elif name == "ICKANPaperTarget":
        weights = rng.uniform(0.5, 2.0, dim)
    elif name == "Mixed":
        weights = rng.uniform(0.5, 2.0, dim)
        weights2 = rng.uniform(0.5, 2.0, dim)
        slopes = rng.standard_normal((_MIXED_PIECES, dim)) / np.sqrt(dim)
        intercepts = rng.standard_normal(_MIXED_PIECES)
    return TargetFunction(
        name=name,
        dim=dim,
        weights=weights,
        weights2=weights2,
        piece_slopes=slopes,
        piece_intercepts=intercepts,
    )


def huber(t: np.ndarray, delta: float) -> Tuple[np.ndarray, np.ndarray]:
    """Elementwise Huber function (t^2 inside |t| <= delta, 2 delta |t| - delta^2
    beyond) and its derivative, with sign(0) = 0."""
    a = np.abs(t)
    small = a <= delta
    value = np.where(small, t * t, 2.0 * delta * a - delta * delta)
    grad = np.where(small, 2.0 * t, 2.0 * delta * np.sign(t))
    return value, grad


def logsumexp_rows(T: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """log(sum_k exp(T[i, k])) of each row, shifted by the row max so that no
    exp overflows, and its gradient, the row's softmax."""
    m = np.max(T, axis=1, keepdims=True)
    e = np.exp(T - m)
    total = np.sum(e, axis=1)
    return m[:, 0] + np.log(total), e / total[:, None]


def target_values_and_subgradients(target: TargetFunction, X) -> Tuple[np.ndarray, np.ndarray]:
    """Values (n,) and subgradients (n, d) on the rows of X, which must be an
    (n, target.dim) matrix; any other shape raises ``ValueError``.

    The squared-norm and norm reductions are the model's own, so a model that
    represents a target exactly produces bitwise-zero residuals (and hence
    exactly zero gradients) on sampled datasets.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != target.dim:
        raise ValueError(f"expected an (n, {target.dim}) matrix, got shape {X.shape}")
    name = target.name
    if name == "QuadraticIso":
        return half_sqnorm_rows(X), X.copy()
    if name == "QuadraticAniso":
        w = target.weights
        return 0.5 * (X * X) @ w, w * X
    if name == "NormEuclid":
        r = norm_rows(X)
        return r, over_norm(X, r[:, None])
    if name == "NormAniso":
        w = target.weights
        r = np.sqrt((X * X) @ w)
        return r, over_norm(w * X, r[:, None])
    if name == "Mixed":
        w1, w2 = target.weights, target.weights2
        quad = 0.25 * (X * X) @ w1
        root = np.sqrt((X * X) @ w2)
        pieces = X @ target.piece_slopes.T + target.piece_intercepts
        active = target.piece_slopes[np.argmax(pieces, axis=1)]
        value = quad + 0.7 * root + np.max(pieces, axis=1)
        return value, 0.5 * w1 * X + active + 0.7 * over_norm(w2 * X, root[:, None])
    if name == "SoftplusSum":
        return np.sum(softplus(X), axis=1), sigmoid(X)
    if name == "LogSumExpQuad":
        lse, soft = logsumexp_rows(X)
        return lse + 0.1 * np.sum(X * X, axis=1), soft + 0.2 * X
    if name == "Huber":
        value, grad = huber(X, 1.0)
        return np.sum(value, axis=1), grad
    if name == "L1Norm":
        return np.sum(np.abs(X), axis=1), np.sign(X)
    if name == "ICKANPaperTarget":
        w = target.weights
        value = np.sum(np.abs(X) + np.abs(1.0 - X), axis=1) + 0.25 * (X * X) @ w
        return value, np.sign(X) - np.sign(1.0 - X) + 0.5 * w * X
    raise AssertionError(name)


def target_values_batch(target: TargetFunction, X) -> np.ndarray:
    """Values on the rows of X; used for dataset generation and sampling tests."""
    return target_values_and_subgradients(target, X)[0]
