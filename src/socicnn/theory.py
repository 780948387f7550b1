"""Executable forms of the piece-count lower bound and tangent-net rates.

A max-affine function built from tangent planes of a convex target
under-approximates it everywhere, and on a uniform net the sup error decays
like N^(-2/d) in the number of pieces when the target's gradient is
Lipschitz.  Conversely, approximating a strongly convex target to accuracy
eps needs at least vol / (omega_d 2^d) * (mu/eps)^(d/2) affine pieces, where
omega_d is the unit-ball volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .model import spawn_rng


@dataclass(frozen=True, eq=False)
class MaxAffine:
    """max_i (slopes[i] @ x + intercepts[i]), a convex piecewise-linear map."""

    slopes: np.ndarray  # (N, d)
    intercepts: np.ndarray  # (N,)

    def __post_init__(self):
        if self.slopes.ndim != 2 or self.intercepts.shape != (self.slopes.shape[0],):
            raise ValueError("slopes must be (N, d) with N intercepts")
        if self.slopes.shape[0] < 1:
            raise ValueError("a max-affine function needs at least one piece")

    @property
    def num_pieces(self) -> int:
        return self.slopes.shape[0]


def eval_max_affine(g: MaxAffine, x) -> float:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.slopes.shape[1],):
        raise ValueError(f"expected input of dimension {g.slopes.shape[1]}")
    return float(np.max(g.slopes @ x + g.intercepts))


def eval_max_affine_batch(g: MaxAffine, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    return np.max(X @ g.slopes.T + g.intercepts, axis=1)


def unit_ball_volume(dim: int) -> float:
    """Volume of the Euclidean unit ball, via log-gamma for stability."""
    return math.exp(0.5 * dim * math.log(math.pi) - math.lgamma(0.5 * dim + 1.0))


def cpwl_piece_lower_bound(volume: float, dim: int, mu: float, eps: float) -> float:
    """Minimum number of affine pieces any CPWL approximation of a
    mu-strongly-convex target on a region of the given volume needs to reach
    uniform accuracy eps."""
    if volume <= 0 or mu <= 0 or eps <= 0:
        raise ValueError("volume, mu, and eps must be positive")
    return volume / (unit_ball_volume(dim) * 2.0**dim) * (mu / eps) ** (dim / 2.0)


def build_tangent_max_affine(
    value_and_grad: Callable[[np.ndarray], Tuple[float, np.ndarray]],
    net_points,
) -> MaxAffine:
    """Tangent planes of a convex function at the net points.

    Piece i is h(x_i) + grad_i @ (x - x_i); convexity makes every piece a
    global lower support, so the max-affine under-approximates h everywhere.
    """
    net = np.asarray(net_points, dtype=np.float64)
    if net.ndim != 2 or net.shape[0] < 1:
        raise ValueError("net_points must be a non-empty (M, d) matrix")
    slopes = np.empty_like(net)
    intercepts = np.empty(net.shape[0])
    for i, point in enumerate(net):
        value, grad = value_and_grad(point)
        slopes[i] = grad
        intercepts[i] = value - float(np.dot(grad, point))
    return MaxAffine(slopes=slopes, intercepts=intercepts)


# Largest tangent net the ``theory`` command builds, in points.
MAX_NET_POINTS = 1 << 16
# Affine values (samples times pieces) per block of ``sup_error_estimate``.
SAMPLE_BLOCK_ENTRIES = 1 << 20


def midpoint_grid(dim: int, cells_per_axis: int) -> np.ndarray:
    """Cell-center grid on [-1, 1]^dim with cells_per_axis^dim points."""
    centers = -1.0 + (2.0 * np.arange(cells_per_axis) + 1.0) / cells_per_axis
    return np.array(list(product(centers, repeat=dim)), dtype=np.float64)


def _half_sq(x: np.ndarray) -> Tuple[float, np.ndarray]:
    return 0.5 * float(np.dot(x, x)), x.copy()


def sup_error_estimate(
    value_fn: Callable[[np.ndarray], np.ndarray],
    approx: MaxAffine,
    num_samples: int = 100_000,
    seed: int = 0,
) -> float:
    """Dense-sampling estimate of sup |h - approx| on [-1, 1]^dim, in blocks,
    where dim is the column count of ``approx.slopes``."""
    dim = approx.slopes.shape[1]
    X = spawn_rng(seed, dim, approx.num_pieces).uniform(-1.0, 1.0, (num_samples, dim))
    rows = max(1, SAMPLE_BLOCK_ENTRIES // approx.num_pieces)
    blocks = (X[i : i + rows] for i in range(0, num_samples, rows))
    return max(float(np.max(np.abs(value_fn(B) - eval_max_affine_batch(approx, B)))) for B in blocks)


def absorption_rate_rows(
    dims: Sequence[int] = (1, 2),
    cells: Sequence[int] = (2, 4, 8, 16),
    num_samples: int = 100_000,
    seed: int = 0,
) -> List[dict]:
    """Tangent-net errors for the half-squared-norm target on [-1, 1]^d.

    Each row reports the piece count N, the sampled sup error, and the
    piece lower bound evaluated at that error level (so N >= bound must
    hold row by row).  The log-log slope of error against N reveals the
    N^(-2/d) rate.
    """
    rows = []
    for dim in dims:
        for k in cells:
            net = midpoint_grid(dim, k)
            approx = build_tangent_max_affine(_half_sq, net)
            err = sup_error_estimate(
                lambda X: 0.5 * np.sum(X * X, axis=1),
                approx,
                num_samples=num_samples,
                seed=seed,
            )
            rows.append(
                {
                    "d": dim,
                    "N": approx.num_pieces,
                    "sup_error": err,
                    "bound": cpwl_piece_lower_bound(2.0**dim, dim, 1.0, err),
                }
            )
    return rows


def loglog_slope(ns: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares slope of log(error) against log(N)."""
    ln_n = np.log(np.asarray(ns, dtype=np.float64))
    ln_e = np.log(np.asarray(errors, dtype=np.float64))
    design = np.stack([ln_n, np.ones_like(ln_n)], axis=1)
    coef, *_ = np.linalg.lstsq(design, ln_e, rcond=None)
    return float(coef[0])


def smallest_net_reaching(eps: float, dim: int = 1) -> int:
    """Smallest uniform tangent net (piece count) with sup error <= eps for
    the half-squared-norm target on [-1, 1]^dim; exact error evaluation for
    this target is spacing^2 * dim / 8 at cell centers; nets are searched up
    to 4096 cells per axis."""
    if not (0 < eps < math.inf):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    for k in range(1, 4097):
        # exact sup error of the tangent net on the midpoint grid
        err = dim * (1.0 / k) ** 2 / 2.0
        if err <= eps:
            return k**dim
    raise ValueError("no net within 4096 cells per axis reaches the requested accuracy")
