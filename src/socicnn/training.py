"""Dataset generation, projected-Adam training, and budget-matched variants.

Training minimizes mean-squared error with Adam; every optimizer step is
followed by the feasibility projection so the iterates never leave the
convex-model parameter set.  The benchmark utilities build the five model
variants and match their parameter budgets to a compact two-layer anchor by
deepening the backbone at fixed width.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .gradients import parameter_gradients
from .model import (
    RELU,
    SOFTPLUS,
    DimensionError,
    SocIcnnParams,
    count_parameters,
    flatten_params,
    forward_total_batch,
    init_model,
    nonneg_mask,
    spawn_rng,
    unflatten_params,
)
from .targets import TargetFunction, target_values_batch

VARIANTS = ("ReLU", "Softplus", "QuadOnly", "NormOnly", "SOC")

# Anchor hidden widths for the budget-matched comparison, by input dimension.
_ANCHOR_WIDTH_POINTS = ((5, 16), (10, 20), (20, 24), (50, 32))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 400
    batch_size: int = 128
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    early_stop_patience: int = 50

    def __post_init__(self):
        if not (0.0 < self.adam_beta1 < 1.0 and 0.0 < self.adam_beta2 < 1.0):
            raise ValueError("Adam betas must lie in (0, 1)")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")


@dataclass(frozen=True, eq=False)
class Dataset:
    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        if self.xs.ndim != 2 or self.ys.shape != (self.xs.shape[0],):
            raise DimensionError("xs must be (n, d) with ys of length n")
        if not (np.all(np.isfinite(self.xs)) and np.all(np.isfinite(self.ys))):
            raise ValueError("dataset contains non-finite values")

    @property
    def size(self) -> int:
        return self.xs.shape[0]


def sample_uniform_dataset(
    target: TargetFunction, dim: int, n: int, lo: float, hi: float, seed: int
) -> Dataset:
    if n < 1:
        raise ValueError("n must be >= 1")
    if not lo < hi:
        raise ValueError("lo must be strictly below hi")
    xs = spawn_rng(seed).uniform(lo, hi, (n, dim))
    return Dataset(xs=xs, ys=target_values_batch(target, xs))


def save_dataset_csv(ds: Dataset, path) -> None:
    dim = ds.xs.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(dim)] + ["y"])
        for row, y in zip(ds.xs, ds.ys):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(y))])


def load_dataset_csv(path) -> Dataset:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: the file is empty")
        dim = len(header) - 1
        xs, ys = [], []
        for row in reader:
            if len(row) <= dim:
                raise ValueError(
                    f"{path}: line {reader.line_num} has {len(row)} fields, "
                    f"the header has {dim + 1}"
                )
            xs.append([float(v) for v in row[:dim]])
            ys.append(float(row[dim]))
    if not ys:
        raise ValueError(f"{path}: no data rows after the header")
    return Dataset(xs=np.asarray(xs, dtype=np.float64), ys=np.asarray(ys, dtype=np.float64))


def save_history_csv(history: Sequence[Tuple[int, float, float]], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss"])
        for epoch, train_loss, val_loss in history:
            writer.writerow([epoch, repr(float(train_loss)), repr(float(val_loss))])


def _mse(params: SocIcnnParams, ds: Dataset) -> float:
    resid = forward_total_batch(params, ds.xs) - ds.ys
    return float(np.mean(resid**2))


def train(
    params: SocIcnnParams,
    train_ds: Dataset,
    val_ds: Dataset,
    config: TrainConfig,
    on_epoch: Optional[Callable[[int, SocIcnnParams], None]] = None,
) -> Tuple[SocIcnnParams, List[Tuple[int, float, float]]]:
    """Projected Adam on mean-squared error; returns the best-validation model.

    Every Adam step is followed by clamping the sign-constrained arrays at
    zero, so each intermediate model is feasible.  The run is deterministic
    in (params, datasets, config.seed).  ``on_epoch`` is a test hook called
    with the current feasible model after each epoch.
    """
    if train_ds.xs.shape[1] != params.input_dim or val_ds.xs.shape[1] != params.input_dim:
        raise DimensionError("dataset dimension does not match the model")

    flat = flatten_params(params)
    # Lower bounds of the projection: 0 on sign-constrained entries, -inf elsewhere.
    lower = np.where(nonneg_mask(params), 0.0, -np.inf)
    m = np.zeros_like(flat)
    v = np.zeros_like(flat)
    b1, b2 = config.adam_beta1, config.adam_beta2
    step = 0
    rng = spawn_rng(config.seed)
    n = train_ds.size
    batch = min(config.batch_size, n)

    best_val = np.inf
    best_flat = flat  # iterates are replaced, never written in place
    stall = 0
    history: List[Tuple[int, float, float]] = []

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            model = unflatten_params(params, flat)
            loss, grads = parameter_gradients(model, train_ds.xs[idx], train_ds.ys[idx])
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"training aborted: non-finite loss at epoch {epoch}, step {step}"
                )
            epoch_losses.append(loss)
            g = flatten_params(grads)
            step += 1
            lr_t = config.learning_rate * (np.sqrt(1.0 - b2**step) / (1.0 - b1**step))
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            flat = np.maximum(flat - lr_t * m / (np.sqrt(v) + config.adam_eps), lower)

        current = unflatten_params(params, flat)
        train_loss = float(np.mean(epoch_losses))
        val_loss = _mse(current, val_ds)
        if not np.isfinite(val_loss):
            raise RuntimeError(f"training aborted: non-finite validation loss at epoch {epoch}")
        history.append((epoch, train_loss, val_loss))
        if val_loss < best_val:
            best_val = val_loss
            best_flat = flat
            stall = 0
        else:
            stall += 1
        if on_epoch is not None:
            on_epoch(epoch, current)
        if stall >= config.early_stop_patience:
            break

    return unflatten_params(params, best_flat), history


def relative_l2_error(params: SocIcnnParams, test: Dataset) -> float:
    """||predictions - ys|| / ||ys|| on the test split."""
    if test.size == 0:
        raise ValueError("test set must be non-empty")
    denom = float(np.sqrt(np.dot(test.ys, test.ys)))
    if denom == 0.0:
        raise ValueError("relative error is undefined for all-zero targets")
    resid = forward_total_batch(params, test.xs) - test.ys
    return float(np.sqrt(np.dot(resid, resid))) / denom


# ---------------------------------------------------------------------------
# budget matching


def anchor_width(dim: int) -> int:
    """Hidden width of the two-layer anchor model for a given input dimension."""
    ds = np.array([p[0] for p in _ANCHOR_WIDTH_POINTS], dtype=np.float64)
    ws = np.array([p[1] for p in _ANCHOR_WIDTH_POINTS], dtype=np.float64)
    return int(round(float(np.interp(float(dim), ds, ws))))


def variant_param_count(
    d0: int, width: int, depth: int, variant: str, passthrough: bool = True
) -> int:
    """Exact learnable-scalar count of a variant model.

    Layer 1 holds width*d0 + width scalars; each deeper layer adds
    width^2 + width plus width*d0 when passthrough is on; the readout adds
    width + d0 + 1; each structural branch of size d0 adds d0*d0 + d0 + 1.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; valid: {', '.join(VARIANTS)}")
    count = width * d0 + width
    for _ in range(depth - 1):
        count += width * width + width
        if passthrough:
            count += width * d0
    count += width + d0 + 1
    branch = d0 * d0 + d0 + 1
    if variant in ("QuadOnly", "SOC"):
        count += branch
    if variant in ("NormOnly", "SOC"):
        count += branch
    return count


def match_parameter_budget(anchor_count: int, d0: int, width: int, variant: str) -> int:
    """Smallest depth whose parameter count reaches the anchor budget."""
    if anchor_count < 1:
        raise ValueError("anchor_count must be >= 1")
    for depth in range(1, 65):
        if variant_param_count(d0, width, depth, variant) >= anchor_count:
            return depth
    raise ValueError("budget not reachable with depth <= 64")


def build_variant_model(
    variant: str, d0: int, width: int, depth: int, seed: int, passthrough: bool = True
) -> SocIcnnParams:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; valid: {', '.join(VARIANTS)}")
    num_quad = 1 if variant in ("QuadOnly", "SOC") else 0
    num_conic = 1 if variant in ("NormOnly", "SOC") else 0
    activation = SOFTPLUS if variant == "Softplus" else RELU
    return init_model(
        d0,
        [width] * depth,
        num_quad,
        [d0] * num_quad,
        num_conic,
        [d0] * num_conic,
        passthrough,
        activation,
        seed,
    )


def variant_depth(variant: str, d0: int, width: int) -> int:
    """Anchor depth for SOC, budget-matched depth for every other variant."""
    if variant == "SOC":
        return 2
    anchor = variant_param_count(d0, width, 2, "SOC")
    return match_parameter_budget(anchor, d0, width, variant)


def fit_variant_to_target(
    target: TargetFunction,
    variant: str,
    seed: int,
    n_train: int = 2000,
    n_val: int = 1000,
    n_test: int = 2000,
    lo: float = -3.0,
    hi: float = 3.0,
    config: Optional[TrainConfig] = None,
    passthrough: bool = True,
) -> dict:
    """One budget-matched training cell: sample the splits, fit, score."""
    d = target.dim
    width = anchor_width(d)
    depth = variant_depth(variant, d, width)
    train_ds = sample_uniform_dataset(target, d, n_train, lo, hi, spawn_rng(seed, 1).integers(2**62))
    val_ds = sample_uniform_dataset(target, d, n_val, lo, hi, spawn_rng(seed, 2).integers(2**62))
    test_ds = sample_uniform_dataset(target, d, n_test, lo, hi, spawn_rng(seed, 3).integers(2**62))

    model = build_variant_model(variant, d, width, depth, seed, passthrough)
    cfg = config if config is not None else TrainConfig(seed=seed)
    if cfg.seed != seed:
        cfg = replace(cfg, seed=seed)
    trained, history = train(model, train_ds, val_ds, cfg)
    return {
        "target": target.name,
        "variant": variant,
        "d": d,
        "seed": seed,
        "width": width,
        "depth": depth,
        "params": count_parameters(trained),
        "rel_err": relative_l2_error(trained, test_ds),
        "model": trained,
        "history": history,
    }
