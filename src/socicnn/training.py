"""Dataset generation, projected-Adam training, and budget-matched variants.

Training minimizes mean-squared error with Adam; every optimizer step is
followed by the feasibility projection so the iterates never leave the
convex-model parameter set.  The benchmark utilities build the five model
variants and match their parameter budgets to a compact two-layer anchor by
deepening the backbone at fixed width.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .gradients import empty_workspace, parameter_gradients
from .model import (
    RELU,
    SOFTPLUS,
    DimensionError,
    SocIcnnParams,
    batch_forward,
    count_parameters,
    empty_trace,
    flatten_params,
    init_model,
    nonneg_mask,
    spawn_rng,
    unflatten_params,
)
from .targets import TargetFunction, target_values_batch

# variant: (activation, quadratic branches, conic branches)
_VARIANT_TABLE = {
    "ReLU": (RELU, 0, 0),
    "Softplus": (SOFTPLUS, 0, 0),
    "QuadOnly": (RELU, 1, 0),
    "NormOnly": (RELU, 0, 1),
    "SOC": (RELU, 1, 1),
}
VARIANTS = tuple(_VARIANT_TABLE)

# Adam's moment decay rates and denominator guard (Kingma & Ba 2015 defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Anchor hidden widths for the budget-matched comparison, by input dimension.
_ANCHOR_WIDTH_POINTS = ((5, 16), (10, 20), (20, 24), (50, 32))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 400
    batch_size: int = 128
    learning_rate: float = 1e-3
    seed: int = 0
    early_stop_patience: int = 50

    def __post_init__(self):
        rate = self.learning_rate
        if isinstance(rate, bool) or not isinstance(rate, numbers.Real):
            raise TypeError(f"learning_rate must be a real number, got {rate!r}")
        if not 0 < rate < np.inf:
            raise ValueError("learning rate must be positive and finite")
        for name in ("seed", "epochs", "batch_size", "early_stop_patience"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            if value < 1 and name != "seed":
                raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True, eq=False)
class Dataset:
    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        if self.xs.ndim != 2 or self.ys.shape != (self.xs.shape[0],):
            raise DimensionError("xs must be (n, d) with ys of length n")
        if self.xs.shape[0] < 1:
            raise DimensionError("a dataset needs at least one row")
        if not (np.all(np.isfinite(self.xs)) and np.all(np.isfinite(self.ys))):
            raise ValueError("dataset contains non-finite values")

    @property
    def size(self) -> int:
        return self.xs.shape[0]


def sample_uniform_dataset(
    target: TargetFunction, n: int, lo: float, hi: float, seed: int
) -> Dataset:
    """n points uniform on [lo, hi]^target.dim and the target's values there."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not np.isfinite(float(hi) - float(lo)):  # also catches a non-finite lo or hi
        raise ValueError("lo, hi and hi - lo must be finite")
    if not lo < hi:
        raise ValueError("lo must be strictly below hi")
    xs = spawn_rng(seed).uniform(lo, hi, (n, target.dim))
    return Dataset(xs=xs, ys=target_values_batch(target, xs))


def save_dataset_csv(ds: Dataset, path) -> None:
    dim = ds.xs.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(dim)] + ["y"])
        for row, y in zip(ds.xs, ds.ys):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(y))])


def load_dataset_csv(path) -> Dataset:
    """Read a dataset written by save_dataset_csv: the header
    x0,...,x{d-1},y with d >= 1, then one row of d + 1 numbers per point."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: the file is empty")
        dim = len(header) - 1
        if dim < 1 or header != [f"x{i}" for i in range(dim)] + ["y"]:
            raise ValueError(f"{path}: the header must be x0,...,x{{d-1}},y with d >= 1")
        xs, ys = [], []
        for row in reader:
            if len(row) != dim + 1:
                raise ValueError(
                    f"{path}: line {reader.line_num} has {len(row)} fields, "
                    f"the header has {dim + 1}"
                )
            try:
                values = [float(v) for v in row]
            except ValueError:
                values = [np.nan]
            if not np.isfinite(values).all():
                raise ValueError(f"{path}: line {reader.line_num}: a field is not a finite number")
            xs.append(values[:dim])
            ys.append(values[dim])
    if not ys:
        raise ValueError(f"{path}: no data rows after the header")
    return Dataset(xs=np.asarray(xs, dtype=np.float64), ys=np.asarray(ys, dtype=np.float64))


def train(
    params: SocIcnnParams,
    train_ds: Dataset,
    val_ds: Dataset,
    config: TrainConfig,
) -> Tuple[SocIcnnParams, List[Tuple[int, float, float]]]:
    """Projected Adam on mean-squared error; returns the best-validation model.

    The model and its gradient are views of two flat buffers.  Each step is
    one ``parameter_gradients`` call over its batch, run in the workspace of
    its row count (the batch, and a partial last batch), and the validation
    forward writes into one trace; all are built once per call.
    Every Adam step updates m, v and the parameter vector in place, through
    two scratch vectors, in the order of the out-of-place update
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2,
    flat = max(flat - lr_t m / (sqrt(v) + eps), lower), so the bits are
    those of that update; the clamp at ``lower`` keeps every sign-constrained
    entry at or above zero, so each iterate is feasible.  An epoch's
    ``train_loss`` is the mean of its per-step batch losses, which is not the
    epoch's mean-squared error when the last batch is partial.  The run is
    deterministic in (params, datasets, config.seed).

    When ``val_ds`` is ``train_ds`` and one batch holds every row, each step
    reads the rows in stored order and ``config.seed`` is unused.  The step
    of epoch e + 1 then computes, over the same rows with the same
    parameters, exactly the validation loss of epoch e, so that loss is taken
    from the step, and only the last epoch runs a validation forward.  The
    checkpoint and an early stop at epoch e come before the update of step
    e + 1, so the result is that of validating every epoch.
    """
    if train_ds.xs.shape[1] != params.input_dim or val_ds.xs.shape[1] != params.input_dim:
        raise DimensionError("dataset dimension does not match the model")

    flat = flatten_params(params)
    g = np.zeros_like(flat)
    model = unflatten_params(params, flat)
    grads = unflatten_params(params, g)
    # Lower bounds of the projection: 0 on sign-constrained entries, -inf elsewhere.
    lower = np.where(nonneg_mask(params), 0.0, -np.inf)
    m = np.zeros_like(flat)
    v = np.zeros_like(flat)
    scratch = np.empty_like(flat)
    denom = np.empty_like(flat)
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    step = 0
    rng = spawn_rng(config.seed)
    n = train_ds.size
    batch = min(config.batch_size, n)
    step_losses = np.empty(-(-n // batch))  # one per step of an epoch
    # one batch of every row, validated on itself, keeps the stored order: the
    # next step's loss is then an epoch's validation loss, so each step's loss
    # and gradient are taken at the end of the epoch before it (the first here)
    fused = val_ds is train_ds and batch == n
    # each step runs in the workspace of its row count, and validation in one
    # trace; all are built here once
    works = {rows: empty_workspace(model, rows) for rows in (batch, n % batch) if rows}
    val_trace = empty_trace(model, val_ds.size)
    if fused:
        loss = parameter_gradients(model, train_ds.xs, train_ds.ys, grads, works[n])

    best_val = np.inf
    best_flat = flat.copy()
    stall = 0
    history: List[Tuple[int, float, float]] = []

    for epoch in range(1, config.epochs + 1):
        order = None if fused else rng.permutation(n)
        for k, start in enumerate(range(0, n, batch)):
            if not fused:
                idx = order[start : start + batch]
                loss = parameter_gradients(
                    model, train_ds.xs[idx], train_ds.ys[idx], grads, works[idx.size]
                )
            if not math.isfinite(loss):
                raise RuntimeError(
                    f"training aborted: non-finite loss at epoch {epoch}, step {step}"
                )
            step_losses[k] = loss
            step += 1
            lr_t = config.learning_rate * (math.sqrt(1.0 - b2**step) / (1.0 - b1**step))
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=scratch)
            v *= b2
            np.multiply(g, g, out=scratch)
            scratch *= 1.0 - b2
            v += scratch
            np.sqrt(v, out=denom)
            denom += ADAM_EPS
            np.multiply(m, lr_t, out=scratch)
            scratch /= denom
            np.subtract(flat, scratch, out=scratch)
            np.maximum(scratch, lower, out=flat)

        train_loss = float(np.add.reduce(step_losses)) / step_losses.size
        if fused and epoch < config.epochs:
            val_loss = loss = parameter_gradients(model, train_ds.xs, train_ds.ys, grads, works[n])
        else:
            resid = batch_forward(model, val_ds.xs, val_trace).total - val_ds.ys
            val_loss = float(np.add.reduce(resid * resid)) / resid.size
        if not math.isfinite(val_loss):
            raise RuntimeError(f"training aborted: non-finite validation loss at epoch {epoch}")
        history.append((epoch, train_loss, val_loss))
        if val_loss < best_val:
            best_val = val_loss
            best_flat[:] = flat
            stall = 0
        else:
            stall += 1
        if stall >= config.early_stop_patience:
            break

    return unflatten_params(params, best_flat), history


def relative_l2_error(params: SocIcnnParams, test: Dataset) -> float:
    """||predictions - ys|| / ||ys|| on the test split."""
    denom = float(np.sqrt(np.dot(test.ys, test.ys)))
    if denom == 0.0:
        raise ValueError("relative error is undefined for all-zero targets")
    resid = batch_forward(params, test.xs).total - test.ys
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
    """Learnable-scalar count of a variant model, read off the model's layout."""
    return count_parameters(build_variant_model(variant, d0, width, depth, 0, passthrough))


def build_variant_model(
    variant: str, d0: int, width: int, depth: int, seed: int, passthrough: bool = True
) -> SocIcnnParams:
    if variant not in _VARIANT_TABLE:
        raise ValueError(f"unknown variant {variant!r}; valid: {', '.join(VARIANTS)}")
    activation, num_quad, num_conic = _VARIANT_TABLE[variant]
    return init_model(
        d0, [width] * depth, [d0] * num_quad, [d0] * num_conic, passthrough, activation, seed
    )


def variant_depth(variant: str, d0: int, width: int, passthrough: bool = True) -> int:
    """Smallest depth in 1..64 whose parameter count reaches the two-layer SOC
    anchor's, which is 2 for SOC itself; the anchor and the variant share the
    passthrough setting."""
    anchor = variant_param_count(d0, width, 2, "SOC", passthrough)
    for depth in range(1, 65):
        count = variant_param_count(d0, width, depth, variant, passthrough)
        if count >= anchor:
            return depth
    raise ValueError(
        f"budget not reachable with depth <= 64: {variant} at d={d0}, width {width}, "
        f"passthrough {'on' if passthrough else 'off'} has {count} parameters at depth 64, "
        f"below the two-layer SOC anchor's {anchor}"
    )


def fit_variant_to_target(
    target: TargetFunction,
    variant: str,
    seed: int,
    n_train: int = 2000,
    n_val: int = 1000,
    n_test: int = 2000,
    lo: float = -3.0,
    hi: float = 3.0,
    *,
    config: TrainConfig,
    passthrough: bool = True,
) -> dict:
    """One budget-matched training cell: sample the splits, fit, score.

    ``config.seed`` must equal ``seed``, so that one seed fixes the whole cell.
    """
    if config.seed != seed:
        raise ValueError(f"config.seed {config.seed} differs from the cell seed {seed}")
    d = target.dim
    width = anchor_width(d)
    depth = variant_depth(variant, d, width, passthrough)
    train_ds = sample_uniform_dataset(target, n_train, lo, hi, spawn_rng(seed, 1).integers(2**62))
    val_ds = sample_uniform_dataset(target, n_val, lo, hi, spawn_rng(seed, 2).integers(2**62))
    test_ds = sample_uniform_dataset(target, n_test, lo, hi, spawn_rng(seed, 3).integers(2**62))

    model = build_variant_model(variant, d, width, depth, seed, passthrough)
    trained, history = train(model, train_ds, val_ds, config)
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
