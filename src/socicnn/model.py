"""Parameter containers and the exact forward pass.

The model is a nonnegative-weight convex backbone (ReLU or Softplus hidden
units) plus two kinds of structural branches added to the output:

* quadratic branches  weight/2 * ||proj @ x + offset||^2   (weight >= 0)
* conic branches      weight   * ||proj @ x + offset||     (weight >= 0)

Hidden-to-hidden weights, the hidden readout, and all branch weights must be
nonnegative so the total stays convex in the input.  Nonnegativity is imposed
by clamping (``project_feasible``), never by reparameterization, so the stored
arrays are exactly the data of the epigraph lift used by the certificate
module.

Every layer and branch is affine in the homogenised input (x, 1), and
stores that map as one C-contiguous block from ``affine_block``: [w_x | b]
for a layer, b alone for a layer that does not read x, [proj | offset] for a
branch.  w_x, b, proj and offset are views of that block, and in a model
from ``unflatten_params`` the block is itself a view of the flat vector.

The forward pass is one computation over the rows of a batch, recorded in
one ``ForwardTrace``; a single point is a one-row batch.  The trace holds the
batch with a ones column appended, [X | 1], so each block is applied as one
product with no bias add; only a layer that does not read x adds its b.
Every pass writes its intermediates into the arrays of a trace from
``empty_trace``, the only code that allocates them: ``batch_forward`` builds
a fresh trace unless its caller passes one, so a caller that runs many
passes over the same number of rows (training) builds its buffers once.  A
trace records the params object it was built for and answers to no other,
so one identity test and one row count stand for its every shape.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

RELU = "ReLU"
SOFTPLUS = "Softplus"
ACTIVATIONS = (RELU, SOFTPLUS)

_UINT64 = 0xFFFFFFFFFFFFFFFF


class DimensionError(ValueError):
    """Shape mismatch in model construction or evaluation."""


class ConstraintError(ValueError):
    """Violation of a sign constraint required for convexity."""


def spawn_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator derived deterministically from a root seed and an index path.

    Every source of randomness in the package goes through this helper, so a
    run is reproducible from its root seed alone and per-task streams are
    independent of execution order.
    """
    entropy = [int(seed) & _UINT64] + [int(k) & _UINT64 for k in key]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def softplus(t, out=None):
    """log(1 + exp(t)), as max(t, 0) + log1p(e) with e = exp(-|t|), written
    into ``out`` when given.

    The exponent is never positive, so no input overflows; ``sigmoid`` is the
    derivative from the same e.
    """
    tail = np.log1p(np.exp(-np.abs(t)))
    return np.add(np.maximum(t, 0.0, out=out), tail, out=out)


def sigmoid(t, out=None):
    """1 / (1 + exp(-t)), as where(t >= 0, 1, e) / (1 + e) with e = exp(-|t|),
    written into ``out`` when given (which may be t itself).

    The numerator is max(t >= 0, e): 1.0 or 0.0 against e <= 1, with NaN
    kept, so no masked copy is needed.  The sign is read before e is written
    into ``out``.
    """
    t = np.asarray(t, dtype=np.float64)
    if out is None:
        out = np.empty_like(t)
    nonnegative = np.greater_equal(t, 0.0)
    e = np.exp(np.negative(np.abs(t, out=out), out=out), out=out)
    denom = e + 1.0
    return np.divide(np.maximum(nonnegative, e, out=e), denom, out=e)


def half_sqnorm_rows(Q: np.ndarray, out=None) -> np.ndarray:
    """1/2 ||q||^2 of every row of Q, written into ``out`` when given.

    This and ``norm_rows`` are the only norm reductions of the forward pass;
    every check that must reproduce a forward value bit for bit (the
    diagnostics, exactly representable targets) calls them on the same rows.
    """
    return np.multiply(np.einsum("ij,ij->i", Q, Q, out=out), 0.5, out=out)


def norm_rows(U: np.ndarray, out=None) -> np.ndarray:
    """||u|| of every row of U, written into ``out`` when given."""
    return np.sqrt(np.einsum("ij,ij->i", U, U, out=out), out=out)


def over_norm(c, t):
    """c / t, and 0 where the norm t vanishes: the zero-vector subgradient at
    a norm kink.  c and t broadcast against each other."""
    return np.where(t > 0.0, c / np.where(t > 0.0, t, 1.0), 0.0)


# ---------------------------------------------------------------------------
# parameter containers


def affine_block(weights, bias) -> np.ndarray:
    """[weights | bias], the one C-contiguous (rows, cols + 1) float64 block
    of the affine map x -> weights @ x + bias, applied as block @ (x, 1).

    ``init_model``, ``from_json_dict`` and ``from_structured_class`` pack
    every block here; a layer that does not read x packs (rows, 0) weights.
    Weights that are not a matrix, or a bias that is not a vector of one
    entry per row, raise ``DimensionError`` naming both shapes before
    anything is packed.
    """
    weights = np.asarray(weights, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if weights.ndim != 2 or bias.shape != weights.shape[:1]:
        raise DimensionError(
            f"weights of shape {weights.shape} and bias of shape {bias.shape} "
            "are not one affine map")
    block = np.empty((weights.shape[0], weights.shape[1] + 1))
    block[:, :-1] = weights
    block[:, -1] = bias
    return block


@dataclass(frozen=True, eq=False)
class LayerParams:
    """One backbone layer: pre = w_x @ x + w_z @ z_prev + b.

    w_z is absent on the first layer (there is no previous hidden state) and
    must stay elementwise nonnegative.  ``affine`` is the layer's block
    [w_x | b] from ``affine_block``, (width, d0 + 1), and w_x and b are views
    of it.  Past the first layer with passthrough connections disabled the
    layer does not read x: its block is b alone, (width, 1), and w_x is None.
    """

    w_z: Optional[np.ndarray]
    affine: np.ndarray

    @property
    def w_x(self) -> Optional[np.ndarray]:
        return self.affine[:, :-1] if self.affine.shape[1] > 1 else None

    @property
    def b(self) -> np.ndarray:
        return self.affine[:, -1]

    @property
    def width(self) -> int:
        return self.affine.shape[0]


@dataclass(frozen=True, eq=False)
class BranchParams:
    """One structural branch: weight >= 0 times a norm of proj @ x + offset.

    The model's ``quad`` branches apply weight/2 * ||.||^2 and its ``conic``
    branches weight * ||.||; the data is the same.  ``affine`` is the
    branch's (k, d0 + 1) block [proj | offset], and proj and offset are views
    of it.
    """

    weight: float  # a 0-d view of the flat vector in a model from unflatten_params
    affine: np.ndarray

    @property
    def proj(self) -> np.ndarray:
        return self.affine[:, :-1]

    @property
    def offset(self) -> np.ndarray:
        return self.affine[:, -1]


@dataclass(frozen=True, eq=False)
class SocIcnnParams:
    """Full model: backbone layers, readout, and structural branches.

    Treat instances as immutable values; all mutation helpers return new
    objects.  A model from ``unflatten_params`` views one flat vector instead,
    and writes to that vector move it.
    """

    input_dim: int
    layers: Tuple[LayerParams, ...]
    w_out: np.ndarray  # nonnegative readout of the last hidden state
    w_skip: np.ndarray  # unconstrained direct readout of the input
    b_out: float  # a 0-d view of the flat vector in a model from unflatten_params
    quad: Tuple[BranchParams, ...]  # weight/2 * ||proj @ x + offset||^2
    conic: Tuple[BranchParams, ...]  # weight * ||proj @ x + offset||
    passthrough: bool
    activation: str

    @property
    def widths(self) -> Tuple[int, ...]:
        return tuple(layer.width for layer in self.layers)

    @property
    def depth(self) -> int:
        return len(self.layers)


@dataclass(eq=False, slots=True)
class ForwardTrace:
    """Everything the forward pass computed, row by row.

    From ``batch_forward`` over an (n, d0) batch every field has a leading
    row axis: inputs is (n, d0 + 1), the batch with a ones column appended,
    total and backbone_value are (n,), preacts[l] and acts[l] are (n, w_l),
    quad_q[h] and conic_u[g] are (n, k), and quad_s[h] and conic_t[g] are
    (n,).  ``forward`` returns its one row: the same fields
    without the row axis, the scalars as floats.

    quad_s[h] and conic_t[g] are stored exactly as evaluated from quad_q[h]
    and conic_u[g]; downstream feasibility checks rely on that bitwise
    identity.  ``model`` is the params object the trace was built for, and
    the sequence fields are tuples, so a caller cannot pop or replace an
    array of a trace.  Not frozen: a frozen dataclass costs several times
    more to build, and every single-point ``forward`` builds one.  Every
    pass writes into a trace from ``empty_trace``; training builds its
    traces once per row count, inside the workspaces of
    ``gradients.empty_workspace`` for its steps, and each of its passes
    overwrites their arrays.
    """

    model: SocIcnnParams
    inputs: np.ndarray
    preacts: Sequence[np.ndarray]
    acts: Sequence[np.ndarray]
    backbone_value: np.ndarray
    quad_q: Sequence[np.ndarray]
    quad_s: Sequence[np.ndarray]
    conic_u: Sequence[np.ndarray]
    conic_t: Sequence[np.ndarray]
    total: np.ndarray


# ---------------------------------------------------------------------------
# construction


def _matrix(rng: np.random.Generator, rows: int, cols: int, scale: float) -> np.ndarray:
    return rng.standard_normal((rows, cols)) * scale


def init_model(
    input_dim: int,
    widths: Sequence[int],
    quad_ranks: Sequence[int],
    conic_dims: Sequence[int],
    passthrough: bool,
    activation: str,
    seed: int,
) -> SocIcnnParams:
    """Draw a feasible model deterministically from ``seed``.

    There is one quadratic branch per entry of ``quad_ranks`` and one conic
    branch per entry of ``conic_dims``, each with that many rows.
    Unconstrained matrices use zero-mean entries scaled by 1/sqrt(fan-in);
    nonnegative weights use the absolute value of the same draw scaled by
    1/fan-in; branch weights start at 0.1 and biases at zero.  This keeps
    initial outputs O(1) and needs no projection to be feasible.
    """
    widths = [int(w) for w in widths]
    quad_ranks = [int(r) for r in quad_ranks]
    conic_dims = [int(k) for k in conic_dims]
    if input_dim < 1:
        raise DimensionError("input_dim must be >= 1")
    if not widths:
        raise DimensionError("widths must be non-empty")
    if any(w < 1 for w in widths):
        raise DimensionError("all layer widths must be >= 1")
    if any(r < 1 for r in quad_ranks) or any(k < 1 for k in conic_dims):
        raise DimensionError("branch ranks and dims must be >= 1")
    if activation not in ACTIVATIONS:
        raise ValueError(f"activation must be one of {ACTIVATIONS}, got {activation!r}")

    rng = spawn_rng(seed)
    layers = []
    for idx, width in enumerate(widths):
        if idx == 0:
            w_x = _matrix(rng, width, input_dim, 1.0 / np.sqrt(input_dim))
            w_z = None
        else:
            prev = widths[idx - 1]
            w_x = (_matrix(rng, width, input_dim, 1.0 / np.sqrt(input_dim)) if passthrough
                   else np.empty((width, 0)))  # b alone: the layer does not read x
            w_z = np.abs(rng.standard_normal((width, prev))) / prev
        layers.append(LayerParams(w_z, affine_block(w_x, np.zeros(width))))

    w_out = np.abs(rng.standard_normal(widths[-1])) / widths[-1]
    w_skip = rng.standard_normal(input_dim) / np.sqrt(input_dim)

    def branch(size: int) -> BranchParams:
        proj = _matrix(rng, size, input_dim, 1.0 / np.sqrt(input_dim))
        return BranchParams(0.1, affine_block(proj, np.zeros(size)))

    quad = tuple(branch(r) for r in quad_ranks)
    conic = tuple(branch(k) for k in conic_dims)
    return SocIcnnParams(
        input_dim=input_dim,
        layers=tuple(layers),
        w_out=w_out,
        w_skip=w_skip,
        b_out=0.0,
        quad=quad,
        conic=conic,
        passthrough=bool(passthrough),
        activation=activation,
    )


# ---------------------------------------------------------------------------
# parameter layout


def _rebuild(params: SocIcnnParams, leaf: Callable) -> SocIcnnParams:
    """The canonical parameter layout.

    Calls ``leaf(value, nonneg)`` on every learnable entry in a fixed order
    (per layer w_z, then its block; then w_out, w_skip, b_out; then each
    quadratic and each conic branch as weight and block) and returns a model
    of the same structure holding the results: the fields of each container
    in the order they are declared.  ``nonneg`` marks the sign-constrained
    entries: w_z, w_out and the branch weights.
    """

    def layer(old: LayerParams) -> LayerParams:
        w_z = None if old.w_z is None else leaf(old.w_z, True)
        return LayerParams(w_z, leaf(old.affine, False))

    layers = tuple(layer(old) for old in params.layers)
    w_out = leaf(params.w_out, True)
    w_skip = leaf(params.w_skip, False)
    b_out = leaf(params.b_out, False)

    def branch(br: BranchParams) -> BranchParams:
        return BranchParams(leaf(br.weight, True), leaf(br.affine, False))

    quad = tuple(branch(br) for br in params.quad)
    conic = tuple(branch(br) for br in params.conic)
    return SocIcnnParams(
        params.input_dim, layers, w_out, w_skip, b_out, quad, conic,
        params.passthrough, params.activation,
    )


def _leaves(params: SocIcnnParams) -> list:
    """(value, nonneg) for every learnable entry, in layout order."""
    leaves = []

    def record(value, nonneg):
        leaves.append((value, nonneg))
        return value  # the rebuilt containers view the same blocks

    _rebuild(params, record)
    return leaves


def flatten_params(params: SocIcnnParams) -> np.ndarray:
    """Every learnable scalar, in layout order, as one float64 vector."""
    return np.concatenate([np.ravel(value) for value, _ in _leaves(params)])


def nonneg_mask(params: SocIcnnParams) -> np.ndarray:
    """True at the entries of ``flatten_params`` that must stay >= 0."""
    return np.concatenate([np.full(np.size(value), nonneg) for value, nonneg in _leaves(params)])


def unflatten_params(template: SocIcnnParams, flat: np.ndarray) -> SocIcnnParams:
    """Model shaped like ``template`` whose every entry is a view of ``flat``
    (scalar entries as 0-d views), so writes to ``flat`` move the model.
    ``flat`` must be a float64 array: training writes through those views."""
    if not isinstance(flat, np.ndarray) or flat.dtype != np.float64:
        kind = getattr(flat, "dtype", type(flat).__name__)
        raise TypeError(f"flat parameters must be a float64 numpy array, got {kind}")
    size = sum(np.size(value) for value, _ in _leaves(template))
    if flat.shape != (size,):
        raise DimensionError(f"layout holds {size} entries, got an array of shape {flat.shape}")
    pos = 0

    def take(value, nonneg):
        nonlocal pos
        size = np.size(value)
        chunk = flat[pos : pos + size]
        pos += size
        return chunk.reshape(np.shape(value))

    return _rebuild(template, take)


def project_feasible(params: SocIcnnParams) -> SocIcnnParams:
    """Clamp every sign-constrained entry to max(., 0); idempotent."""
    flat = flatten_params(params)
    return unflatten_params(params, np.where(nonneg_mask(params), np.maximum(flat, 0.0), flat))


def max_infeasibility(params: SocIcnnParams) -> float:
    """Largest violation of the sign constraints (0.0 when feasible).  A NaN
    sign-constrained entry satisfies no constraint and counts as inf."""
    worst = 0.0
    for value, nonneg in _leaves(params):
        if nonneg:
            low = float(np.min(value, initial=np.inf))
            worst = max(worst, -low if low == low else np.inf)
    return worst


# ---------------------------------------------------------------------------
# forward evaluation


def _apply_activation(activation: str, pre: np.ndarray, out: np.ndarray) -> np.ndarray:
    if activation == RELU:
        return np.maximum(pre, 0.0, out=out)
    return softplus(pre, out=out)


def empty_trace(params: SocIcnnParams, n: int) -> ForwardTrace:
    """Uninitialised buffers for the forward pass over n rows of ``params``:
    the ``out`` of ``batch_forward``, which overwrites every entry."""
    # each tuple from a list: faster than from a generator, and every
    # single-point forward builds a trace here
    return ForwardTrace(
        model=params,
        inputs=np.empty((n, params.input_dim + 1)),
        preacts=tuple([np.empty((n, w)) for w in params.widths]),
        acts=tuple([np.empty((n, w)) for w in params.widths]),
        backbone_value=np.empty(n),
        quad_q=tuple([np.empty((n, br.affine.shape[0])) for br in params.quad]),
        quad_s=tuple([np.empty(n) for _ in params.quad]),
        conic_u=tuple([np.empty((n, br.affine.shape[0])) for br in params.conic]),
        conic_t=tuple([np.empty(n) for _ in params.conic]),
        total=np.empty(n),
    )


def _forward_rows(params: SocIcnnParams, X: np.ndarray, out: ForwardTrace) -> ForwardTrace:
    """The forward pass over the rows of X, written into the arrays of
    ``out``, a trace from ``empty_trace(params, len(X))``, which it returns;
    ``forward`` and ``batch_forward`` are both this one computation."""
    if not np.isfinite(X).all():
        raise ValueError("input contains non-finite values")
    inputs = out.inputs  # (X, 1): every block is one product with it
    inputs[:, :-1] = X
    inputs[:, -1] = 1.0
    Z = None
    for layer, pre, act in zip(params.layers, out.preacts, out.acts):
        # layer 0 reads x and deeper layers read z, so pre is always (n, width);
        # the sum runs [X | 1] [w_x | b]^T + ZW, or ZW + b on a layer that does
        # not read x.  act holds ZW until the activation overwrites it.
        if layer.affine.shape[1] > 1:  # the block [w_x | b], not b alone
            np.dot(inputs, layer.affine.T, out=pre)
            if layer.w_z is not None:
                pre += np.dot(Z, layer.w_z.T, out=act)
        else:
            np.dot(Z, layer.w_z.T, out=pre)
            pre += layer.b
        Z = _apply_activation(params.activation, pre, act)

    # total holds X @ w_skip until the copy of the backbone overwrites it
    backbone = np.dot(Z, params.w_out, out=out.backbone_value)
    backbone += np.dot(X, params.w_skip, out=out.total)
    backbone += params.b_out

    totals = np.positive(backbone, out=out.total)  # an exact copy
    for br, Q, s in zip(params.quad, out.quad_q, out.quad_s):
        totals += br.weight * half_sqnorm_rows(np.dot(inputs, br.affine.T, out=Q), out=s)
    for br, U, t in zip(params.conic, out.conic_u, out.conic_t):
        totals += br.weight * norm_rows(np.dot(inputs, br.affine.T, out=U), out=t)
    return out


def as_input(params: SocIcnnParams, x) -> np.ndarray:
    """x as one float64 input of shape (d0,); any other shape raises
    ``DimensionError``."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.input_dim,):
        raise DimensionError(f"expected input of shape ({params.input_dim},), got {x.shape}")
    return x


def forward(params: SocIcnnParams, x) -> ForwardTrace:
    """Evaluate the model at one input: row 0 of the one-row batch x[None]."""
    x = as_input(params, x)
    rows = _forward_rows(params, x[None], empty_trace(params, 1))
    return ForwardTrace(
        model=params,
        inputs=rows.inputs[0],
        preacts=tuple(pre[0] for pre in rows.preacts),
        acts=tuple(act[0] for act in rows.acts),
        backbone_value=float(rows.backbone_value[0]),
        quad_q=tuple(Q[0] for Q in rows.quad_q),
        quad_s=tuple(float(s[0]) for s in rows.quad_s),
        conic_u=tuple(U[0] for U in rows.conic_u),
        conic_t=tuple(float(t[0]) for t in rows.conic_t),
        total=float(rows.total[0]),
    )


def batch_forward(params: SocIcnnParams, X: np.ndarray, out=None) -> ForwardTrace:
    """The forward pass over the rows of an (n, d0) batch X.

    Returns the ``ForwardTrace`` with a leading row axis on every field:
    ``.total`` holds the n forward values, and the per-layer and per-branch
    intermediates are what the gradient engine reads.  The pass writes into
    ``out``, a trace from ``empty_trace(params, n)``, and returns it; without
    ``out`` it writes into a fresh one.  An ``out`` built for another params
    object, even one of the same layout, or over another row count raises
    ``DimensionError`` before anything is written.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.input_dim:
        raise DimensionError(f"expected batch of shape (n, {params.input_dim}), got {X.shape}")
    if out is None:
        out = empty_trace(params, X.shape[0])
    elif out.model is not params or getattr(out.total, "shape", None) != X.shape[:1]:
        raise DimensionError(f"out is not a trace of this params object over {X.shape[0]} rows")
    return _forward_rows(params, X, out)


# ---------------------------------------------------------------------------
# exact representation of the structured convex class


def from_structured_class(linear, constant, quad_matrix, norm_terms) -> SocIcnnParams:
    """Build a model that evaluates exactly to

        linear @ x + constant + 1/2 ||quad_matrix @ x||^2
            + sum_g weight_g * ||proj_g @ x + offset_g||

    The backbone is reduced to the affine readout (a single zero-weight
    hidden unit with zero readout), so the branches carry all curvature.
    ``quad_matrix`` may be None or have zero rows; ``norm_terms`` is a
    sequence of (weight, proj, offset) triples with weight >= 0.  The model
    gets the loader's check: a matrix that is not (k, len(linear)) with
    k >= 1, or an offset that is not (k,), raises ``DimensionError``, a
    negative weight ``ConstraintError``, and a NaN or infinite entry
    anywhere ``ValueError``.
    """
    a = np.asarray(linear, dtype=np.float64)
    if a.ndim != 1 or a.size < 1:
        raise DimensionError("linear term must be a 1-d vector")
    d0 = a.shape[0]

    quad = ()
    if quad_matrix is not None:
        B = np.asarray(quad_matrix, dtype=np.float64)
        if B.size:
            quad = (BranchParams(1.0, affine_block(B, np.zeros(B.shape[:1]))),)
    conic = tuple(BranchParams(float(w), affine_block(A, e)) for w, A, e in norm_terms)
    params = SocIcnnParams(
        input_dim=d0,
        layers=(LayerParams(None, affine_block(np.zeros((1, d0)), np.zeros(1))),),
        w_out=np.zeros(1),
        w_skip=a,
        b_out=float(constant),
        quad=quad,
        conic=conic,
        passthrough=True,
        activation=RELU,
    )
    _check_loaded(params)
    return params


# ---------------------------------------------------------------------------
# accounting


def count_parameters(params: SocIcnnParams) -> int:
    return flatten_params(params).size


def count_forward_flops(params: SocIcnnParams) -> int:
    """Floating operations of one forward evaluation.

    Convention: a matrix-vector product (m, n) costs m*(2n - 1), a dot
    product of length n costs 2n - 1, vector adds and activations cost one
    operation per entry, and sqrt counts as one operation.
    """

    def matvec(m, n):
        return m * (2 * n - 1)

    d0 = params.input_dim
    total = 0
    for idx, layer in enumerate(params.layers):
        w = layer.width
        if layer.w_z is not None:
            total += matvec(w, params.layers[idx - 1].width)
        if layer.w_x is not None:
            total += matvec(w, d0)
            if layer.w_z is not None:
                total += w  # add the two affine maps
        total += w  # bias
        total += w  # activation
    total += (2 * params.widths[-1] - 1) + (2 * d0 - 1) + 2  # readout
    for br in params.quad + params.conic:
        k = br.proj.shape[0]
        total += matvec(k, d0) + k  # affine map and offset
        total += (2 * k - 1) + 1  # squared norm, then the 1/2 factor or the sqrt
        total += 2  # branch weight and accumulation
    return total


# ---------------------------------------------------------------------------
# serialization (versioned JSON, value-exact round trip)


def to_json_dict(params: SocIcnnParams) -> dict:
    layers = []
    for layer in params.layers:
        entry = {"b": layer.b.tolist()}
        if layer.w_x is not None:
            entry["W"] = layer.w_x.tolist()
        if layer.w_z is not None:
            entry["U"] = layer.w_z.tolist()
        layers.append(entry)
    return {
        "version": 1,
        "d0": params.input_dim,
        "passthrough": params.passthrough,
        "activation": params.activation,
        "layers": layers,
        "c": params.w_out.tolist(),
        "v": params.w_skip.tolist(),
        "b0": float(params.b_out),
        "quad": [
            {"alpha": float(br.weight), "B": br.proj.tolist(), "e": br.offset.tolist()}
            for br in params.quad
        ],
        "conic": [
            {"lambda": float(br.weight), "A": br.proj.tolist(), "d": br.offset.tolist()}
            for br in params.conic
        ],
    }


_DOC_KEYS = ("version", "d0", "passthrough", "activation", "layers", "c", "v", "b0", "quad", "conic")


def _entry(value, where: str, required, optional=()) -> None:
    """Checks that ``value`` is a JSON object with every required key and no
    key that is neither required nor optional."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be an object")
    for key in required:
        if key not in value:
            raise ValueError(f"{where} lacks the key {key!r}")
    for key in value:
        if key not in required and key not in optional:
            raise ValueError(f"{where} has the unknown key {key!r}")


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{where} must be a list")
    return value


def _number(value, where: str) -> float:
    """A JSON number as a float; a JSON bool is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{where} is out of the float range") from None


def _array(value, where: str) -> np.ndarray:
    """A number or a rectangular nested list of numbers as a float array."""
    pending = [value]
    while pending:
        item = pending.pop()
        if isinstance(item, list):
            pending.extend(item)
        else:
            _number(item, where)
    try:
        return np.asarray(value, dtype=np.float64)
    except ValueError:
        raise ValueError(f"{where} is not a rectangular array") from None


def from_json_dict(doc: dict) -> SocIcnnParams:
    """The model of a ``to_json_dict`` document.

    Every key and type is checked first: a missing or unknown key, a JSON
    bool where a number belongs, a non-integer size, a non-bool flag or a
    ragged array is a ``ValueError`` naming where it is.  Shapes that
    disagree with the sizes raise ``DimensionError``, which names both
    shapes when a W and b, B and e or A and d are not one affine map, and a
    negative sign-constrained entry raises ``ConstraintError``.
    """
    _entry(doc, "model document", _DOC_KEYS)
    version = doc["version"]
    if isinstance(version, bool) or version != 1:
        raise ValueError(f"unsupported model document version: {version!r}")
    d0 = doc["d0"]
    if isinstance(d0, bool) or not isinstance(d0, int):
        raise ValueError(f"d0 must be an integer, got {d0!r}")
    if not isinstance(doc["passthrough"], bool):
        raise ValueError(f"passthrough must be true or false, got {doc['passthrough']!r}")
    if not isinstance(doc["activation"], str):
        raise ValueError(f"activation must be a string, got {doc['activation']!r}")

    layers = []
    for k, entry in enumerate(_list(doc["layers"], "layers")):
        where = f"layers[{k}]"
        _entry(entry, where, ("b",), ("W", "U"))
        w_x = _array(entry["W"], f"{where}.W") if "W" in entry else None
        w_z = _array(entry["U"], f"{where}.U") if "U" in entry else None
        b = _array(entry["b"], f"{where}.b")
        if w_x is None:  # a layer that does not read x: its block is b alone
            w_x = np.empty(b.shape[:1] + (0,))
        elif w_x.shape[1:] != (d0,):
            raise DimensionError(f"d0 differs from the column count of {where}.W")
        layers.append(LayerParams(w_z, affine_block(w_x, b)))

    def branches(name: str, weight: str, proj: str, offset: str) -> tuple:
        found = []
        for k, entry in enumerate(_list(doc[name], name)):
            where = f"{name}[{k}]"
            _entry(entry, where, (weight, proj, offset))
            found.append(BranchParams(
                _number(entry[weight], f"{where}.{weight}"),
                affine_block(_array(entry[proj], f"{where}.{proj}"),
                             _array(entry[offset], f"{where}.{offset}")),
            ))
        return tuple(found)

    params = SocIcnnParams(
        input_dim=d0,
        layers=tuple(layers),
        w_out=_array(doc["c"], "c"),
        w_skip=_array(doc["v"], "v"),
        b_out=_number(doc["b0"], "b0"),
        quad=branches("quad", "alpha", "B", "e"),
        conic=branches("conic", "lambda", "A", "d"),
        passthrough=doc["passthrough"],
        activation=doc["activation"],
    )
    _check_loaded(params)
    return params


def _check_loaded(params: SocIcnnParams) -> None:
    """Reject a model that is malformed, non-finite or not convex.

    The shapes are compared with those of a model drawn from the model's
    own sizes, which also checks the activation and the sizes themselves.
    """
    reference = init_model(
        params.input_dim,
        params.widths,
        [br.affine.shape[0] for br in params.quad],
        [br.affine.shape[0] for br in params.conic],
        params.passthrough,
        params.activation,
        seed=0,
    )
    if [np.shape(v) for v, _ in _leaves(params)] != [np.shape(v) for v, _ in _leaves(reference)]:
        raise DimensionError("array shapes disagree with the widths, branch sizes or passthrough")
    if not np.all(np.isfinite(flatten_params(params))):
        raise ValueError("model contains non-finite values")
    worst = max_infeasibility(params)
    if worst > 0.0:
        raise ConstraintError(f"a sign-constrained entry is negative (violation {worst:.3g})")


def save_model(params: SocIcnnParams, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_json_dict(params), fh)
        fh.write("\n")


def load_model(path) -> SocIcnnParams:
    with open(path) as fh:
        return from_json_dict(json.load(fh))
