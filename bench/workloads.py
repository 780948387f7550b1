"""The three benchmark workloads: fixed inputs, one timed library call per
item, and the correctness gate every item must pass.

A workload is a closed loop with one worker.  Items come in fixed rounds in
which every item class appears equally often, and runs stop only at a round
boundary, so every run has the same mix of classes whatever its length.  All
inputs derive from the workload seed; the library receives only the inputs
generated here.

Library functions are always looked up as module attributes at call time
(``certificate.run_verification_trials``, not a name bound at import), so the
traced run sees the calls through the wrappers it installs.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from socicnn import certificate, cli, decisions, model, targets, training
from socicnn.cli import FEASIBILITY_THRESHOLD, GAP_THRESHOLD, ORACLE_THRESHOLD, REGRET_FLOOR

# Every pool of per-item inputs holds this many rounds; a longer run wraps
# around and repeats items, which the library does not cache.
POOL_ROUNDS = 1000

# The nine feasibility and tightness rows of a diagnostics report: every
# field except the gap and the oracle error.
FEASIBILITY_ROWS = tuple(
    f.name
    for f in dataclasses.fields(certificate.DiagnosticsReport)
    if f.name not in ("primal_dual_gap", "forward_vs_oracle_abs_err")
)

# certify: (class, d0, width, depth); the lift has n = width * depth variables.
CERTIFY_SIZES = (
    ("n32", 10, 16, 2),
    ("n96", 20, 32, 3),
    ("n192", 20, 64, 3),
)
CERTIFY_QUAD = 2
CERTIFY_CONIC = 2

# fit: ten (target, variant) cells, every variant twice and every target once.
FIT_DIM = 10
FIT_CELLS = (
    ("QuadraticIso", "ReLU"),
    ("QuadraticAniso", "Softplus"),
    ("NormEuclid", "QuadOnly"),
    ("NormAniso", "NormOnly"),
    ("Mixed", "SOC"),
    ("SoftplusSum", "ReLU"),
    ("LogSumExpQuad", "Softplus"),
    ("Huber", "QuadOnly"),
    ("L1Norm", "NormOnly"),
    ("ICKANPaperTarget", "SOC"),
)
# Reduced from the CLI's 400 so that a 25 s run holds over a hundred cells;
# the per-step work (gradients, Adam, unflattening) is the same at any count.
FIT_EPOCHS = 20

# decide: the `socicnn decide` defaults at the commit that defined this
# benchmark, pinned here so that a change of CLI defaults cannot change the
# work measured.
DECIDE_DIM = 10
DECIDE_SETTINGS = dict(
    model_variant="QuadOnly",
    candidates=64,
    restarts=5,
    steps=200,
    oracle_config=(20, 2000),
    surrogate_width=8,
    surrogate_epochs=300,
    surrogate_lr=1e-2,
)
PROJECTION_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """One workload's fixed inputs, bound into its three callbacks.

    ``call(i)`` runs item i through the library and is the only timed part;
    an item still running after ``timeout_s`` wall seconds is stopped and
    fails, so that a stalled solver cannot hold a run past its time limit.
    ``gate(i, result)`` returns the reasons the result is wrong (empty when it
    is correct).  ``observe(result)`` extracts the figures ``summarize`` turns
    into the workload's result metrics.
    """

    name: str
    classes: Tuple[str, ...]
    call: Callable[[int], Any]
    gate: Callable[[int, Any], List[str]]
    observe: Callable[[Any], Dict[str, float]]
    summarize: Callable[[List[Dict[str, float]]], Dict[str, Tuple[float, str]]]
    timeout_s: float

    @property
    def round_size(self) -> int:
        return len(self.classes)


def _pool_seeds(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.integers(0, 2**62, size=size)


# ---------------------------------------------------------------------------
# certify


def gate_certify(report: dict) -> List[str]:
    failures = []
    if not report["primal_dual_gap"] <= GAP_THRESHOLD:
        failures.append(f"primal_dual_gap {report['primal_dual_gap']:.3e}")
    if not report["forward_vs_oracle_abs_err"] <= ORACLE_THRESHOLD:
        failures.append(f"forward_vs_oracle_abs_err {report['forward_vs_oracle_abs_err']:.3e}")
    for name in FEASIBILITY_ROWS:
        if not report[name] <= FEASIBILITY_THRESHOLD:
            failures.append(f"{name} {report[name]:.3e}")
    return failures


def certify(seed: int) -> Workload:
    """One item is one trial of run_verification_trials, with passthrough on.

    A round goes over the three sizes once.  Passthrough stays on because the
    dense simplex oracle fails on some passthrough-off models (see
    README.md, "Known failures"): an item that raises or stalls there would
    measure that defect instead of the certificate path.
    """
    classes = tuple(name for name, _, _, _ in CERTIFY_SIZES)
    seeds = _pool_seeds(np.random.default_rng([seed, 0]), len(classes) * POOL_ROUNDS)

    def call(i: int) -> dict:
        _, d0, width, depth = CERTIFY_SIZES[i % len(classes)]
        (report,) = certificate.run_verification_trials(
            1, d0, width, depth, CERTIFY_QUAD, CERTIFY_CONIC, True, int(seeds[i % seeds.size])
        )
        return report

    def summarize(obs):
        return {
            "max_gap": (max(o["gap"] for o in obs), "1"),
            "max_oracle_err": (max(o["oracle_err"] for o in obs), "1"),
        }

    return Workload(
        name="certify",
        classes=classes,
        call=call,
        gate=lambda i, report: gate_certify(report),
        observe=lambda r: {"gap": r["primal_dual_gap"], "oracle_err": r["forward_vs_oracle_abs_err"]},
        summarize=summarize,
        timeout_s=5.0,  # over 20 times the slowest n192 item seen
    )


# ---------------------------------------------------------------------------
# fit


def fit_anchor_count() -> int:
    """Parameter count of the SOC anchor, the floor of `benchmark --check`."""
    return training.variant_param_count(FIT_DIM, training.anchor_width(FIT_DIM), 2, "SOC")


def gate_fit(result: dict, anchor: int) -> List[str]:
    failures = []
    if not math.isfinite(result["rel_err"]):
        failures.append(f"rel_err {result['rel_err']}")
    infeasibility = model.max_infeasibility(result["model"])
    if infeasibility != 0.0:
        failures.append(f"max_infeasibility {infeasibility:.3e}")
    if result["params"] < anchor:
        failures.append(f"params {result['params']} below the anchor {anchor}")
    return failures


def fit(seed: int) -> Workload:
    """One item is one fit_variant_to_target cell at d=10."""
    rng = np.random.default_rng([seed, 1])
    target_seed = int(rng.integers(2**31))
    fns = {name: targets.make_target(name, FIT_DIM, target_seed) for name, _ in FIT_CELLS}
    seeds = _pool_seeds(rng, len(FIT_CELLS) * POOL_ROUNDS)
    anchor = fit_anchor_count()

    def call(i: int) -> dict:
        name, variant = FIT_CELLS[i % len(FIT_CELLS)]
        cell_seed = int(seeds[i % seeds.size])
        config = training.TrainConfig(epochs=FIT_EPOCHS, seed=cell_seed)
        return training.fit_variant_to_target(fns[name], variant, cell_seed, config=config)

    return Workload(
        name="fit",
        classes=tuple(variant for _, variant in FIT_CELLS),
        call=call,
        gate=lambda i, result: gate_fit(result, anchor),
        observe=lambda r: {"rel_err": r["rel_err"]},
        summarize=lambda obs: {"rel_err_mean": (float(np.mean([o["rel_err"] for o in obs])), "1")},
        timeout_s=10.0,  # 30 times the slowest cell seen
    )


# ---------------------------------------------------------------------------
# decide


def decide_home():
    """The module that holds decide_instance: `cli` today, `decisions` once
    the pipeline moves out of the command-line module."""
    return decisions if hasattr(decisions, "decide_instance") else cli


def gate_decide(result, feasible) -> List[str]:
    report, x_hat = result
    failures = []
    if not report.regret >= REGRET_FLOOR:
        failures.append(f"regret {report.regret:.3e} below {REGRET_FLOOR}")
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if not np.all(np.isfinite(x_hat)):
        failures.append("x_hat is not finite")
    else:
        moved = float(np.max(np.abs(decisions.project_onto(feasible, x_hat) - x_hat)))
        if moved > PROJECTION_TOL:
            failures.append(f"x_hat is {moved:.3e} from its projection")
    return failures


def decide(seed: int) -> Workload:
    """One item is one decide_instance call; the six families go round-robin."""
    rng = np.random.default_rng([seed, 2])
    task_seed = int(rng.integers(2**31))
    tasks = [decisions.make_task(family, DECIDE_DIM, task_seed) for family in decisions.FAMILIES]
    size = len(tasks) * POOL_ROUNDS
    contexts = rng.uniform(-1.0, 1.0, (size, decisions.THETA_DIM))
    seeds = _pool_seeds(rng, size)

    def call(i: int):
        return decide_home().decide_instance(
            tasks[i % len(tasks)],
            contexts[i % size],
            instance_rng=np.random.default_rng(int(seeds[i % size])),
            **DECIDE_SETTINGS,
        )

    return Workload(
        name="decide",
        classes=tuple(decisions.FAMILIES),
        call=call,
        gate=lambda i, result: gate_decide(result, tasks[i % len(tasks)].feasible_set),
        observe=lambda r: {"regret": r[0].regret},
        summarize=lambda obs: {"regret_mean": (float(np.mean([o["regret"] for o in obs])), "1")},
        timeout_s=30.0,  # 10 times the slowest Budget item seen
    )


WORKLOADS = {"certify": certify, "fit": fit, "decide": decide}
