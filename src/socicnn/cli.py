"""Command-line entry point.

Subcommands:

* ``train``      fit one model variant to a named convex target
* ``verify``     random-model sweep of the optimality diagnostics
* ``benchmark``  budget-matched variant comparison over targets and seeds
* ``decide``     end-to-end surrogate decision pipeline with regret scoring
* ``theory``     tangent-net rates against the piece lower bound

Every run writes a manifest (all flags plus the library version) and its
artifacts under --out; nothing outside that directory is touched.  All
randomness derives from --seed, so reruns are byte-identical.  Each
subcommand returns its failure lines; with --check, ``main`` prints them as
``check failed:`` lines and exits 1.  A subcommand fails when:

* ``train``      its relative test error is not finite
* ``verify``     the primal-dual gap or the oracle error is above 1e-9, or
  any other diagnostics row is above 1e-10
* ``benchmark``  a variant's parameter count is below the SOC anchor's
* ``decide``     a row's ``oracle_gap`` is above ``CERTIFIED_GAP`` or its
  regret below -``CERTIFIED_GAP``
* ``theory``     a dimension's log-log slope is not within +-0.25 of -2/d,
  or a net has fewer pieces than the lower bound
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import List

import numpy as np

from . import __version__
from .certificate import MAX_LIFT_VARIABLES, run_verification_trials, summarize_reports
from .decisions import (
    CERTIFIED_GAP,
    FAMILIES,
    decide_instance,
    hash_key,
    make_task,
    sample_context,
)
from .model import save_model, spawn_rng
from .targets import TARGET_NAMES, make_target
from .theory import MAX_NET_POINTS, absorption_rate_rows, loglog_slope
from .training import (
    VARIANTS,
    TrainConfig,
    anchor_width,
    fit_variant_to_target,
    variant_param_count,
)

GAP_THRESHOLD = 1e-9
ORACLE_THRESHOLD = 1e-9
FEASIBILITY_THRESHOLD = 1e-10
# a certified oracle's value is within CERTIFIED_GAP of the minimum
REGRET_FLOOR = -CERTIFIED_GAP

# verify --check limits; every other metric is held to FEASIBILITY_THRESHOLD
_VERIFY_LIMITS = {
    "primal_dual_gap": GAP_THRESHOLD,
    "forward_vs_oracle_abs_err": ORACLE_THRESHOLD,
}


def _write_json(path: Path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _prepare_out(args: argparse.Namespace) -> Path:
    """Create --out and write its manifest: every flag, the seed and the
    library version."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    flags = {k: v for k, v in vars(args).items() if k != "func"}
    flags["out"] = str(flags["out"])
    _write_json(out / "manifest.json", {
        "subcommand": args.subcommand,
        "seed": args.seed,
        "version": __version__,
        "flags": flags,
    })
    return out


def _write_csv(path: Path, rows) -> None:
    """Rows as CSV, with the keys of the first row as the header."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {k: repr(float(v)) if isinstance(v, float) else v for k, v in row.items()}
            )


def _train_config(args: argparse.Namespace, seed: int) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.lr,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# train


def cmd_train(args: argparse.Namespace, out: Path) -> List[str]:
    target = make_target(args.target, args.d, args.target_seed)
    result = fit_variant_to_target(
        target,
        args.variant,
        args.seed,
        n_train=args.train_n,
        n_val=args.val_n,
        n_test=args.test_n,
        lo=args.lo,
        hi=args.hi,
        config=_train_config(args, args.seed),
        passthrough=not args.no_passthrough,
    )
    save_model(result["model"], out / "model.json")
    columns = ("epoch", "train_loss", "val_loss")
    _write_csv(out / "history.csv", [dict(zip(columns, row)) for row in result["history"]])
    keys = ("target", "variant", "d", "seed", "width", "depth", "params", "rel_err")
    _write_json(out / "result.json", {k: result[k] for k in keys})
    print(f"train: {args.variant} on {args.target} d={args.d} rel_err={result['rel_err']:.4g}")
    return [] if np.isfinite(result["rel_err"]) else ["non-finite relative error"]


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args: argparse.Namespace, out: Path) -> List[str]:
    trials_per_setting = args.trials // 2 + args.trials % 2
    doc = {"config": {"d0": args.d0, "width": args.width, "depth": args.depth,
                      "quad": args.quad, "conic": args.conic, "seed": args.seed}}
    failures = []
    for passthrough in (False, True):
        count = trials_per_setting if passthrough else args.trials - trials_per_setting
        if count == 0:
            continue
        reports = run_verification_trials(
            count,
            args.d0,
            args.width,
            args.depth,
            args.quad,
            args.conic,
            passthrough,
            args.seed,
        )
        summary = summarize_reports(reports)
        key = f"passthrough_{str(passthrough).lower()}"
        doc[key] = {"trials": len(reports), "metrics": summary, "reports": reports}
        for name, stats in summary.items():
            if not stats["max"] <= _VERIFY_LIMITS.get(name, FEASIBILITY_THRESHOLD):
                failures.append(f"{key}: {name} {stats['max']:.3e}")
        print(
            f"verify[{key}]: trials={len(reports)} "
            f"max_gap={summary['primal_dual_gap']['max']:.3e} "
            f"max_oracle_err={summary['forward_vs_oracle_abs_err']['max']:.3e}"
        )
    _write_json(out / "diagnostics.json", doc)
    return failures


# ---------------------------------------------------------------------------
# benchmark


def cmd_benchmark(args: argparse.Namespace, out: Path) -> List[str]:
    width = anchor_width(args.d)
    anchor_count = variant_param_count(args.d, width, 2, "SOC")
    rows = []
    failures = []
    for target_name in args.targets.split(","):
        target = make_target(target_name, args.d, args.target_seed)
        for variant in args.variants.split(","):
            errs = []
            for seed_index in range(args.seeds):
                # repetition seeds are shared across variants so every model
                # sees identical train/val/test draws
                seed = int(spawn_rng(args.seed, hash_key(target_name), seed_index).integers(2**62))
                result = fit_variant_to_target(
                    target,
                    variant,
                    seed,
                    n_train=args.train_n,
                    n_val=args.val_n,
                    n_test=args.test_n,
                    config=_train_config(args, seed),
                )
                errs.append(result["rel_err"])
            if result["params"] < anchor_count:
                failures.append(f"{target_name} {variant}: {result['params']} parameters, "
                                f"below the SOC anchor's {anchor_count}")
            rows.append(
                {
                    "target": target_name,
                    "model": variant,
                    "d": args.d,
                    "rel_err_mean": float(np.mean(errs)),
                    "rel_err_std": float(np.std(errs)),
                    "params": result["params"],
                    "depth": result["depth"],
                }
            )
            print(
                f"benchmark: {target_name} {variant} d={args.d} "
                f"rel_err={np.mean(errs):.4g}±{np.std(errs):.2g} params={result['params']}"
            )
    _write_csv(out / "results.csv", rows)
    return failures


# ---------------------------------------------------------------------------
# decide


def cmd_decide(args: argparse.Namespace, out: Path) -> List[str]:
    rows = []
    failures = []
    for family in args.families.split(","):
        fam_key = hash_key(family)
        task = make_task(family, args.d, args.seed)
        regrets = []
        for index in range(args.instances):
            theta = sample_context(args.seed, fam_key, index)
            report, _ = decide_instance(
                task,
                theta,
                args.model,
                spawn_rng(args.seed, fam_key, index, 1),
                candidates=args.candidates,
                restarts=args.restarts,
                steps=args.steps,
                oracle_config=(args.oracle_restarts, args.oracle_steps),
                surrogate_width=args.surrogate_width,
                surrogate_epochs=args.surrogate_epochs,
                surrogate_lr=args.surrogate_lr,
            )
            name = f"{family}:{index}"
            rows.append({"task": name, "family": family, "d": args.d, "seed": args.seed,
                         "model": args.model, **asdict(report)})
            regrets.append(report.regret)
            if not report.oracle_gap <= CERTIFIED_GAP:
                failures.append(f"{name}: oracle gap {report.oracle_gap:.3e} above {CERTIFIED_GAP}")
            if not report.regret >= REGRET_FLOOR:
                failures.append(f"{name}: regret {report.regret:.3e} below {REGRET_FLOOR}")
        print(
            f"decide: {family} d={args.d} n={args.instances} "
            f"mean_regret={np.mean(regrets):.4g} min_regret={np.min(regrets):.3e}"
        )
    _write_csv(out / "decisions.csv", rows)
    return failures


# ---------------------------------------------------------------------------
# theory


def cmd_theory(args: argparse.Namespace, out: Path) -> List[str]:
    dims = [int(v) for v in args.dims.split(",")]
    cells = [int(v) for v in args.cells.split(",")]
    rows = absorption_rate_rows(dims, cells, num_samples=args.samples, seed=args.seed)
    _write_csv(out / "theory.csv", rows)
    failures = []
    for dim in dims:
        sub = [r for r in rows if r["d"] == dim]
        slope = loglog_slope([r["N"] for r in sub], [r["sup_error"] for r in sub])
        expected = -2.0 / dim
        within = abs(slope - expected) <= 0.25
        print(f"theory: d={dim} slope={slope:.3f} (target {expected:.3f}) within=+-0.25: {within}")
        failed = [] if within else [f"slope {slope:.3f} not within 0.25 of the target {expected:.3f}"]
        short = [str(r["N"]) for r in sub if r["N"] < r["bound"]]
        if short:
            failed.append(f"fewer pieces than the lower bound at N={','.join(short)}")
        if failed:
            failures.append(f"d={dim}: " + "; ".join(failed))
    return failures


# ---------------------------------------------------------------------------
# parser


def _int_at_least(lower: int):
    """An argparse type for integers no smaller than ``lower``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lower:
            raise argparse.ArgumentTypeError(f"must be >= {lower}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _finite_float(positive: bool):
    """An argparse type for finite floats, strictly positive if ``positive``."""

    def parse(text: str) -> float:
        value = float(text)
        if not np.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        if positive and value <= 0:
            raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
        return value

    parse.__name__ = "float"  # argparse names the type in "invalid float value"
    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)
_dimension = _int_at_least(2)  # targets and tasks need two coordinates
_finite = _finite_float(positive=False)
_learning_rate = _finite_float(positive=True)


def _ints(text: str) -> list:
    """The entries of a comma-separated list of integers; [] if one is not."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        return []


def _dims(text: str) -> str:
    """A comma-separated list of positive dimensions; kept as text for the
    manifest."""
    if min(_ints(text), default=0) < 1:
        raise argparse.ArgumentTypeError(f"needs positive dimensions, got {text!r}")
    return text


def _cell_counts(text: str) -> str:
    """A comma-separated list of at least two distinct positive cell counts,
    so that a slope can be fitted; kept as text for the manifest."""
    cells = _ints(text)
    if min(cells, default=0) < 1 or len(set(cells)) < 2:
        raise argparse.ArgumentTypeError(
            f"needs at least two distinct positive cell counts, got {text!r}"
        )
    return text


def _names(noun: str, valid):
    """An argparse type for a comma-separated list of distinct names from
    ``valid``; kept as text for the manifest."""

    def parse(text: str) -> str:
        seen = set()
        for name in text.split(","):
            if name not in valid:
                raise argparse.ArgumentTypeError(
                    f"unknown {noun} {name!r}; valid names: {', '.join(valid)}"
                )
            if name in seen:
                raise argparse.ArgumentTypeError(f"{noun} {name!r} is named twice")
            seen.add(name)
        return text

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="socicnn", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=f"runs/{name}")
        p.add_argument("--check", action="store_true", help="exit nonzero on threshold breach")
        p.set_defaults(func=func)
        return p

    def training(p):
        """The data and optimiser flags that train and benchmark share."""
        p.add_argument("--target-seed", type=int, default=0)
        p.add_argument("--train-n", type=_positive_int, default=2000)
        p.add_argument("--val-n", type=_positive_int, default=1000)
        p.add_argument("--test-n", type=_positive_int, default=2000)
        p.add_argument("--epochs", type=_positive_int, default=400)
        p.add_argument("--batch-size", type=_positive_int, default=128)
        p.add_argument("--lr", type=_learning_rate, default=1e-3)

    p = command("train", cmd_train, "fit one variant to a named target")
    p.add_argument("--target", required=True, choices=TARGET_NAMES)
    p.add_argument("--d", type=_dimension, default=10)
    p.add_argument("--variant", default="SOC", choices=VARIANTS)
    training(p)
    p.add_argument("--lo", type=_finite, default=-3.0)
    p.add_argument("--hi", type=_finite, default=3.0)
    p.add_argument("--no-passthrough", action="store_true")

    p = command("verify", cmd_verify, "random-model optimality diagnostics")
    p.add_argument("--trials", type=_positive_int, default=150)
    p.add_argument("--d0", type=_positive_int, default=20)
    p.add_argument("--width", type=_positive_int, default=32)
    p.add_argument("--depth", type=_positive_int, default=3)
    p.add_argument("--quad", type=_nonnegative_int, default=2)
    p.add_argument("--conic", type=_nonnegative_int, default=2)

    p = command("benchmark", cmd_benchmark, "budget-matched variant comparison")
    p.add_argument("--targets", "--target", type=_names("target", TARGET_NAMES),
                   default="NormEuclid,QuadraticIso", help="comma-separated target names")
    p.add_argument("--d", type=_dimension, default=10)
    p.add_argument("--variants", type=_names("variant", VARIANTS),
                   default="ReLU,Softplus,QuadOnly,NormOnly,SOC")
    p.add_argument("--seeds", type=_positive_int, default=3)
    training(p)

    p = command("decide", cmd_decide, "surrogate decision pipeline with regret")
    p.add_argument("--families", type=_names("family", FAMILIES),
                   default="SimplexSocp,BudgetHuber")
    p.add_argument("--d", type=_dimension, default=10)
    p.add_argument("--instances", type=_positive_int, default=50)
    p.add_argument("--model", default="QuadOnly", choices=VARIANTS)
    p.add_argument("--candidates", type=_positive_int, default=64)
    p.add_argument("--restarts", type=_positive_int, default=5)
    p.add_argument("--steps", type=_positive_int, default=200)
    p.add_argument("--oracle-restarts", type=_positive_int, default=20)
    p.add_argument("--oracle-steps", type=_positive_int, default=2000,
                   help="cap on the oracle's objective evaluations: at most this "
                   "many plus one, each over every restart; it stops sooner once certified")
    p.add_argument("--surrogate-width", type=_positive_int, default=8)
    p.add_argument("--surrogate-epochs", type=_positive_int, default=300)
    p.add_argument("--surrogate-lr", type=_learning_rate, default=1e-2)

    p = command("theory", cmd_theory, "tangent-net rates and the piece bound")
    p.add_argument("--dims", type=_dims, default="1,2")
    p.add_argument("--cells", type=_cell_counts, default="2,4,8,16")
    p.add_argument("--samples", type=_positive_int, default=100_000)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the sampling range needs lo < hi and a width that does not overflow
    if args.subcommand == "train" and not 0 < args.hi - args.lo < np.inf:
        parser.error(f"train: needs --lo below --hi with a finite width, "
                     f"got --lo={args.lo!r} --hi={args.hi!r}")
    # the lift has one variable per hidden unit
    if args.subcommand == "verify" and args.width * args.depth > MAX_LIFT_VARIABLES:
        parser.error(f"verify: --width times --depth is the lift's variable count, at most "
                     f"{MAX_LIFT_VARIABLES}, got --width={args.width} --depth={args.depth}")
    # the largest net has max(cells) ** max(dims) points; logs avoid a huge power
    if args.subcommand == "theory":
        dims = max(int(v) for v in args.dims.split(","))
        cells = max(int(v) for v in args.cells.split(","))
        if dims * np.log2(cells) > np.log2(MAX_NET_POINTS):
            parser.error(f"theory: a net has --cells to the power --dims points, at most "
                         f"{MAX_NET_POINTS}, got --cells={cells} --dims={dims}")
    failures = args.func(args, _prepare_out(args))
    if not (args.check and failures):
        return 0
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
