"""Command-line entry point.

Subcommands:

* ``train``      fit one model variant to a named convex target
* ``verify``     random-model sweep of the optimality diagnostics
* ``benchmark``  budget-matched variant comparison over targets and seeds
* ``decide``     end-to-end surrogate decision pipeline with regret scoring
* ``theory``     tangent-net rates against the piece lower bound

Every run writes a manifest (all flags plus the library version) and its
artifacts under --out; nothing outside that directory is touched.  All
randomness derives from --seed, so reruns are byte-identical.  With --check
a subcommand exits nonzero when its quality thresholds are breached.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .certificate import run_verification_trials, summarize_reports
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
from .theory import absorption_rate_rows, loglog_slope
from .training import (
    VARIANTS,
    TrainConfig,
    anchor_width,
    fit_variant_to_target,
    save_history_csv,
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


def _write_manifest(out: Path, args: argparse.Namespace) -> None:
    flags = {k: v for k, v in vars(args).items() if k != "func"}
    flags["out"] = str(flags["out"])
    doc = {
        "subcommand": args.subcommand,
        "seed": args.seed,
        "version": __version__,
        "flags": flags,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _prepare_out(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_manifest(out, args)
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


def cmd_train(args: argparse.Namespace) -> int:
    out = _prepare_out(args)
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
    save_history_csv(result["history"], out / "history.csv")
    summary = {k: result[k] for k in ("target", "variant", "d", "seed", "width", "depth", "params")}
    summary["rel_err"] = result["rel_err"]
    with open(out / "result.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"train: {args.variant} on {args.target} d={args.d} rel_err={result['rel_err']:.4g}")
    if args.check and not np.isfinite(result["rel_err"]):
        print("check failed: non-finite relative error", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args: argparse.Namespace) -> int:
    out = _prepare_out(args)
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
            if stats["max"] > _VERIFY_LIMITS.get(name, FEASIBILITY_THRESHOLD):
                failures.append(f"{key}: {name} {stats['max']:.3e}")
        print(
            f"verify[{key}]: trials={len(reports)} "
            f"max_gap={summary['primal_dual_gap']['max']:.3e} "
            f"max_oracle_err={summary['forward_vs_oracle_abs_err']['max']:.3e}"
        )
    with open(out / "diagnostics.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if args.check and failures:
        for line in failures:
            print(f"check failed: {line}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# benchmark


def cmd_benchmark(args: argparse.Namespace) -> int:
    out = _prepare_out(args)
    targets = args.targets.split(",")
    variants = args.variants.split(",")
    width = anchor_width(args.d)
    anchor_count = variant_param_count(args.d, width, 2, "SOC")
    rows = []
    fairness_ok = True
    for target_name in targets:
        target = make_target(target_name, args.d, args.target_seed)
        for variant in variants:
            errs = []
            params_count = None
            depth = None
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
                params_count = result["params"]
                depth = result["depth"]
            fairness_ok &= params_count >= anchor_count
            rows.append(
                {
                    "target": target_name,
                    "model": variant,
                    "d": args.d,
                    "rel_err_mean": float(np.mean(errs)),
                    "rel_err_std": float(np.std(errs)),
                    "params": params_count,
                    "depth": depth,
                }
            )
            print(
                f"benchmark: {target_name} {variant} d={args.d} "
                f"rel_err={np.mean(errs):.4g}±{np.std(errs):.2g} params={params_count}"
            )
    _write_csv(out / "results.csv", rows)
    if args.check and not fairness_ok:
        print("check failed: a baseline parameter count fell below the anchor", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# decide


def cmd_decide(args: argparse.Namespace) -> int:
    out = _prepare_out(args)
    families = args.families.split(",")
    rows = []
    worst_regret = 0.0
    for family in families:
        fam_key = hash_key(family)
        task = make_task(family, args.d, args.seed)
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
            worst_regret = min(worst_regret, report.regret)
            rows.append(
                {
                    "task": f"{family}:{index}",
                    "family": family,
                    "d": args.d,
                    "seed": args.seed,
                    "model": args.model,
                    "regret": report.regret,
                    "oracle_gap": report.oracle_gap,
                    "decision_error": report.decision_error,
                    "surrogate_value": report.surrogate_value_at_decision,
                    "true_value": report.true_value_at_decision,
                }
            )
        regrets = [r["regret"] for r in rows if r["family"] == family]
        print(
            f"decide: {family} d={args.d} n={args.instances} "
            f"mean_regret={np.mean(regrets):.4g} min_regret={np.min(regrets):.3e}"
        )
    _write_csv(out / "decisions.csv", rows)
    if args.check and worst_regret < REGRET_FLOOR:
        print(f"check failed: regret {worst_regret:.3e} below {REGRET_FLOOR}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# theory


def cmd_theory(args: argparse.Namespace) -> int:
    out = _prepare_out(args)
    dims = [int(v) for v in args.dims.split(",")]
    cells = [int(v) for v in args.cells.split(",")]
    rows = absorption_rate_rows(dims, cells, num_samples=args.samples, seed=args.seed)
    _write_csv(out / "theory.csv", rows)
    ok = True
    for dim in dims:
        sub = [r for r in rows if r["d"] == dim]
        slope = loglog_slope([r["N"] for r in sub], [r["sup_error"] for r in sub])
        expected = -2.0 / dim
        within = abs(slope - expected) <= 0.25
        ok &= within
        ok &= all(r["N"] >= r["bound"] for r in sub)
        print(f"theory: d={dim} slope={slope:.3f} (target {expected:.3f}) within=+-0.25: {within}")
    if args.check and not ok:
        print("check failed: rate slope or piece bound violated", file=sys.stderr)
        return 1
    return 0


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


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)
_dimension = _int_at_least(2)  # targets and tasks need two coordinates


def _dims(text: str) -> str:
    """A comma-separated list of positive dimensions; kept as text for the
    manifest."""
    if min(int(v) for v in text.split(",")) < 1:
        raise argparse.ArgumentTypeError(f"needs positive dimensions, got {text!r}")
    return text


def _cell_counts(text: str) -> str:
    """A comma-separated list of at least two distinct positive cell counts,
    so that a slope can be fitted; kept as text for the manifest."""
    cells = [int(v) for v in text.split(",")]
    if min(cells) < 1 or len(set(cells)) < 2:
        raise argparse.ArgumentTypeError(
            f"needs at least two distinct positive cell counts, got {text!r}"
        )
    return text


def _names(noun: str, valid):
    """An argparse type for a comma-separated list of names from ``valid``;
    kept as text for the manifest."""

    def parse(text: str) -> str:
        for name in text.split(","):
            if name not in valid:
                raise argparse.ArgumentTypeError(
                    f"unknown {noun} {name!r}; valid names: {', '.join(valid)}"
                )
        return text

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="socicnn", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, default_out):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=default_out)
        p.add_argument("--check", action="store_true", help="exit nonzero on threshold breach")

    p = sub.add_parser("train", help="fit one variant to a named target")
    common(p, "runs/train")
    p.add_argument("--target", required=True, choices=TARGET_NAMES)
    p.add_argument("--d", type=_dimension, default=10)
    p.add_argument("--variant", default="SOC", choices=VARIANTS)
    p.add_argument("--target-seed", type=int, default=0)
    p.add_argument("--train-n", type=_positive_int, default=2000)
    p.add_argument("--val-n", type=_positive_int, default=1000)
    p.add_argument("--test-n", type=_positive_int, default=2000)
    p.add_argument("--lo", type=float, default=-3.0)
    p.add_argument("--hi", type=float, default=3.0)
    p.add_argument("--epochs", type=_positive_int, default=400)
    p.add_argument("--batch-size", type=_positive_int, default=128)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--no-passthrough", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("verify", help="random-model optimality diagnostics")
    common(p, "runs/verify")
    p.add_argument("--trials", type=_positive_int, default=150)
    p.add_argument("--d0", type=_positive_int, default=20)
    p.add_argument("--width", type=_positive_int, default=32)
    p.add_argument("--depth", type=_positive_int, default=3)
    p.add_argument("--quad", type=_nonnegative_int, default=2)
    p.add_argument("--conic", type=_nonnegative_int, default=2)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("benchmark", help="budget-matched variant comparison")
    common(p, "runs/benchmark")
    p.add_argument("--targets", "--target", type=_names("target", TARGET_NAMES),
                   default="NormEuclid,QuadraticIso", help="comma-separated target names")
    p.add_argument("--d", type=_dimension, default=10)
    p.add_argument("--variants", type=_names("variant", VARIANTS),
                   default="ReLU,Softplus,QuadOnly,NormOnly,SOC")
    p.add_argument("--seeds", type=_positive_int, default=3)
    p.add_argument("--target-seed", type=int, default=0)
    p.add_argument("--train-n", type=_positive_int, default=2000)
    p.add_argument("--val-n", type=_positive_int, default=1000)
    p.add_argument("--test-n", type=_positive_int, default=2000)
    p.add_argument("--epochs", type=_positive_int, default=400)
    p.add_argument("--batch-size", type=_positive_int, default=128)
    p.add_argument("--lr", type=float, default=1e-3)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("decide", help="surrogate decision pipeline with regret")
    common(p, "runs/decide")
    p.add_argument("--families", type=_names("family", FAMILIES),
                   default="SimplexSocp,BudgetHuber")
    p.add_argument("--d", type=_dimension, default=10)
    p.add_argument("--instances", type=_positive_int, default=50)
    p.add_argument("--model", default="QuadOnly", choices=VARIANTS)
    p.add_argument("--candidates", type=_positive_int, default=64)
    p.add_argument("--restarts", type=_positive_int, default=5)
    p.add_argument("--steps", type=_positive_int, default=200)
    p.add_argument("--oracle-restarts", type=_positive_int, default=20)
    p.add_argument("--oracle-steps", type=_positive_int, default=2000)
    p.add_argument("--surrogate-width", type=_positive_int, default=8)
    p.add_argument("--surrogate-epochs", type=_positive_int, default=300)
    p.add_argument("--surrogate-lr", type=float, default=1e-2)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("theory", help="tangent-net rates and the piece bound")
    common(p, "runs/theory")
    p.add_argument("--dims", type=_dims, default="1,2")
    p.add_argument("--cells", type=_cell_counts, default="2,4,8,16")
    p.add_argument("--samples", type=_positive_int, default=100_000)
    p.set_defaults(func=cmd_theory)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
