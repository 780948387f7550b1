import csv
import inspect
import json
import math
from dataclasses import fields

import pytest

from socicnn import cli
from socicnn.certificate import _METRIC_FIELDS
from socicnn.cli import main
from socicnn.decisions import decide_instance
from socicnn.theory import absorption_rate_rows
from socicnn.training import TrainConfig, fit_variant_to_target


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_verify_writes_report_and_passes_check(tmp_path):
    out = tmp_path / "verify"
    code = main([
        "verify", "--trials", "6", "--d0", "6", "--width", "8", "--depth", "2",
        "--quad", "1", "--conic", "1", "--seed", "3", "--out", str(out), "--check",
    ])
    assert code == 0
    doc = json.loads((out / "diagnostics.json").read_text())
    for key in ("passthrough_false", "passthrough_true"):
        metrics = doc[key]["metrics"]
        assert "primal_dual_gap" in metrics and "norm_dual_alignment_violation" in metrics
        assert metrics["primal_dual_gap"]["max"] <= 1e-9
        report = doc[key]["reports"][0]
        assert {"seed", "d0", "width", "depth", "passthrough"} <= set(report)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "verify"
    assert manifest["seed"] == 3
    assert manifest["version"]


def test_verify_check_passes_on_a_degenerate_passthrough_off_model(tmp_path):
    code = main([
        "verify", "--d0", "10", "--width", "16", "--depth", "2", "--quad", "2",
        "--conic", "2", "--trials", "2", "--seed", "2973684427430321761",
        "--out", str(tmp_path / "verify"), "--check",
    ])
    assert code == 0


def test_verify_with_one_trial_runs_only_the_passthrough_on_setting(tmp_path, capsys):
    out = tmp_path / "verify"
    assert main(["verify", "--trials", "1", "--d0", "3", "--width", "4", "--depth", "2",
                 "--out", str(out), "--check"]) == 0
    doc = json.loads((out / "diagnostics.json").read_text())
    assert set(doc) == {"config", "passthrough_true"}
    assert doc["passthrough_true"]["trials"] == 1
    assert "passthrough_false" not in capsys.readouterr().out


def test_verify_check_reports_every_breached_metric(tmp_path, capsys, monkeypatch):
    report = dict.fromkeys(_METRIC_FIELDS, 0.0)
    report.update(
        primal_dual_gap=2e-9,
        forward_vs_oracle_abs_err=3e-9,
        quad_tightness_slack=1e-9,
        norm_dual_ball_violation=5e-11,  # under the feasibility threshold
    )
    monkeypatch.setattr(
        "socicnn.cli.run_verification_trials",
        lambda count, *args: [dict(report) for _ in range(count)],
    )
    code = main(["verify", "--trials", "2", "--out", str(tmp_path / "v"), "--check"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"check failed: passthrough_{setting}: {line}"
        for setting in ("false", "true")
        for line in (
            "primal_dual_gap 2.000e-09",
            "forward_vs_oracle_abs_err 3.000e-09",
            "quad_tightness_slack 1.000e-09",
        )
    ]


def test_verify_check_fails_on_a_nan_metric(tmp_path, capsys, monkeypatch):
    def trials(count, *args):
        reports = [dict.fromkeys(_METRIC_FIELDS, 0.0) for _ in range(count)]
        reports[-1]["relu_primal_violation"] = math.nan
        return reports

    monkeypatch.setattr("socicnn.cli.run_verification_trials", trials)
    code = main(["verify", "--trials", "4", "--out", str(tmp_path / "v"), "--check"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"check failed: passthrough_{setting}: relu_primal_violation nan"
        for setting in ("false", "true")
    ]


@pytest.mark.parametrize("variant", ["SOC", "Softplus"])
def test_train_is_byte_identical_across_reruns(tmp_path, variant):
    args = [
        "train", "--target", "QuadraticIso", "--d", "5", "--variant", variant,
        "--seed", "1", "--epochs", "4", "--train-n", "200", "--val-n", "100",
        "--test-n", "100",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert (out_a / "model.json").read_bytes() == (out_b / "model.json").read_bytes()
    assert (out_a / "history.csv").read_bytes() == (out_b / "history.csv").read_bytes()
    result = json.loads((out_a / "result.json").read_text())
    assert result["variant"] == variant and result["d"] == 5


def test_history_csv(tmp_path, monkeypatch):
    # history.csv must read back to the history the run trained through
    results = []
    fit = cli.fit_variant_to_target

    def recorded(*args, **kwargs):
        results.append(fit(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "fit_variant_to_target", recorded)
    out = tmp_path / "train"
    assert main([
        "train", "--target", "NormEuclid", "--d", "3", "--epochs", "3",
        "--train-n", "32", "--val-n", "16", "--test-n", "16", "--out", str(out),
    ]) == 0
    lines = (out / "history.csv").read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss"
    history = results[0]["history"]
    assert len(history) == 3
    assert [(int(r["epoch"]), float(r["train_loss"]), float(r["val_loss"]))
            for r in read_csv(out / "history.csv")] == history


def test_train_rejects_unknown_target(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--target", "Nope", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "QuadraticIso" in err  # usage error lists the valid names


def test_train_with_an_unreachable_budget_exits_usage(tmp_path, capsys):
    # without passthrough a ReLU layer at d = 200 adds too few parameters for
    # any depth up to 64 to reach the two-layer SOC anchor
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--target", "NormEuclid", "--d", "200", "--variant", "ReLU",
              "--no-passthrough", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    for named in ("ReLU", "d=200", "width 32", "73193 parameters at depth 64", "anchor's 88123"):
        assert named in err
    assert not out.exists()


def test_benchmark_unknown_names_exit_usage(tmp_path, capsys):
    out = tmp_path / "bench"
    with pytest.raises(SystemExit) as exc:
        main(["benchmark", "--targets", "NotReal", "--out", str(out)])
    assert exc.value.code == 2
    assert "NormEuclid" in capsys.readouterr().err
    assert not out.exists()
    out = tmp_path / "bench2"
    with pytest.raises(SystemExit) as exc:
        main([
            "benchmark", "--targets", "NormEuclid", "--variants", "Huh", "--out", str(out),
        ])
    assert exc.value.code == 2
    assert not out.exists()


def test_benchmark_small_run(tmp_path):
    out = tmp_path / "bench"
    code = main([
        "benchmark", "--targets", "NormEuclid", "--d", "5", "--variants", "ReLU,SOC",
        "--seeds", "1", "--train-n", "200", "--val-n", "100", "--test-n", "200",
        "--epochs", "4", "--seed", "0", "--out", str(out), "--check",
    ])
    assert code == 0
    rows = read_csv(out / "results.csv")
    assert [r["model"] for r in rows] == ["ReLU", "SOC"]
    assert set(rows[0]) == {"target", "model", "d", "rel_err_mean", "rel_err_std",
                            "params", "depth"}
    soc = next(r for r in rows if r["model"] == "SOC")
    relu = next(r for r in rows if r["model"] == "ReLU")
    assert int(relu["params"]) >= int(soc["params"])  # budget fairness


SMALL_DECIDE = [
    "decide", "--families", "SimplexSocp", "--d", "5", "--instances", "2",
    "--candidates", "16", "--restarts", "2", "--steps", "60",
    "--oracle-restarts", "4", "--oracle-steps", "300",
    "--surrogate-epochs", "30", "--seed", "0",
]


def test_decide_small_run(tmp_path):
    out = tmp_path / "decide"
    code = main(SMALL_DECIDE + ["--out", str(out), "--check"])
    assert code == 0
    rows = read_csv(out / "decisions.csv")
    assert len(rows) == 2
    assert set(rows[0]) == {"task", "family", "d", "seed", "model", "regret", "oracle_gap",
                            "oracle_evals", "decision_error", "surrogate_value", "true_value",
                            "surrogate_evals", "surrogate_gap"}
    for row in rows:
        assert float(row["regret"]) >= -1e-9
        assert float(row["oracle_gap"]) <= 1e-9
        assert 1 <= int(row["oracle_evals"]) <= 2001


def test_decide_check_names_an_uncertified_oracle_row(tmp_path, capsys):
    out = tmp_path / "decide"
    code = main(SMALL_DECIDE + ["--oracle-steps", "1", "--out", str(out), "--check"])
    assert code == 1
    rows = read_csv(out / "decisions.csv")
    err = capsys.readouterr().err
    for row in rows:
        assert int(row["oracle_evals"]) == 2
        assert float(row["oracle_gap"]) > 1e-9
        assert f"check failed: {row['task']}: oracle gap" in err


def test_decide_is_byte_identical_across_reruns(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(SMALL_DECIDE + ["--out", str(out_a)]) == 0
    assert main(SMALL_DECIDE + ["--out", str(out_b)]) == 0
    assert (out_a / "decisions.csv").read_bytes() == (out_b / "decisions.csv").read_bytes()


def test_theory_run_and_check(tmp_path):
    out = tmp_path / "theory"
    code = main([
        "theory", "--dims", "1,2", "--cells", "2,4,8,16", "--samples", "40000",
        "--out", str(out), "--check",
    ])
    assert code == 0
    rows = read_csv(out / "theory.csv")
    assert set(rows[0]) == {"d", "N", "sup_error", "bound"}
    for row in rows:
        assert float(row["N"]) >= float(row["bound"])


def _defaults(func):
    return {name: p.default for name, p in inspect.signature(func).parameters.items()}


def test_cli_defaults_equal_the_library_defaults():
    # the flags repeat the library's defaults rather than read them; this
    # keeps the two from drifting apart
    parser = cli.build_parser()
    fit = _defaults(fit_variant_to_target)
    config = {f.name: f.default for f in fields(TrainConfig)}
    train = parser.parse_args(["train", "--target", "NormEuclid"])
    for args in (train, parser.parse_args(["benchmark"])):
        assert (args.train_n, args.val_n, args.test_n) == (
            fit["n_train"], fit["n_val"], fit["n_test"])
        assert (args.epochs, args.batch_size, args.lr) == (
            config["epochs"], config["batch_size"], config["learning_rate"])
    assert (train.lo, train.hi) == (fit["lo"], fit["hi"])

    decide = _defaults(decide_instance)
    args = parser.parse_args(["decide"])
    for name in ("candidates", "restarts", "steps", "surrogate_width", "surrogate_epochs",
                 "surrogate_lr"):
        assert getattr(args, name) == decide[name], name
    assert (args.oracle_restarts, args.oracle_steps) == decide["oracle_config"]

    theory = _defaults(absorption_rate_rows)
    args = parser.parse_args(["theory"])
    assert tuple(int(v) for v in args.dims.split(",")) == tuple(theory["dims"])
    assert tuple(int(v) for v in args.cells.split(",")) == tuple(theory["cells"])
    assert args.samples == theory["num_samples"]


def _patch_nan_rel_err(monkeypatch):
    fit = cli.fit_variant_to_target
    monkeypatch.setattr(cli, "fit_variant_to_target",
                        lambda *a, **k: dict(fit(*a, **k), rel_err=math.nan))


def _patch_anchor_above_every_count(monkeypatch):
    monkeypatch.setattr(cli, "variant_param_count", lambda *args: 10**9)


def _patch_off_rate_and_bound(monkeypatch):
    # an error of 1/N: slope -1, off the -2 expected at d=1 and on target at
    # d=2, where a bound of 10 pieces lies above the net of N=4
    monkeypatch.setattr(cli, "absorption_rate_rows", lambda dims, cells, **kw: [
        {"d": d, "N": c**d, "sup_error": 1.0 / c**d, "bound": 10.0 if d == 2 else 1.0}
        for d in dims for c in cells
    ])


@pytest.mark.parametrize("argv, patch, lines", [
    (["train", "--target", "QuadraticIso", "--d", "2", "--epochs", "1",
      "--train-n", "8", "--val-n", "4", "--test-n", "4"],
     _patch_nan_rel_err, ["non-finite relative error"]),
    (["benchmark", "--targets", "NormEuclid", "--d", "2", "--variants", "ReLU",
      "--seeds", "1", "--epochs", "1", "--train-n", "8", "--val-n", "4", "--test-n", "4"],
     _patch_anchor_above_every_count,
     ["NormEuclid ReLU: 675 parameters, below the SOC anchor's 1000000000"]),
    (["theory", "--dims", "1,2", "--cells", "2,4", "--samples", "100"],
     _patch_off_rate_and_bound,
     ["d=1: slope -1.000 not within 0.25 of the target -2.000",
      "d=2: fewer pieces than the lower bound at N=4"]),
], ids=["train", "benchmark", "theory"])
def test_check_fails_by_name_and_only_with_check(tmp_path, capsys, monkeypatch, argv, patch, lines):
    patch(monkeypatch)
    assert main(argv + ["--out", str(tmp_path / "a"), "--check"]) == 1
    assert capsys.readouterr().err.splitlines() == [f"check failed: {line}" for line in lines]
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    ["verify", "--trials", "3", "--d0", "3", "--width", "4", "--depth", "2", "--seed", "1"],
    # certify's largest lift, n = 192, whose passes take many pivots at once
    ["verify", "--trials", "2", "--d0", "20", "--width", "64", "--depth", "3"],
    ["benchmark", "--targets", "NormEuclid", "--d", "2", "--variants", "ReLU,SOC",
     "--seeds", "2", "--epochs", "2", "--train-n", "16", "--val-n", "8", "--test-n", "8"],
    ["theory", "--dims", "1,2", "--cells", "2,4", "--samples", "500", "--seed", "4"],
], ids=["verify", "verify_n192", "benchmark", "theory"])
def test_run_is_byte_identical_across_reruns(tmp_path, argv):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    assert len(names) == 2 and "manifest.json" in names
    for name in names:
        a, b = (out / name for out in (out_a, out_b))
        if name == "manifest.json":  # equal apart from --out
            a, b = json.loads(a.read_text()), json.loads(b.read_text())
            assert a["flags"].pop("out") != b["flags"].pop("out")
            assert a == b
        else:
            assert a.read_bytes() == b.read_bytes()


def test_outputs_stay_under_out_dir(tmp_path):
    out = tmp_path / "only"
    main(["theory", "--dims", "1", "--cells", "2,4", "--samples", "5000",
          "--out", str(out)])
    produced = {p.name for p in out.iterdir()}
    assert produced == {"manifest.json", "theory.csv"}
    assert {p.name for p in tmp_path.iterdir()} == {"only"}


@pytest.mark.parametrize("argv", [
    ["benchmark", "--seeds", "0"],
    ["benchmark", "--seeds", "-2"],
    ["theory", "--cells", "1"],
    ["theory", "--cells", "4,4"],
    ["theory", "--cells", "0,2"],
    ["decide", "--instances", "0"],
    ["verify", "--trials", "0"],
    ["theory", "--dims", "0,1"],
    ["train", "--epochs", "0", "--target", "QuadraticIso"],
    ["train", "--batch-size", "0", "--target", "QuadraticIso"],
    ["train", "--train-n", "0", "--target", "QuadraticIso"],
    ["train", "--val-n", "0", "--target", "QuadraticIso"],
    ["train", "--test-n", "0", "--target", "QuadraticIso"],
    ["benchmark", "--train-n", "0"],
    ["benchmark", "--val-n", "0"],
    ["benchmark", "--test-n", "0"],
    ["benchmark", "--epochs", "0"],
    ["benchmark", "--batch-size", "0"],
    ["decide", "--candidates", "0"],
    ["decide", "--restarts", "0"],
    ["decide", "--steps", "0"],
    ["decide", "--oracle-restarts", "0"],
    ["decide", "--oracle-steps", "0"],
    ["decide", "--surrogate-width", "0"],
    ["decide", "--surrogate-epochs", "0"],
    ["theory", "--samples", "0"],
    ["verify", "--d0", "0"],
    ["verify", "--width", "0"],
    ["verify", "--depth", "0"],
    ["train", "--d", "1", "--target", "QuadraticIso"],
    ["benchmark", "--d", "0"],
    ["decide", "--d", "1"],
    ["verify", "--quad", "-1"],
    ["verify", "--conic", "-1"],
    ["train", "--lr", "0", "--target", "QuadraticIso"],
    ["train", "--lr", "nan", "--target", "QuadraticIso"],
    ["benchmark", "--lr", "inf"],
    ["decide", "--surrogate-lr", "-1"],
    ["decide", "--surrogate-lr", "nan"],
    ["decide", "--families", "BoxSocp,BoxSocp"],
    ["benchmark", "--variants", "ReLU,ReLU"],
    ["train", "--lo", "3", "--hi", "-3", "--target", "QuadraticIso"],
    ["train", "--lo", "1", "--hi", "1", "--target", "QuadraticIso"],
    ["train", "--hi", "inf", "--target", "QuadraticIso"],
    ["train", "--lo", "nan", "--target", "QuadraticIso"],
    ["train", "--lo=-1e+308", "--hi=1e+308", "--target", "QuadraticIso"],
    ["verify", "--width", "200", "--depth", "3"],
    ["theory", "--dims", "10"],
    ["theory", "--dims", "1,17", "--cells", "1,2"],
    ["theory", "--cells", "2,65537"],
    ["theory", "--dims", "1000000000"],
    ["theory", "--dims", "a"],
    ["theory", "--cells", "2,x"],
])
def test_out_of_range_flags_exit_usage(tmp_path, capsys, argv):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert argv[1] in err
    assert "invalid _" not in err  # no private type name in a usage error
    assert not out.exists()
