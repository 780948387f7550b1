"""Tests of the benchmark itself: gates, failure counting, tracing and the
prediction table.

    python3 -m pytest bench/tests
"""

import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from socicnn import certificate, decisions, simplex  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_NAMES = [m["name"] for m in SPEC["per_layer"]]


@pytest.fixture(scope="module")
def certify():
    return workloads.certify(0)


@pytest.fixture(scope="module")
def good_report(certify):
    return certify.call(0)


def test_certify_gate_rejects_an_injected_gap(good_report):
    assert workloads.gate_certify(good_report) == []
    assert workloads.gate_certify(dict(good_report, primal_dual_gap=1e-6))


def test_certify_gate_checks_all_nine_feasibility_rows(good_report):
    assert len(workloads.FEASIBILITY_ROWS) == 9
    for row in workloads.FEASIBILITY_ROWS:
        assert workloads.gate_certify(dict(good_report, **{row: 1e-6}))


def test_decide_gate_rejects_a_negative_regret_and_an_infeasible_point():
    task = decisions.make_task("BudgetHuber", 10, 0)
    x_hat = decisions.project_onto(task.feasible_set, np.linspace(0.0, 1.0, 10))

    def report(regret):
        return decisions.DecisionReport(regret, 0.0, 0.0, 0.0)

    assert workloads.gate_decide((report(0.0), x_hat), task.feasible_set) == []
    assert workloads.gate_decide((report(-1e-6), x_hat), task.feasible_set)
    assert workloads.gate_decide((report(0.0), x_hat + 1e-3), task.feasible_set)
    assert workloads.gate_decide((report(0.0), np.full(10, np.nan)), task.feasible_set)


def test_failed_items_count_in_failed_frac_and_the_run_goes_on(certify, good_report):
    def call(i):
        if i == 1:
            return dict(good_report, primal_dual_gap=1e-6)
        if i == 2:
            raise RuntimeError("injected")
        return good_report

    records = run.run_rounds(dataclasses.replace(certify, call=call), rounds=2)
    assert len(records) == 2 * certify.round_size
    assert [r.index for r in records if r.failures] == [1, 2]
    assert run.quality(certify, records)["failed_frac"]["value"] == 2 / len(records)
    assert run.throughput(records) > 0.0


def test_an_item_past_its_time_limit_is_stopped_and_fails(certify):
    def call(i):
        time.sleep(5.0)

    record = run.run_item(dataclasses.replace(certify, call=call, timeout_s=0.05), 0)
    assert record.failures and record.seconds < 1.0
    assert run.run_item(certify, 0).failures == ()


@pytest.mark.xfail(raises=simplex.UnboundedProblem, strict=True,
                   reason="the dense oracle fails on some passthrough-off models, "
                          "which is why certify runs passthrough on (README.md)")
def test_oracle_solves_a_passthrough_off_model():
    (report,) = certificate.run_verification_trials(1, 10, 16, 2, 2, 2, False, 2973684427430321761)
    assert workloads.gate_certify(report) == []


def test_tail_has_ten_samples_beyond_it():
    value, percentile, beyond = run.tail(list(range(100)))
    assert (value, percentile, beyond) == (89, 90.0, 10)


def _traced(workload, rounds=1):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        records = run.run_rounds(workload, rounds=rounds, tracer=tracer)
    finally:
        tracer.uninstall()
    return tracer, records


def test_self_times_sum_to_the_item_wall_time(certify):
    untraced = run.run_rounds(certify, rounds=1)
    tracer, traced = _traced(certify)
    assert tracer.missing == []
    overhead = 1.0 - run.throughput(traced) / run.throughput(untraced)
    # Below 1% the throughput comparison of one round cannot resolve the
    # overhead, so that is the floor of the tolerance.
    tolerance = max(overhead, 0.01)
    self_seconds = tracer.item_self_seconds()
    uncovered = [end - start - self_seconds[item] for item, start, end in tracer.items]
    assert min(uncovered) >= 0.0
    assert sum(uncovered) <= tolerance * sum(end - start for _, start, end in tracer.items)


def test_install_wraps_every_caller_and_uninstall_restores():
    from socicnn import gradients, model

    originals = (model.forward, certificate.forward, model.batch_forward, gradients.batch_forward)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert certificate.forward is model.forward is not originals[0]
        assert gradients.batch_forward is model.batch_forward is not originals[2]
    finally:
        tracer.uninstall()
    assert (model.forward, certificate.forward, model.batch_forward, gradients.batch_forward) == originals


def test_a_missing_function_reads_null_and_the_run_goes_on(monkeypatch, certify):
    monkeypatch.setattr(tracing, "TRACED", tracing.TRACED + (("simplex", "no_such_function", None),))
    tracer, records = _traced(certify)
    assert tracer.missing == ["simplex.no_such_function"]
    values = run.per_layer(["simplex.no_such_function.calls", "simplex.solve_min_geq.calls"],
                           tracer, records, 0.0)
    assert values == {"simplex.no_such_function.calls": None, "simplex.solve_min_geq.calls": 1.0}


@pytest.mark.parametrize("name", ["certify", "fit"])
def test_predicted_zero_layers_read_zero(name):
    workload = workloads.WORKLOADS[name](0)
    tracer, records = _traced(workload)
    values = run.per_layer(LAYER_NAMES, tracer, records, 0.0)
    table = json.loads((BENCH_DIR / "predictions.json").read_text())
    zeros = {m for row in table["predictions"] for m in row["zero"].get(name, [])}
    assert zeros
    for metric in zeros:
        assert values[metric] == 0.0, metric
    assert all(values[m] is not None for m in LAYER_NAMES)


def test_prediction_table_uses_benchmark_names():
    table = json.loads((BENCH_DIR / "predictions.json").read_text())
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    names = {w["name"] for w in SPEC["workloads"]}
    covered = set()
    for row in table["predictions"]:
        covered.update(row["layer"])
        assert set(row["layer"]) <= set(LAYER_NAMES)
        assert set(row["flat"]) <= names
        for workload, metrics in row["moves"].items():
            assert workload in names and set(metrics) <= end_to_end
        for workload, metrics in row["zero"].items():
            assert workload in names and set(metrics) <= set(LAYER_NAMES)
    assert covered == set(LAYER_NAMES)
    for item in table["roadmap"].values():
        assert set(item["expect"]) <= names and set(item["flat"]) <= names
