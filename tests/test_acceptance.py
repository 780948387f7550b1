"""Acceptance suite: one test per top-level criterion.

Each test prints a single summary line (visible with pytest -s or in the
captured output of a failure) carrying the measured quantities next to the
required thresholds, then asserts every clause at its stated tolerance.

Criterion 5's two baseline lower bounds are asserted exactly as specified and
are expected to fail red: a correctly trained width-matched baseline converges
far below them (see test_c5's docstring).  Everything else in this suite
passes.
"""

import time

import numpy as np

from socicnn import (
    RELU,
    count_forward_flops,
    finite_difference_check,
    batch_forward,
    forward,
    from_structured_class,
    init_model,
    make_target,
    make_task,
    minimize_task,
    parameter_gradients,
    run_verification_trials,
    sample_context,
    socp_oracle_value,
    spawn_rng,
    value_and_input_gradient_batch,
)
from socicnn.certificate import _METRIC_FIELDS
from socicnn.decisions import decide_instance
from socicnn.theory import (
    absorption_rate_rows,
    cpwl_piece_lower_bound,
    loglog_slope,
    smallest_net_reaching,
)
from socicnn.model import flatten_params, unflatten_params
from socicnn.training import TrainConfig, fit_variant_to_target


def _line(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")


def test_c1_value_function_equivalence_sweep():
    started = time.time()
    reports = []
    for passthrough in (False, True):
        reports += run_verification_trials(
            75, 20, 32, 3, 2, 2, passthrough, seed=2024
        )
    elapsed = time.time() - started

    worst_gap = max(r["primal_dual_gap"] for r in reports)
    worst = {name: max(r[name] for r in reports) for name in _METRIC_FIELDS}
    ok = (
        len(reports) == 150
        and worst_gap <= 1e-9
        and all(v <= 1e-10 for v in worst.values())
        and elapsed < 60.0
    )
    _line(
        1,
        ok,
        f"150 trials d0=20 w=32 depth=3 H=G=2 both passthrough; "
        f"max gap {worst_gap:.2e} (<=1e-9), max metric "
        f"{max(worst.values()):.2e} (<=1e-10), {elapsed:.1f}s (<60s)",
    )
    assert len(reports) == 150
    assert worst_gap <= 1e-9
    for name, value in worst.items():
        assert value <= 1e-10, name
    assert elapsed < 60.0


def test_c2_independent_oracle_agreement():
    started = time.time()
    rng = spawn_rng(2025)
    worst = 0.0
    for trial in range(50):
        d0 = int(rng.integers(2, 21))
        width = int(rng.integers(4, 33))
        depth = int(rng.integers(1, 4))
        num_quad = int(rng.integers(0, 3))
        num_conic = int(rng.integers(0, 3))
        model = init_model(
            d0,
            [width] * depth,
            [d0] * num_quad,
            [d0] * num_conic,
            bool(trial % 2),
            RELU,
            int(rng.integers(2**62)),
        )
        assert width * depth <= 500
        x = rng.uniform(-3.0, 3.0, d0)
        worst = max(worst, abs(socp_oracle_value(model, x) - forward(model, x).total))
    elapsed = time.time() - started
    ok = worst <= 1e-9 and elapsed < 120.0
    _line(2, ok, f"50 models, max |oracle - forward| {worst:.2e} (<=1e-9), "
                 f"{elapsed:.1f}s (<120s)")
    assert worst <= 1e-9
    assert elapsed < 120.0


def test_c3_exact_structured_representation():
    rng = spawn_rng(2026)
    worst = 0.0
    for draw in range(20):
        d0 = int(rng.integers(2, 9))
        a = rng.standard_normal(d0)
        b = float(rng.standard_normal())
        r = int(rng.integers(0, d0 + 1))
        B = rng.standard_normal((r, d0)) if r else None
        terms = []
        for _ in range(int(rng.integers(0, 4))):
            k = int(rng.integers(1, d0 + 2))
            terms.append(
                (float(rng.uniform(0.0, 2.0)), rng.standard_normal((k, d0)),
                 rng.standard_normal(k))
            )
        model = from_structured_class(a, b, B, terms)
        X = rng.uniform(-3.0, 3.0, (500, d0))
        values = batch_forward(model, X).total
        closed = X @ a + b
        if B is not None:
            QX = X @ B.T
            closed = closed + 0.5 * np.einsum("ij,ij->i", QX, QX)
        for weight, proj, offset in terms:
            U = X @ proj.T + offset
            closed = closed + weight * np.sqrt(np.einsum("ij,ij->i", U, U))
        worst = max(worst, float(np.max(np.abs(values - closed))))
    ok = worst <= 1e-12
    _line(3, ok, f"20 draws x 500 points, max |model - closed form| {worst:.2e} (<=1e-12)")
    assert worst <= 1e-12


def test_c4_convexity_and_gradient_suites():
    rng = spawn_rng(2027)
    worst_mid = -np.inf
    worst_sub = -np.inf
    for trial in range(20):
        d0 = int(rng.integers(2, 7))
        widths = [int(rng.integers(3, 9))] * int(rng.integers(1, 4))
        num_quad = int(rng.integers(0, 3))
        num_conic = int(rng.integers(0, 3))
        model = init_model(
            d0,
            widths,
            [d0] * num_quad,
            [d0] * num_conic,
            bool(trial % 2),
            RELU,
            int(rng.integers(2**62)),
        )
        X = rng.uniform(-4.0, 4.0, (500, d0))
        Y = rng.uniform(-4.0, 4.0, (500, d0))
        fx, gx = value_and_input_gradient_batch(model, X)
        fy = batch_forward(model, Y).total
        fmid = batch_forward(model, (X + Y) / 2.0).total
        worst_mid = max(worst_mid, float(np.max(fmid - 0.5 * (fx + fy))))
        worst_sub = max(
            worst_sub, float(np.max(fx + np.einsum("ij,ij->i", gx, Y - X) - fy))
        )

    # parameter gradients vs central differences, away from kinks
    worst_param = 0.0
    for seed in (23, 24):
        model = init_model(4, [5, 4], [4], [4], True, RELU, seed)
        data_rng = spawn_rng(seed, 7)
        X = data_rng.uniform(-2.0, 2.0, (8, 4))
        y = data_rng.standard_normal(8)
        params = flatten_params(model)
        flat = np.zeros_like(params)
        parameter_gradients(model, X, y, unflatten_params(model, flat))
        step = 1e-5
        for k in range(params.size):
            bumped = params.copy()
            bumped[k] += step
            up = batch_forward(unflatten_params(model, bumped), X).total - y
            bumped[k] -= 2 * step
            down = batch_forward(unflatten_params(model, bumped), X).total - y
            fd = (float(np.mean(up**2)) - float(np.mean(down**2))) / (2 * step)
            analytic = float(flat[k])
            worst_param = max(
                worst_param, abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-3)
            )

    # input subgradient finite differences away from kinks
    worst_input = 0.0
    for seed in (31, 32, 33):
        model = init_model(5, [6, 5], [5], [5], bool(seed % 2), RELU, seed)
        x = spawn_rng(seed, 11).uniform(-2.0, 2.0, 5)
        worst_input = max(worst_input, finite_difference_check(model, x, 1e-5))

    ok = worst_mid <= 1e-9 and worst_sub <= 1e-9 and worst_param <= 1e-5 and worst_input <= 1e-5
    _line(
        4,
        ok,
        f"midpoint slack {worst_mid:.2e} (<=1e-9), subgradient slack {worst_sub:.2e} "
        f"(<=1e-9), param FD rel {worst_param:.2e} (<=1e-5), input FD rel "
        f"{worst_input:.2e} (<=1e-5) over 1e4 pairs x 20 models",
    )
    assert worst_mid <= 1e-9
    assert worst_sub <= 1e-9
    assert worst_param <= 1e-5
    assert worst_input <= 1e-5


def test_c5_budgeted_approximation_replica():
    """Budget-matched approximation margins, asserted exactly as specified.

    The structured-variant ceilings pass with an order-of-magnitude margin,
    and the directional claim (the branch-augmented model beats the plain
    baseline on every seed) holds.  The two baseline floors (ReLU >= 0.40 on
    NormEuclid, >= 0.70 on QuadraticIso) are expected to FAIL red: a
    correctly optimized width-matched baseline converges to ~0.03-0.07 on
    this metric.  A search over optimizers (Adam, SGD, SGD+momentum),
    learning rates 1e-4..1e-1, budgets of 15..400 epochs, batch sizes, and
    raw/centered/standardized target scalings found no shared, defensible
    protocol under which the baseline stays above those floors while the
    structured variant meets its ceilings; only a deliberately broken
    training setup would turn them green, so they are left asserting the
    stated values.
    """
    started = time.time()
    results = {}
    for target_name in ("NormEuclid", "QuadraticIso"):
        target = make_target(target_name, 10, 0)
        for variant in ("SOC", "ReLU"):
            errs = [
                fit_variant_to_target(
                    target,
                    variant,
                    seed=1000 + 17 * k,
                    n_train=2000,
                    n_val=1000,
                    n_test=2000,
                    config=TrainConfig(seed=1000 + 17 * k),
                )["rel_err"]
                for k in range(3)
            ]
            results[(target_name, variant)] = (min(errs), max(errs), float(np.mean(errs)))
    elapsed = time.time() - started

    checks = [
        ("NormEuclid SOC mean <= 0.25", results[("NormEuclid", "SOC")][2] <= 0.25,
         results[("NormEuclid", "SOC")][2]),
        ("NormEuclid ReLU mean >= 0.40", results[("NormEuclid", "ReLU")][2] >= 0.40,
         results[("NormEuclid", "ReLU")][2]),
        ("QuadraticIso SOC mean <= 0.55", results[("QuadraticIso", "SOC")][2] <= 0.55,
         results[("QuadraticIso", "SOC")][2]),
        ("QuadraticIso ReLU mean >= 0.70", results[("QuadraticIso", "ReLU")][2] >= 0.70,
         results[("QuadraticIso", "ReLU")][2]),
    ]
    for label, ok, value in checks:
        _line(5, ok, f"{label}: measured {value:.3f}")
    direction_ok = all(
        results[(t, "SOC")][1] < results[(t, "ReLU")][0]
        for t in ("NormEuclid", "QuadraticIso")
    )
    _line(5, direction_ok and elapsed < 900.0,
          f"direction SOC < ReLU on every seed: {direction_ok}; {elapsed:.0f}s (<900s)")

    assert elapsed < 900.0
    assert direction_ok, "structured variant must beat the baseline on every seed"
    for label, ok, value in checks:
        assert ok, f"{label} (measured {value:.3f}; see this test's docstring)"


def test_c6_absorption_rate_and_piece_bound():
    rows = absorption_rate_rows(dims=(1, 2), cells=(2, 4, 8, 16), num_samples=100_000,
                                seed=0)
    slopes = {}
    for dim in (1, 2):
        sub = [r for r in rows if r["d"] == dim]
        slopes[dim] = loglog_slope([r["N"] for r in sub], [r["sup_error"] for r in sub])
    counts_ok = all(
        smallest_net_reaching(eps, dim=1) >= cpwl_piece_lower_bound(2.0, 1, 1.0, eps)
        for eps in (0.1, 0.01)
    )
    ok = all(abs(slopes[d] + 2.0 / d) <= 0.25 for d in (1, 2)) and counts_ok
    _line(
        6,
        ok,
        f"log-log slopes d=1: {slopes[1]:.3f} (target -2), d=2: {slopes[2]:.3f} "
        f"(target -1), within +-0.25; empirical piece counts respect the bound: {counts_ok}",
    )
    for dim in (1, 2):
        assert abs(slopes[dim] + 2.0 / dim) <= 0.25
    assert counts_ok


def test_c7_forward_complexity_ratio():
    ratios = {}
    for width in (16, 32, 64, 128):
        soc = init_model(20, [width] * 3, [width], [width], True, RELU, 0)
        relu = init_model(20, [width] * 3, [], [], True, RELU, 0)
        ratios[width] = count_forward_flops(soc) / count_forward_flops(relu)
    worst = max(ratios.values())
    ok = worst <= 1.5
    detail = ", ".join(f"w={w}: {r:.3f}" for w, r in ratios.items())
    _line(7, ok, f"T_SOC/T_ReLU {detail} (all <= 1.5)")
    assert worst <= 1.5


def test_c8_downstream_pipeline_sanity():
    started = time.time()
    regrets = []
    stable = []
    for family in ("SimplexSocp", "BudgetHuber"):
        task = make_task(family, 10, 7)
        for index in range(25):
            theta = sample_context(7, index)
            report, _ = decide_instance(
                task, theta, "QuadOnly", spawn_rng(7, 100 + index)
            )
            regrets.append(report.regret)
            _, fa, _, _ = minimize_task(task, theta, 20, 2000, seed=index)
            _, fb, _, _ = minimize_task(task, theta, 20, 2000, seed=10_000 + index)
            stable.append(abs(fa - fb) <= 1e-4)
    elapsed = time.time() - started
    min_regret = min(regrets)
    stability = float(np.mean(stable))
    ok = min_regret >= -1e-9 and stability >= 0.95
    _line(
        8,
        ok,
        f"50 instances: min regret {min_regret:.2e} (>=-1e-9), oracle agreement "
        f"{100 * stability:.0f}% within 1e-4 (>=95%), {elapsed:.0f}s",
    )
    assert min_regret >= -1e-9
    assert stability >= 0.95
