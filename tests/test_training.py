import numpy as np
import pytest

from socicnn import (
    TARGET_NAMES,
    Dataset,
    DimensionError,
    TrainConfig,
    anchor_width,
    build_variant_model,
    count_parameters,
    forward_total_batch,
    from_structured_class,
    make_target,
    match_parameter_budget,
    max_infeasibility,
    relative_l2_error,
    sample_uniform_dataset,
    spawn_rng,
    target_values_batch,
    train,
    variant_param_count,
)
from socicnn.training import (
    VARIANTS,
    fit_variant_to_target,
    load_dataset_csv,
    save_dataset_csv,
    save_history_csv,
    variant_depth,
)


@pytest.mark.parametrize("name", TARGET_NAMES)
def test_dataset_has_the_target_width(name):
    t = make_target(name, 3, 0)
    ds = sample_uniform_dataset(t, 5, -1.0, 1.0, 0)
    assert ds.xs.shape == (5, 3)
    assert np.array_equal(ds.ys, target_values_batch(t, ds.xs))


def test_dataset_sampling_determinism_and_range():
    t = make_target("QuadraticIso", 3, 0)
    a = sample_uniform_dataset(t, 1000, -3.0, 3.0, 5)
    b = sample_uniform_dataset(t, 1000, -3.0, 3.0, 5)
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
    assert np.min(a.xs) >= -3.0 and np.max(a.xs) <= 3.0
    assert np.allclose(a.ys, 0.5 * np.sum(a.xs * a.xs, axis=1), rtol=1e-15, atol=0)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    for rate in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(learning_rate=rate)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)


def test_dataset_sampling_validation():
    t = make_target("QuadraticIso", 3, 0)
    with pytest.raises(ValueError):
        sample_uniform_dataset(t, 0, -1.0, 1.0, 0)
    with pytest.raises(ValueError):
        sample_uniform_dataset(t, 5, 1.0, -1.0, 0)
    for lo, hi in ((-np.inf, 1.0), (-1.0, np.inf), (np.nan, 1.0), (-1e308, 1e308)):
        with pytest.raises(ValueError, match="finite"):
            sample_uniform_dataset(t, 5, lo, hi, 0)


def test_empty_dataset_is_a_dimension_error():
    with pytest.raises(DimensionError, match="at least one row"):
        Dataset(xs=np.zeros((0, 3)), ys=np.zeros(0))


def test_dataset_csv_round_trip_exact(tmp_path):
    t = make_target("Mixed", 4, 2)
    ds = sample_uniform_dataset(t, 50, -3.0, 3.0, 9)
    path = tmp_path / "data.csv"
    save_dataset_csv(ds, path)
    back = load_dataset_csv(path)
    assert np.array_equal(ds.xs, back.xs)
    assert np.array_equal(ds.ys, back.ys)
    header = path.read_text().splitlines()[0]
    assert header == "x0,x1,x2,x3,y"


def test_short_csv_row_is_a_named_error(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("x0,y\n1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="line 3"):
        load_dataset_csv(path)


def test_long_csv_row_is_a_named_error(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("x0,y\n1.0,2.0\n3.0,4.0,5.0\n")
    with pytest.raises(ValueError, match="line 3"):
        load_dataset_csv(path)


@pytest.mark.parametrize("header", ["x0,x1", "a,b", "y", "x1,x0,y", "x0,y,z"])
def test_csv_header_other_than_x0_to_y_is_a_named_error(tmp_path, header):
    path = tmp_path / "header.csv"
    path.write_text(f"{header}\n1.0,2.0\n")
    with pytest.raises(ValueError, match="header"):
        load_dataset_csv(path)


@pytest.mark.parametrize("text", ["", "x0,y\n"])
def test_empty_csv_is_a_named_error(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="empty.csv"):
        load_dataset_csv(path)


def test_relative_error_reference_points():
    t = make_target("QuadraticIso", 2, 0)
    ds = sample_uniform_dataset(t, 200, -3.0, 3.0, 1)
    exact = from_structured_class(np.zeros(2), 0.0, np.eye(2), [])
    assert relative_l2_error(exact, ds) == 0.0

    zero = from_structured_class(np.zeros(2), 0.0, None, [])
    assert relative_l2_error(zero, ds) == pytest.approx(1.0, abs=1e-14)

    # a model predicting exactly 2*ys scores 1 as well
    halved = Dataset(xs=ds.xs, ys=forward_total_batch(exact, ds.xs) / 2.0)
    assert relative_l2_error(exact, halved) == pytest.approx(1.0, abs=1e-12)

    with pytest.raises(ValueError):
        relative_l2_error(exact, Dataset(xs=ds.xs, ys=np.zeros(ds.size)))


def _tiny_splits(seed=0, name="QuadraticIso", d=3, n=200):
    t = make_target(name, d, 0)
    tr = sample_uniform_dataset(t, n, -3.0, 3.0, spawn_rng(seed, 1).integers(2**62))
    va = sample_uniform_dataset(t, n // 2, -3.0, 3.0, spawn_rng(seed, 2).integers(2**62))
    return tr, va


def test_train_from_exact_representation_stays_at_zero_loss():
    tr, va = _tiny_splits()
    exact = from_structured_class(np.zeros(3), 0.0, np.eye(3), [])
    cfg = TrainConfig(epochs=5, batch_size=64, seed=0, early_stop_patience=10)
    trained, history = train(exact, tr, va, cfg)
    assert history[0][1] <= 1e-10
    assert history[-1][1] <= history[0][1] + 1e-12
    assert relative_l2_error(trained, va) <= 1e-10


def test_train_is_deterministic():
    tr, va = _tiny_splits(3)
    model = build_variant_model("SOC", 3, 6, 2, seed=4)
    cfg = TrainConfig(epochs=6, batch_size=64, seed=11)
    t1, h1 = train(model, tr, va, cfg)
    t2, h2 = train(model, tr, va, cfg)
    assert h1 == h2
    assert np.array_equal(t1.w_out, t2.w_out)
    assert np.array_equal(t1.layers[0].w_x, t2.layers[0].w_x)
    assert t1.quad[0].weight == t2.quad[0].weight


def test_training_keeps_iterates_feasible():
    tr, va = _tiny_splits(5)
    model = build_variant_model("SOC", 3, 6, 2, seed=5)
    seen = []
    cfg = TrainConfig(epochs=8, batch_size=32, learning_rate=5e-3, seed=5)
    trained, _ = train(model, tr, va, cfg, on_epoch=lambda e, m: seen.append(max_infeasibility(m)))
    assert seen and all(v == 0.0 for v in seen)
    assert max_infeasibility(trained) == 0.0


def test_best_val_checkpoint_and_monotone_best():
    tr, va = _tiny_splits(6)
    model = build_variant_model("ReLU", 3, 6, 2, seed=6)
    cfg = TrainConfig(epochs=20, batch_size=64, seed=6)
    trained, history = train(model, tr, va, cfg)
    vals = [v for _, _, v in history]
    best_so_far = np.minimum.accumulate(vals)
    assert np.all(np.diff(best_so_far) <= 0.0 + 1e-18)
    resid = forward_total_batch(trained, va.xs) - va.ys
    assert float(np.mean(resid**2)) == pytest.approx(min(vals), rel=1e-12)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_train_aborts_on_divergence():
    tr, va = _tiny_splits(7)
    model = build_variant_model("ReLU", 3, 6, 2, seed=7)
    # a step this large overflows the forward pass; the loop must abort
    cfg = TrainConfig(epochs=50, batch_size=64, learning_rate=1e200, seed=7)
    with pytest.raises(RuntimeError, match="non-finite"):
        train(model, tr, va, cfg)


def test_soc_fits_quadratic_iso_quickly():
    # an exact representer exists, so 200 epochs must bring RelErr under 0.1
    target = make_target("QuadraticIso", 5, 0)
    with pytest.raises(ValueError, match="differs from the cell seed"):
        fit_variant_to_target(target, "SOC", seed=1, config=TrainConfig(seed=2))
    result = fit_variant_to_target(
        target, "SOC", seed=1, n_train=1000, n_val=400, n_test=800,
        config=TrainConfig(epochs=200, seed=1),
    )
    assert result["rel_err"] < 0.1


def test_history_csv(tmp_path):
    path = tmp_path / "history.csv"
    save_history_csv([(1, 0.5, 0.6), (2, 0.25, 0.3)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss"
    assert lines[1] == "1,0.5,0.6"


# ---------------------------------------------------------------------------
# budget matching


def test_anchor_width_schedule():
    assert anchor_width(5) == 16
    assert anchor_width(10) == 20
    assert anchor_width(20) == 24
    assert anchor_width(50) == 32


def _closed_form_count(d0, width, depth, variant, passthrough):
    """Layer 1 holds width*d0 + width scalars; each deeper layer adds
    width^2 + width plus width*d0 when passthrough is on; the readout adds
    width + d0 + 1; each structural branch of size d0 adds d0*d0 + d0 + 1."""
    count = width * d0 + width
    for _ in range(depth - 1):
        count += width * width + width
        if passthrough:
            count += width * d0
    count += width + d0 + 1
    branches = {"QuadOnly": 1, "NormOnly": 1, "SOC": 2}.get(variant, 0)
    return count + branches * (d0 * d0 + d0 + 1)


def test_param_count_formula_matches_built_models():
    for passthrough in (True, False):
        for variant in VARIANTS:
            for depth in (1, 2, 3):
                expected = _closed_form_count(10, 20, depth, variant, passthrough)
                model = build_variant_model(variant, 10, 20, depth, 0, passthrough)
                assert count_parameters(model) == expected
                assert variant_param_count(10, 20, depth, variant, passthrough) == expected


def test_budget_self_match():
    anchor = variant_param_count(10, 20, 2, "SOC")
    assert match_parameter_budget(anchor, 10, 20, "SOC") == 2


def test_budget_minimality():
    depth2 = variant_param_count(10, 20, 2, "ReLU")
    assert match_parameter_budget(depth2, 10, 20, "ReLU") == 2
    assert match_parameter_budget(depth2 + 1, 10, 20, "ReLU") == 3


def test_counts_strictly_increase_with_depth():
    for variant in VARIANTS:
        counts = [variant_param_count(10, 20, depth, variant) for depth in range(1, 11)]
        assert all(b > a for a, b in zip(counts, counts[1:]))


def test_budget_fairness_across_variants():
    for d in (5, 10, 16, 20):
        width = anchor_width(d)
        for passthrough in (True, False):
            anchor = count_parameters(build_variant_model("SOC", d, width, 2, 0, passthrough))
            for variant in VARIANTS:
                depth = variant_depth(variant, d, width, passthrough)
                model = build_variant_model(variant, d, width, depth, 0, passthrough)
                assert count_parameters(model) >= anchor, (d, passthrough, variant)


def test_budget_error_when_unreachable():
    with pytest.raises(ValueError):
        match_parameter_budget(10**12, 2, 2, "ReLU")
