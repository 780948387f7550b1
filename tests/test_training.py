import math

import numpy as np
import pytest

from socicnn import (
    TARGET_NAMES,
    Dataset,
    DimensionError,
    TrainConfig,
    anchor_width,
    batch_forward,
    build_variant_model,
    count_parameters,
    forward,
    from_structured_class,
    make_target,
    max_infeasibility,
    relative_l2_error,
    sample_uniform_dataset,
    spawn_rng,
    target_values_batch,
    train,
    variant_param_count,
)
from socicnn import training
from socicnn.gradients import parameter_gradients
from socicnn.model import flatten_params, nonneg_mask, unflatten_params
from socicnn.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    VARIANTS,
    fit_variant_to_target,
    load_dataset_csv,
    save_dataset_csv,
    variant_depth,
)

from test_model import count_calls, fail_wherever_called


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
    for patience in (0, -5):
        with pytest.raises(ValueError, match="early_stop_patience must be >= 1"):
            TrainConfig(early_stop_patience=patience)
    for name in ("epochs", "batch_size", "early_stop_patience"):
        for count in (2.5, 3.0, "3", True):
            with pytest.raises(TypeError, match=f"{name} must be an integer"):
                TrainConfig(**{name: count})
    for seed in (2.5, 2.0, "2", None, True):
        with pytest.raises(TypeError, match="seed must be an integer"):
            TrainConfig(seed=seed)
    for rate in ("0.1", True, None, 1e-2 + 0j):
        with pytest.raises(TypeError, match="learning_rate must be a real number"):
            TrainConfig(learning_rate=rate)
    TrainConfig(epochs=np.int64(3), batch_size=np.int32(4), early_stop_patience=1)
    TrainConfig(seed=np.int64(-5), learning_rate=np.float32(0.5))
    TrainConfig(learning_rate=1)


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


def test_dataset_rejects_mismatched_shapes_and_non_finite_data():
    for xs, ys in ((np.zeros((4, 3)), np.zeros(3)), (np.zeros(4), np.zeros(4)),
                   (np.zeros((4, 3)), np.zeros((4, 1)))):
        with pytest.raises(DimensionError, match="xs must be"):
            Dataset(xs=xs, ys=ys)
    for bad in (np.nan, np.inf):
        xs, ys = np.zeros((4, 3)), np.zeros(4)
        xs[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(xs=xs, ys=ys)
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(xs=np.zeros((4, 3)), ys=np.array([0.0, bad, 0.0, 0.0]))


def test_train_rejects_a_dataset_of_another_width():
    tr, va = _tiny_splits()
    model = build_variant_model("SOC", 4, 6, 2, seed=0)
    with pytest.raises(DimensionError, match="dataset dimension"):
        train(model, tr, va, TrainConfig(epochs=1))


def test_unknown_variant_is_a_named_error():
    with pytest.raises(ValueError, match="unknown variant 'Maxout'"):
        build_variant_model("Maxout", 3, 6, 2, seed=0)


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


@pytest.mark.parametrize("row", ["1.0,abc", "1.0,nan", "1e999,1"])
def test_csv_field_that_is_not_a_finite_number_is_a_named_error(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"x0,y\n1.0,2.0\n{row}\n")
    with pytest.raises(ValueError, match="line 3: a field is not a finite number") as exc:
        load_dataset_csv(path)
    assert str(exc.value).startswith(f"{path}: line 3")


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
    halved = Dataset(xs=ds.xs, ys=batch_forward(exact, ds.xs).total / 2.0)
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


def test_training_keeps_iterates_feasible(monkeypatch):
    # each step's gradient is taken at the live model, which the step before moved
    tr, va = _tiny_splits(5)
    model = build_variant_model("SOC", 3, 6, 2, seed=5)
    seen, live = [], []

    def recording(params, *args):
        seen.append(max_infeasibility(params))
        live[:] = [params]
        return parameter_gradients(params, *args)

    monkeypatch.setattr(training, "parameter_gradients", recording)
    cfg = TrainConfig(epochs=8, batch_size=32, learning_rate=5e-3, seed=5)
    trained, history = train(model, tr, va, cfg)
    assert len(seen) == len(history) * -(-tr.size // 32)
    assert all(v == 0.0 for v in seen)
    assert max_infeasibility(live[0]) == 0.0  # the iterate after the last step
    assert max_infeasibility(trained) == 0.0


def test_best_val_checkpoint_and_monotone_best():
    tr, va = _tiny_splits(6)
    model = build_variant_model("ReLU", 3, 6, 2, seed=6)
    cfg = TrainConfig(epochs=20, batch_size=64, seed=6)
    trained, history = train(model, tr, va, cfg)
    vals = [v for _, _, v in history]
    best_so_far = np.minimum.accumulate(vals)
    assert np.all(np.diff(best_so_far) <= 0.0 + 1e-18)
    resid = batch_forward(trained, va.xs).total - va.ys
    assert float(np.mean(resid**2)) == pytest.approx(min(vals), rel=1e-12)


def reference_train(params, train_ds, val_ds, config):
    # the out-of-place loop: a list of step losses, np.mean, and new m, v and
    # parameter vectors on every Adam step; one batch of every row validated
    # on itself keeps the stored order, and every epoch runs its validation
    flat = flatten_params(params)
    g = np.zeros_like(flat)
    model = unflatten_params(params, flat)
    grads = unflatten_params(params, g)
    lower = np.where(nonneg_mask(params), 0.0, -np.inf)
    m = np.zeros_like(flat)
    v = np.zeros_like(flat)
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    step = 0
    rng = spawn_rng(config.seed)
    n = train_ds.size
    batch = min(config.batch_size, n)
    stored = val_ds is train_ds and batch == n
    best_val = np.inf
    best_flat = flat.copy()
    stall = 0
    history = []
    for epoch in range(1, config.epochs + 1):
        order = np.arange(n) if stored else rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            loss = parameter_gradients(model, train_ds.xs[idx], train_ds.ys[idx], grads)
            epoch_losses.append(loss)
            step += 1
            lr_t = config.learning_rate * (np.sqrt(1.0 - b2**step) / (1.0 - b1**step))
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            flat[:] = np.maximum(flat - lr_t * m / (np.sqrt(v) + ADAM_EPS), lower)
        train_loss = float(np.mean(epoch_losses))
        val_loss = float(np.mean((batch_forward(model, val_ds.xs).total - val_ds.ys) ** 2))
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


def test_train_matches_the_reference_loop_bit_for_bit():
    tr, va = _tiny_splits(8, name="Mixed", d=4, n=50)
    cases = [
        (va, TrainConfig(epochs=6, batch_size=16, learning_rate=1e-2, seed=3)),  # last batch of 2
        (tr, TrainConfig(epochs=6, batch_size=64, learning_rate=1e-2, seed=4)),  # the decide shape
        (va, TrainConfig(epochs=30, batch_size=32, learning_rate=2e-2, seed=5,
                         early_stop_patience=2)),
        (tr, TrainConfig(epochs=30, batch_size=64, learning_rate=2e-2, seed=6,
                         early_stop_patience=2)),  # the decide shape, stopping early
    ]
    stopped = 0
    for variant in VARIANTS:
        for passthrough in (True, False):
            model = build_variant_model(variant, 4, 6, 2, seed=8, passthrough=passthrough)
            for val, cfg in cases:
                got, history = train(model, tr, val, cfg)
                want, want_history = reference_train(model, tr, val, cfg)
                assert flatten_params(got).tobytes() == flatten_params(want).tobytes()
                assert history == want_history
                stopped += len(history) < cfg.epochs
    assert stopped == 4 * len(VARIANTS)  # early stop fired in both patience-2 cases


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_train_aborts_on_divergence():
    tr, va = _tiny_splits(7)
    model = build_variant_model("ReLU", 3, 6, 2, seed=7)
    # a step this large overflows the forward pass and the loop must abort; on
    # one batch validated on itself, the step loss that fails is epoch 1's
    # validation loss and is named so
    shapes = (
        (va, 64, "training aborted: non-finite loss at epoch 1, step 1"),
        (tr, tr.size, "training aborted: non-finite validation loss at epoch 1"),
    )
    for val, batch_size, message in shapes:
        cfg = TrainConfig(epochs=50, batch_size=batch_size, learning_rate=1e200, seed=7)
        with pytest.raises(RuntimeError) as info:
            train(model, tr, val, cfg)
        assert str(info.value) == message


def test_a_full_batch_validated_on_itself_runs_one_validation_forward(monkeypatch):
    # the step's loss is the validation loss of the epoch before it, so only
    # the last epoch runs a forward of its own; every other shape runs one per epoch
    tr, va = _tiny_splits(9, n=40)
    model = build_variant_model("SOC", 3, 6, 2, seed=9)
    for val, batch_size, forwards in ((tr, 64, 1), (va, 64, 12), (tr, 16, 12)):
        validations = count_calls(monkeypatch, training, "batch_forward")
        steps = count_calls(monkeypatch, training, "parameter_gradients")
        cfg = TrainConfig(epochs=12, batch_size=batch_size, learning_rate=1e-2, seed=9,
                          early_stop_patience=12)
        _, history = train(model, tr, val, cfg)
        monkeypatch.undo()
        assert len(history) == 12
        assert len(validations) == forwards
        assert len(steps) == 12 * -(-tr.size // batch_size)


def test_fit_cells_run_no_single_point_forward(monkeypatch):
    # training is batch work only, and the benchmark counts it so
    fail_wherever_called(monkeypatch, forward)
    target = make_target("QuadraticIso", 3, 0)
    for variant in VARIANTS:
        result = fit_variant_to_target(
            target, variant, seed=1, n_train=32, n_val=16, n_test=16,
            config=TrainConfig(epochs=2, batch_size=16, seed=1),
        )
        assert math.isfinite(result["rel_err"])


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
    for passthrough in (True, False):
        assert variant_depth("SOC", 10, 20, passthrough) == 2


def test_budget_minimality():
    for passthrough in (True, False):
        anchor = variant_param_count(10, 20, 2, "SOC", passthrough)
        for variant in VARIANTS:
            depth = variant_depth(variant, 10, 20, passthrough)
            assert variant_param_count(10, 20, depth, variant, passthrough) >= anchor
            assert variant_param_count(10, 20, depth - 1, variant, passthrough) < anchor


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
    # without passthrough a ReLU layer adds 1,056 scalars at d = 200 and the
    # anchor's two branches alone hold 80,402: depth 79 would be needed
    with pytest.raises(ValueError, match="depth <= 64"):
        variant_depth("ReLU", 200, anchor_width(200), passthrough=False)
