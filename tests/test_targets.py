import math

import numpy as np
import pytest

from socicnn import (
    TARGET_NAMES,
    make_target,
    spawn_rng,
    target_values_and_subgradients,
    target_values_batch,
)


def test_registry_names():
    assert len(TARGET_NAMES) == 10
    with pytest.raises(ValueError):
        make_target("NotATarget", 5, 0)
    with pytest.raises(ValueError):
        make_target("QuadraticIso", 1, 0)


def test_anisotropic_weight_formulas():
    t = make_target("QuadraticAniso", 5, 0)
    assert np.allclose(t.weights, [0.5, 1.0, 1.5, 2.0, 2.5], atol=1e-15)
    t = make_target("NormAniso", 10, 0)
    assert t.weights[0] == pytest.approx(1.0, abs=1e-15)
    assert t.weights[-1] == pytest.approx(10.0, abs=1e-15)


def test_frozen_data_deterministic():
    a = make_target("Mixed", 6, 3)
    b = make_target("Mixed", 6, 3)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.piece_slopes, b.piece_slopes)
    c = make_target("Mixed", 6, 4)
    assert not np.array_equal(a.piece_slopes, c.piece_slopes)


def test_point_values():
    (v,), (g,) = target_values_and_subgradients(make_target("NormEuclid", 2, 0), [[3.0, 4.0]])
    assert v == pytest.approx(5.0, abs=1e-14)
    assert np.allclose(g, [0.6, 0.8], atol=1e-14)

    (v,), (g,) = target_values_and_subgradients(make_target("LogSumExpQuad", 2, 0), [[0.0, 0.0]])
    assert v == pytest.approx(math.log(2.0), abs=1e-12)
    assert np.allclose(g, [0.5, 0.5], atol=1e-12)

    # Huber branch 2*delta*|t| - delta^2 beyond the knee, 2t inside
    (v,), (g,) = target_values_and_subgradients(make_target("Huber", 2, 0), [[2.0, 0.0]])
    assert v == pytest.approx(3.0, abs=1e-14)
    assert np.allclose(g, [2.0, 0.0], atol=1e-14)
    (v,), (g,) = target_values_and_subgradients(make_target("Huber", 2, 0), [[0.5, -0.25]])
    assert v == pytest.approx(0.25 + 0.0625, abs=1e-14)
    assert np.allclose(g, [1.0, -0.5], atol=1e-14)

    (v,), (g,) = target_values_and_subgradients(make_target("L1Norm", 2, 0), [[-1.0, 2.0]])
    assert v == pytest.approx(3.0, abs=1e-15)
    assert np.allclose(g, [-1.0, 1.0], atol=1e-15)


def test_ickan_target_at_ones():
    t = make_target("ICKANPaperTarget", 7, 5)
    (v,) = target_values_batch(t, np.ones((1, 7)))
    assert v == pytest.approx(7.0 + 0.25 * float(np.sum(t.weights)), abs=1e-12)


def test_quadratic_iso_matches_closed_form():
    t = make_target("QuadraticIso", 4, 0)
    xs = spawn_rng(1).uniform(-3, 3, (50, 4))
    assert np.allclose(target_values_batch(t, xs), 0.5 * np.sum(xs * xs, axis=1),
                       rtol=1e-15, atol=0)


def test_kink_conventions_are_zero():
    for name in ("NormEuclid", "NormAniso", "L1Norm"):
        t = make_target(name, 3, 0)
        _, G = target_values_and_subgradients(t, np.zeros((1, 3)))
        assert np.array_equal(G, np.zeros((1, 3)))


def test_batch_values_match_pointwise():
    rng = spawn_rng(2)
    for name in TARGET_NAMES:
        t = make_target(name, 5, 11)
        X = rng.uniform(-3, 3, (40, 5))
        batch = target_values_batch(t, X)
        for row, val in zip(X, batch):
            assert target_values_batch(t, row[None])[0] == pytest.approx(
                val, rel=1e-13, abs=1e-13
            )


@pytest.mark.parametrize("name", TARGET_NAMES)
def test_batch_entry_rejects_rows_of_the_wrong_width(name):
    t = make_target(name, 3, 0)
    for X in (np.ones((2, 5)), np.ones((2, 2)), np.ones(3)):
        for entry in (target_values_batch, target_values_and_subgradients):
            with pytest.raises(ValueError, match=r"expected an \(n, 3\) matrix"):
                entry(t, X)
    values, grads = target_values_and_subgradients(t, np.ones((2, 3)))
    assert values.shape == (2,) and grads.shape == (2, 3)


def test_logsumexp_stable_for_huge_inputs():
    t = make_target("LogSumExpQuad", 3, 0)
    v, g = target_values_and_subgradients(t, np.array([np.full(3, 700.0), np.full(3, -700.0)]))
    assert np.all(np.isfinite(v)) and np.all(np.isfinite(g))
    t = make_target("SoftplusSum", 3, 0)
    v, g = target_values_and_subgradients(t, np.full((1, 3), 700.0))
    assert np.all(np.isfinite(v)) and np.all(np.isfinite(g))


def test_every_target_is_midpoint_convex():
    rng = spawn_rng(3)
    for name in TARGET_NAMES:
        t = make_target(name, 4, 7)
        X = rng.uniform(-4, 4, (10_000, 4))
        Y = rng.uniform(-4, 4, (10_000, 4))
        gap = target_values_batch(t, (X + Y) / 2) - 0.5 * (
            target_values_batch(t, X) + target_values_batch(t, Y)
        )
        assert float(np.max(gap)) <= 1e-9, name


def test_subgradient_inequality_for_every_target():
    rng = spawn_rng(4)
    for name in TARGET_NAMES:
        t = make_target(name, 4, 7)
        X = rng.uniform(-4, 4, (300, 4))
        Y = rng.uniform(-4, 4, (300, 4))
        fy = target_values_batch(t, Y)
        worst = -np.inf
        for x, fy_val, y in zip(X, fy, Y):
            (fx,), (gx,) = target_values_and_subgradients(t, x[None])
            worst = max(worst, fx + float(gx @ (y - x)) - float(fy_val))
        assert worst <= 1e-9, name
