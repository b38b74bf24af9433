from __future__ import annotations

import numpy as np
import pytest

from sd4x.dataset import Attribute, AttributeKind, Dataset, encode
from sd4x.errors import InputError, SingularSystemError
from sd4x.neighborhood import NeighborhoodSet, build, label
from sd4x import whitebox
from sd4x.whitebox import (
    WhiteBoxModel,
    feature_importance,
    fit_on_neighborhoods,
    fit_ridge,
    load_model,
    model_to_dict,
    neighborhood_grams,
    predict,
    save_model,
    subgroup_loss,
)

from conftest import mixed_enc, numeric_enc, random_linear_bb


def test_ridge_frozen_one_dimensional():
    # X = [1, 2, 3], Y = 2X, lambda = 14, no intercept:
    # (X'X + 14) w = X'Y  ->  (14 + 14) w = 28  ->  w = 1
    X = np.array([[1.0], [2.0], [3.0]])
    Y = np.array([2.0, 4.0, 6.0])
    model = fit_ridge(X, Y, lam=14.0, fit_intercept=False)
    assert model.coefficients.shape == (1, 1)
    assert model.coefficients[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert model.intercepts[0] == 0.0


def test_ridge_single_row_puts_mean_in_intercept():
    X = np.array([[3.0, -1.0]])
    Y = np.array([0.7])
    model = fit_ridge(X, Y, lam=2.0)
    assert np.allclose(model.coefficients, 0.0, atol=1e-10)
    assert model.intercepts[0] == pytest.approx(0.7, abs=1e-10)


def test_ridge_exact_recovery_at_lambda_zero():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(50, 4))
    W = rng.normal(size=(3, 4))
    b = rng.normal(size=3)
    Y = X @ W.T + b
    model = fit_ridge(X, Y, lam=0.0)
    assert np.allclose(model.coefficients, W, atol=1e-9)
    assert np.allclose(model.intercepts, b, atol=1e-9)
    assert np.allclose(predict(model, X), Y, atol=1e-9)


def test_ridge_matches_explicit_normal_equations():
    rng = np.random.default_rng(1)
    for lam in (0.1, 1.0, 5.0):
        X = rng.normal(size=(40, 6))
        Y = rng.normal(size=(40, 2))
        A = np.hstack([X, np.ones((40, 1))])
        M = A.T @ A + lam * np.diag([1.0] * 6 + [0.0])
        expected = np.linalg.solve(M, A.T @ Y)
        model = fit_ridge(X, Y, lam=lam)
        assert np.allclose(model.coefficients, expected[:-1].T, atol=1e-9)
        assert np.allclose(model.intercepts, expected[-1], atol=1e-9)


def test_ridge_standardize_matches_manual_path():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(60, 3)) * np.array([1.0, 10.0, 0.1]) + np.array([0.0, 5.0, -2.0])
    Y = rng.normal(size=(60, 2))
    lam = 3.0
    model = fit_ridge(X, Y, lam=lam, standardize=True)
    mu, sd = X.mean(axis=0), X.std(axis=0)
    Xs = (X - mu) / sd
    ref = fit_ridge(Xs, Y, lam=lam)
    assert np.allclose(predict(model, X), predict(ref, Xs), atol=1e-9)


def test_ridge_singular_at_lambda_zero_raises():
    X = np.ones((10, 2))
    X[:, 1] = np.arange(10)
    X = np.hstack([X, X[:, 1:2]])  # duplicated column
    Y = np.arange(10.0)
    with pytest.raises(SingularSystemError) as err:
        fit_ridge(X, Y, lam=0.0)
    assert "lambda" in str(err.value)
    model = fit_ridge(X, Y, lam=1e-6)
    assert np.isfinite(model.coefficients).all()


def test_ridge_input_validation():
    with pytest.raises(InputError):
        fit_ridge(np.zeros((3,)), np.zeros(3), lam=1.0)
    with pytest.raises(InputError):
        fit_ridge(np.zeros((3, 2)), np.zeros(4), lam=1.0)
    with pytest.raises(InputError):
        fit_ridge(np.zeros((3, 2)), np.zeros(3), lam=-0.5)
    with pytest.raises(InputError):
        fit_ridge(np.zeros((0, 2)), np.zeros(0), lam=1.0)


def test_predict_frozen_subgroup_model(toy_enc):
    # surrogate with weights 0.8*disk + 0.7*swap + 0.4*full for the first
    # class; on the second object (disk 0, swap 0.8, full 0.3) the score
    # is 0.56 + 0.12 = 0.68
    coef = np.zeros((2, toy_enc.m))
    coef[0, 0] = 0.8
    coef[0, 1] = 0.7
    coef[0, 2] = 0.4
    model = WhiteBoxModel(coefficients=coef, intercepts=np.zeros(2), lam=1.0)
    scores = predict(model, toy_enc.values[1:2])
    assert scores[0, 0] == pytest.approx(0.68, abs=1e-12)


def _uniform_ns(k: int, p: int) -> NeighborhoodSet:
    samples = np.zeros((1, k, 2))
    samples[0, :, 0] = np.linspace(-1, 1, k)
    outputs = np.full((1, k, p), 1.0 / p)
    return NeighborhoodSet(
        samples=samples, z=10, n_synth=k - 1, seed=0, bb_outputs=outputs
    )


def test_zero_model_loss_against_uniform_outputs():
    # all-zero surrogate vs uniform black box on k samples and p classes:
    # every sample contributes p * (1/p)^2, so the loss is k / p
    for k, p in ((5, 2), (12, 3), (30, 5)):
        ns = _uniform_ns(k, p)
        model = WhiteBoxModel(
            coefficients=np.zeros((p, 2)), intercepts=np.zeros(p), lam=0.0
        )
        members = np.array([0], dtype=np.int64)
        assert subgroup_loss(ns, members, model) == pytest.approx(k / p, abs=1e-12)


def test_grams_match_direct_products():
    # numeric, boolean, one-hot and ordinal columns, S = 241 rows each
    rng = np.random.default_rng(3)
    enc = mixed_enc(rng, n=8)
    bb = random_linear_bb(rng, enc)
    ns = label(build(enc, z=10, n_synth=240, seed=1), bb)
    n, S, m = ns.samples.shape
    G, C, yy = neighborhood_grams(ns)
    assert G.shape == (n, m + 1, m + 1) and C.shape == (n, m + 1, 2) and yy.shape == (n,)
    assert np.all(G[:, m, m] == S)
    for i in range(n):
        A = np.hstack([ns.samples[i], np.ones((S, 1))])
        Y = ns.bb_outputs[i]
        # summation order differs from the reference: bound the error by
        # 1e-12 of the sum of absolute products, which is exact for 0/1 cells
        absA = np.abs(A)
        assert np.all(np.abs(G[i] - A.T @ A) <= 1e-12 * (absA.T @ absA))
        assert np.all(np.abs(C[i] - A.T @ Y) <= 1e-12 * (absA.T @ np.abs(Y)))
        assert yy[i] == pytest.approx(float(np.sum(Y * Y)), rel=1e-12)
    again = neighborhood_grams(ns)
    assert again[0] is G  # cached on the neighborhood set


def _random_ns(rng, n: int, S: int, m: int = 3, p: int = 2) -> NeighborhoodSet:
    return NeighborhoodSet(
        samples=rng.normal(size=(n, S, m)),
        z=10,
        n_synth=S - 1,
        seed=0,
        bb_outputs=rng.random(size=(n, S, p)),
    )


def _one_shot_loss(ns: NeighborhoodSet, members: np.ndarray, model: WhiteBoxModel) -> float:
    pred = ns.samples[members] @ model.coefficients.T + model.intercepts
    diff = ns.bb_outputs[members] - pred
    return float(np.sum(diff * diff))


def test_subgroup_loss_over_several_blocks_matches_one_shot_sum():
    rng = np.random.default_rng(7)
    ns = _random_ns(rng, n=80, S=1001)
    model = WhiteBoxModel(
        coefficients=rng.normal(size=(2, 3)), intercepts=rng.normal(size=2), lam=1.0
    )
    assert whitebox._LOSS_BLOCK_ROWS // ns.size < 80  # the members span blocks
    for members in (np.arange(80), np.arange(79, -1, -2), rng.permutation(80)[:50]):
        expected = _one_shot_loss(ns, members, model)
        assert subgroup_loss(ns, members, model) == pytest.approx(expected, rel=1e-12)
    assert subgroup_loss(ns, np.array([], dtype=np.int64), model) == 0.0


def test_subgroup_loss_counts_the_members_rows_in_any_order():
    rng = np.random.default_rng(8)
    ns = _random_ns(rng, n=40, S=1001)
    model = WhiteBoxModel(
        coefficients=rng.normal(size=(2, 3)), intercepts=rng.normal(size=2), lam=1.0
    )
    members = np.array([37, 2, 19, 5, 30, 11, 0, 24], dtype=np.int64)
    per_object = sum(subgroup_loss(ns, np.array([i]), model) for i in members)
    for order in (members, members[::-1], np.sort(members), rng.permutation(members)):
        assert subgroup_loss(ns, order, model) == pytest.approx(per_object, rel=1e-12)


def test_fit_on_neighborhoods_equals_stacked_ridge():
    rng = np.random.default_rng(4)
    enc = numeric_enc(rng.normal(size=(10, 3)), classes=("a", "b", "c"))
    bb = random_linear_bb(rng, enc)
    ns = label(build(enc, z=10, n_synth=7, seed=2), bb)
    members = np.array([1, 4, 7], dtype=np.int64)
    for lam in (0.0, 1.0):
        pooled = fit_on_neighborhoods(ns, members, lam)
        X = ns.samples[members].reshape(-1, 3)
        Y = ns.bb_outputs[members].reshape(-1, 3)
        direct = fit_ridge(X, Y, lam=lam)
        assert np.allclose(pooled.coefficients, direct.coefficients, atol=1e-8)
        assert np.allclose(pooled.intercepts, direct.intercepts, atol=1e-8)
        loss = subgroup_loss(ns, members, pooled)
        resid = float(np.sum((predict(pooled, X) - Y) ** 2))
        assert loss == pytest.approx(resid, rel=1e-9, abs=1e-9)


def test_fit_on_neighborhoods_never_raises_on_singular():
    # a single object with one constant column makes lambda = 0 singular;
    # the pooled fit falls back to the minimum-norm solution and still
    # reaches the smallest possible loss
    rng = np.random.default_rng(5)
    values = rng.normal(size=(4, 2))
    values[:, 1] = 2.5
    enc = numeric_enc(values)
    bb = random_linear_bb(rng, enc)
    ns = label(build(enc, z=10, n_synth=6, seed=3), bb)
    member = np.array([0], dtype=np.int64)
    model = fit_on_neighborhoods(ns, member, 0.0)
    X = ns.samples[0]
    Y = ns.bb_outputs[0]
    A = np.hstack([X, np.ones((X.shape[0], 1))])
    best = float(np.sum((A @ np.linalg.pinv(A) @ Y - Y) ** 2))
    assert subgroup_loss(ns, member, model) == pytest.approx(best, rel=1e-7, abs=1e-9)


def test_fit_on_neighborhoods_requires_labels_and_members():
    rng = np.random.default_rng(6)
    enc = numeric_enc(rng.normal(size=(5, 2)))
    ns = build(enc, z=10, n_synth=4, seed=0)
    with pytest.raises(InputError):
        fit_on_neighborhoods(ns, np.array([0], dtype=np.int64), 1.0)
    bb = random_linear_bb(rng, enc)
    labeled = label(ns, bb)
    with pytest.raises(InputError):
        fit_on_neighborhoods(labeled, np.array([], dtype=np.int64), 1.0)


def test_feature_importance_frozen_shares():
    model = WhiteBoxModel(
        coefficients=np.array([[2.0, -1.0, 1.0], [0.0, 0.0, 0.0]]),
        intercepts=np.zeros(2),
        lam=1.0,
    )
    ranked = feature_importance(model, 0, ("u", "v", "w"))
    assert [name for name, _, _ in ranked] == ["u", "v", "w"]
    assert [coef for _, coef, _ in ranked] == [2.0, -1.0, 1.0]
    assert [share for _, _, share in ranked] == pytest.approx([0.5, 0.25, 0.25])

    model2 = WhiteBoxModel(
        coefficients=np.array([[0.8, 0.7, 0.4]]),
        intercepts=np.zeros(1),
        lam=1.0,
    )
    shares = [s for _, _, s in feature_importance(model2, 0, ("a", "b", "c"))]
    assert shares == pytest.approx([0.421, 0.368, 0.211], abs=1e-3)


def test_feature_importance_ties_and_zero_row():
    model = WhiteBoxModel(
        coefficients=np.array([[1.0, -1.0], [0.0, 0.0]]),
        intercepts=np.zeros(2),
        lam=1.0,
    )
    ranked = feature_importance(model, 0, ("a", "b"))
    assert [name for name, _, _ in ranked] == ["a", "b"]
    with pytest.warns(UserWarning):
        empty = feature_importance(model, 1, ("a", "b"))
    assert empty == []


def test_model_save_load_round_trip(tmp_path):
    model = WhiteBoxModel(
        coefficients=np.array([[0.25, -2.0]]),
        intercepts=np.array([0.5]),
        lam=0.75,
    )
    path = str(tmp_path / "model.json")
    save_model(path, model, ("c1", "c2"), ("only",))
    loaded, columns, classes = load_model(path)
    assert columns == ("c1", "c2") and classes == ("only",)
    assert np.array_equal(loaded.coefficients, model.coefficients)
    assert np.array_equal(loaded.intercepts, model.intercepts)
    assert loaded.lam == 0.75
    with pytest.raises(InputError):
        load_model(str(tmp_path / "missing.json"))
