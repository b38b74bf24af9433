from __future__ import annotations

import sys
import tracemalloc

import numpy as np
import pytest

from sd4x import evaluation, kernels, splitter
from sd4x.blackbox import LinearBlackBox
from sd4x.dataset import Attribute, AttributeKind, Dataset, encode
from sd4x.errors import InputError
from sd4x.neighborhood import NeighborhoodSet, build, label
from sd4x.whitebox import (
    WhiteBoxModel,
    feature_importance,
    fit_on_neighborhoods,
    fit_parts,
    neighborhood_grams,
    predict,
    subgroup_loss,
)

from conftest import fit_rows, mixed_enc, numeric_enc, random_linear_bb, row_outputs


def test_ridge_single_row_puts_mean_in_intercept():
    X = np.array([[3.0, -1.0]])
    Y = np.array([[0.7]])
    model = fit_rows(X, Y, lam=2.0)
    assert np.allclose(model.coefficients, 0.0, atol=1e-10)
    assert model.intercepts[0] == pytest.approx(0.7, abs=1e-10)


def test_ridge_exact_recovery_at_lambda_zero():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(50, 4))
    W = rng.normal(size=(3, 4))
    b = rng.normal(size=3)
    Y = X @ W.T + b
    model = fit_rows(X, Y, lam=0.0)
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
        model = fit_rows(X, Y, lam=lam)
        assert np.allclose(model.coefficients, expected[:-1].T, atol=1e-9)
        assert np.allclose(model.intercepts, expected[-1], atol=1e-9)


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
    outputs = row_outputs(ns, bb)
    for i in range(n):
        A = np.hstack([ns.samples[i], np.ones((S, 1))])
        Y = outputs[i]
        # summation order differs from the reference: bound the error by
        # 1e-12 of the sum of absolute products, which is exact for 0/1 cells
        absA = np.abs(A)
        assert np.all(np.abs(G[i] - A.T @ A) <= 1e-12 * (absA.T @ absA))
        assert np.all(np.abs(C[i] - A.T @ Y) <= 1e-12 * (absA.T @ np.abs(Y)))
        assert yy[i] == pytest.approx(float(np.sum(Y * Y)), rel=1e-12)
    again = neighborhood_grams(ns)
    assert again[0] is G  # cached on the neighborhood set


@pytest.mark.parametrize(
    "n,S,m",
    [
        (13, 25, 4),  # small products, uneven ranges
        (3, 600, 100),  # OpenBLAS's own threads would move these products' bits
    ],
)
def test_pooled_grams_have_the_bits_of_one_thread(n, S, m):
    rng = np.random.default_rng(5)
    samples, outputs = rng.normal(size=(n, S, m)), rng.random(size=(n, S, 3))
    with kernels.one_blas_thread():
        XtX = [x.T @ x for x in samples]
        XtY = [x.T @ y for x, y in zip(samples, outputs)]

    def grams(threads):
        ns = NeighborhoodSet(samples, 10, S - 1, 0, bb_outputs=outputs)
        return neighborhood_grams(ns, threads)

    def check(G, C, yy):
        for i in range(n):
            assert np.array_equal(G[i, :m, :m], XtX[i]) and np.array_equal(C[i, :m], XtY[i])

    one = grams(1)
    check(*one)
    for threads in (2, 4):
        for a, b in zip(one, grams(threads)):
            assert np.array_equal(a, b), threads
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        fast = grams(8)
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(one, fast):
        assert np.array_equal(a, b)
    with pytest.raises(InputError, match="threads"):
        grams(0)


def _random_ns(rng, n: int, S: int, m: int = 3, p: int = 2) -> NeighborhoodSet:
    return NeighborhoodSet(
        samples=rng.normal(size=(n, S, m)),
        z=10,
        n_synth=S - 1,
        seed=0,
        bb_outputs=rng.random(size=(n, S, p)),
    )


def _one_shot_loss(X, Y, members: np.ndarray, model: WhiteBoxModel) -> float:
    # Reference loss from the neighborhood rows X and their outputs Y,
    # against which the Gram-form subgroup_loss is checked.
    pred = X[members] @ model.coefficients.T + model.intercepts
    diff = Y[members] - pred
    return float(np.sum(diff * diff))


def test_subgroup_loss_over_several_blocks_matches_one_shot_sum():
    rng = np.random.default_rng(7)
    ns = _random_ns(rng, n=80, S=1001)
    model = WhiteBoxModel(
        coefficients=rng.normal(size=(2, 3)), intercepts=rng.normal(size=2), lam=1.0
    )
    for members in (np.arange(80), np.arange(79, -1, -2), rng.permutation(80)[:50]):
        expected = _one_shot_loss(ns.samples, ns.bb_outputs, members, model)
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


def test_subgroup_loss_peak_memory_is_a_few_gathers():
    # neighborhood-mixed sizes: S = 601, m = 35, p = 3.
    rng = np.random.default_rng(10)
    ns = _random_ns(rng, n=60, S=601, m=35, p=3)
    model = WhiteBoxModel(
        coefficients=rng.normal(size=(3, 35)), intercepts=rng.normal(size=3), lam=1.0
    )
    members = np.arange(60)
    subgroup_loss(ns, members, model)  # warm up
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        subgroup_loss(ns, members, model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base <= 4 * 2**20, (peak - base) / 2**20


def test_subgroup_loss_matches_the_reference_on_criterion_3_runs():
    # The twenty runs of acceptance criterion 3, with their neighborhoods.
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        enc = numeric_enc(rng.random((40, 4)))
        bb = random_linear_bb(rng, enc, scale=2.0)
        ns = label(build(enc, z=10, n_synth=15, seed=seed), bb)
        partition = splitter.run(enc, K=6, lam=1.0, ns=ns)
        outputs = row_outputs(ns, bb)
        for sg in partition.subgroups:
            expected = _one_shot_loss(ns.samples, outputs, sg.members, sg.model)
            assert subgroup_loss(ns, sg.members, sg.model) == pytest.approx(expected, rel=1e-9)


def test_losses_of_a_constant_blackbox_are_never_negative():
    # Every fit at lambda = 0 is exact, so each loss is rounding noise
    # around 0; the noise must not make a loss negative.
    rng = np.random.default_rng(13)
    enc = numeric_enc(rng.normal(size=(30, 3)))
    bb = LinearBlackBox(
        classes=enc.classes,
        columns=enc.column_names,
        weights=np.zeros((2, 3)),
        biases=np.array([1.0, 0.0]),
    )
    ns = label(build(enc, z=10, n_synth=10, seed=4), bb)
    subsets = [np.arange(enc.n)] + [
        np.sort(rng.choice(enc.n, size=int(rng.integers(1, enc.n)), replace=False))
        for _ in range(50)
    ]
    for members in subsets:
        model = fit_on_neighborhoods(ns, members, 0.0)
        assert subgroup_loss(ns, members, model) >= 0.0
    assert evaluation.fit_local_wb(ns, 0.0) >= 0.0


def test_fit_on_neighborhoods_equals_stacked_ridge():
    rng = np.random.default_rng(4)
    enc = numeric_enc(rng.normal(size=(10, 3)), classes=("a", "b", "c"))
    bb = random_linear_bb(rng, enc)
    ns = label(build(enc, z=10, n_synth=7, seed=2), bb)
    members = np.array([1, 4, 7], dtype=np.int64)
    for lam in (0.0, 1.0):
        pooled = fit_on_neighborhoods(ns, members, lam)
        X = ns.samples[members].reshape(-1, 3)
        Y = row_outputs(ns, bb)[members].reshape(-1, 3)
        A = np.hstack([X, np.ones((X.shape[0], 1))])
        M = A.T @ A + lam * np.diag([1.0] * 3 + [0.0])
        expected = np.linalg.solve(M, A.T @ Y)
        assert np.allclose(pooled.coefficients, expected[:-1].T, atol=1e-8)
        assert np.allclose(pooled.intercepts, expected[-1], atol=1e-8)
        loss = subgroup_loss(ns, members, pooled)
        resid = float(np.sum((predict(pooled, X) - Y) ** 2))
        assert loss == pytest.approx(resid, rel=1e-9, abs=1e-9)


def test_fit_parts_gives_each_part_the_bits_of_its_own_solve():
    rng = np.random.default_rng(6)
    enc = numeric_enc(rng.normal(size=(12, 3)), classes=("a", "b", "c"))
    ns = label(build(enc, z=10, n_synth=2, seed=3), random_linear_bb(rng, enc))
    G_all, C_all, _ = neighborhood_grams(ns)
    # the one-object part is singular at lambda = 0 and takes the fallback
    parts = [np.array([0, 3, 5, 8, 11]), np.array([2]), np.array([1, 4, 6, 7, 9, 10])]
    for lam in (0.0, 1.0):
        models = fit_parts(ns, parts, lam)
        assert len(models) == len(parts)
        for members, model in zip(parts, models):
            B, _ = kernels.solve_penalized(
                G_all[members].sum(axis=0), C_all[members].sum(axis=0), lam, 3
            )
            assert np.array_equal(model.coefficients, B[:3].T)
            assert np.array_equal(model.intercepts, B[3])
            alone = fit_on_neighborhoods(ns, members, lam)
            assert np.array_equal(model.coefficients, alone.coefficients)
            assert np.array_equal(model.intercepts, alone.intercepts)
    with pytest.raises(InputError, match="empty subgroup"):
        fit_parts(ns, [parts[0], np.array([], dtype=np.int64)], 1.0)


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
    Y = row_outputs(ns, bb)[0]
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
