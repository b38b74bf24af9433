from __future__ import annotations

import json

import numpy as np
import pytest

from sd4x import evaluation, kernels, splitter
from sd4x.blackbox import LinearBlackBox
from sd4x.dataset import Attribute, AttributeKind, Dataset, encode
from sd4x.errors import InputError, InvariantError
from sd4x.neighborhood import NeighborhoodSet, build, label
from sd4x.patterns import extent
from sd4x.splitter import (
    Partition,
    candidate_thresholds,
    loss_curve,
    partition_to_dict,
    run,
    validate_partition,
)
from sd4x.whitebox import fit_on_neighborhoods, subgroup_loss

from conftest import mixed_enc, numeric_enc, random_linear_bb


def test_candidate_thresholds_frozen():
    got = candidate_thresholds(np.array([96.0, 50.0, 60.0, 97.0, 60.0]))
    assert got.tolist() == [55.0, 78.0, 96.5]
    assert candidate_thresholds(np.array([7.0, 7.0, 7.0])).size == 0
    assert candidate_thresholds(np.array([0.0, 1.0, 0.0, 1.0])).tolist() == [0.5]
    assert candidate_thresholds(np.array([4.0])).size == 0


def _toy_run(toy_enc, **kw):
    # At a larger scale the softmax saturates on the toy data: every
    # output is 0 or 1, the loss is rounding noise, and nothing splits.
    rng = np.random.default_rng(0)
    bb = random_linear_bb(rng, toy_enc, scale=0.03)
    params = dict(K=3, z=10, n_synth=30, lam=1.0, seed=7)
    params.update(kw)
    return run(toy_enc, bb, **params), bb


def test_run_on_mixed_toy_data(toy_enc):
    partition, _ = _toy_run(toy_enc)
    assert 1 <= len(partition.subgroups) <= 3
    sizes = sum(sg.members.size for sg in partition.subgroups)
    assert sizes == toy_enc.n
    ids = [sg.id for sg in partition.subgroups]
    assert ids == sorted(ids)
    losses = [t.loss_after for t in partition.trace]
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))
    if losses:
        assert losses[0] <= partition.root_loss + 1e-9


def test_k1_matches_global_fit_exactly(toy_enc):
    rng = np.random.default_rng(1)
    bb = random_linear_bb(rng, toy_enc, scale=0.3)
    ns = label(build(toy_enc, z=10, n_synth=25, seed=3), bb)
    partition = run(toy_enc, K=1, lam=1.0, ns=ns)
    direct, direct_loss = evaluation.fit_global_wb(ns, 1.0)
    sg = partition.subgroups[0]
    assert np.array_equal(sg.model.coefficients, direct.coefficients)
    assert np.array_equal(sg.model.intercepts, direct.intercepts)
    assert sg.loss == direct_loss
    assert partition.trace == []
    assert partition.root_loss == partition.global_loss


def test_children_partition_parent_members(toy_enc):
    partition, _ = _toy_run(toy_enc)
    all_members = np.sort(np.concatenate([sg.members for sg in partition.subgroups]))
    assert np.array_equal(all_members, np.arange(toy_enc.n))


def test_patterns_describe_exactly_their_members(toy_enc):
    partition, _ = _toy_run(toy_enc)
    for sg in partition.subgroups:
        ext = extent(sg.pattern, toy_enc)
        assert np.array_equal(ext, np.sort(sg.members))


def test_min_support_respected():
    rng = np.random.default_rng(5)
    enc = numeric_enc(rng.normal(size=(24, 3)))
    bb = random_linear_bb(rng, enc)
    for ms in (2, 5):
        partition = run(enc, bb, K=4, z=10, n_synth=10, lam=1.0, seed=1, min_support=ms)
        for sg in partition.subgroups:
            assert sg.members.size >= ms


def test_constant_blackbox_never_splits():
    rng = np.random.default_rng(6)
    enc = numeric_enc(rng.normal(size=(20, 3)))
    bb = LinearBlackBox(
        classes=enc.classes,
        columns=enc.column_names,
        weights=np.zeros((2, 3)),
        biases=np.array([1.0, 0.0]),
    )
    partition = run(enc, bb, K=5, z=10, n_synth=10, lam=0.0, seed=2)
    assert len(partition.subgroups) == 1
    assert partition.global_loss == pytest.approx(0.0, abs=1e-9)


def test_constant_blackbox_does_not_split_on_rounding_noise():
    # The losses of exact fits are rounding noise of order 1e-16 of the
    # summed squared outputs; the gain guard scales with those outputs,
    # so a gain made of that noise is never taken for a split.
    for seed in range(10):
        rng = np.random.default_rng(seed)
        enc = numeric_enc(rng.normal(size=(20, 3)))
        bb = LinearBlackBox(
            classes=enc.classes,
            columns=enc.column_names,
            weights=np.zeros((2, 3)),
            biases=np.array([1.0, 0.0]),
        )
        for lam in (0.0, 1.0):
            partition = run(enc, bb, K=5, z=10, n_synth=10, lam=lam, seed=2)
            assert len(partition.subgroups) == 1, (seed, lam)


def test_split_columns_restriction():
    rng = np.random.default_rng(7)
    enc = numeric_enc(rng.normal(size=(30, 3)))
    bb = random_linear_bb(rng, enc)
    partition = run(
        enc, bb, K=4, z=10, n_synth=10, lam=1.0, seed=0, split_columns=["x1"]
    )
    for t in partition.trace:
        assert t.column == "x1"
    with pytest.raises(InputError):
        run(enc, bb, K=2, z=10, n_synth=5, lam=1.0, split_columns=["nope"])


def test_non_text_split_columns_skip_derived_text():
    attrs = (
        Attribute("x", AttributeKind.NUMERIC),
        Attribute("msg_alpha", AttributeKind.NUMERIC, text_field="msg"),
    )
    rng = np.random.default_rng(8)
    rows = [(float(rng.random()), float(rng.random())) for _ in range(20)]
    ds = Dataset(attributes=attrs, classes=("a", "b"), rows=rows)
    enc = encode(ds)
    bb = random_linear_bb(rng, enc)
    partition = run(
        enc, bb, K=3, z=10, n_synth=10, lam=1.0, seed=0, split_columns="non-text"
    )
    for t in partition.trace:
        assert t.column == "x"


def test_run_rejects_bad_arguments(toy_enc):
    rng = np.random.default_rng(9)
    bb = random_linear_bb(rng, toy_enc)
    with pytest.raises(InputError):
        run(toy_enc, bb, K=0)
    with pytest.raises(InputError):
        run(toy_enc, bb, K=2, lam=-1.0)
    with pytest.raises(InputError):
        run(toy_enc, bb, K=2, min_support=0)
    with pytest.raises(InputError):
        run(toy_enc, None, K=2)


def test_determinism_across_threads_and_repeats(toy_enc):
    first, bb = _toy_run(toy_enc, threads=1)
    second, _ = _toy_run(toy_enc, threads=4)
    third, _ = _toy_run(toy_enc, threads=1)
    d1 = json.dumps(partition_to_dict(first, toy_enc), sort_keys=True)
    d2 = json.dumps(partition_to_dict(second, toy_enc), sort_keys=True)
    d3 = json.dumps(partition_to_dict(third, toy_enc), sort_keys=True)
    assert d1 == d2 == d3


def test_greedy_picks_the_largest_gain_first():
    # x0 carries a strong step, x1 a weak one; the first split must use x0
    rng = np.random.default_rng(10)
    X = rng.random((60, 2))
    enc = numeric_enc(X)
    w = np.zeros((2, 2))
    bb = LinearBlackBox(
        classes=enc.classes,
        columns=enc.column_names,
        weights=np.array([[6.0, 0.5], [0.0, 0.0]]),
        biases=np.array([-3.0, 0.0]),
    )
    partition = run(enc, bb, K=2, z=10, n_synth=40, lam=0.0, seed=4)
    assert partition.trace[0].column == "x0"


def test_trace_records_gains_consistent_with_losses(toy_enc):
    partition, _ = _toy_run(toy_enc)
    level = partition.root_loss
    for t in partition.trace:
        assert t.gain > 0
        assert t.loss_after == pytest.approx(level - t.gain, rel=1e-9, abs=1e-9)
        level = t.loss_after


def test_validate_partition_catches_tampering(toy, toy_enc):
    partition, _ = _toy_run(toy_enc)
    validate_partition(partition, toy_enc)
    assert len(partition.subgroups) >= 2  # something to tamper with
    broken = Partition(
        subgroups=list(partition.subgroups),
        trace=partition.trace,
        root_loss=partition.root_loss,
        global_loss=partition.global_loss,
        config=partition.config,
    )
    sg = broken.subgroups[0]
    stolen = type(sg)(
        id=sg.id,
        members=sg.members[:-1],
        pattern=sg.pattern,
        model=sg.model,
        loss=sg.loss,
    )
    broken.subgroups[0] = stolen
    with pytest.raises(InvariantError):
        validate_partition(broken, toy_enc)


def test_validate_partition_rejects_budget_overflow(toy_enc):
    partition, _ = _toy_run(toy_enc, K=3)
    assert len(partition.subgroups) >= 2
    with pytest.raises(InvariantError):
        validate_partition(partition, toy_enc, K=1)


def test_loss_curve_follows_trace():
    rng = np.random.default_rng(11)
    enc = numeric_enc(rng.random((40, 2)))
    bb = random_linear_bb(rng, enc, scale=2.0)
    curve, partition = loss_curve(enc, bb, K_max=5, z=10, n_synth=20, lam=1.0, seed=5)
    assert curve[0] == (1, partition.root_loss)
    assert len(curve) == len(partition.trace) + 1
    ks = [k for k, _ in curve]
    assert ks == list(range(1, len(curve) + 1))
    losses = [v for _, v in curve]
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


def test_partition_dict_contents(toy, toy_enc):
    partition, _ = _toy_run(toy_enc)
    d = partition_to_dict(partition, toy_enc)
    assert set(d) == {"config", "root_loss", "global_loss", "subgroups", "trace"}
    assert d["config"]["k"] == 3
    assert d["config"]["lambda"] == 1.0
    assert "data_hash" in d["config"]
    assert "threads" not in d["config"]
    total = 0
    for sd in d["subgroups"]:
        assert set(sd) == {
            "id",
            "size",
            "members",
            "pattern",
            "pattern_closed",
            "conditions",
            "model",
            "loss",
            "top_features",
        }
        assert sd["size"] == len(sd["members"])
        total += sd["size"]
        assert set(sd["top_features"]) == {"TEC", "OT"}
        for cls, feats in sd["top_features"].items():
            assert len(feats) <= 5
    assert total == toy_enc.n
    text = json.dumps(d)
    assert "spec" not in text.lower() or True  # plain serializability check


def test_scan_agrees_with_exhaustive_search_small():
    # brute force over every boundary of the only column, replicating the
    # smallest-threshold tie rule, on ten tiny instances
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(4, 9))
        x = np.sort(rng.random(n))
        enc = numeric_enc(x.reshape(-1, 1))
        bb = random_linear_bb(rng, enc, scale=3.0)
        ns = label(build(enc, z=10, n_synth=0, seed=0), bb)
        partition = run(enc, K=2, lam=0.0, min_support=1, ns=ns)
        if len(partition.subgroups) < 2:
            continue
        got_threshold = partition.trace[0].threshold

        A = np.hstack([x.reshape(-1, 1), np.ones((n, 1))])
        Y = ns.bb_outputs[:, 0, :]
        best = None
        for t in range(1, n):
            sse = 0.0
            for rows in (slice(0, t), slice(t, n)):
                Ar, Yr = A[rows], Y[rows]
                W = np.linalg.pinv(Ar) @ Yr
                sse += float(np.sum((Ar @ W - Yr) ** 2))
            thr = (x[t - 1] + x[t]) / 2.0
            if best is None or sse < best[0] - 1e-12:
                best = (sse, thr)
        assert got_threshold == pytest.approx(best[1], abs=1e-12)


def test_property_one_child_losses_never_exceed_parent():
    rng = np.random.default_rng(12)
    enc = mixed_enc(rng, n=40)
    bb = random_linear_bb(rng, enc)
    ns = label(build(enc, z=10, n_synth=15, seed=6), bb)
    members = np.arange(enc.n, dtype=np.int64)
    parent = fit_on_neighborhoods(ns, members, 0.0)
    parent_loss = subgroup_loss(ns, members, parent)
    for trial in range(30):
        j = int(rng.integers(enc.m))
        vals = enc.values[:, j]
        distinct = np.unique(vals)
        if distinct.size < 2:
            continue
        thr = float(rng.choice((distinct[:-1] + distinct[1:]) / 2.0))
        left = members[vals <= thr]
        right = members[vals > thr]
        if left.size == 0 or right.size == 0:
            continue
        lm = fit_on_neighborhoods(ns, left, 0.0)
        rm = fit_on_neighborhoods(ns, right, 0.0)
        child_sum = subgroup_loss(ns, left, lm) + subgroup_loss(ns, right, rm)
        assert child_sum <= parent_loss * (1.0 + 1e-9) + 1e-12


def test_scan_right_child_missing_a_one_hot_level_gets_exact_zeros(monkeypatch):
    # Columns: x, then the one-hot block hue=r, hue=g, hue=b.  Only the 7
    # objects with the smallest x are red, so every right child of a
    # boundary from 7 on has no red row.  Its red row and column of the
    # Gram pieces must be exact zeros, as in a direct sum over its rows,
    # so the pivot test and the pseudoinverse see the same structurally
    # singular matrix rather than rounding noise.
    rng = np.random.default_rng(23)
    n, S, p = 20, 5, 2
    x = np.sort(rng.normal(size=n))
    hues = ["r"] * 7 + [("g", "b")[int(k)] for k in rng.integers(2, size=n - 7)]
    attrs = (
        Attribute("x", AttributeKind.NUMERIC),
        Attribute("hue", AttributeKind.NOMINAL, categories=("r", "g", "b")),
    )
    order = rng.permutation(n)  # the scan, not the input, sorts the objects
    rows = [(float(x[i]), hues[i]) for i in order]
    enc = encode(Dataset(attributes=attrs, classes=("c0", "c1"), rows=rows))
    samples = np.repeat(enc.values[:, None, :], S, axis=1)
    samples[:, 1:, 0] += rng.normal(scale=0.01, size=(n, S - 1))
    ns = NeighborhoodSet(
        samples=samples, z=1, n_synth=S - 1, seed=0, bb_outputs=rng.random(size=(n, S, p))
    )
    seen = []
    original = kernels._ridge_sse_stack

    def capture(G, C, yy, lam, npen):
        seen.append((G.copy(), C.copy()))
        return original(G, C, yy, lam, npen)

    monkeypatch.setattr(kernels, "_ridge_sse_stack", capture)
    engine = splitter._Engine(enc, ns, 0.0, 2, [0])
    assert engine._scan_column(np.arange(n, dtype=np.int64), 0) is not None
    ((G, C),) = seen
    nb = G.shape[0] // 2
    bounds = np.arange(2, n - 1)
    assert nb == bounds.size
    for i, t in enumerate(bounds):
        right_G, right_C = G[nb + i], C[nb + i]
        red_free = t >= 7
        assert np.all(right_G[1] == 0.0) == red_free
        assert np.all(right_G[:, 1] == 0.0) == red_free
        assert np.all(right_C[1] == 0.0) == red_free
