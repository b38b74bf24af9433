from __future__ import annotations

import csv

import numpy as np
import pytest

from sd4x import splitter
from sd4x.errors import InputError
from sd4x.evaluation import (
    build_report,
    diversity,
    elbow,
    fit_global_wb,
    fit_local_wb,
    mse,
    pairwise_cosines,
    partition_scores,
    rank_labels,
    render_report_md,
    topk_f1,
    write_curve_csv,
)
from sd4x.neighborhood import build, label
from sd4x.whitebox import WhiteBoxModel, fit_on_neighborhoods, subgroup_loss

from conftest import numeric_enc, random_linear_bb


def test_mse_is_loss_over_objects():
    assert mse(14.0, 7) == 2.0
    with pytest.raises(InputError):
        mse(1.0, 0)


def test_rank_labels_stable_on_ties():
    probs = np.array([[0.5, 0.5], [0.2, 0.8]])
    assert rank_labels(probs, 1).tolist() == [0, 1]
    assert rank_labels(probs, 2).tolist() == [1, 0]
    with pytest.raises(InputError):
        rank_labels(probs, 3)
    with pytest.raises(InputError):
        rank_labels(probs, 0)


def test_topk_f1_frozen_two_thirds():
    # black box ranks (A, A, B) first; surrogate ranks (A, B, B):
    # class A: precision 1, recall 1/2 -> F1 2/3 (support 2)
    # class B: precision 1/2, recall 1 -> F1 2/3 (support 1)
    # weighted: 2/3
    bb = np.array([[0.9, 0.1], [0.8, 0.2], [0.3, 0.7]])
    wb = np.array([[0.6, 0.4], [0.4, 0.6], [0.2, 0.8]])
    assert topk_f1(bb, wb, 1) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_topk_f1_frozen_one_third():
    # balanced two-class truth, constant predictor:
    # class A: precision 1/2, recall 1 -> F1 2/3 (support 2)
    # class B: F1 0 (support 2) -> weighted 1/3
    bb = np.array([[0.9, 0.1], [0.2, 0.8], [0.7, 0.3], [0.1, 0.9]])
    wb = np.array([[1.0, 0.0]] * 4)
    assert topk_f1(bb, wb, 1) == pytest.approx(1.0 / 3.0, abs=1e-12)


def _oracle_weighted_f1(y_true, y_pred, p):
    total = len(y_true)
    out = 0.0
    for c in range(p):
        tp = sum(1 for t, q in zip(y_true, y_pred) if t == c and q == c)
        fp = sum(1 for t, q in zip(y_true, y_pred) if t != c and q == c)
        fn = sum(1 for t, q in zip(y_true, y_pred) if t == c and q != c)
        support = tp + fn
        if support == 0:
            continue
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        out += f1 * support / total
    return out


def test_topk_f1_matches_confusion_matrix_oracle():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(5, 60))
        p = int(rng.integers(2, 6))
        bb = rng.random((n, p))
        wb = rng.random((n, p))
        for k in range(1, p + 1):
            y_true = rank_labels(bb, k).tolist()
            y_pred = rank_labels(wb, k).tolist()
            want = _oracle_weighted_f1(y_true, y_pred, p)
            assert topk_f1(bb, wb, k) == pytest.approx(want, abs=1e-12)


def test_topk_f1_shape_mismatch():
    with pytest.raises(InputError):
        topk_f1(np.zeros((3, 2)), np.zeros((4, 2)), 1)


def test_elbow_frozen_curves():
    curve = [(k, 100.0 / k) for k in range(1, 11)]
    assert elbow(curve) == 3
    assert elbow([(1, 100.0), (2, 10.0), (3, 5.0), (4, 4.0), (5, 3.5), (6, 3.2)]) == 2


def test_elbow_degenerate_inputs():
    line = [(k, 10.0 - k) for k in range(1, 8)]
    assert elbow(line) is None
    flat = [(1, 5.0), (2, 5.0), (3, 5.0)]
    assert elbow(flat) is None
    with pytest.raises(InputError):
        elbow([(1, 3.0), (2, 1.0)])
    with pytest.raises(InputError):
        elbow([(2, 3.0), (2, 1.0), (3, 0.5)])


def test_pairwise_cosines_frozen():
    rows = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 3.0], [0.0, 0.0]])
    got = pairwise_cosines(rows)
    # zero row dropped; pairs: (e1, e2) -> 0, (e1, diag) and (e2, diag)
    assert got == pytest.approx([0.0, np.sqrt(0.5), np.sqrt(0.5)], abs=1e-12)


def test_diversity_bounds():
    orth = [
        WhiteBoxModel(np.array([[1.0, 0.0]]), np.zeros(1), 0.0),
        WhiteBoxModel(np.array([[0.0, 1.0]]), np.zeros(1), 0.0),
    ]
    assert diversity(orth) == pytest.approx(1.0, abs=1e-12)
    same = [
        WhiteBoxModel(np.array([[2.0, 1.0]]), np.zeros(1), 0.0),
        WhiteBoxModel(np.array([[4.0, 2.0]]), np.zeros(1), 0.0),
    ]
    assert diversity(same) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(InputError):
        diversity([orth[0]])
    zeros = [
        WhiteBoxModel(np.zeros((1, 2)), np.zeros(1), 0.0),
        WhiteBoxModel(np.zeros((1, 2)), np.zeros(1), 0.0),
    ]
    with pytest.raises(InputError):
        diversity(zeros)


def test_local_fits_beat_global_at_lambda_zero():
    rng = np.random.default_rng(1)
    enc = numeric_enc(rng.random((15, 2)))
    bb = random_linear_bb(rng, enc, scale=3.0)
    ns = label(build(enc, z=10, n_synth=20, seed=0), bb)
    _, global_loss = fit_global_wb(ns, 0.0)
    local_loss = fit_local_wb(ns, 0.0)
    assert local_loss <= global_loss * (1.0 + 1e-9)


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_local_wb_equals_per_object_fits_exactly(lam):
    rng = np.random.default_rng(4)
    enc = numeric_enc(rng.random((12, 3)))
    bb = random_linear_bb(rng, enc, scale=2.0)
    ns = label(build(enc, z=10, n_synth=8, seed=3), bb)
    total = fit_local_wb(ns, lam)
    expected_total = 0.0
    for i in range(enc.n):
        member = np.asarray([i], dtype=np.int64)
        expected_total += subgroup_loss(ns, member, fit_on_neighborhoods(ns, member, lam))
    assert total == expected_total


def test_partition_scores_scatter():
    rng = np.random.default_rng(2)
    enc = numeric_enc(rng.random((20, 2)))
    bb = random_linear_bb(rng, enc, scale=2.0)
    partition = splitter.run(enc, bb, K=3, z=10, n_synth=15, lam=1.0, seed=1)
    scores = partition_scores(partition, enc.values)
    assert scores.shape == (20, 2)
    from sd4x.whitebox import predict

    for sg in partition.subgroups:
        assert np.allclose(
            scores[sg.members], predict(sg.model, enc.values[sg.members])
        )


def test_build_report_and_markdown():
    rng = np.random.default_rng(3)
    enc = numeric_enc(rng.random((25, 2)))
    bb = random_linear_bb(rng, enc, scale=2.0)
    ns = label(build(enc, z=10, n_synth=15, seed=2), bb)
    partition = splitter.run(enc, K=3, lam=1.0, ns=ns)
    curve = [(1, partition.root_loss)] + [
        (t.iteration + 1, t.loss_after) for t in partition.trace
    ]
    report = build_report(partition, ns, enc.values, 1.0, curve=curve if len(curve) >= 3 else None)
    assert set(report["mse"]) == {"splitsd4x", "global_wb", "local_wb"}
    assert report["n_objects"] == 25
    assert report["mse"]["splitsd4x"] == pytest.approx(partition.global_loss / 25)
    assert "1" in report["f1"] and "3" not in report["f1"]
    md = render_report_md(report)
    assert "| splitsd4x |" in md
    assert "Explained objects: 25" in md


def test_write_curve_csv_round_trip(tmp_path):
    path = str(tmp_path / "curve.csv")
    write_curve_csv(path, [(1, 10.0), (2, 2.5)])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["K", "loss"]
    assert rows[1] == ["1", "10.0"]
    assert rows[2] == ["2", "2.5"]
