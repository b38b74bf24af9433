"""Fidelity metrics, baselines, and report assembly.

Three surrogates are compared on the same neighborhoods: the greedy
partition's per-subgroup models, one global model fitted on all
neighborhoods pooled, and one local model per explained object.  All
of them are scored with the same mean squared error over black-box
probability vectors, plus a top-k agreement F1 that asks whether the
surrogate ranks classes the way the black box does.
"""
from __future__ import annotations

import csv

import numpy as np

from . import kernels
from .errors import InputError
from .neighborhood import NeighborhoodSet
from .splitter import Partition
from .whitebox import (
    WhiteBoxModel,
    fit_on_neighborhoods,
    neighborhood_grams,
    predict,
    subgroup_loss,
)


def mse(loss: float, n_objects: int) -> float:
    """Partition loss normalized by the number of explained objects."""
    if n_objects < 1:
        raise InputError("mse needs at least one explained object")
    return float(loss) / float(n_objects)


def fit_global_wb(ns: NeighborhoodSet, lam: float) -> tuple[WhiteBoxModel, float]:
    """One model on all neighborhoods pooled; returns (model, loss)."""
    members = np.arange(ns.n_objects, dtype=np.int64)
    model = fit_on_neighborhoods(ns, members, lam)
    return model, subgroup_loss(ns, members, model)


def fit_local_wb(ns: NeighborhoodSet, lam: float) -> float:
    """Total loss of one model per explained object.

    All objects are solved in one batched call, and their losses come
    from one :func:`kernels.residual_sse` call on the same Gram pieces;
    each loss equals what ``fit_on_neighborhoods`` and ``subgroup_loss``
    give for that object alone.  The per-object losses are added in
    object order.
    """
    G_all, C_all, yy_all = neighborhood_grams(ns)
    B, _ = kernels.solve_stack(G_all, C_all, lam, G_all.shape[1] - 1)
    total = 0.0
    for sse in kernels.residual_sse(G_all, C_all, yy_all, B):
        total += float(sse)
    return total


def partition_scores(partition: Partition, values: np.ndarray) -> np.ndarray:
    """Surrogate scores of each explained object under its own subgroup model."""
    n = values.shape[0]
    p = partition.subgroups[0].model.intercepts.size
    out = np.zeros((n, p))
    for sg in partition.subgroups:
        out[sg.members] = predict(sg.model, values[sg.members])
    return out


def rank_labels(probs: np.ndarray, k: int) -> np.ndarray:
    """Index of the class each row ranks at position k (1-based)."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise InputError("expected a 2-D score matrix")
    if not 1 <= k <= probs.shape[1]:
        raise InputError(f"rank k={k} outside 1..{probs.shape[1]}")
    order = np.argsort(-probs, axis=1, kind="stable")
    return order[:, k - 1]


def topk_f1(bb_probs: np.ndarray, wb_scores: np.ndarray, k: int) -> float:
    """Weighted F1 between the black box's and the surrogate's rank-k classes.

    Class supports come from the black-box side; classes the black box
    never ranks at position k carry zero weight, and empty precision or
    recall denominators score zero rather than raising.
    """
    bb_probs = np.asarray(bb_probs, dtype=np.float64)
    wb_scores = np.asarray(wb_scores, dtype=np.float64)
    if bb_probs.shape != wb_scores.shape:
        raise InputError("score matrices must have identical shapes")
    y_true = rank_labels(bb_probs, k)
    y_pred = rank_labels(wb_scores, k)
    p = bb_probs.shape[1]
    total = y_true.size
    score = 0.0
    for c in range(p):
        support = int(np.sum(y_true == c))
        if support == 0:
            continue
        tp = int(np.sum((y_true == c) & (y_pred == c)))
        fp = int(np.sum((y_true != c) & (y_pred == c)))
        fn = support - tp
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        score += f1 * support / total
    return float(score)


def elbow(curve: list[tuple[int, float]]) -> int | None:
    """Knee of a loss-versus-K curve; None when the curve has no knee.

    Normalizes both axes to [0, 1], flips the decreasing loss axis, and
    looks at the difference between the flipped curve and the diagonal.
    The first local maximum of that difference whose height is not
    recovered before the difference drops below a sensitivity threshold
    is the knee.
    """
    if len(curve) < 3:
        raise InputError("an elbow needs at least three curve points")
    ks = np.asarray([k for k, _ in curve], dtype=np.float64)
    ys = np.asarray([v for _, v in curve], dtype=np.float64)
    if not np.all(np.diff(ks) > 0):
        raise InputError("curve K values must be strictly increasing")
    span_x = ks[-1] - ks[0]
    span_y = ys.max() - ys.min()
    if span_y <= 0.0:
        return None
    x_n = (ks - ks[0]) / span_x
    y_n = (ys - ys.min()) / span_y
    d = (1.0 - y_n) - x_n
    step = float(np.mean(np.diff(x_n)))
    knee_candidate: int | None = None
    threshold = 0.0
    for i in range(1, len(d) - 1):
        if d[i - 1] < d[i] and d[i] > d[i + 1]:
            knee_candidate = i
            threshold = d[i] - step
        elif knee_candidate is not None and d[i] < threshold:
            return int(ks[knee_candidate])
    if knee_candidate is not None and d[-1] < threshold:
        return int(ks[knee_candidate])
    return None


def pairwise_cosines(rows: np.ndarray) -> np.ndarray:
    """|cosine| of every pair of nonzero rows, in pair order (i < j)."""
    rows = np.asarray(rows, dtype=np.float64)
    norms = np.linalg.norm(rows, axis=1)
    keep = rows[norms > 0]
    kn = norms[norms > 0]
    out = []
    for i in range(keep.shape[0]):
        for j in range(i + 1, keep.shape[0]):
            out.append(abs(float(keep[i] @ keep[j])) / (kn[i] * kn[j]))
    return np.asarray(out)


def diversity(models: list[WhiteBoxModel], class_index: int = 0) -> float:
    """1 minus the mean pairwise |cosine| of one class's coefficient rows."""
    if len(models) < 2:
        raise InputError("diversity needs at least two models")
    rows = np.stack([m.coefficients[class_index] for m in models])
    cos = pairwise_cosines(rows)
    if cos.size == 0:
        raise InputError("diversity needs at least two models with nonzero coefficients")
    return float(1.0 - cos.mean())


@kernels.one_blas_thread()
def build_report(
    partition: Partition,
    ns: NeighborhoodSet,
    values: np.ndarray,
    lam: float,
    curve: list[tuple[int, float]] | None = None,
) -> dict:
    if ns.object_outputs is None:
        raise InputError("neighborhoods are missing cached black-box outputs")
    n = ns.n_objects
    global_model, global_total = fit_global_wb(ns, lam)
    local_total = fit_local_wb(ns, lam)
    bb_probs = ns.object_outputs
    scores = partition_scores(partition, values)
    p = bb_probs.shape[1]
    f1 = {str(k): topk_f1(bb_probs, scores, k) for k in (1, 2, 3) if k <= p}
    report = {
        "n_objects": n,
        "k": len(partition.subgroups),
        "mse": {
            "splitsd4x": mse(partition.global_loss, n),
            "global_wb": mse(global_total, n),
            "local_wb": mse(local_total, n),
        },
        "f1": f1,
        "subgroup_sizes": [int(sg.members.size) for sg in partition.subgroups],
    }
    if len(partition.subgroups) >= 2:
        try:
            report["diversity"] = diversity([sg.model for sg in partition.subgroups])
        except InputError:
            report["diversity"] = None
    if curve is not None and len(curve) >= 3:
        report["elbow"] = elbow(curve)
    return report


def render_report_md(report: dict) -> str:
    lines = [
        "# Fidelity report",
        "",
        f"Explained objects: {report['n_objects']}",
        f"Subgroups: {report['k']} (sizes {report['subgroup_sizes']})",
        "",
        "| surrogate | mse |",
        "| --- | --- |",
    ]
    for name in ("splitsd4x", "global_wb", "local_wb"):
        lines.append(f"| {name} | {report['mse'][name]:.6g} |")
    lines.append("")
    if report.get("f1"):
        lines.append("| rank | weighted F1 |")
        lines.append("| --- | --- |")
        for k in sorted(report["f1"], key=int):
            lines.append(f"| {k} | {report['f1'][k]:.6g} |")
        lines.append("")
    if "diversity" in report:
        lines.append(f"Coefficient diversity: {report['diversity']}")
    if "elbow" in report:
        lines.append(f"Suggested K from the loss curve: {report['elbow']}")
    lines.append("")
    return "\n".join(lines)


def write_curve_csv(path: str, curve: list[tuple[int, float]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["K", "loss"])
        for k, loss in curve:
            writer.writerow([k, repr(float(loss))])
