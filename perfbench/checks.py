"""Correctness checks run after every operation, outside the timed region.

Each function returns the names of the checks that failed; an empty
list means the operation's output is correct.
"""
from __future__ import annotations

import numpy as np

from sd4x import splitter, whitebox
from sd4x.errors import SD4XError

# Stored and recomputed losses come from the same arrays through the
# same code, so they agree to rounding; this only absorbs BLAS ordering.
_LOSS_RTOL = 1e-9


def _loss_matches(stored: float, recomputed: float) -> bool:
    return abs(stored - recomputed) <= _LOSS_RTOL * max(1.0, abs(stored))


def _non_increasing(root_loss: float, losses: list[float]) -> bool:
    seq = [root_loss] + list(losses)
    return all(b <= a for a, b in zip(seq, seq[1:]))


def partition_checks(partition, enc, ns, K: int) -> list[str]:
    """Invariants of an in-memory ``Partition`` on its neighborhoods."""
    failed = []
    try:
        splitter.validate_partition(partition, enc, K)
    except SD4XError:
        failed.append("validate_partition")
    if not all(
        _loss_matches(sg.loss, whitebox.subgroup_loss(ns, sg.members, sg.model))
        for sg in partition.subgroups
    ):
        failed.append("stored_loss")
    if not _non_increasing(partition.root_loss, [t.loss_after for t in partition.trace]):
        failed.append("loss_after_non_increasing")
    return failed


def dump_checks(dump: dict, enc, ns, K: int) -> list[str]:
    """The same invariants on a ``partition.json`` dump, minus the patterns."""
    failed = []
    subs = dump["subgroups"]
    members = [np.asarray(sd["members"], dtype=np.int64) for sd in subs]
    seen = np.sort(np.concatenate(members)) if members else np.empty(0, np.int64)
    if len(subs) > K or not np.array_equal(seen, np.arange(enc.n)):
        failed.append("cover_and_budget")
    for sd, mem in zip(subs, members):
        model_d = sd["model"]
        model = whitebox.WhiteBoxModel(
            coefficients=np.asarray(model_d["coefficients"], dtype=np.float64),
            intercepts=np.asarray(model_d["intercepts"], dtype=np.float64),
            lam=float(model_d["lambda"]),
        )
        if not _loss_matches(float(sd["loss"]), whitebox.subgroup_loss(ns, mem, model)):
            failed.append("stored_loss")
            break
    if not _non_increasing(
        float(dump["root_loss"]), [float(t["loss_after"]) for t in dump["trace"]]
    ):
        failed.append("loss_after_non_increasing")
    return failed


def ordering_checks(report: dict) -> list[str]:
    """Global baseline >= partition >= per-object baseline, in MSE."""
    m = report["mse"]
    if not m["global_wb"] >= m["splitsd4x"] >= m["local_wb"]:
        return ["global_ge_partition_ge_local"]
    return []
